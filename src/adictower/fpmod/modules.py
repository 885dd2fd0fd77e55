"""Finitely presented modules over a Euclidean domain.

A module is its presentation: a relations matrix whose columns are the
relations, one row per generator.  Modules and the morphisms between them
are values: slotted classes, immutable by convention, so two modules with
equal relations (two morphisms with equal endpoints and matrices) are
equal and hash alike, and a result memoised for one serves the other.
Normalization brings a presentation to invariant-factor form through the
row side of a Smith decomposition of the relations (the diagonal, P and
P's inverse; never Q); the change-of-coordinates matrices are kept so
elements and morphisms can be moved between a module and its normal form
exactly.  A one-generator module, such as a tower level, a hom or tensor
module of two levels or a truncated-limit carrier, reads its normal form
off the one diagonal entry of a one-row sweep: free when it is zero or
missing, the zero module when it is a unit and cyclic torsion otherwise,
with P and P's inverse as the maps to and from it.

The normal form is the one record of a module's Smith data, memoised by
module for the length of a :func:`adictower.memo.memo_scope`: its order,
whether it is zero, its annihilator and its isomorphism class read the
invariant factors and the rank, and membership (:func:`element_keys`,
and through it :func:`adictower.fpmod.morphisms.vanishes`) reads the
coordinates of ``to_standard``.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import List, NamedTuple, Optional, Tuple

from ..exactalg.matrices import Matrix, smith_rows
from ..exactalg.rings import Ring, RingElement
from ..memo import run_memo


class FpModule:
    """Module presented by a matrix of relation columns, one row per
    generator; equal relations make equal modules.  Immutable, so the
    hash of the relations is taken once, at construction."""

    __slots__ = ("ring", "generators", "relations", "_hash")

    def __init__(self, relations: Matrix):
        self.ring = relations.ring
        self.generators = relations.rows
        self.relations = relations
        self._hash = hash((relations.ring, relations.ring.hash_key(relations.entries)))

    def __eq__(self, other):
        if not isinstance(other, FpModule):
            return NotImplemented
        return self is other or (
            self._hash == other._hash and self.relations == other.relations
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FpModule(gens={self.generators}, rels={self.relations.cols})"


class ModuleMorphism:
    """Morphism determined by generator images, the columns of ``matrix``;
    equal endpoints and matrices make equal morphisms.  Immutable by
    convention, like :class:`FpModule`, so its hash is taken once, on
    the first memo lookup that needs it."""

    __slots__ = ("source", "target", "matrix", "_hash")

    def __init__(self, source: FpModule, target: FpModule, matrix: Matrix):
        if matrix.rows != target.generators:
            raise ValueError("morphism matrix has wrong number of rows")
        if matrix.cols != source.generators:
            raise ValueError("morphism matrix has wrong number of columns")
        if matrix.ring != source.ring or source.ring != target.ring:
            raise ValueError("morphism endpoints over different rings")
        self.source = source
        self.target = target
        self.matrix = matrix
        self._hash = None

    def __eq__(self, other):
        if other.__class__ is not ModuleMorphism:
            return NotImplemented
        return (self.source, self.target, self.matrix) == (
            other.source,
            other.target,
            other.matrix,
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target, self.matrix))
        return self._hash

    def __repr__(self):
        return (
            f"ModuleMorphism(source={self.source!r}, target={self.target!r}, "
            f"matrix={self.matrix!r})"
        )

    @property
    def ring(self) -> Ring:
        return self.source.ring


class Normalization(NamedTuple):
    """Invariant-factor data of a presentation.

    ``factors`` are the non-unit nonzero invariant factors in divisibility
    order, ``rank`` the number of free generators.  ``to_standard`` (module
    to ``standard``) and ``from_standard`` (``standard`` to module) are the
    matrices of mutually inverse isomorphisms, up to the relations, between
    the module and ``standard`` (torsion generators first, then free).
    """

    factors: Tuple[RingElement, ...]
    rank: int
    standard: FpModule
    to_standard: Matrix
    from_standard: Matrix


def free_module(ring: Ring, n: int) -> FpModule:
    return FpModule(Matrix.zeros(ring, n, 0))


def cyclic_module(ring: Ring, d) -> FpModule:
    return FpModule(Matrix.from_rows(ring, [[d]]))


def normalize(module: FpModule) -> Normalization:
    """Invariant-factor form of a module, with the maps to and from it."""
    return run_memo(_compute_normal_form, module)


def _split_diagonal(ring: Ring, diag, generators: int) -> Tuple[List[int], List[int]]:
    """Generator indices of the torsion (non-unit nonzero) and the free
    (zero or missing) entries of a Smith diagonal."""
    torsion: List[int] = []
    free: List[int] = []
    for i in range(generators):
        d = diag[i] if i < len(diag) else ring.zero
        if d == ring.zero:
            free.append(i)
        elif not ring.is_unit(d):
            torsion.append(i)
    return torsion, free


def _compute_normal_form(module: FpModule) -> Normalization:
    ring = module.ring
    diag, p, p_inv = smith_rows(module.relations)
    if module.generators == 1:
        # a cyclic module: its one diagonal entry, if any, is the whole
        # normal form, and P and P^-1 are already the maps to and from it
        d = diag[0] if diag else ring.zero
        if ring.is_unit(d):
            zero_module = run_memo(FpModule, Matrix(ring, 0, 0, ()))
            return Normalization(
                (), 0, zero_module, Matrix(ring, 0, 1, ()), Matrix(ring, 1, 0, ((),))
            )
        factors = (d,) if d != ring.zero else ()
        standard = run_memo(FpModule, Matrix(ring, 1, len(factors), (factors,)))
        return Normalization(factors, 1 - len(factors), standard, p, p_inv)
    torsion_idx, free_idx = _split_diagonal(ring, diag, module.generators)
    kept = torsion_idx + free_idx
    factors = tuple(diag[i] for i in torsion_idx)
    rank = len(free_idx)
    std_rel = Matrix.diagonal(ring, factors + (ring.zero,) * rank).columns(
        range(len(factors))
    )
    # normal forms of a run share a few dozen standard modules
    standard = run_memo(FpModule, std_rel)
    return Normalization(factors, rank, standard, p.rows_at(kept), p_inv.columns(kept))


def module_order(module: FpModule) -> Optional[int]:
    """Number of elements, or None for modules with free part."""
    norm = normalize(module)
    if norm.rank > 0:
        return None
    count = 1
    for f in norm.factors:
        count *= module.ring.residue_count(f)
    return count


def is_zero_module(module: FpModule) -> bool:
    return normalize(module).standard.generators == 0


def annihilator_generator(module: FpModule) -> RingElement:
    """Canonical generator of Ann(M); 0 with free part, 1 for the zero module."""
    norm = normalize(module)
    if norm.rank > 0:
        return module.ring.zero
    if not norm.factors:
        return module.ring.one
    return norm.factors[-1]


def element_keys(module: FpModule, columns: Matrix) -> List[tuple]:
    """Canonical coordinates of the elements given by ``columns``, one key
    per column; equal classes get equal keys.  One ``to_standard`` product
    serves every column."""
    ring = module.ring
    norm = normalize(module)
    coords = norm.to_standard @ columns
    if not coords.rows:
        return [()] * columns.cols
    reduced = [
        [ring.rem(v, norm.factors[i]) for v in row] if i < len(norm.factors) else row
        for i, row in enumerate(coords.entries)
    ]
    return list(zip(*reduced))


class Elements(Sequence):
    """The elements of a finite module, the columns of one matrix.

    Indexing gives a column as a one-column ``Matrix`` and slicing gives
    the elements it keeps; a batch reads ``matrix`` whole, so no column is
    built unless someone asks for it."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        self.matrix = matrix

    def __len__(self) -> int:
        return self.matrix.cols

    def __getitem__(self, index):
        picked = range(self.matrix.cols)[index]
        if isinstance(index, slice):
            return Elements(self.matrix.columns(picked))
        return self.matrix.column_at(picked)


def module_elements(module: FpModule, bound: int) -> Optional[Elements]:
    """All elements, one column per class, or None when the module is
    infinite or larger than ``bound``.

    The residue combinations of the normal form are moved to the module
    with one ``from_standard`` product over all of them, and the product
    is the enumeration: its columns are the elements."""
    ring = module.ring
    order = module_order(module)
    if order is None or order > bound:
        return None
    norm = normalize(module)
    combos = itertools.product(*[list(ring.residues(f)) for f in norm.factors])
    coords = Matrix(ring, len(norm.factors), order, tuple(zip(*combos)))
    return Elements(norm.from_standard @ coords)


def direct_sum(modules) -> Tuple[FpModule, List[ModuleMorphism], List[ModuleMorphism]]:
    """Finite direct sum with injections and projections (block layout)."""
    mods = list(modules)
    if not mods:
        raise ValueError("direct sum of no modules needs an explicit ring")
    ring = mods[0].ring
    total = sum(m.generators for m in mods)
    total_rels = sum(m.relations.cols for m in mods)
    rows = [[ring.zero] * total_rels for _ in range(total)]
    goff = 0
    roff = 0
    offsets = []
    for m in mods:
        offsets.append(goff)
        for i in range(m.generators):
            for j in range(m.relations.cols):
                rows[goff + i][roff + j] = m.relations.entries[i][j]
        goff += m.generators
        roff += m.relations.cols
    summed = FpModule(Matrix(ring, total, total_rels, tuple(tuple(r) for r in rows)))
    unit = Matrix.identity(ring, total)
    injections = []
    projections = []
    for off, m in zip(offsets, mods):
        end = off + m.generators
        injections.append(ModuleMorphism(m, summed, unit.columns(range(off, end))))
        projections.append(ModuleMorphism(summed, m, unit.row_slice(off, end)))
    return summed, injections, projections
