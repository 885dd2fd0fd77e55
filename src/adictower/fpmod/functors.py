"""Hom and tensor constructions on finitely presented modules.

Both functors land back in finitely presented modules with explicit
presentations.  The hom module carries an encoder/decoder pair between its
elements and actual morphisms; the tensor module indexes generator pairs
so that the pure tensor x (x) y is the column ``kronecker(x, y)``.  A map
induced on hom modules encodes the images of all basis morphisms in one
batch, each image's standard block an outer product read off two matrix
products, and tensored maps are Kronecker products, so both stay
consistent with the presentations by construction.

Hom modules, tensor modules and the maps induced on hom modules are
memoised by their arguments for the length of a
:func:`adictower.memo.memo_scope`.  Modules and maps compare by value, so
a later caller with equal modules gets the stored object, whose
``source`` and ``target`` (for a hom module) are equal to its own.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Sequence

from ..exactalg.matrices import Matrix, hstack, kronecker
from ..memo import run_memo
from .modules import FpModule, ModuleMorphism, normalize


class _HomBasisEntry(NamedTuple):
    source_index: int
    target_index: int
    scale: object
    annihilator: object


class HomModule:
    """Hom(M, N) presented on a basis of elementary morphisms.

    Between standard-form generators R/(d) -> R/(e) the morphisms are
    multiples of 1 -> e/gcd(d, e), with coefficient well defined modulo
    gcd(d, e); free-to-free components are a full copy of R.  ``decode``
    turns a coefficient column into a ModuleMorphism, ``encode`` inverts it
    (and raises on matrices that do not define a morphism).

    Encoding runs in two steps that also serve whole batches: a morphism
    matrix is moved to the standard forms of source and target
    (:meth:`standard_blocks`), and each entry of that block is divided by
    its basis scale and reduced modulo its annihilator
    (:meth:`encode_standard`).  ``encode`` is the batch of one.  The
    exhaustive oracles of the verifier build the standard blocks of a whole
    enumeration in a few matrix products and encode them in one call.
    """

    __slots__ = ("source", "target", "ring", "_ns", "_nt", "basis", "_grid", "module")

    def __init__(self, source: FpModule, target: FpModule):
        ring = source.ring
        if target.ring != ring:
            raise ValueError("hom of modules over different rings")
        self.source = source
        self.target = target
        self.ring = ring
        ns, nt = normalize(source), normalize(target)
        self._ns, self._nt = ns, nt
        basis: List[_HomBasisEntry] = []
        # one tag per generator pair (i, j), row-major
        grid = []
        for i in range(ns.standard.generators):
            d = ns.factors[i] if i < len(ns.factors) else None
            for j in range(nt.standard.generators):
                e = nt.factors[j] if j < len(nt.factors) else None
                if e is None:
                    if d is None:
                        grid.append(("basis", len(basis)))
                        basis.append(_HomBasisEntry(i, j, ring.one, ring.zero))
                    else:
                        grid.append(("zero",))
                    continue
                dd = d if d is not None else ring.zero
                g = ring.gcd(dd, e)
                scale = ring.div(e, g)
                if ring.is_unit(g):
                    grid.append(("divisible", scale))
                else:
                    grid.append(("basis", len(basis)))
                    basis.append(_HomBasisEntry(i, j, scale, g))
        self.basis = tuple(basis)
        self._grid = tuple(grid)
        anns = [b.annihilator for b in basis]
        rel = Matrix.diagonal(ring, anns)
        if ring.zero in anns:
            # free components carry no relation column
            rel = rel.columns([t for t, a in enumerate(anns) if a != ring.zero])
        self.module = FpModule(rel)

    def decode(self, column: Matrix) -> ModuleMorphism:
        """Morphism represented by a coefficient column of the hom module."""
        if column.rows != self.module.generators or column.cols != 1:
            raise ValueError("hom coefficient column has wrong shape")
        ring = self.ring
        ns, nt = self._ns, self._nt
        std = [
            [ring.zero] * ns.standard.generators
            for _ in range(nt.standard.generators)
        ]
        for t, b in enumerate(self.basis):
            std[b.target_index][b.source_index] = ring.mul(
                column.entries[t][0], b.scale
            )
        std_mat = Matrix(
            ring,
            nt.standard.generators,
            ns.standard.generators,
            tuple(tuple(row) for row in std),
        )
        mat = nt.from_standard @ std_mat @ ns.to_standard
        return ModuleMorphism(self.source, self.target, mat)

    def encode(self, f: ModuleMorphism) -> Matrix:
        """Coefficient column of a morphism; inverse of decode up to the hom
        module relations."""
        if f.source != self.source or f.target != self.target:
            raise ValueError("encoding a morphism with different endpoints")
        return self.encode_standard(self.standard_blocks([f.matrix]))

    def standard_blocks(self, matrices: Sequence[Matrix]) -> List[tuple]:
        """The morphism matrices moved to the standard forms, ``L M R`` with
        ``L`` the target's ``to_standard`` and ``R`` the source's
        ``from_standard`` matrix, as the entry tuples of one block each."""
        left = self._nt.to_standard
        right = self._ns.from_standard
        return [(left @ m @ right).entries for m in matrices]

    def encode_standard(self, blocks: Iterable[tuple]) -> Matrix:
        """Coefficient columns, side by side, of the morphisms between the
        standard forms whose matrices have the entry tuples ``blocks`` (see
        :meth:`standard_blocks`); raises ``ValueError`` on a block that does
        not define a morphism."""
        ring = self.ring
        ns, nt = self._ns.standard.generators, self._nt.standard.generators
        rows = [[] for _ in self.basis]
        count = 0
        for std in blocks:
            for i in range(ns):
                for j in range(nt):
                    entry = std[j][i]
                    tag = self._grid[i * nt + j]
                    if tag[0] == "basis":
                        b = self.basis[tag[1]]
                        c = ring.try_div(entry, b.scale)
                        if c is None:
                            raise ValueError("matrix does not define a morphism")
                        if b.annihilator != ring.zero:
                            c = ring.rem(c, b.annihilator)
                        rows[tag[1]].append(c)
                    elif tag[0] == "zero":
                        if entry != ring.zero:
                            raise ValueError("matrix does not define a morphism")
                    else:
                        if ring.try_div(entry, tag[1]) is None:
                            raise ValueError("matrix does not define a morphism")
            count += 1
        return Matrix(ring, len(rows), count, tuple(map(tuple, rows)))

    def basis_morphism(self, t: int) -> ModuleMorphism:
        unit = Matrix.identity(self.ring, self.module.generators)
        return self.decode(unit.column_at(t))


def hom_module(source: FpModule, target: FpModule) -> HomModule:
    """Hom(source, target)."""
    return run_memo(HomModule, source, target)


def induced_hom(f: ModuleMorphism, other: FpModule, variance: str) -> ModuleMorphism:
    """Map between hom modules induced by f.

    variance "pre":  Hom(f.target, other) -> Hom(f.source, other), phi -> phi o f
    variance "post": Hom(other, f.source) -> Hom(other, f.target), phi -> f o phi
    """
    return run_memo(_compute_induced_hom, f, other, variance)


def _compute_induced_hom(
    f: ModuleMorphism, other: FpModule, variance: str
) -> ModuleMorphism:
    # Basis morphism t of the source hom is F (scale_t E_t) G, with F its
    # target's from_standard and G its source's to_standard matrix, and E_t
    # the unit at (target_index, source_index).  The destination encodes
    # the standard block L (phi o f) R or L (f o phi) R, which is then
    # scale_t times the outer product of a column of ``left`` and a row of
    # ``right``: two products serve the whole basis.
    if variance == "pre":
        src_hom = hom_module(f.target, other)
        dst_hom = hom_module(f.source, other)
        left = dst_hom._nt.to_standard @ src_hom._nt.from_standard
        right = src_hom._ns.to_standard @ f.matrix @ dst_hom._ns.from_standard
    elif variance == "post":
        src_hom = hom_module(other, f.source)
        dst_hom = hom_module(other, f.target)
        left = dst_hom._nt.to_standard @ f.matrix @ src_hom._nt.from_standard
        right = src_hom._ns.to_standard @ dst_hom._ns.from_standard
    else:
        raise ValueError(f"unknown variance {variance!r}")
    mul = f.ring.mul
    blocks = []
    for b in src_hom.basis:
        column = [mul(b.scale, row[b.target_index]) for row in left.entries]
        row = right.entries[b.source_index]
        blocks.append(tuple(tuple(mul(c, v) for v in row) for c in column))
    mat = dst_hom.encode_standard(blocks)
    return ModuleMorphism(src_hom.module, dst_hom.module, mat)


def tensor_module(left: FpModule, right: FpModule) -> FpModule:
    """M (x) N on generator pairs, index (i, j) -> i * N.generators + j."""
    return run_memo(_compute_tensor_module, left, right)


def _compute_tensor_module(left: FpModule, right: FpModule) -> FpModule:
    ring = left.ring
    if right.ring != ring:
        raise ValueError("tensor of modules over different rings")
    left_block = kronecker(left.relations, Matrix.identity(ring, right.generators))
    right_block = kronecker(Matrix.identity(ring, left.generators), right.relations)
    if left_block.cols or right_block.cols:
        return FpModule(hstack([left_block, right_block]))
    return FpModule(Matrix.zeros(ring, left.generators * right.generators, 0))


def tensor_map_left(f: ModuleMorphism, other: FpModule) -> ModuleMorphism:
    """f (x) id: tensor_module(f.source, other) -> tensor_module(f.target, other)."""
    src = tensor_module(f.source, other)
    dst = tensor_module(f.target, other)
    mat = kronecker(f.matrix, Matrix.identity(f.ring, other.generators))
    return ModuleMorphism(src, dst, mat)


def tensor_map_right(other: FpModule, f: ModuleMorphism) -> ModuleMorphism:
    """id (x) f: tensor_module(other, f.source) -> tensor_module(other, f.target)."""
    src = tensor_module(other, f.source)
    dst = tensor_module(other, f.target)
    mat = kronecker(Matrix.identity(f.ring, other.generators), f.matrix)
    return ModuleMorphism(src, dst, mat)
