"""Hom and tensor constructions on finitely presented modules.

Both functors land back in finitely presented modules with explicit
presentations.  The hom module carries an encoder/decoder pair between its
elements and actual morphisms; the tensor module indexes generator pairs
so that the pure tensor x (x) y is the column ``kronecker(x, y)``.

One encoder serves every caller: :meth:`HomModule.encode_cells` takes the
cells of a whole batch of morphisms in standard form, one row per cell of
the generator grid and one column per morphism, and makes one list pass
per cell.  ``encode`` is the batch of one.  A map induced on hom modules
writes the cells of all basis images at once, each image's standard block
an outer product read off two matrix products, so it stays consistent
with the presentations by construction.  The tensor module's relations
are Kronecker products with identities; only the test oracles build
tensor modules.

Hom modules, tensor modules and the maps induced on hom modules are
memoised by their arguments for the length of a
:func:`adictower.memo.memo_scope`.  Modules and maps compare by value, so
a later caller with equal modules gets the stored object, whose
``source`` and ``target`` (for a hom module) are equal to its own.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

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

    Encoding works on the cells of the grid of standard generator pairs.
    A morphism matrix M moved to the standard forms, ``L M R`` with ``L``
    the target's ``to_standard`` and ``R`` the source's ``from_standard``
    matrix, has its entry (j, i) in cell (i, j); a cell matrix holds one
    row per cell, in grid order (row ``i * nt + j``), and one column per
    morphism of a batch (:meth:`cells`).  :meth:`encode_cells` makes one
    list pass per cell over the whole batch: it divides the row by its
    basis scale and reduces it modulo its annihilator, or checks that the
    entries a morphism must have zero or divisible are so.  ``encode`` is
    the batch of one; the maps induced on hom modules and the exhaustive
    oracles of the verifier write the cells of whole batches directly.
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
        # one (basis index or None, divisor, annihilator) per cell in grid
        # order: a basis cell divides by its scale and reduces modulo its
        # annihilator, any other cell must be divisible by its divisor
        # (zero: the entry must vanish)
        grid = []
        for i in range(ns.standard.generators):
            d = ns.factors[i] if i < len(ns.factors) else None
            for j in range(nt.standard.generators):
                e = nt.factors[j] if j < len(nt.factors) else None
                if e is None:
                    if d is None:
                        grid.append((len(basis), ring.one, ring.zero))
                        basis.append(_HomBasisEntry(i, j, ring.one, ring.zero))
                    else:
                        grid.append((None, ring.zero, None))
                    continue
                dd = d if d is not None else ring.zero
                g = ring.gcd(dd, e)
                scale = ring.div(e, g)
                if ring.is_unit(g):
                    grid.append((None, scale, None))
                else:
                    grid.append((len(basis), scale, g))
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
        if len(self._grid) == 1:
            # a 1x1 grid: the standard block is itself the one cell
            left, right = self._nt.to_standard, self._ns.from_standard
            return self.encode_cells(left @ f.matrix @ right)
        return self.encode_cells(self.cells([f.matrix]))

    def cells(self, matrices: Sequence[Matrix]) -> Matrix:
        """The cell matrix of morphism matrices between source and target:
        column b holds the cells of ``L matrices[b] R``."""
        left = self._nt.to_standard
        right = self._ns.from_standard
        return _cell_matrix(
            self.ring,
            [
                [v for column in zip(*(left @ m @ right).entries) for v in column]
                for m in matrices
            ],
            len(self._grid),
        )

    def encode_cells(self, cells: Matrix) -> Matrix:
        """Coefficient columns, side by side, of the morphisms between the
        standard forms whose cells are the columns of ``cells`` (see
        :meth:`cells`); raises ``ValueError`` on a column that does not
        define a morphism."""
        ring = self.ring
        zero, one, try_div, rem = ring.zero, ring.one, ring.try_div, ring.rem
        out = [()] * len(self.basis)
        for row, (t, divisor, ann) in zip(cells.entries, self._grid):
            if divisor != one:
                if divisor == zero:
                    if row.count(zero) != len(row):
                        raise ValueError("matrix does not define a morphism")
                    continue
                row = [try_div(v, divisor) for v in row]
                if None in row:
                    raise ValueError("matrix does not define a morphism")
            if t is not None:
                out[t] = tuple([rem(v, ann) for v in row] if ann != zero else row)
        return Matrix(ring, len(out), cells.cols, tuple(out))


def _cell_matrix(ring, images: List[list], cells: int) -> Matrix:
    """Cell matrix with one column per morphism, given each morphism's
    cells in grid order."""
    rows = tuple(zip(*images)) if images else ((),) * cells
    return Matrix(ring, cells, len(images), rows)


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
    # ``right``: two products serve the whole basis, and cell (i, j) of
    # basis morphism t is entry j of its column times entry i of its row.
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
    images = []
    for b in src_hom.basis:
        column = [mul(b.scale, entries[b.target_index]) for entries in left.entries]
        row = right.entries[b.source_index]
        images.append([mul(c, v) for v in row for c in column])
    cells = _cell_matrix(f.ring, images, left.rows * right.cols)
    mat = dst_hom.encode_cells(cells)
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
