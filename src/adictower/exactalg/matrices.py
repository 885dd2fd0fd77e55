"""Exact matrices over a Euclidean domain, with the Smith normal form.

Matrices are values: immutable by convention (a slotted class, like
:class:`adictower.fpmod.modules.FpModule`), equal and hashed by ring, shape
and entries, with entries in one of the rings from
:mod:`adictower.exactalg.rings`.  A tower's levels are cyclic, so most
products are 1x1 and many have a 1x1 identity on one side: the product
returns the other operand when one side is the 1x1 identity, multiplies
two 1x1 matrices directly and an outer product (inner dimension one)
entry by entry, and only other products take the general triple loop.

The workhorse is the Smith normal form, returned with its transforming
matrices so that callers get certificates rather than bare answers;
kernels and exact solving are read off it.  A caller pays only for the
side it reads: :func:`smith_rows` runs the same elimination and returns
the diagonal with the row transform P and its inverse, without Q, which
is all a module's normal form needs.  A cyclic module's relations are one
row, and there it sweeps the row alone (:func:`_sweep_row`): the same
pivot and column operations, so P is the 1x1 scaling of the pivot to its
canonical associate and no transform is built in lists.  The general
elimination stays the reference for every other shape and for the tests.
Everything is exact: no floating point, no coefficient growth surprises
beyond what arbitrary precision absorbs.

Within a :func:`adictower.memo.memo_scope` Smith forms are memoised by the
content of the input matrix, so one verification run computes each
distinct Smith form once; outside a scope nothing is kept.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..memo import run_memo
from .rings import Ring


class Matrix:
    """``rows`` by ``cols`` matrix over ``ring``, its rows the tuples of
    ``entries``.  Equal ring, shape and entries make equal matrices."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int, entries: tuple):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is not Matrix:
            return NotImplemented
        return (self.ring, self.rows, self.cols, self.entries) == (
            other.ring,
            other.rows,
            other.cols,
            other.entries,
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    @staticmethod
    def from_rows(ring: Ring, rows_data: Sequence[Sequence]) -> "Matrix":
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        data = []
        for row in rows_data:
            if len(row) != cols:
                raise ValueError("ragged rows in matrix literal")
            data.append(tuple(ring.canonical(v) for v in row))
        return Matrix(ring, rows, cols, tuple(data))

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "Matrix":
        return Matrix(ring, rows, cols, tuple((ring.zero,) * cols for _ in range(rows)))

    @staticmethod
    def identity(ring: Ring, n: int) -> "Matrix":
        zeros = (ring.zero,) * n
        one = (ring.one,)
        return Matrix(ring, n, n, tuple(zeros[:i] + one + zeros[i + 1 :] for i in range(n)))

    @staticmethod
    def diagonal(ring: Ring, values: Sequence) -> "Matrix":
        """Square matrix with the canonical ``values`` down the diagonal."""
        n = len(values)
        zero = ring.zero
        rows = [(zero,) * i + (v,) + (zero,) * (n - i - 1) for i, v in enumerate(values)]
        return Matrix(ring, n, n, tuple(rows))

    @staticmethod
    def column(ring: Ring, values: Sequence) -> "Matrix":
        """Column vector of the canonical ``values``."""
        return Matrix(ring, len(values), 1, tuple((v,) for v in values))

    def to_lists(self) -> List[list]:
        return [list(row) for row in self.entries]

    def is_zero(self) -> bool:
        zero = self.ring.zero
        return all(v == zero for row in self.entries for v in row)

    def add(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        r = self.ring
        return Matrix(
            self.ring,
            self.rows,
            self.cols,
            tuple(
                tuple(r.add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def sub(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        r = self.ring
        return Matrix(
            self.ring,
            self.rows,
            self.cols,
            tuple(
                tuple(r.sub(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def scale(self, factor) -> "Matrix":
        """Every entry times the canonical ``factor``."""
        r = self.ring
        return Matrix(
            self.ring,
            self.rows,
            self.cols,
            tuple(tuple(r.mul(factor, v) for v in row) for row in self.entries),
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise ValueError("matrix product over different rings")
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        r = self.ring
        # the 1x1 identity is the only identity met often (the to_standard of
        # a cyclic module in standard form, times a row of element columns)
        if self.rows == 1 == self.cols and self.entries[0][0] == r.one:
            return other
        if other.rows == 1 == other.cols:
            b = other.entries[0][0]
            if b == r.one:
                return self
            if self.rows == 1:
                return Matrix(r, 1, 1, ((r.mul(self.entries[0][0], b),),))
        zero, add, mul = r.zero, r.add, r.mul
        if self.cols == 1:
            # an outer product, such as a batch of 1x1 maps times a row of
            # element columns: each entry is one product
            right = other.entries[0]
            zeros = (zero,) * other.cols
            return Matrix(
                r,
                self.rows,
                other.cols,
                tuple(
                    tuple([zero if b == zero else mul(a, b) for b in right])
                    if a != zero
                    else zeros
                    for (a,) in self.entries
                ),
            )
        columns = tuple(zip(*other.entries)) if other.rows else ((),) * other.cols
        out = []
        for left in self.entries:
            row = []
            for col in columns:
                acc = zero
                for a, b in zip(left, col):
                    if a == zero or b == zero:
                        continue
                    acc = add(acc, mul(a, b))
                row.append(acc)
            out.append(tuple(row))
        return Matrix(r, self.rows, other.cols, tuple(out))

    def columns(self, indices: Sequence[int]) -> "Matrix":
        return Matrix(
            self.ring,
            self.rows,
            len(indices),
            tuple([tuple([row[j] for j in indices]) for row in self.entries]),
        )

    def column_at(self, j: int) -> "Matrix":
        return self.columns([j])

    def row_slice(self, start: int, stop: int) -> "Matrix":
        return Matrix(self.ring, stop - start, self.cols, self.entries[start:stop])

    def rows_at(self, indices: Sequence[int]) -> "Matrix":
        return Matrix(
            self.ring,
            len(indices),
            self.cols,
            tuple(self.entries[i] for i in indices),
        )

    def _check_shape(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise ValueError("matrices over different rings")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")

    def __repr__(self):
        fmt = self.ring.format
        body = "; ".join(
            " ".join(fmt(v) for v in row) for row in self.entries
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def hstack(matrices: Sequence[Matrix]) -> Matrix:
    mats = [m for m in matrices]
    if not mats:
        raise ValueError("hstack of no matrices")
    ring, rows = mats[0].ring, mats[0].rows
    for m in mats:
        if m.rows != rows or m.ring != ring:
            raise ValueError("hstack shape mismatch")
    entries = tuple(
        tuple(v for m in mats for v in m.entries[i]) for i in range(rows)
    )
    return Matrix(ring, rows, sum(m.cols for m in mats), entries)


def vstack(matrices: Sequence[Matrix]) -> Matrix:
    mats = [m for m in matrices]
    if not mats:
        raise ValueError("vstack of no matrices")
    ring, cols = mats[0].ring, mats[0].cols
    for m in mats:
        if m.cols != cols or m.ring != ring:
            raise ValueError("vstack shape mismatch")
    entries = tuple(row for m in mats for row in m.entries)
    return Matrix(ring, sum(m.rows for m in mats), cols, entries)


class SmithForm(NamedTuple):
    """The diagonal of D = P*A*Q as a one-row matrix (every other entry of
    D is zero) and the transforms P and Q."""

    diag: Matrix
    p: Matrix
    q: Matrix

    def diagonal(self) -> list:
        return list(self.diag.entries[0])


def _gcd_transform(ring: Ring, a, b):
    """Unimodular 2x2 block [[s, t], [-v, u]] sending (a, b) to (g, 0)."""
    g, s, t = ring.gcd_ext(a, b)
    u = ring.div(a, g)
    v = ring.div(b, g)
    return g, s, t, u, v


def smith_form(a: Matrix) -> SmithForm:
    """Smith normal form with both transforms.

    Returns (diag, P, Q) with P*A*Q = D diagonal, ``diag`` the row of its
    min(rows, cols) diagonal entries, canonical associates forming a
    divisibility chain d1 | d2 | ..., and P and Q invertible.

    Pivots are chosen as the smallest-norm nonzero entry of the remaining
    block (ties broken by position) which keeps the chain ordered and the
    run deterministic.  Inside a :func:`adictower.memo.memo_scope` a
    matrix already seen returns the same result object.
    """
    return run_memo(_compute_smith_form, a)


def smith_rows(a: Matrix) -> Tuple[tuple, Matrix, Matrix]:
    """The diagonal and P of ``smith_form(a)``, with P's inverse and no Q.

    The same elimination runs with the same pivots, so the diagonal and P
    are equal to those of :func:`smith_form`; a one-row matrix takes
    :func:`_sweep_row`, whose P is a 1x1 unit matrix.  Not memoised here:
    its caller, :func:`adictower.fpmod.modules.normalize`, is memoised by
    module, and a module is its relations matrix.  The 1x1 unit matrices
    are memoised, so the normal forms of a run share the few there are.
    """
    ring, rows = a.ring, a.rows
    if rows == 1:
        diag, unit = _sweep_row(ring, a.entries[0])
        p = run_memo(_unit_matrix, ring, ring.unit_inverse(unit))
        return diag, p, run_memo(_unit_matrix, ring, unit)
    p = _identity_lists(ring, rows)
    p_inv = _identity_lists(ring, rows)
    diag = _eliminate(ring, a.to_lists(), rows, a.cols, p, None, p_inv)
    return tuple(diag), _frozen(ring, p, rows, rows), _frozen(ring, p_inv, rows, rows)


def _sweep_row(ring: Ring, row: tuple) -> Tuple[tuple, object]:
    """:func:`_eliminate` on the one-row matrix ``(row,)``: the diagonal
    and the unit its pivot is divided by at the end.

    The row transform P of the elimination is that final scaling alone,
    ``[[unit^-1]]``.  The pivot is the first entry of least norm, moved
    to the front; the column sweep then zeroes each later entry, by an
    exact quotient when the pivot divides it and otherwise by a gcd
    transform, which makes the pivot the gcd.  Only the pivot is kept, as
    the swept entries end at zero.  A zero row keeps its one zero
    diagonal entry and an empty row has none.
    """
    zero, norm = ring.zero, ring.norm
    best = None
    for j, v in enumerate(row):
        if v != zero:
            size = norm(v)
            if best is None or size < best[0]:
                best = (size, j)
    if best is None:
        return row[:1], ring.one
    rest = list(row)
    rest[0], rest[best[1]] = rest[best[1]], rest[0]
    pivot, try_div = rest[0], ring.try_div
    for v in rest[1:]:
        if v != zero and try_div(v, pivot) is None:
            pivot = ring.gcd(pivot, v)
    canon, unit = ring.unit_normalize(pivot)
    return (canon,), unit


def _unit_matrix(ring: Ring, unit) -> Matrix:
    return Matrix(ring, 1, 1, ((unit,),))


def _identity_lists(ring: Ring, n: int) -> List[list]:
    zero, one = ring.zero, ring.one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _frozen(ring: Ring, data, rows: int, cols: int) -> Matrix:
    return Matrix(ring, rows, cols, tuple(tuple(row) for row in data))


def _compute_smith_form(a: Matrix) -> SmithForm:
    ring = a.ring
    rows, cols = a.rows, a.cols
    p = _identity_lists(ring, rows)
    q = _identity_lists(ring, cols)
    diag = _eliminate(ring, a.to_lists(), rows, cols, p, q)
    return SmithForm(
        _frozen(ring, [diag], 1, len(diag)),
        _frozen(ring, p, rows, rows),
        _frozen(ring, q, cols, cols),
    )


def _eliminate(ring: Ring, w, rows, cols, p, q=None, p_inv=None) -> list:
    """Bring the row lists ``w`` to Smith form in place; return the diagonal.

    Every row operation is also applied to ``p``, and its inverse to
    ``p_inv`` when given; every column operation is also applied to ``q``
    when given.  The pivots and operations depend on ``w`` alone.
    """
    zero, one = ring.zero, ring.one
    add, sub, mul, neg = ring.add, ring.sub, ring.mul, ring.neg
    norm, try_div = ring.norm, ring.try_div
    row_targets = (w, p)
    col_targets = (w,) if q is None else (w, q)
    inv_rows = () if p_inv is None else p_inv

    def swap_rows(i, j):
        for target in row_targets:
            target[i], target[j] = target[j], target[i]
        for row in inv_rows:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for target in col_targets:
            for row in target:
                row[i], row[j] = row[j], row[i]

    def row_combine(i, j, s, tt, u, v):
        # rows i, j <- (s*i + tt*j, u*j - v*i); inverse block [[u, -tt], [v, s]]
        for target in row_targets:
            top, bot = target[i], target[j]
            target[i] = [add(mul(s, x), mul(tt, y)) for x, y in zip(top, bot)]
            target[j] = [sub(mul(u, y), mul(v, x)) for x, y in zip(top, bot)]
        for row in inv_rows:
            ci, cj = row[i], row[j]
            row[i] = add(mul(u, ci), mul(v, cj))
            row[j] = sub(mul(s, cj), mul(tt, ci))

    def col_combine(i, j, s, tt, u, v):
        # cols i, j <- (s*i + tt*j, u*j - v*i)
        for target in col_targets:
            for row in target:
                ci, cj = row[i], row[j]
                row[i] = add(mul(s, ci), mul(tt, cj))
                row[j] = sub(mul(u, cj), mul(v, ci))

    def add_row(i, j):
        # row i += row j; inverse subtracts
        for target in row_targets:
            target[i] = [add(x, y) for x, y in zip(target[i], target[j])]
        for row in inv_rows:
            row[j] = sub(row[j], row[i])

    def row_addmul(i, j, c):
        # row i += c * row j; inverse subtracts the multiple
        for target in row_targets:
            target[i] = [add(x, mul(c, y)) for x, y in zip(target[i], target[j])]
        for row in inv_rows:
            row[j] = sub(row[j], mul(c, row[i]))

    def col_addmul(j, i, c):
        # col j += c * col i
        for target in col_targets:
            for row in target:
                row[j] = add(row[j], mul(c, row[i]))

    def scale_row(i, unit):
        inv = ring.unit_inverse(unit)
        for target in row_targets:
            target[i] = [mul(inv, x) for x in target[i]]
        for row in inv_rows:
            row[i] = mul(unit, row[i])

    size = min(rows, cols)
    for t in range(size):
        best = None
        for i in range(t, rows):
            row = w[i]
            for j in range(t, cols):
                v = row[j]
                if v == zero:
                    continue
                key = (norm(v), i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        if best[1] != t:
            swap_rows(t, best[1])
        if best[2] != t:
            swap_cols(t, best[2])
        while True:
            # Entries the pivot divides exactly are killed by elementary
            # operations, which never touch the pivot line; the full gcd
            # transform only fires when it strictly shrinks the pivot, so
            # the sweep terminates.
            for i in range(t + 1, rows):
                if w[i][t] == zero:
                    continue
                quot = try_div(w[i][t], w[t][t])
                if quot is not None:
                    row_addmul(i, t, neg(quot))
                    continue
                g, s, tt, u, v = _gcd_transform(ring, w[t][t], w[i][t])
                row_combine(t, i, s, tt, u, v)
            for j in range(t + 1, cols):
                if w[t][j] == zero:
                    continue
                quot = try_div(w[t][j], w[t][t])
                if quot is not None:
                    col_addmul(j, t, neg(quot))
                    continue
                g, s, tt, u, v = _gcd_transform(ring, w[t][t], w[t][j])
                col_combine(t, j, s, tt, u, v)
            col_dirty = any(w[i][t] != zero for i in range(t + 1, rows))
            row_dirty = any(w[t][j] != zero for j in range(t + 1, cols))
            if col_dirty or row_dirty:
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if try_div(w[i][j], w[t][t]) is None:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender)
        canon, unit = ring.unit_normalize(w[t][t])
        if unit != one:
            scale_row(t, unit)
    return [w[i][i] for i in range(size)]


def kernel_basis(a: Matrix) -> Matrix:
    """Basis of {x : A x = 0} as the columns of a full-column-rank matrix."""
    sf = smith_form(a)
    diag = sf.diagonal()
    ring = a.ring
    free = [
        j
        for j in range(a.cols)
        if j >= len(diag) or diag[j] == ring.zero
    ]
    return sf.q.columns(free)


def solve_from_smith(sf: SmithForm, b: Matrix) -> Optional[Matrix]:
    """Solve A X = B given a precomputed Smith decomposition of A: solve
    D Y = P B row by row, then X = Q Y."""
    ring = b.ring
    if sf.p.rows != b.rows:
        raise ValueError("solve shape mismatch")
    zero, try_div = ring.zero, ring.try_div
    diag = sf.diagonal()
    y = [[zero] * b.cols for _ in range(sf.q.rows)]
    for i, row in enumerate((sf.p @ b).entries):
        d = diag[i] if i < len(diag) else zero
        for c, rhs in enumerate(row):
            if rhs == zero:
                continue
            if d == zero:
                return None
            qt = try_div(rhs, d)
            if qt is None:
                return None
            y[i][c] = qt
    return sf.q @ Matrix(ring, sf.q.rows, b.cols, tuple(map(tuple, y)))


def solve_matrix(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One exact solution X of A X = B, or None when none exists."""
    if a.rows != b.rows:
        raise ValueError("solve shape mismatch")
    return solve_from_smith(smith_form(a), b)


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with (i*b.rows + k, j*b.cols + l) indexing."""
    if a.ring != b.ring:
        raise ValueError("kronecker over different rings")
    ring = a.ring
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [[ring.zero] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            v = a.entries[i][j]
            if v == ring.zero:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k][j * b.cols + l] = ring.mul(v, b.entries[k][l])
    return Matrix(ring, rows, cols, tuple(tuple(r) for r in out))
