"""Exact matrices over a Euclidean domain, with the Smith normal form.

Matrices are immutable, entries live in one of the rings from
:mod:`adictower.exactalg.rings`.  The workhorse is the Smith normal form,
returned with its transforming matrices and the inverse of the row
transform so that callers get certificates rather than bare answers;
kernels and exact solving are read off it.  Everything is exact: no
floating point, no coefficient growth surprises beyond what arbitrary
precision absorbs.

Within a :func:`adictower.memo.memo_scope` Smith forms are memoised by the
content of the input matrix, so one verification run computes each
distinct Smith form once; outside a scope nothing is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

from ..memo import run_memo
from .rings import Ring


@dataclass(frozen=True, slots=True)
class Matrix:
    ring: Ring
    rows: int
    cols: int
    entries: tuple

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
        return Matrix.diagonal(ring, (ring.one,) * n)

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
        out = []
        for i in range(self.rows):
            row = []
            left = self.entries[i]
            for j in range(other.cols):
                acc = r.zero
                for k in range(self.cols):
                    a = left[k]
                    if a == r.zero:
                        continue
                    b = other.entries[k][j]
                    if b == r.zero:
                        continue
                    acc = r.add(acc, r.mul(a, b))
                row.append(acc)
            out.append(tuple(row))
        return Matrix(self.ring, self.rows, other.cols, tuple(out))

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
    D is zero), the transforms P and Q, and P's inverse."""

    diag: Matrix
    p: Matrix
    q: Matrix
    p_inv: Matrix

    def diagonal(self) -> list:
        return list(self.diag.entries[0])


def _gcd_transform(ring: Ring, a, b):
    """Unimodular 2x2 block [[s, t], [-v, u]] sending (a, b) to (g, 0)."""
    g, s, t = ring.gcd_ext(a, b)
    u = ring.div(a, g)
    v = ring.div(b, g)
    return g, s, t, u, v


def smith_form(a: Matrix) -> SmithForm:
    """Smith normal form with transforms and the row transform's inverse.

    Returns (diag, P, Q, P_inv) with P*A*Q = D diagonal, ``diag`` the row
    of its min(rows, cols) diagonal entries, canonical associates forming
    a divisibility chain d1 | d2 | ..., P and Q invertible and P_inv the
    exact inverse of P.

    Pivots are chosen as the smallest-norm nonzero entry of the remaining
    block (ties broken by position) which keeps the chain ordered and the
    run deterministic.  Inside a :func:`adictower.memo.memo_scope` a
    matrix already seen returns the same result object.
    """
    return run_memo(_compute_smith_form, a)


def _compute_smith_form(a: Matrix) -> SmithForm:
    ring = a.ring
    w = a.to_lists()
    rows, cols = a.rows, a.cols
    p = Matrix.identity(ring, rows).to_lists()
    p_inv = Matrix.identity(ring, rows).to_lists()
    q = Matrix.identity(ring, cols).to_lists()

    def swap_rows(i, j):
        if i == j:
            return
        w[i], w[j] = w[j], w[i]
        p[i], p[j] = p[j], p[i]
        for row in p_inv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        if i == j:
            return
        for row in w:
            row[i], row[j] = row[j], row[i]
        for row in q:
            row[i], row[j] = row[j], row[i]

    def row_combine(i, j, s, tt, u, v):
        # rows i, j <- (s*i + tt*j, u*j - v*i); inverse block [[u, -tt], [v, s]]
        for target in (w, p):
            top, bot = target[i], target[j]
            target[i] = [
                ring.add(ring.mul(s, x), ring.mul(tt, y)) for x, y in zip(top, bot)
            ]
            target[j] = [
                ring.sub(ring.mul(u, y), ring.mul(v, x)) for x, y in zip(top, bot)
            ]
        for row in p_inv:
            ci, cj = row[i], row[j]
            row[i] = ring.add(ring.mul(u, ci), ring.mul(v, cj))
            row[j] = ring.sub(ring.mul(s, cj), ring.mul(tt, ci))

    def col_combine(i, j, s, tt, u, v):
        # cols i, j <- (s*i + tt*j, u*j - v*i)
        for target in (w, q):
            for row in target:
                ci, cj = row[i], row[j]
                row[i] = ring.add(ring.mul(s, ci), ring.mul(tt, cj))
                row[j] = ring.sub(ring.mul(u, cj), ring.mul(v, ci))

    def add_row(i, j):
        # row i += row j; inverse subtracts
        for target in (w, p):
            target[i] = [ring.add(x, y) for x, y in zip(target[i], target[j])]
        for row in p_inv:
            row[j] = ring.sub(row[j], row[i])

    def row_addmul(i, j, c):
        # row i += c * row j; inverse subtracts the multiple
        for target in (w, p):
            target[i] = [
                ring.add(x, ring.mul(c, y)) for x, y in zip(target[i], target[j])
            ]
        for row in p_inv:
            row[j] = ring.sub(row[j], ring.mul(c, row[i]))

    def col_addmul(j, i, c):
        # col j += c * col i
        for target in (w, q):
            for row in target:
                row[j] = ring.add(row[j], ring.mul(c, row[i]))

    def scale_row(i, unit):
        inv = ring.unit_inverse(unit)
        for target in (w, p):
            target[i] = [ring.mul(inv, x) for x in target[i]]
        for row in p_inv:
            row[i] = ring.mul(unit, row[i])

    for t in range(min(rows, cols)):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = w[i][j]
                if v == ring.zero:
                    continue
                key = (ring.norm(v), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        while True:
            # Entries the pivot divides exactly are killed by elementary
            # operations, which never touch the pivot line; the full gcd
            # transform only fires when it strictly shrinks the pivot, so
            # the sweep terminates.
            for i in range(t + 1, rows):
                if w[i][t] == ring.zero:
                    continue
                quot = ring.try_div(w[i][t], w[t][t])
                if quot is not None:
                    row_addmul(i, t, ring.neg(quot))
                    continue
                g, s, tt, u, v = _gcd_transform(ring, w[t][t], w[i][t])
                row_combine(t, i, s, tt, u, v)
            for j in range(t + 1, cols):
                if w[t][j] == ring.zero:
                    continue
                quot = ring.try_div(w[t][j], w[t][t])
                if quot is not None:
                    col_addmul(j, t, ring.neg(quot))
                    continue
                g, s, tt, u, v = _gcd_transform(ring, w[t][t], w[t][j])
                col_combine(t, j, s, tt, u, v)
            col_dirty = any(w[i][t] != ring.zero for i in range(t + 1, rows))
            row_dirty = any(w[t][j] != ring.zero for j in range(t + 1, cols))
            if col_dirty or row_dirty:
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if ring.try_div(w[i][j], w[t][t]) is None:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender)
        canon, unit = ring.unit_normalize(w[t][t])
        if unit != ring.one:
            scale_row(t, unit)

    def freeze(data, r, c):
        return Matrix(ring, r, c, tuple(tuple(row) for row in data))

    diag = [w[i][i] for i in range(min(rows, cols))]
    return SmithForm(
        freeze([diag], 1, len(diag)),
        freeze(p, rows, rows),
        freeze(q, cols, cols),
        freeze(p_inv, rows, rows),
    )


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
    """Solve A X = B given a precomputed Smith decomposition of A."""
    ring = b.ring
    rows = sf.p.rows
    cols = sf.q.rows
    if rows != b.rows:
        raise ValueError("solve shape mismatch")
    pb = sf.p @ b
    diag = sf.diagonal()
    y = [[ring.zero] * b.cols for _ in range(cols)]
    for c in range(b.cols):
        for i in range(rows):
            rhs = pb.entries[i][c]
            d = diag[i] if i < len(diag) else ring.zero
            if d == ring.zero:
                if rhs != ring.zero:
                    return None
                continue
            qt = ring.try_div(rhs, d)
            if qt is None:
                return None
            y[i][c] = qt
    ym = Matrix(ring, cols, b.cols, tuple(tuple(row) for row in y))
    return sf.q @ ym


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
