"""Exact matrix normal forms checked against independent oracles.

The Smith form is cross-checked with determinantal divisors (gcds of all
k by k minors), which pin the diagonal without running any reduction.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from adictower import memo
from adictower.exactalg.matrices import (
    Matrix,
    hstack,
    kernel_basis,
    kronecker,
    smith_form,
    smith_rows,
    solve_matrix,
    vstack,
)
from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.memo import memo_scope
from adictower.verify import pipeline
from oracles import determinant, is_invertible, matrix_product
from strategies import one_row_relations, ring_elements

Z = integer_ring()
F2X = polynomial_ring(2)
F3X = polynomial_ring(3)
F5X = polynomial_ring(5)


def int_matrix(rows):
    return Matrix.from_rows(Z, rows)


def assert_smith_transforms_diagonalise(sf, m):
    """P*A*Q has the diagonal ``sf.diagonal()`` and zeros everywhere else."""
    d = sf.p @ m @ sf.q
    assert [d.entries[i][i] for i in range(min(d.rows, d.cols))] == sf.diagonal()
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == m.ring.zero


def minor_gcd(m, k):
    """Gcd of all k by k minors, computed straight from the definition."""
    best = 0
    for rsel in itertools.combinations(range(m.rows), k):
        for csel in itertools.combinations(range(m.cols), k):
            sub = Matrix.from_rows(
                Z, [[m.entries[i][j] for j in csel] for i in rsel]
            )
            best = math.gcd(best, determinant(sub))
    return best


def test_smith_frozen_example():
    sf = smith_form(int_matrix([[2, 4], [6, 8]]))
    assert sf.diagonal() == [2, 4]


def test_smith_handles_unit_fill_in():
    # A shape that forces alternating row and column cleanup around a
    # unit pivot; the reduction has to terminate and stay exact.
    m = int_matrix([[1, -1, 0, 2, 0], [0, 1, -1, 0, 4]])
    sf = smith_form(m)
    assert sf.diagonal() == [1, 1]
    assert_smith_transforms_diagonalise(sf, m)


def test_kernel_basis_spans_kernel():
    m = int_matrix([[2, 4, 6], [0, 0, 0]])
    kb = kernel_basis(m)
    prod = m @ kb
    assert prod.is_zero()
    assert kb.cols == 2


def test_solve_matrix():
    a = int_matrix([[2, 0], [0, 3]])
    b = Matrix.column(Z, [4, 9])
    x = solve_matrix(a, b)
    assert (a @ x).entries == b.entries
    assert solve_matrix(a, Matrix.column(Z, [1, 0])) is None


def test_determinant_bareiss():
    assert determinant(int_matrix([[1, 2], [3, 4]])) == -2
    assert determinant(int_matrix([[2]])) == 2
    assert determinant(Matrix.identity(Z, 3)) == 1
    assert not is_invertible(int_matrix([[2, 0], [0, 1]]))
    assert is_invertible(int_matrix([[0, 1], [-1, 0]]))


def test_kronecker_indexing():
    a = int_matrix([[1, 2]])
    b = int_matrix([[3], [4]])
    k = kronecker(a, b)
    assert k.to_lists() == [[3, 6], [4, 8]]


def test_stack_helpers():
    a = int_matrix([[1], [2]])
    b = int_matrix([[3], [4]])
    assert hstack([a, b]).to_lists() == [[1, 3], [2, 4]]
    assert vstack([a, b]).to_lists() == [[1], [2], [3], [4]]


def test_diagonal_and_identity():
    assert Matrix.diagonal(Z, [2, 0, 5]).to_lists() == [[2, 0, 0], [0, 0, 0], [0, 0, 5]]
    x_plus_one = F3X.parse("x+1")
    assert Matrix.diagonal(F3X, [x_plus_one]).to_lists() == [[x_plus_one]]
    assert Matrix.diagonal(Z, []) == Matrix.zeros(Z, 0, 0)
    assert Matrix.identity(Z, 3).to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert Matrix.identity(F2X, 2).to_lists() == [[F2X.one, F2X.zero], [F2X.zero, F2X.one]]
    assert [F2X.coefficients(F2X.one), F2X.coefficients(F2X.zero)] == [(1,), ()]


# Z, then F_p[x] packed in one int, bit-sliced in two and as coefficient tuples
PRODUCT_RINGS = {"Z": Z, "F2-packed": F2X, "F3-bit-sliced": F3X, "F5-tuples": F5X}
# (rows, inner, cols) of the fixed shapes; the others are drawn, 0 to 3 each
FIXED_SHAPES = {
    "1x1": (1, 1, 1),
    "0-rows": (0, 2, 3),
    "0-inner": (2, 0, 3),
    "0-cols": (3, 2, 0),
    "1x1-identity-left": (1, 1, 3),
    "1x1-identity-right": (3, 1, 1),
    "outer": (3, 1, 2),
}


def drawn_matrix(data, ring, rows, cols):
    entries = data.draw(
        st.lists(
            st.lists(ring_elements(ring), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix(ring, rows, cols, tuple(map(tuple, entries)))


@pytest.mark.parametrize("ring", PRODUCT_RINGS.values(), ids=PRODUCT_RINGS.keys())
@pytest.mark.parametrize(
    "shape", ["drawn", "identity-left", "identity-right", *FIXED_SHAPES]
)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_product_matches_the_definition(ring, shape, data):
    rows, inner, cols = FIXED_SHAPES.get(shape) or [
        data.draw(st.integers(0, 3)) for _ in range(3)
    ]
    if shape.endswith("identity-left"):
        left, right = Matrix.identity(ring, rows), drawn_matrix(data, ring, rows, cols)
    elif shape.endswith("identity-right"):
        left, right = drawn_matrix(data, ring, rows, inner), Matrix.identity(ring, inner)
    else:
        left, right = drawn_matrix(data, ring, rows, inner), drawn_matrix(data, ring, inner, cols)
    assert left @ right == matrix_product(left, right)


def test_product_checks_rings_and_shapes_before_its_shortcuts():
    column = int_matrix([[1], [2], [3]])
    with pytest.raises(ValueError, match="shape mismatch"):
        Matrix.identity(Z, 2) @ column
    with pytest.raises(ValueError, match="shape mismatch"):
        column @ Matrix.identity(Z, 2)
    with pytest.raises(ValueError, match="shape mismatch"):
        Matrix.identity(Z, 1) @ column
    with pytest.raises(ValueError, match="different rings"):
        Matrix.identity(F2X, 3) @ column
    # packed F_2[x] holds 1 as the int 1: equal entries, other rings
    assert Matrix.identity(F2X, 1).entries == Matrix.identity(Z, 1).entries
    with pytest.raises(ValueError, match="different rings"):
        Matrix.identity(Z, 1) @ Matrix.identity(F2X, 1)
    with pytest.raises(ValueError, match="different rings"):
        int_matrix([[5]]) @ Matrix.identity(F2X, 1)


def test_matrices_are_equal_and_hash_by_ring_shape_and_entries():
    m = int_matrix([[1, 2], [3, 4]])
    twin = Matrix(Z, 2, 2, ((1, 2), (3, 4)))
    assert m is not twin and m == twin and hash(m) == hash(twin)
    # memo keys hold matrices: their hash is that of the tuple of fields
    assert hash(m) == hash((m.ring, m.rows, m.cols, m.entries))
    assert m != (m.ring, m.rows, m.cols, m.entries)
    assert Matrix.zeros(Z, 0, 2) != Matrix.zeros(Z, 0, 3)
    assert Matrix.identity(Z, 1) != Matrix.identity(F2X, 1)


def test_column_of_empty_list_keeps_one_column():
    col = Matrix.column(Z, [])
    assert (col.rows, col.cols) == (0, 1)


def test_polynomial_smith():
    m = Matrix.from_rows(F2X, [[(0, 1), (1,)], [(), (0, 0, 1)]])
    sf = smith_form(m)
    # entry gcd is 1 and the determinant is x^3, so the chain is (1, x^3)
    assert [F2X.format(d) for d in sf.diagonal()] == ["1", "x^3"]
    assert_smith_transforms_diagonalise(sf, m)


small_entries = st.integers(-10, 10)
small_shape = st.tuples(st.integers(1, 3), st.integers(1, 3))


@st.composite
def small_int_matrices(draw):
    rows, cols = draw(small_shape)
    data = draw(
        st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return int_matrix(data)


# One-row matrices take smith_rows' own sweep, so they come over every ring
# format, with zeros, units, negative and wide entries, and no columns.
one_row_matrices = st.sampled_from([Z, F2X, F3X, F5X]).flatmap(one_row_relations)


@given(st.one_of(small_int_matrices(), one_row_matrices))
@settings(max_examples=240, deadline=None)
def test_smith_form_properties(m):
    sf = smith_form(m)
    assert_smith_transforms_diagonalise(sf, m)
    assert is_invertible(sf.q)
    # the row-side elimination runs the same pivots: the same diagonal and
    # P, which keeps normal forms equal to those read off smith_form
    diag, p, p_inv = smith_rows(m)
    assert list(diag) == sf.diagonal()
    assert p == sf.p
    identity = Matrix.identity(m.ring, m.rows).entries
    assert (p @ p_inv).entries == identity
    assert (p_inv @ p).entries == identity
    diag = sf.diagonal()
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
        elif a == 0:
            assert b == 0


@given(st.one_of(small_int_matrices(), one_row_relations(Z)))
@settings(max_examples=160, deadline=None)
def test_smith_against_determinantal_divisors(m):
    diag = [d for d in smith_form(m).diagonal() if d != 0]
    prod = 1
    for k, d in enumerate(diag, start=1):
        prod *= d
        assert minor_gcd(m, k) == abs(prod)
    if len(diag) < min(m.rows, m.cols):
        assert minor_gcd(m, len(diag) + 1) == 0


@given(small_int_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_members_solve_to_zero(m):
    kb = kernel_basis(m)
    assert (m @ kb).is_zero()
    # every kernel column must be reproducible through the exact solver
    zero = Matrix.zeros(Z, m.rows, 1)
    for j in range(kb.cols):
        col = kb.columns([j])
        assert (m @ col).entries == zero.entries


@given(small_int_matrices(), st.lists(small_entries, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_solve_agrees_with_column_span(m, coeffs):
    # right-hand sides built inside the column span must be solvable
    take = min(len(coeffs), m.cols)
    b = Matrix.zeros(Z, m.rows, 1)
    for j in range(take):
        b = b.add(m.columns([j]).scale(coeffs[j]))
    x = solve_matrix(m, b)
    assert x is not None
    assert (m @ x).entries == b.entries


@given(small_int_matrices())
@settings(max_examples=60, deadline=None)
def test_memoised_smith_matches_unscoped(m):
    plain = smith_form(m)
    with memo_scope():
        first = smith_form(m)
        # equal content in a distinct object hits the memo
        again = smith_form(Matrix(m.ring, m.rows, m.cols, m.entries))
    assert again is first
    assert first == plain
    assert_smith_transforms_diagonalise(first, m)
    assert memo._memo is None


def test_memo_keys_on_the_ring_and_nested_scopes_share_it():
    f5x, f7x = polynomial_ring(5), polynomial_ring(7)
    over_f2, over_f5, over_f7 = (
        Matrix.from_rows(ring, [[(1, 1)]]) for ring in (F2X, f5x, f7x)
    )
    # x + 1 has equal entries over F_5 and F_7, which both keep coefficient
    # tuples, so only the ring tells their keys apart
    assert over_f5.entries == over_f7.entries
    with memo_scope():
        with memo_scope():
            assert smith_form(over_f2).p.ring == F2X
        assert len(memo._memo) == 1
        assert smith_form(over_f5).p.ring == f5x
        assert len(memo._memo) == 2
        assert smith_form(over_f7).p.ring == f7x
        assert len(memo._memo) == 3
    assert memo._memo is None


def test_run_full_report_scopes_the_memo(monkeypatch):
    sizes = []
    check_conditions = pipeline.check_conditions

    def probe(tower):
        sizes.append(len(memo._memo))
        return check_conditions(tower)

    monkeypatch.setattr(pipeline, "check_conditions", probe)
    pipeline.run_full_report(Z, 2, 2)
    assert sizes and sizes[0] > 0
    assert memo._memo is None

    def crash(tower):
        raise RuntimeError("crash inside the run")

    monkeypatch.setattr(pipeline, "check_conditions", crash)
    with pytest.raises(RuntimeError):
        pipeline.run_full_report(Z, 2, 2)
    assert memo._memo is None
