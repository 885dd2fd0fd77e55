"""Questions that read only the Smith diagonal, against the full normal form.

Orders, zero tests and isomorphism classes come from a Smith elimination
that builds no transforms, and membership from P and the diagonal without
the product with Q.  Each is cross-checked with an oracle that goes through
the full Smith form: ``normalize``, ``find_isomorphism`` and
``solve_matrix``.
"""

from hypothesis import event, given, settings, strategies as st

from adictower.exactalg.matrices import Matrix, smith_diagonal, smith_form, solve_matrix
from adictower.exactalg import matrices
from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.fpmod.modules import (
    FpModule,
    ModuleMorphism,
    annihilator_generator,
    cyclic_module,
    direct_sum,
    invariant_factors,
    is_zero_module,
    module_order,
    normalize,
)
from adictower.fpmod.morphisms import (
    is_injective,
    is_isomorphic,
    is_surjective,
    vanishes,
)
from adictower.memo import memo_scope
from oracles import is_zero_by_normal_form, isomorphic_by_map, order_by_normal_form
from strategies import ring_elements

Z = integer_ring()
RINGS = [Z, polynomial_ring(2), polynomial_ring(3)]


def matrices_up_to(data, ring, rows, cols):
    """A matrix of small entries with 1..rows rows and 0..cols columns."""
    r = data.draw(st.integers(1, rows))
    c = data.draw(st.integers(0, cols))
    return Matrix(
        ring,
        r,
        c,
        tuple(tuple(data.draw(ring_elements(ring)) for _ in range(c)) for _ in range(r)),
    )


def disguised(data, a: Matrix) -> Matrix:
    """Relations of a module isomorphic to the one ``a`` presents: one
    generator change x_i += c x_j, and the relation columns reversed."""
    ring = a.ring
    rows = [list(row[::-1]) for row in a.entries]
    if a.rows > 1:
        i, j = data.draw(st.permutations(range(a.rows)))[:2]
        c = data.draw(ring_elements(ring))
        # new coordinates y_i = x_i + c x_j send each relation's row j to
        # row j - c row i
        rows[j] = [ring.sub(y, ring.mul(c, x)) for x, y in zip(rows[i], rows[j])]
    return Matrix(ring, a.rows, a.cols, tuple(map(tuple, rows)))


@given(st.sampled_from(RINGS), st.data())
@settings(max_examples=150, deadline=None)
def test_diagonal_questions_match_the_full_normal_form(ring, data):
    a = matrices_up_to(data, ring, 3, 4)
    module = FpModule(a)
    assert list(smith_diagonal(a)) == smith_form(a).diagonal()
    norm = normalize(module)
    assert invariant_factors(module) == (norm.factors, norm.rank)
    assert module_order(module) == order_by_normal_form(module)
    assert is_zero_module(module) == is_zero_by_normal_form(module)
    if data.draw(st.booleans()):
        other = FpModule(disguised(data, a))
        event("disguised copy")
    else:
        other = FpModule(matrices_up_to(data, ring, 3, 4))
    same = is_isomorphic(module, other)
    event("isomorphic" if same else "not isomorphic")
    assert same == isomorphic_by_map(module, other)
    assert is_isomorphic(other, module) == same
    # membership: columns inside the span, and arbitrary ones
    k = data.draw(st.integers(1, 2))
    if a.cols and data.draw(st.booleans()):
        coeffs = Matrix(
            ring,
            a.cols,
            k,
            tuple(
                tuple(data.draw(ring_elements(ring)) for _ in range(k))
                for _ in range(a.cols)
            ),
        )
        columns = a @ coeffs
    else:
        columns = Matrix(
            ring,
            a.rows,
            k,
            tuple(
                tuple(data.draw(ring_elements(ring)) for _ in range(k))
                for _ in range(a.rows)
            ),
        )
    member = vanishes(a, columns)
    event("vanishes" if member else "does not vanish")
    assert member == (solve_matrix(a, columns) is not None)


def test_invariant_factors_are_memoised_by_module():
    a = Matrix.from_rows(Z, [[4, 6], [6, 4]])
    plain = invariant_factors(FpModule(a))
    with memo_scope():
        first = invariant_factors(FpModule(a))
        assert invariant_factors(FpModule(Matrix(Z, 2, 2, a.entries))) is first
    assert first == plain == ((2, 10), 0)


def test_diagonal_questions_build_no_transforms(monkeypatch):
    # Orders, zero tests, injectivity and surjectivity between finite
    # modules, the annihilator and the isomorphism class read only the
    # invariant factors, so none of them runs the Smith form with
    # transforms.
    computed = []
    compute = matrices._compute_smith_form

    def counting(a):
        computed.append(a)
        return compute(a)

    monkeypatch.setattr(matrices, "_compute_smith_form", counting)
    z4, z2 = cyclic_module(Z, 4), cyclic_module(Z, 2)
    pair = direct_sum([z2, z2])[0]
    double = ModuleMorphism(z2, z4, Matrix.from_rows(Z, [[2]]))
    reduce = ModuleMorphism(z4, z2, Matrix.from_rows(Z, [[1]]))
    with memo_scope():
        assert module_order(pair) == 4
        assert not is_zero_module(z4)
        assert annihilator_generator(pair) == 2
        assert is_injective(double) and not is_surjective(double)
        assert is_surjective(reduce) and not is_injective(reduce)
        assert not is_isomorphic(z4, pair)
        assert is_isomorphic(FpModule(Matrix.from_rows(Z, [[2, 0], [1, 2]])), z4)
    assert computed == []
