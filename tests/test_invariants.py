"""Questions read off a module's normal form, against independent oracles.

Orders, zero tests, isomorphism classes and membership read the one
normal form of a module, whose row-side elimination builds no Q.  Each is
cross-checked with an oracle that goes through the full Smith form or
builds an explicit map: ``smith_form``, ``find_isomorphism`` and
``solve_matrix``, which also checks that the maps to and from the normal
form are mutually inverse.  One-generator modules, whose normal form is
read off the one diagonal entry of a one-row sweep, are drawn on their
own too: with no relation, zero, unit, negative and wide entries, over
every ring format.
"""

from hypothesis import event, given, settings, strategies as st

from adictower.exactalg.matrices import Matrix, smith_form, smith_rows, solve_matrix
from adictower.exactalg import matrices
from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.fpmod.modules import (
    FpModule,
    ModuleMorphism,
    annihilator_generator,
    cyclic_module,
    direct_sum,
    is_zero_module,
    module_order,
    normalize,
)
from adictower.fpmod.morphisms import (
    is_injective,
    is_isomorphic,
    is_surjective,
    is_well_defined,
    submodules_equal,
    vanishes,
)
from adictower.memo import memo_scope
from oracles import (
    equal_morphisms,
    is_zero_by_smith_form,
    is_zero_morphism,
    isomorphic_by_map,
    order_by_smith_form,
)
from strategies import one_row_relations, ring_elements

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


def check_diagonal_questions(data, a, draw_relations):
    """Order, zero test, isomorphism class and membership of the module
    presented by ``a`` against the oracles; ``draw_relations()`` gives the
    relations of a module to compare it with."""
    ring = a.ring
    module = FpModule(a)
    diag, p, p_inv = smith_rows(a)
    sf = smith_form(a)
    assert (list(diag), p) == (sf.diagonal(), sf.p)
    assert (p_inv @ p).entries == Matrix.identity(ring, a.rows).entries
    assert module_order(module) == order_by_smith_form(module)
    assert is_zero_module(module) == is_zero_by_smith_form(module)
    # to_standard and from_standard are well defined and mutually inverse,
    # up to the relations at either end
    norm = normalize(module)
    to, back, std = norm.to_standard, norm.from_standard, norm.standard.relations
    assert solve_matrix(std, to @ a) is not None
    assert solve_matrix(a, back @ std) is not None
    assert solve_matrix(a, (back @ to).sub(Matrix.identity(ring, a.rows))) is not None
    assert solve_matrix(std, (to @ back).sub(Matrix.identity(ring, std.rows))) is not None
    if data.draw(st.booleans()):
        other = FpModule(disguised(data, a))
        event("disguised copy")
    else:
        other = FpModule(draw_relations())
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
    member = vanishes(module, columns)
    event("vanishes" if member else "does not vanish")
    assert member == (solve_matrix(a, columns) is not None)


@given(st.sampled_from(RINGS), st.data())
@settings(max_examples=150, deadline=None)
def test_diagonal_questions_match_the_full_normal_form(ring, data):
    check_diagonal_questions(
        data, matrices_up_to(data, ring, 3, 4), lambda: matrices_up_to(data, ring, 3, 4)
    )
    # one-generator modules take the one-row sweep and read their normal
    # form off its one diagonal entry; they also come over the tuple F_5[x]
    ring = data.draw(st.sampled_from(RINGS + [polynomial_ring(5)]))
    relations = one_row_relations(ring)
    check_diagonal_questions(data, data.draw(relations), lambda: data.draw(relations))


def test_invariant_factors_are_memoised_by_module():
    a = Matrix.from_rows(Z, [[4, 6], [6, 4]])
    plain = normalize(FpModule(a))
    with memo_scope():
        first = normalize(FpModule(a))
        assert normalize(FpModule(Matrix(Z, 2, 2, a.entries))) is first
    assert (first.factors, first.rank) == (plain.factors, plain.rank) == ((2, 10), 0)


def test_counted_then_normalised_module_is_eliminated_once(monkeypatch):
    # The order and the normal form are one record: asking for both runs
    # the Smith elimination once.
    eliminations = []
    eliminate = matrices._eliminate

    def counting(*args, **kwargs):
        eliminations.append(args)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(matrices, "_eliminate", counting)
    module = FpModule(Matrix.from_rows(Z, [[4, 6], [6, 4]]))
    with memo_scope():
        assert module_order(module) == 20
        assert normalize(module).factors == (2, 10)
    assert len(eliminations) == 1


def test_diagonal_questions_build_no_transforms(monkeypatch):
    # Orders, zero tests, injectivity and surjectivity between finite
    # modules, the annihilator and the isomorphism class read the invariant
    # factors of normal forms, and membership, well-definedness, equality
    # and zero maps, and submodule equality read their coordinates, so none
    # of them runs the Smith form with Q.
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
        assert vanishes(z4, Matrix.from_rows(Z, [[8, -4]]))
        assert not vanishes(pair, Matrix.from_rows(Z, [[2], [1]]))
        assert is_well_defined(double) and not is_well_defined(
            ModuleMorphism(z2, z4, Matrix.from_rows(Z, [[1]]))
        )
        assert equal_morphisms(double, ModuleMorphism(z2, z4, Matrix.from_rows(Z, [[6]])))
        assert not equal_morphisms(reduce, ModuleMorphism(z4, z2, Matrix.from_rows(Z, [[0]])))
        assert is_zero_morphism(ModuleMorphism(z4, z2, Matrix.from_rows(Z, [[2]])))
        assert not is_zero_morphism(double)
        two, six = Matrix.from_rows(Z, [[2]]), Matrix.from_rows(Z, [[6]])
        assert submodules_equal(z4, two, six)
        assert not submodules_equal(z4, two, Matrix.from_rows(Z, [[1]]))
    assert computed == []
