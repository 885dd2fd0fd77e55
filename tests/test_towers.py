"""Tower levels, reconstructed transitions, truncated limits, shifts."""

import itertools

import pytest

from adictower import memo, towers
from adictower.exactalg.matrices import Matrix
from adictower.exactalg.rings import RingError, integer_ring, polynomial_ring
from adictower.fpmod.modules import (
    FpModule,
    ModuleMorphism,
    direct_sum,
    element_key,
    free_module,
    module_elements,
    module_order,
    normalize,
)
from adictower.fpmod.morphisms import (
    cokernel,
    compose,
    equal_morphisms,
    find_isomorphism,
    is_injective,
    is_isomorphism,
    is_well_defined,
    kernel,
    submodules_equal,
)
from adictower.towers import (
    ML_HOLDS_BY_SURJECTIVITY,
    ML_NOT_STABILIZED,
    TowerError,
    build_adic_tower,
    build_transition,
    build_transitions,
    canonical_hom_embedding,
    hom_into_colimit,
    inclusion_composite,
    inverse_limit,
    mittag_leffler_check,
    reduction_morphism,
    shift_embedding,
    shift_endomorphism,
    transition_composite,
    truncated_limit,
    truncation_morphism,
)

Z = integer_ring()


def two_adic(depth):
    return build_adic_tower(Z, 2, depth)


def test_tower_levels_and_inclusions():
    tower = two_adic(3)
    assert module_order(tower.level(1)) == 2
    assert module_order(tower.level(3)) == 8
    assert tower.inclusion(1).matrix.to_lists() == [[2]]
    assert tower.level_modulus(2) == 4


def test_tower_rejects_bad_generators():
    with pytest.raises(RingError):
        build_adic_tower(Z, 0, 3)
    with pytest.raises(RingError):
        build_adic_tower(Z, 1, 3)
    with pytest.raises(RingError):
        build_adic_tower(Z, 2, 0)


def test_inclusion_composite_folds_stored_maps():
    tower = two_adic(4)
    comp = inclusion_composite(tower, 1, 4)
    assert comp.matrix.to_lists() == [[8]]
    assert equal_morphisms(
        comp, compose(tower.inclusion(3), compose(tower.inclusion(2), tower.inclusion(1)))
    )


def test_canonical_hom_embedding_detects_doctored_tower():
    tower = two_adic(3)
    # replace an inclusion with the zero map; the canonical map into the
    # hom module is no longer an isomorphism
    tower.inclusions = (
        tower.inclusions[0],
        ModuleMorphism(tower.level(2), tower.level(3), Matrix.from_rows(Z, [[0]])),
    )
    with pytest.raises(TowerError):
        canonical_hom_embedding(tower, 2, 3)


def test_transition_equals_reduction():
    for p in (2, 3):
        tower = build_adic_tower(Z, p, 5)
        for n in range(1, 5):
            delta = build_transition(tower, n)
            assert equal_morphisms(delta, reduction_morphism(tower, n))


def test_transition_composite_reduces_all_the_way():
    tower = two_adic(4)
    comp = transition_composite(tower, 1, 4)
    assert equal_morphisms(comp, ModuleMorphism(
        tower.level(4), tower.level(1), Matrix.from_rows(Z, [[1]])
    ))


def test_hom_into_colimit_stabilizes_immediately():
    tower = two_adic(6)
    for m in range(1, 7):
        col = hom_into_colimit(tower, m)
        assert col.stable_index <= m + 1
        assert find_isomorphism(col.stable_module, tower.level(m)) is not None


def test_truncated_limit_carrier_is_top_level():
    tower = two_adic(3)
    lim = truncated_limit(tower, 3)
    assert is_isomorphism(lim.top)
    assert normalize(lim.carrier).factors == (8,)


def test_truncated_limit_level_one_edge():
    tower = two_adic(1)
    lim = truncated_limit(tower, 1)
    assert module_order(lim.carrier) == 2
    assert is_isomorphism(lim.top)


def test_coherent_element_validation():
    tower = two_adic(3)
    lim = truncated_limit(tower, 3)
    elem = lim.element([1, 3, 3])
    assert elem.components == (1, 3, 3)
    with pytest.raises(ValueError):
        lim.element([1, 3, 4])
    with pytest.raises(ValueError):
        lim.element([1, 3])


def test_coherent_arithmetic():
    tower = two_adic(3)
    lim = truncated_limit(tower, 3)
    a = lim.element([1, 3, 3])
    b = lim.element([1, 1, 5])
    prod = lim.multiply(a, b)
    assert prod.components == (1, 3, 7)
    total = lim.add(a, b)
    assert total.components == (0, 0, 0)
    assert lim.from_scalar(5).components == (1, 1, 5)
    assert lim.one().components == (1, 1, 1)


def test_column_roundtrip():
    tower = two_adic(3)
    lim = truncated_limit(tower, 3)
    a = lim.element([1, 3, 3])
    col = lim.column(a)
    back = lim.element_from_column(col)
    assert back == a


def test_multiplication_morphism_matches_elementwise_product():
    tower = two_adic(3)
    lim = truncated_limit(tower, 3)
    a = lim.element([1, 3, 3])
    b = lim.element([1, 1, 5])
    mult = lim.multiplication_morphism(a)
    moved = lim.element_from_column(mult.matrix @ lim.column(b))
    assert moved == lim.multiply(a, b)


def test_shift_endomorphism_action():
    tower = two_adic(3)
    lim = truncated_limit(tower, 3)
    shift = shift_endomorphism(lim)
    a = lim.element([1, 3, 3])
    moved = lim.element_from_column(shift.matrix @ lim.column(a))
    assert moved == lim.element([0, 2, 6])


def test_shift_image_is_ideal_multiple():
    tower = two_adic(4)
    lim = truncated_limit(tower, 4)
    shift = shift_endomorphism(lim)
    doubled = Matrix.identity(Z, lim.carrier.generators).scale(2)
    assert submodules_equal(lim.carrier, shift.matrix, doubled)
    coker, _ = cokernel(shift)
    assert module_order(coker) == 2


def test_shift_embedding_and_truncation():
    tower = two_adic(3)
    big = truncated_limit(tower, 3)
    small = truncated_limit(tower, 2)
    embed = shift_embedding(small, big)
    drop = truncation_morphism(big, small)
    # dropping right after embedding is the shift on the smaller limit
    back = compose(drop, embed)
    shift = shift_endomorphism(small)
    assert equal_morphisms(back, shift)


def test_inverse_limit_single_module():
    lim = inverse_limit([free_module(Z, 1)], [])
    assert lim.carrier.generators == 1
    assert is_isomorphism(lim.projections[0])
    # Z/4 on two generators, with e1 + e2 = 0 as a relation
    redundant = FpModule(Z, 2, Matrix.from_rows(Z, [[4, 1], [0, 1]]))
    lim = inverse_limit([redundant], [])
    assert lim.carrier.generators == 1
    assert module_order(lim.carrier) == 4
    assert is_isomorphism(lim.projections[0])


def _zsum(*moduli):
    return FpModule(Z, len(moduli), Matrix.diagonal(Z, moduli))


def _zmap(source, target, rows):
    return ModuleMorphism(source, target, Matrix.from_rows(Z, rows))


def _two_generator_system():
    # Z/2+Z/2 <- Z/2+Z/4 <- Z/4+Z/4, the upper map not surjective
    levels = [_zsum(2, 2), _zsum(2, 4), _zsum(4, 4)]
    maps = [
        _zmap(levels[1], levels[0], [[1, 0], [0, 1]]),
        _zmap(levels[2], levels[1], [[0, 1], [0, 1]]),
    ]
    return levels, maps


def _mixed_generator_system():
    # Z/2 <- Z/2+Z/4 <- Z/4 on two generators with e1 + e2 = 0
    redundant = FpModule(Z, 2, Matrix.from_rows(Z, [[4, 1], [0, 1]]))
    levels = [_zsum(2), _zsum(2, 4), redundant]
    maps = [
        _zmap(levels[1], levels[0], [[1, 1]]),
        _zmap(levels[2], levels[1], [[1, 1], [1, 3]]),
    ]
    return levels, maps


@pytest.mark.parametrize(
    "system", [_two_generator_system, _mixed_generator_system], ids=["2-2-2", "1-2-2"]
)
def test_inverse_limit_of_multi_generator_system_matches_enumeration(system):
    levels, maps = system()
    assert all(is_well_defined(f) for f in maps)
    coherent = set()
    for xs in itertools.product(*[module_elements(m, 64) for m in levels]):
        if all(
            element_key(levels[n], f.matrix @ xs[n + 1]) == element_key(levels[n], xs[n])
            for n, f in enumerate(maps)
        ):
            coherent.add(tuple(element_key(m, x) for m, x in zip(levels, xs)))
    lim = inverse_limit(levels, maps)
    assert module_order(lim.carrier) == len(coherent)
    assert is_injective(lim.include)
    projected = {
        tuple(
            element_key(m, p.matrix @ c) for m, p in zip(levels, lim.projections)
        )
        for c in module_elements(lim.carrier, 64)
    }
    assert projected == coherent
    for n, f in enumerate(maps):
        assert equal_morphisms(compose(f, lim.projections[n + 1]), lim.projections[n])


def _kernel_carrier(tower, upto):
    """The limit of levels 1..upto as the kernel of the coherence map
    (x_n) -> (x_n - delta_n(x_{n+1})), built without inverse_limit."""
    ring = tower.ring
    levels = [tower.level(n) for n in range(1, upto + 1)]
    summed, _, _ = direct_sum(levels)
    lower = direct_sum(levels[:-1])[0] if upto > 1 else free_module(ring, 0)
    rows = [[ring.zero] * upto for _ in range(upto - 1)]
    for n in range(upto - 1):
        rows[n][n] = ring.one
        rows[n][n + 1] = ring.neg(build_transition(tower, n + 1).matrix.entries[0][0])
    coherence = Matrix(ring, upto - 1, upto, tuple(tuple(r) for r in rows))
    return kernel(ModuleMorphism(summed, lower, coherence))[0]


@pytest.mark.parametrize(
    "ring, generator, depth",
    [
        (Z, 2, 5),
        (Z, 5, 4),
        (polynomial_ring(2), (0, 1), 5),
        (polynomial_ring(3), (1, 1), 4),
    ],
    ids=["Z-2", "Z-5", "F2x-x", "F3x-x+1"],
)
def test_truncated_limit_carrier_is_minimal(ring, generator, depth):
    tower = build_adic_tower(ring, generator, depth)
    for n in range(1, depth + 1):
        lim = truncated_limit(tower, n)
        assert lim.carrier.same_presentation(tower.level(n))
        assert is_well_defined(lim.include)
        assert is_injective(lim.include)
        assert find_isomorphism(lim.carrier, _kernel_carrier(tower, n)) is not None


def test_mittag_leffler_surjective_shortcut():
    tower = two_adic(4)
    maps = build_transitions(tower)
    modules = [tower.level(n) for n in range(1, 5)]
    check = mittag_leffler_check(modules, maps, 8)
    assert check.verdict == ML_HOLDS_BY_SURJECTIVITY
    assert all(check.surjective_maps)


def test_mittag_leffler_control_fails_to_stabilize():
    free = free_module(Z, 1)
    doubling = ModuleMorphism(free, free, Matrix.from_rows(Z, [[2]]))
    horizon = 5
    modules = [free] * (horizon + 2)
    maps = [doubling] * (horizon + 1)
    check = mittag_leffler_check(modules, maps, horizon)
    assert check.verdict == ML_NOT_STABILIZED


def test_polynomial_tower_end_to_end():
    F2X = polynomial_ring(2)
    x = (0, 1)
    tower = build_adic_tower(F2X, x, 3)
    lim = truncated_limit(tower, 3)
    assert module_order(lim.carrier) == 8
    one = lim.one()
    assert one.components == ((1,), (1,), (1,))
    shift = shift_endomorphism(lim)
    moved = lim.element_from_column(shift.matrix @ lim.column(one))
    assert moved == lim.element([(), x, x])


def test_polynomial_tower_with_quadratic_generator():
    F3X = polynomial_ring(3)
    g = (1, 0, 1)
    tower = build_adic_tower(F3X, g, 2)
    assert module_order(tower.level(2)) == 3 ** 4
    delta = build_transition(tower, 1)
    assert equal_morphisms(delta, reduction_morphism(tower, 1))


def test_limit_arithmetic_reads_its_stored_transitions(monkeypatch):
    # Outside a run nothing is memoised, so element() must not rebuild
    # the transitions that truncated_limit already built.
    assert memo._memo is None
    lim = truncated_limit(two_adic(4), 4)

    def forbidden(tower, n):
        raise AssertionError(f"build_transition({n}) called")

    monkeypatch.setattr(towers, "build_transition", forbidden)
    minus_one = lim.element([1, 3, 7, 15])
    product = lim.multiply(minus_one, lim.from_scalar(5))
    assert product.components == (1, 3, 3, 11)
