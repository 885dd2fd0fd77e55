"""Tower levels, reconstructed transitions, truncated limits, shifts."""

import itertools
import sys

import pytest

from adictower import memo, towers
from adictower.exactalg import matrices
from adictower.exactalg.matrices import Matrix, hstack, vstack
from adictower.exactalg.rings import RingError, integer_ring, polynomial_ring
from adictower.fpmod.modules import (
    FpModule,
    ModuleMorphism,
    free_module,
    module_elements,
    module_order,
    normalize,
)
from adictower.fpmod.functors import hom_module, induced_hom
from adictower.fpmod.morphisms import (
    cokernel,
    compose,
    equal_morphisms,
    find_isomorphism,
    is_injective,
    is_isomorphism,
    is_well_defined,
    submodules_equal,
)
from adictower.towers import (
    ML_HOLDS_BY_SURJECTIVITY,
    ML_NOT_STABILIZED,
    CoherentElement,
    TowerError,
    adjacent_pairs_pass,
    build_adic_tower,
    build_transition,
    build_transitions,
    canonical_hom_embedding,
    hom_into_colimit,
    inclusion_composite,
    inverse_limit,
    limit_preimage,
    mittag_leffler_check,
    truncated_limit,
)
from adictower.verify.pipeline import run_full_report
from oracles import (
    coherence_kernel,
    coherent_product,
    coherent_sum,
    connect_by_inclusion,
    connect_carriers,
    element_key,
    hand_built_tower,
    inclusion_chain,
    inclusion_morphism,
    limit_preimage_by_levels,
    power,
    preimage_by_inclusion,
    reduction_morphism,
    shift_embedding,
    shift_endomorphism,
    transition_chain,
    transition_composite,
    truncated_levels,
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


def test_tower_moduli_take_linear_ring_products(monkeypatch):
    # g^n is one product from g^(n-1), and level_modulus, which every
    # truncated limit reads for its moduli, takes it off the level's
    # relation without a product
    ring = polynomial_ring(2)
    g = ring.parse("x^2+x+1")
    depth = 64
    products = [0]
    real_mul = ring.mul

    def mul(a, b):
        products[0] += 1
        return real_mul(a, b)

    monkeypatch.setattr(ring, "mul", mul)
    with memo.memo_scope():
        tower = build_adic_tower(ring, g, depth)
        assert products[0] <= 8 * depth
        built = products[0]
        moduli = [tower.level_modulus(n) for n in range(1, depth + 1)]
        assert products[0] == built
    monkeypatch.undo()
    for n in (1, 2, 17, depth):
        assert moduli[n - 1] == power(ring, g, n)


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
    can = canonical_hom_embedding(tower, 2, 3)
    assert can.source == tower.level(2)
    assert can.target == hom_module(tower.level(2), tower.level(3)).module
    assert is_isomorphism(can)
    # replace an inclusion with the zero map; the canonical map into the
    # hom module is no longer an isomorphism
    tower.inclusions = (
        tower.inclusions[0],
        ModuleMorphism(tower.level(2), tower.level(3), Matrix.from_rows(Z, [[0]])),
    )
    with pytest.raises(TowerError):
        canonical_hom_embedding(tower, 2, 3)


@pytest.mark.parametrize(
    "ring, generator",
    [(Z, 2), (Z, 5), (polynomial_ring(3), (1, 1)), (polynomial_ring(2), (1, 1, 1))],
    ids=["Z-2", "Z-5", "F3x-x+1", "F2x-x^2+x+1"],
)
def test_adjacent_pairs_pass_on_adic_towers(ring, generator):
    for depth in (1, 2, 5):
        with memo.memo_scope():
            assert adjacent_pairs_pass(build_adic_tower(ring, generator, depth))


@pytest.mark.parametrize(
    "spec",
    [
        # Z/4 -> Z/8 by 0: the canonical map of (2, 3) is not an isomorphism
        ((2, 4, 8), (2, 0), 2),
        # Z/1 -> Z/2 by 1 is not a morphism out of the zero level
        ((1, 2), (1,), 2),
    ],
)
def test_adjacent_pairs_fail_on_doctored_towers(spec):
    with memo.memo_scope():
        assert not adjacent_pairs_pass(hand_built_tower(*spec))


def test_adjacent_pairs_need_one_generator_levels():
    tower = two_adic(3)
    two = FpModule(Matrix.from_rows(Z, [[2, 0], [0, 2]]))
    tower.levels = (two,) + tower.levels[1:]
    assert not adjacent_pairs_pass(tower)


def test_canonical_hom_embedding_rejects_a_map_out_of_a_zero_level():
    # the hom encoder reads only the standard block, which Z/1 lacks
    tower = hand_built_tower((1, 2), (1,), 2)
    with pytest.raises(TowerError, match="not a morphism"):
        canonical_hom_embedding(tower, 1, 2)
    canonical_hom_embedding(hand_built_tower((1, 2), (2,), 2), 1, 2)


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
        index = hom_into_colimit(tower, m)
        assert index <= m + 1
        stable = hom_module(tower.level(m), tower.level(index)).module
        assert find_isomorphism(stable, tower.level(m)) is not None


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
    prod = coherent_product(lim, a, b)
    assert prod.components == (1, 3, 7)
    total = coherent_sum(lim, a, b)
    assert total.components == (0, 0, 0)
    assert lim.from_scalar(5).components == (1, 1, 5)
    assert lim.one().components == (1, 1, 1)


def test_column_roundtrip():
    tower = two_adic(3)
    lim = truncated_limit(tower, 3)
    a = lim.element([1, 3, 3])
    col = lim.columns([a])
    back = lim.elements_from_columns(col)[0]
    assert back == a


def test_multiplication_morphism_matches_elementwise_product():
    tower = two_adic(3)
    lim = truncated_limit(tower, 3)
    a = lim.element([1, 3, 3])
    b = lim.element([1, 1, 5])
    (mult,) = lim.multiplication_morphisms([a])
    moved = lim.elements_from_columns(mult.matrix @ lim.columns([b]))[0]
    assert moved == coherent_product(lim, a, b)


def test_shift_endomorphism_action():
    tower = two_adic(3)
    lim = truncated_limit(tower, 3)
    shift = shift_endomorphism(lim)
    a = lim.element([1, 3, 3])
    moved = lim.elements_from_columns(shift.matrix @ lim.columns([a]))[0]
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
    redundant = FpModule(Matrix.from_rows(Z, [[4, 1], [0, 1]]))
    lim = inverse_limit([redundant], [])
    assert lim.carrier.generators == 1
    assert module_order(lim.carrier) == 4
    assert is_isomorphism(lim.projections[0])


def _zsum(*moduli):
    return FpModule(Matrix.diagonal(Z, moduli))


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
    redundant = FpModule(Matrix.from_rows(Z, [[4, 1], [0, 1]]))
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
    assert is_injective(inclusion_morphism(lim, levels))
    projected = {
        tuple(
            element_key(m, p.matrix @ c) for m, p in zip(levels, lim.projections)
        )
        for c in module_elements(lim.carrier, 64)
    }
    assert projected == coherent
    for n, f in enumerate(maps):
        assert equal_morphisms(compose(f, lim.projections[n + 1]), lim.projections[n])


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
        assert lim.carrier == tower.level(n)
        include = inclusion_morphism(lim, tower.levels[:n])
        assert is_well_defined(include)
        assert is_injective(include)
        kernel_carrier = coherence_kernel(tower, n).source
        assert find_isomorphism(lim.carrier, kernel_carrier) is not None


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
    tower = build_adic_tower(F2X, (0, 1), 3)
    lim = truncated_limit(tower, 3)
    assert module_order(lim.carrier) == 8
    one = lim.one()
    assert [F2X.format(c) for c in one.components] == ["1", "1", "1"]
    shift = shift_endomorphism(lim)
    moved = lim.elements_from_columns(shift.matrix @ lim.columns([one]))[0]
    assert moved == lim.element([(), (0, 1), (0, 1)])
    assert [F2X.format(c) for c in moved.components] == ["0", "x", "x"]


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
    assert lim.from_top(15) == minus_one
    product = coherent_product(lim, minus_one, lim.from_scalar(5))
    assert product.components == (1, 3, 3, 11)


@pytest.mark.parametrize(
    "ring, generator, depth",
    [
        (Z, 2, 6),
        (polynomial_ring(2), (1, 1, 1), 3),
        (polynomial_ring(3), (1, 1), 4),
    ],
    ids=["Z-2", "F2x-x2+x+1", "F3x-x+1"],
)
def test_batched_multiplications_match_one_restriction_each(ring, generator, depth):
    tower = build_adic_tower(ring, ring.canonical(generator), depth)
    with memo.memo_scope():
        lim = truncated_limit(tower, depth)
        elems = lim.elements_from_columns(module_elements(lim.carrier, 4096).matrix)
        assert len(elems) == module_order(lim.carrier)
        batch = lim.multiplication_morphisms(elems)
        for elem, mult in zip(elems, batch):
            scalar = Matrix.diagonal(ring, elem.components)
            assert mult == connect_carriers(lim, lim, scalar)
        # stored per element: a later call for one of them is a lookup
        assert lim.multiplication_morphisms([elems[-1]])[0] is batch[-1]
        # a string off the carrier at any one level below the top is
        # refused, by the batch as by the single restriction
        one = lim.one().components
        for n in range(depth - 1):
            comps = one[:n] + (ring.add(one[n], ring.one),) + one[n + 1 :]
            stray = CoherentElement(depth, comps)
            with pytest.raises(TowerError):
                connect_carriers(lim, lim, Matrix.diagonal(ring, comps))
            with pytest.raises(TowerError):
                lim.multiplication_morphisms(elems[:3] + [stray])
            with pytest.raises(TowerError):
                lim.columns(elems[:3] + [stray])


ORACLE_TOWERS = pytest.mark.parametrize(
    "ring, generator, depth",
    [
        (Z, 2, 8),
        (Z, 3, 6),
        (Z, 5, 5),
        (polynomial_ring(2), (1, 1, 1), 4),
        (polynomial_ring(3), (1, 1), 6),
    ],
    ids=["Z-2", "Z-3", "Z-5", "F2x-x2+x+1", "F3x-x+1"],
)


@ORACLE_TOWERS
def test_folded_limit_spans_the_coherence_kernel(ring, generator, depth):
    tower = build_adic_tower(ring, generator, depth)
    levels = list(tower.levels)
    for n in range(1, depth + 1):
        expected = coherence_kernel(tower, n)
        folded = [
            truncated_limit(tower, n),
            inverse_limit(levels[:n], build_transitions(tower)[: n - 1]),
        ]
        for lim in folded:
            include = inclusion_morphism(lim, levels[:n])
            assert include.target == expected.target
            assert submodules_equal(include.target, include.matrix, expected.matrix)


def _subdiagonal(ring, g, rows, cols):
    """Ambient map pushing component j up to component j+1 through g."""
    return Matrix.from_rows(
        ring,
        [[g if i == j + 1 else 0 for j in range(cols)] for i in range(rows)],
    )


@ORACLE_TOWERS
def test_restriction_through_the_top_matches_the_inclusion_lift(ring, generator, depth):
    tower = build_adic_tower(ring, generator, depth)
    g = tower.ideal.generator
    with memo.memo_scope():
        for n in range(2, depth + 1):
            hi = truncated_limit(tower, n)
            lo = truncated_limit(tower, n - 1)
            gen = hi.elements_from_columns(Matrix.identity(ring, 1))[0]
            for elem in (gen, hi.from_scalar(ring.add(g, ring.one))):
                scalar = Matrix.diagonal(ring, elem.components)
                assert equal_morphisms(
                    hi.multiplication_morphisms([elem])[0],
                    connect_by_inclusion(hi, hi, scalar),
                )
                coherent = Matrix.column(ring, list(elem.components))
                lifted = preimage_by_inclusion(hi, truncated_levels(hi), coherent)
                assert element_key(hi.carrier, hi.columns([elem])) == element_key(
                    hi.carrier, lifted
                )
            assert equal_morphisms(
                shift_endomorphism(hi),
                connect_by_inclusion(hi, hi, _subdiagonal(ring, g, n, n)),
            )
            assert equal_morphisms(
                truncation_morphism(hi, lo),
                connect_by_inclusion(
                    hi, lo, Matrix.identity(ring, n).row_slice(0, n - 1)
                ),
            )
            assert equal_morphisms(
                shift_embedding(lo, hi),
                connect_by_inclusion(lo, hi, _subdiagonal(ring, g, n, n - 1)),
            )


def test_restriction_rejects_a_map_that_leaves_the_carrier():
    # Killing the middle level breaks coherence, though the top row alone
    # lifts through the top isomorphism.
    lim = truncated_limit(two_adic(3), 3)
    big = Matrix.diagonal(Z, (1, 0, 1))
    with pytest.raises(TowerError):
        connect_carriers(lim, lim, big)
    with pytest.raises(TowerError):
        connect_by_inclusion(lim, lim, big)


def test_limits_never_sum_more_than_two_modules(monkeypatch):
    # A limit's inclusion is a matrix: the fold sums the limit so far and
    # the next level, and neither a truncated limit nor the hom limit of
    # lemma_weak_epi builds the direct sum of all its levels.
    summands = []
    real = towers.direct_sum

    def counting(modules):
        modules = list(modules)
        summands.append(len(modules))
        return real(modules)

    monkeypatch.setattr(towers, "direct_sum", counting)
    truncated_limit(two_adic(6), 6)
    assert run_full_report(Z, 2, 6).overall == "pass"
    assert summands and max(summands) <= 2


def test_limit_maps_outside_a_scope_solve_through_the_top(monkeypatch):
    assert memo._memo is None
    lim = truncated_limit(two_adic(12), 12)
    low = truncated_limit(lim.tower, 11)
    widths = []
    compute = matrices._compute_smith_form

    def recording(a):
        widths.append(a.cols)
        return compute(a)

    monkeypatch.setattr(matrices, "_compute_smith_form", recording)
    lim.columns([lim.from_scalar(5)])
    shift_endomorphism(lim)
    truncation_morphism(lim, low)
    assert widths
    assert max(widths) <= 12


def test_repeated_columns_in_one_scope_compute_no_more_smith_forms(monkeypatch):
    # Outside a scope every call solves again; a library caller that opens
    # memo_scope() pays for the Smith forms of the first round only.
    lim = truncated_limit(two_adic(6), 6)
    elements = [lim.from_scalar(r) for r in (0, 1, 5, 37)]
    computed = []
    compute = matrices._compute_smith_form

    def counting(a):
        computed.append(a)
        return compute(a)

    monkeypatch.setattr(matrices, "_compute_smith_form", counting)

    def smith_forms_per_round(rounds):
        computed.clear()
        for _ in range(rounds):
            for elem in elements:
                lim.columns([elem])
                lim.multiplication_morphisms([elem])
        return len(computed)

    single = smith_forms_per_round(1)
    assert single > 0
    assert smith_forms_per_round(2) == 2 * single
    with memo.memo_scope():
        assert 0 < smith_forms_per_round(1) <= single
        assert smith_forms_per_round(2) == 0


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_limit_outside_a_scope_does_not_recurse():
    assert memo._memo is None
    tower = two_adic(40)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        lim = truncated_limit(tower, 40)
    finally:
        sys.setrecursionlimit(old)
    assert normalize(lim.carrier).factors == (2**40,)


@ORACLE_TOWERS
def test_composites_match_the_compose_chain(ring, generator, depth):
    tower = build_adic_tower(ring, generator, depth)
    pairs = [(a, b) for a in range(1, depth + 1) for b in range(a, depth + 1)]

    def composites():
        return [
            (inclusion_composite(tower, a, b), transition_composite(tower, a, b))
            for a, b in pairs
        ]

    outside = composites()
    with memo.memo_scope():
        inside = composites()
        # past the identity, a repeated composite is the stored one
        assert all(
            x is y
            for (a, b), old, new in zip(pairs, inside, composites())
            if a < b
            for x, y in zip(old, new)
        )
    for (a, b), *built in zip(pairs, outside, inside):
        chains = (inclusion_chain(tower, a, b), transition_chain(tower, a, b))
        for maps in built:
            for got, want in zip(maps, chains):
                assert got.matrix == want.matrix
                assert got.source is want.source and got.target is want.target


def test_deep_composites_do_not_recurse():
    tower = two_adic(256)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        up = inclusion_composite(tower, 1, 256)
        down = transition_composite(tower, 1, 256)
        with memo.memo_scope():
            assert inclusion_composite(tower, 1, 256).matrix == up.matrix
            assert transition_composite(tower, 1, 256).matrix == down.matrix
    finally:
        sys.setrecursionlimit(old)
    assert up.matrix.entries == ((2**255,),)
    assert equal_morphisms(
        down, ModuleMorphism(tower.level(256), tower.level(1), Matrix.identity(Z, 1))
    )


@pytest.mark.parametrize("m", [1, 40])
def test_next_composite_costs_a_constant_number_of_lookups(monkeypatch, m):
    # With the composite a level shorter stored, a missing composite asks
    # for it and for two coarser shorter ones, then composes once: the
    # count does not grow with the length.
    calls = []

    def spy(fn, *args):
        calls.append(fn)
        return memo.run_memo(fn, *args)

    tower = two_adic(200)
    with memo.memo_scope():
        inclusion_composite(tower, m, 199)
        monkeypatch.setattr(towers, "run_memo", spy)
        longer = inclusion_composite(tower, m, 200)
    assert len(calls) == 5
    assert longer.matrix.entries == ((2 ** (200 - m),),)


def _doctored(amb: Matrix, row: int, col: int, shift) -> Matrix:
    """``amb`` with ``shift`` added to one entry."""
    rows = [list(r) for r in amb.entries]
    rows[row][col] = amb.ring.add(rows[row][col], shift)
    return Matrix(amb.ring, amb.rows, amb.cols, tuple(map(tuple, rows)))


def _hom_limit(tower):
    """The limit of Hom(carrier, level n) over the levels, as
    ``lemma_weak_epi`` builds it, those hom modules, and the level
    components of the carrier's endomorphism basis stacked into ambient
    columns."""
    limit = truncated_limit(tower, tower.depth)
    carrier = limit.carrier
    homs = [hom_module(carrier, level) for level in tower.levels]
    maps = [
        induced_hom(build_transition(tower, n), carrier, "post")
        for n in range(1, tower.depth)
    ]
    lim = inverse_limit([h.module for h in homs], maps)
    endo = hom_module(carrier, carrier)
    cols = hstack(
        [
            vstack(
                [
                    h.encode(compose(p, endo.basis_morphism(t)))
                    for h, p in zip(homs, limit.projections)
                ]
            )
            for t in range(endo.module.generators)
        ]
    )
    return lim, [h.module for h in homs], cols


@ORACLE_TOWERS
def test_hom_limit_preimage_through_the_top_matches_the_inclusion_lift(
    ring, generator, depth
):
    tower = build_adic_tower(ring, generator, depth)
    with memo.memo_scope():
        lim, modules, cols = _hom_limit(tower)
        assert is_isomorphism(lim.projections[-1])
        fast = limit_preimage(lim, cols)
        slow = preimage_by_inclusion(lim, modules, cols)
        assert fast is not None and slow is not None
        free = free_module(ring, cols.cols)
        assert equal_morphisms(
            ModuleMorphism(free, lim.carrier, fast),
            ModuleMorphism(free, lim.carrier, slow),
        )
        # a bottom component moved off the transition of the one above
        broken = _doctored(cols, 0, 0, ring.one)
        assert limit_preimage(lim, broken) is None
        assert preimage_by_inclusion(lim, modules, broken) is None


@pytest.mark.parametrize(
    "ring, generator",
    [
        (Z, 2),
        (Z, 5),
        (polynomial_ring(3), (1, 1)),
        (polynomial_ring(2), (1, 1, 1)),
    ],
    ids=["Z-2", "Z-5", "F3x-x+1", "F2x-x2+x+1"],
)
def test_limit_preimage_matches_the_check_level_by_level(ring, generator):
    # one product with the whole inclusion keeps a lift exactly when one
    # product per level projection does: on coherent strings, diagonal
    # ambient maps and the hom limit's columns, each also with one entry
    # moved by one or by its level's modulus
    for depth in range(1, 7):
        tower = build_adic_tower(ring, generator, depth)
        with memo.memo_scope():
            limit = truncated_limit(tower, depth)
            g = tower.level_modulus(1)
            tops = (ring.one, ring.add(g, ring.one), ring.sub(ring.mul(g, g), ring.one))
            elems = [limit.from_top(r) for r in tops]
            strings = hstack(
                [Matrix.column(ring, e.components) for e in elems] + [limit.include]
            )
            diagonals = hstack(
                [Matrix.diagonal(ring, e.components) @ limit.include for e in elems]
            )
            hom_lim, _, hom_cols = _hom_limit(tower)
            cases = [(limit, strings), (limit, diagonals), (hom_lim, hom_cols)]
            kept = refused = 0
            for lim, amb in cases:
                variants = [amb] + [
                    _doctored(amb, row, 0, shift)
                    for row in range(amb.rows)
                    for shift in (ring.one, tower.level_modulus(row + 1))
                ]
                for cols in variants:
                    fast = limit_preimage(lim, cols)
                    assert fast == limit_preimage_by_levels(lim, cols)
                    kept += fast is not None
                    refused += fast is None
            assert kept
            assert refused or depth == 1


@pytest.mark.parametrize(
    "lookup",
    [
        lambda tower, n: inclusion_composite(tower, 1, n),
        lambda tower, n: transition_composite(tower, 1, n),
        truncated_limit,
    ],
    ids=["inclusion_composite", "transition_composite", "truncated_limit"],
)
def test_repeated_composite_or_limit_is_one_lookup(monkeypatch, lookup):
    # Composites and limits are stored under their tower and range, so
    # asking again does not walk the memo level by level.
    calls = []

    def spy(fn, *args):
        calls.append(fn)
        return memo.run_memo(fn, *args)

    monkeypatch.setattr(towers, "run_memo", spy)
    tower = two_adic(6)
    with memo.memo_scope():
        first = lookup(tower, 6)
        assert len(calls) > 1
        calls.clear()
        assert lookup(tower, 6) is first
    assert len(calls) == 1


def test_a_chain_shares_its_steps_and_stores_each_entry_once(monkeypatch):
    # Composites anchored at one level share their steps: the composite
    # down from level k is one compose onto the one down from level k - 1.
    # No composite is stored a second time as a compose step, and each
    # limit is stored once.
    tower = two_adic(32)
    composes = []
    real = towers.compose

    def counting(second, first):
        composes.append((second, first))
        return real(second, first)

    with memo.memo_scope():
        build_transitions(tower)
        monkeypatch.setattr(towers, "compose", counting)
        for k in range(2, 33):
            transition_composite(tower, 1, k)
        for n in range(1, 33):
            truncated_limit(tower, n)
        stored = dict(memo._memo)
    assert len(composes) <= 31
    assert not any(key[0] in (real, counting) for key in stored)
    assert sum(isinstance(v, towers.TruncatedLimit) for v in stored.values()) == 32
