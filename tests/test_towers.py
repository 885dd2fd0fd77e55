"""Tower levels, reconstructed transitions, truncated limits, shifts."""

import itertools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from adictower import memo, towers
from adictower.exactalg import matrices
from adictower.exactalg.matrices import Matrix, hstack
from adictower.exactalg.rings import RingError, integer_ring, polynomial_ring
from adictower.fpmod.modules import (
    FpModule,
    ModuleMorphism,
    free_module,
    module_elements,
    module_order,
    normalize,
)
from adictower.fpmod.functors import hom_module
from adictower.fpmod.morphisms import (
    cokernel,
    compose,
    find_isomorphism,
    identity_morphism,
    is_injective,
    is_isomorphism,
    is_well_defined,
    submodules_equal,
)
from adictower.towers import (
    ML_HOLDS_BY_SURJECTIVITY,
    ML_NOT_STABILIZED,
    TowerError,
    adjacent_pairs_pass,
    build_adic_tower,
    build_transition,
    certify_canonical_map,
    hom_into_colimit,
    inclusion_composite,
    inverse_limit,
    mittag_leffler_check,
    truncated_limit,
)
import oracles
from oracles import (
    _level_hom_checks,
    ambient_limit,
    ambient_strings,
    build_transitions,
    coherence_kernel,
    coherent_product,
    coherent_string,
    columns_by_preimage,
    connect_by_inclusion,
    connect_carriers,
    element_key,
    equal_morphisms,
    folds_reach_the_top,
    hand_built_tower,
    inclusion_chain,
    inclusion_morphism,
    level_hom_limit,
    limit_preimage,
    limit_preimage_by_levels,
    limit_projections,
    level_moduli,
    multiplication_by_connect,
    power,
    preimage_by_inclusion,
    reduction_morphism,
    refused_or,
    residue_string,
    shift_embedding,
    strings_agree,
    strings_by_inclusion,
    shift_endomorphism,
    transition_chain,
    transition_composite,
    transitions_unlike_their_conjugation,
    truncated_levels,
    truncation_morphism,
)
from adictower.verify.pipeline import run_full_report
from strategies import inverse_system, ring_elements, small_towers

Z = integer_ring()


def two_adic(depth):
    return build_adic_tower(Z, 2, depth)


def _top_block_is_identity(lim):
    """Whether the last block of rows of a limit's inclusion, its top
    projection, is the identity matrix."""
    gens = lim.carrier.generators
    rows = lim.include.rows
    return lim.include.row_slice(rows - gens, rows) == Matrix.identity(
        lim.carrier.ring, gens
    )


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
    # the map itself is the oracle's, through the hom module; the program
    # certifies it off the moduli and raises where the oracle does
    tower = two_adic(3)
    can = oracles.canonical_hom_embedding(tower, 2, 3)
    assert can.source == tower.level(2)
    assert can.target == hom_module(tower.level(2), tower.level(3)).module
    assert is_isomorphism(can)
    certify_canonical_map(tower, 2, 3)
    # replace an inclusion with the zero map; the canonical map into the
    # hom module is no longer an isomorphism
    tower.inclusions = (
        tower.inclusions[0],
        ModuleMorphism(tower.level(2), tower.level(3), Matrix.from_rows(Z, [[0]])),
    )
    for check in (oracles.canonical_hom_embedding, certify_canonical_map):
        with pytest.raises(TowerError, match="not an isomorphism"):
            check(tower, 2, 3)


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
    # Z/1 -> Z/2 by 1 is no morphism: 2 does not divide 1.1; the oracle's
    # hom encoder reads only the standard block, which Z/1 lacks, so it
    # asks the morphism test too
    tower = hand_built_tower((1, 2), (1,), 2)
    for check in (oracles.canonical_hom_embedding, certify_canonical_map):
        with pytest.raises(TowerError, match="not a morphism"):
            check(tower, 1, 2)
        check(hand_built_tower((1, 2), (2,), 2), 1, 2)


def test_transition_equals_reduction():
    for p in (2, 3):
        tower = build_adic_tower(Z, p, 5)
        for n in range(1, 5):
            delta = build_transition(tower, n)
            assert equal_morphisms(delta, reduction_morphism(tower, n))


@given(small_towers())
@settings(max_examples=200, deadline=None)
def test_transitions_are_the_conjugated_transitions(tower):
    # build_transition returns the reduction once the canonical maps it
    # asks for are certified; conjugating restriction through them raises
    # exactly where it does, with the same message, and otherwise gives
    # the reduction as a map
    assert transitions_unlike_their_conjugation(tower) == []


def test_a_doctored_transition_is_unlike_its_conjugation(monkeypatch):
    tower = two_adic(3)

    def zero(tower_, n):
        t = build_transition(tower_, n)
        return ModuleMorphism(t.source, t.target, Matrix.from_rows(Z, [[0]]))

    def refused(tower_, n):
        raise TowerError("doctored")

    monkeypatch.setattr(oracles, "build_transition", zero)
    assert transitions_unlike_their_conjugation(tower) == [
        f"transition {n}: not the conjugated transition" for n in (1, 2)
    ]
    monkeypatch.setattr(oracles, "build_transition", refused)
    assert transitions_unlike_their_conjugation(tower) == [
        f"transition {n}: ('TowerError', 'doctored') against None" for n in (1, 2)
    ]


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
    assert _top_block_is_identity(ambient_limit(lim))
    assert normalize(lim.carrier).factors == (8,)
    assert lim.modulus == 8


def test_truncated_limit_level_one_edge():
    tower = two_adic(1)
    lim = truncated_limit(tower, 1)
    assert module_order(lim.carrier) == 2
    assert _top_block_is_identity(ambient_limit(lim))


def test_column_roundtrip():
    # the top residue 3 is the carrier column; the inclusion sends it to
    # its string of level components, and the string restricts back to it
    tower = two_adic(3)
    lim = truncated_limit(tower, 3)
    col = Matrix.from_rows(Z, [[3]])
    assert strings_by_inclusion(lim, col) == [residue_string(lim, 3)] == [(1, 3, 3)]
    assert columns_by_preimage(lim, [(1, 3, 3)]) == col


def test_multiplication_morphism_matches_elementwise_product():
    tower = two_adic(3)
    lim = truncated_limit(tower, 3)
    (mult,) = lim.multiplication_morphisms([3])
    moved = strings_by_inclusion(lim, mult.matrix @ Matrix.from_rows(Z, [[5]]))[0]
    a, b = residue_string(lim, 3), residue_string(lim, 5)
    assert moved == coherent_product(lim, a, b) == (1, 3, 7)


def test_shift_endomorphism_action():
    tower = two_adic(3)
    lim = truncated_limit(tower, 3)
    shift = shift_endomorphism(lim)
    moved = strings_by_inclusion(lim, shift.matrix @ Matrix.from_rows(Z, [[3]]))[0]
    assert moved == coherent_string(lim, [0, 2, 6])


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
    # The limit of one module is the module itself, whatever its
    # presentation, and its one projection is the identity.
    # Z/4 on two generators, with e1 + e2 = 0 as a relation
    redundant = FpModule(Matrix.from_rows(Z, [[4, 1], [0, 1]]))
    for module in (free_module(Z, 1), redundant):
        lim = inverse_limit([module], [])
        assert lim.carrier == module
        assert limit_projections(lim) == [identity_morphism(module)]
        assert _top_block_is_identity(lim)


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
            element_key(m, p.matrix @ c) for m, p in zip(levels, limit_projections(lim))
        )
        for c in module_elements(lim.carrier, 64)
    }
    assert projected == coherent
    projections = limit_projections(lim)
    for n, f in enumerate(maps):
        assert equal_morphisms(compose(f, projections[n + 1]), projections[n])
    assert folds_reach_the_top(lim, levels, maps)


@pytest.mark.parametrize("ring", [Z, polynomial_ring(3)], ids=["Z", "F3x"])
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_limit_is_the_top_of_its_fold(ring, data):
    # A finite limit is its top module, whatever the maps: the limit folded
    # one level at a time as an iterated pullback is isomorphic to the top
    # module through its top projection, compatibly with every projection.
    modules, maps = inverse_system(data, ring)
    lim = inverse_limit(modules, maps)
    assert lim.carrier == modules[-1]
    projections = limit_projections(lim)
    for n, f in enumerate(maps):
        assert equal_morphisms(compose(f, projections[n + 1]), projections[n])
    assert folds_reach_the_top(lim, modules, maps)


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
        include = inclusion_morphism(ambient_limit(lim), tower.levels[:n])
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
    one = residue_string(lim, F2X.one)
    assert [F2X.format(c) for c in one] == ["1", "1", "1"]
    shift = shift_endomorphism(lim)
    moved = strings_by_inclusion(lim, shift.matrix @ Matrix.column(F2X, [F2X.one]))[0]
    assert moved == coherent_string(lim, [(), (0, 1), (0, 1)])
    assert [F2X.format(c) for c in moved] == ["0", "x", "x"]


def test_polynomial_tower_with_quadratic_generator():
    F3X = polynomial_ring(3)
    g = (1, 0, 1)
    tower = build_adic_tower(F3X, g, 2)
    assert module_order(tower.level(2)) == 3 ** 4
    delta = build_transition(tower, 1)
    assert equal_morphisms(delta, reduction_morphism(tower, 1))


def test_limit_arithmetic_reads_its_stored_transitions(monkeypatch):
    # Outside a run nothing is memoised, so the limit's arithmetic must
    # not rebuild the transitions that truncated_limit already certified:
    # an element is its top residue, and multiplication by it reads no
    # transition at all.
    assert memo._memo is None
    lim = truncated_limit(two_adic(4), 4)

    def forbidden(tower, n):
        raise AssertionError(f"build_transition({n}) called")

    monkeypatch.setattr(towers, "build_transition", forbidden)
    (minus_one,) = lim.multiplication_morphisms([15])
    product = (minus_one.matrix @ Matrix.from_rows(Z, [[5]])).entries[0][0]
    assert residue_string(lim, product) == (1, 3, 3, 11)


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
        tops = module_elements(lim.carrier, 4096).matrix.entries[0]
        assert len(tops) == module_order(lim.carrier)
        batch = lim.multiplication_morphisms(tops)
        for x, mult in zip(tops, batch):
            scalar = Matrix.diagonal(ring, residue_string(lim, x))
            assert equal_morphisms(mult, connect_carriers(lim, lim, scalar))
        # stored per element: a later call for one of them is a lookup
        assert lim.multiplication_morphisms([tops[-1]])[0] is batch[-1]
        # the diagonal of a string off the carrier at any one level below
        # the top is refused
        one = residue_string(lim, ring.one)
        for n in range(depth - 1):
            comps = one[:n] + (ring.add(one[n], ring.one),) + one[n + 1 :]
            with pytest.raises(TowerError):
                connect_carriers(lim, lim, Matrix.diagonal(ring, comps))


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
        assert truncated_limit(tower, n).carrier is levels[n - 1]
        lim = inverse_limit(levels[:n], build_transitions(tower)[: n - 1])
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
            for x in (ring.one, ring.rem(ring.add(g, ring.one), hi.modulus)):
                string = residue_string(hi, x)
                assert equal_morphisms(
                    hi.multiplication_morphisms([x])[0],
                    connect_by_inclusion(hi, hi, Matrix.diagonal(ring, string)),
                )
                coherent = Matrix.column(ring, list(string))
                lifted = preimage_by_inclusion(
                    ambient_limit(hi), truncated_levels(hi), coherent
                )
                assert element_key(hi.carrier, Matrix.column(ring, [x])) == element_key(
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


def test_limits_compute_no_smith_form_beyond_the_transitions(monkeypatch):
    # A limit is its top level with the composite transitions stacked: once
    # the transitions are built, neither the truncated limits nor a limit
    # of the same modules and maps solves anything.
    tower = two_adic(6)
    computed = []

    def counted(fn):
        def counting(a):
            computed.append(a)
            return fn(a)

        return counting

    with memo.memo_scope():
        transitions = build_transitions(tower)
        monkeypatch.setattr(
            matrices, "_compute_smith_form", counted(matrices._compute_smith_form)
        )
        monkeypatch.setattr(
            "adictower.fpmod.modules.smith_rows", counted(matrices.smith_rows)
        )
        limits = [truncated_limit(tower, n) for n in range(1, 7)]
        lim = inverse_limit(list(tower.levels), transitions)
        ambient = ambient_limit(limits[-1])
    assert computed == []
    assert [limit.carrier for limit in limits] == list(tower.levels)
    assert lim.include == ambient.include


def test_limit_maps_outside_a_scope_solve_through_the_top(monkeypatch):
    # Once the limits are built, a multiplication is its top residue and a
    # restriction takes the top rows of the ambient columns: outside a
    # scope they compute no Smith form.
    assert memo._memo is None
    lim = truncated_limit(two_adic(12), 12)
    ambient = ambient_limit(lim)
    computed = []
    compute = matrices._compute_smith_form

    def recording(a):
        computed.append(a)
        return compute(a)

    monkeypatch.setattr(matrices, "_compute_smith_form", recording)
    lim.multiplication_morphisms([5])
    scalar = Matrix.diagonal(Z, residue_string(lim, 5))
    assert limit_preimage(ambient, scalar @ ambient.include) == Matrix.from_rows(
        Z, [[5]]
    )
    assert computed == []


def test_repeated_columns_in_one_scope_compute_no_more_smith_forms(monkeypatch):
    # The limit layer solves nothing: outside a scope and inside one, the
    # multiplications by top residues, which are their own carrier
    # columns, compute no Smith form, on the first round and on every
    # repeat.
    lim = truncated_limit(two_adic(6), 6)
    elements = [0, 1, 5, 37]
    computed = []
    compute = matrices._compute_smith_form

    def counting(a):
        computed.append(a)
        return compute(a)

    monkeypatch.setattr(matrices, "_compute_smith_form", counting)

    def smith_forms_per_round(rounds):
        computed.clear()
        for _ in range(rounds):
            for x in elements:
                lim.multiplication_morphisms([x])
        return len(computed)

    assert smith_forms_per_round(1) == 0
    assert smith_forms_per_round(2) == 0
    with memo.memo_scope():
        assert smith_forms_per_round(1) == 0
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
    assert lim.modulus == 2**40
    assert ambient_limit(lim).include == Matrix.column(Z, [1] * 40)


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
    # With the composite a level shorter stored, a missing composite looks
    # its chain up once and composes once onto the last entry: the count
    # does not grow with the length.
    calls = []

    def spy(fn, *args):
        calls.append(fn)
        return memo.run_memo(fn, *args)

    tower = two_adic(200)
    with memo.memo_scope():
        inclusion_composite(tower, m, 199)
        monkeypatch.setattr(towers, "run_memo", spy)
        longer = inclusion_composite(tower, m, 200)
    assert calls == [towers._chain]
    assert longer.matrix.entries == ((2 ** (200 - m),),)


def _doctored(amb: Matrix, row: int, col: int, shift) -> Matrix:
    """``amb`` with ``shift`` added to one entry."""
    rows = [list(r) for r in amb.entries]
    rows[row][col] = amb.ring.add(rows[row][col], shift)
    return Matrix(amb.ring, amb.rows, amb.cols, tuple(map(tuple, rows)))


@ORACLE_TOWERS
def test_hom_limit_preimage_through_the_top_matches_the_inclusion_lift(
    ring, generator, depth
):
    tower = build_adic_tower(ring, generator, depth)
    with memo.memo_scope():
        assert _level_hom_checks(tower) == []
        lim, modules, _, cols = level_hom_limit(tower)
        assert _top_block_is_identity(lim)
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
            ambient = ambient_limit(limit)
            g = tower.level_modulus(1)
            tops = (ring.one, ring.add(g, ring.one), ring.sub(ring.mul(g, g), ring.one))
            elems = [residue_string(limit, r) for r in tops]
            strings = hstack(
                [Matrix.column(ring, list(e)) for e in elems] + [ambient.include]
            )
            diagonals = hstack(
                [Matrix.diagonal(ring, e) @ ambient.include for e in elems]
            )
            hom_lim, _, _, hom_cols = level_hom_limit(tower)
            cases = [(ambient, strings), (ambient, diagonals), (hom_lim, hom_cols)]
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
    # Composites and limits are entries of one stored list per chain, so a
    # call looks its own chain up once, first (the transitions a limit or a
    # composite transition builds look up inclusion chains of their own),
    # and asking again builds nothing and looks nothing else up.
    calls = []

    def spy(fn, *args):
        calls.append((fn, *args))
        return memo.run_memo(fn, *args)

    monkeypatch.setattr(towers, "run_memo", spy)
    tower = two_adic(6)
    with memo.memo_scope():
        first = lookup(tower, 6)
        assert calls[0][0] is towers._chain and calls.count(calls[0]) == 1
        calls.clear()
        assert lookup(tower, 6) is first
    assert [call[0] for call in calls] == [towers._chain]


def test_a_chain_shares_its_steps_and_stores_each_entry_once(monkeypatch):
    # Composites anchored at one level share their steps: the composite
    # down from level k is one compose onto the one down from level k - 1.
    # Each chain is one stored list holding each of its entries once; no
    # composite or limit is stored anywhere else.
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
    assert len(composes) == 31
    assert not any(key[0] in (real, counting) for key in stored)
    assert not any(isinstance(v, towers.TruncatedLimit) for v in stored.values())
    limit_chain = (towers._chain, towers._limit_step)
    (limits,) = [v for key, v in stored.items() if key[:2] == limit_chain]
    assert [lim.level for lim in limits] == list(range(1, 33))
    assert len({id(lim) for lim in limits}) == 32


@given(small_towers(), st.data())
@settings(max_examples=200, deadline=None)
def test_top_components_match_the_restriction_through_the_inclusion(tower, data):
    # an element kept as its top residue x agrees with the ambient route
    # through the whole inclusion of ``towers.inverse_limit``: its level
    # components x mod a_k are the string the inclusion gives its column,
    # that string restricts back to x (limit_preimage), and [[x]] is the
    # diagonal of the string restricted.  Each string moved at one level
    # by one or by that level's modulus is refused exactly when it is not
    # the string of its top component, and otherwise comes back as that
    # top residue.  Unreduced residues are drawn too.
    try:
        lim = truncated_limit(tower, tower.depth)
    except TowerError:
        return
    ring = tower.ring
    moduli = level_moduli(lim)
    residues = st.integers(-70, 70) if ring.kind == "integers" else ring_elements(ring)
    drawn = data.draw(st.lists(residues.map(ring.canonical), min_size=1, max_size=3))
    raw = Matrix(ring, 1, len(drawn), (tuple(drawn),))
    read = [residue_string(lim, r) for r in drawn]
    assert strings_agree(lim, read, ambient_strings(lim, raw))
    assert strings_by_inclusion(lim, raw) == read
    tops = [ring.rem(r, lim.modulus) for r in drawn]
    strings = [residue_string(lim, x) for x in tops]
    row = Matrix(ring, 1, len(tops), (tuple(tops),))
    assert columns_by_preimage(lim, strings) == row
    assert lim.multiplication_morphisms(tops) == multiplication_by_connect(lim, strings)
    for r, x in zip(drawn, tops):
        (unreduced,) = lim.multiplication_morphisms([r])
        assert equal_morphisms(unreduced, lim.multiplication_morphisms([x])[0])
    refused = 0
    for string in strings:
        for n, m in enumerate(moduli):
            for shift in (ring.one, m):
                moved = list(string)
                moved[n] = ring.add(moved[n], shift)
                top = ring.rem(moved[-1], lim.modulus)
                on = [ring.rem(c, a) for c, a in zip(moved, moduli)] == list(
                    residue_string(lim, top)
                )
                col = refused_or(columns_by_preimage, lim, [moved])
                mult = refused_or(multiplication_by_connect, lim, [moved])
                assert (col != "refused") == (mult != "refused") == on
                refused += not on
                if on:
                    assert ring.rem(col.entries[0][0], lim.modulus) == top
                    (by_top,) = lim.multiplication_morphisms([top])
                    assert equal_morphisms(mult[0], by_top)
    # a string moved by one off level 1 is refused unless that level is zero
    assert refused or moduli[0] == ring.one


@pytest.mark.parametrize(
    "ring, generator",
    [(Z, 2), (polynomial_ring(2), (1, 1, 1))],
    ids=["Z-2", "F2x-x2+x+1"],
)
def test_a_full_report_takes_linear_matrix_work_in_depth(monkeypatch, ring, generator):
    # Summed over every matrix product, rows x cols x inner: doubling the
    # depth from 128 at most about doubles it.
    products = [0]
    real = Matrix.__matmul__

    def counting(a, b):
        products[0] += a.rows * b.cols * a.cols
        return real(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    work = {}
    for depth in (128, 256):
        products[0] = 0
        report = run_full_report(ring, ring.canonical(generator), depth)
        assert report.overall == "pass"
        work[depth] = products[0]
    assert work[256] <= 2.2 * work[128], work


@pytest.mark.parametrize(
    "ring, generator, depth",
    [
        (Z, 2, 6),
        (Z, 5, 2),
        (Z, 6, 3),
        (polynomial_ring(2), (1, 1, 1), 3),
        (polynomial_ring(3), (1, 1), 4),
    ],
    ids=["Z-2", "Z-5", "Z-6", "F2x-x2+x+1", "F3x-x+1"],
)
def test_limit_maps_match_the_ambient_route_on_carrier_elements(
    monkeypatch, ring, generator, depth
):
    tower = build_adic_tower(ring, generator, depth)
    assert oracles.limit_maps_unlike_the_oracle(tower) == []
    # multiplying by the bottom component in place of the top residue is
    # caught
    real = towers._multiplication

    def by_bottom(limit, top):
        return real(limit, ring.rem(top, tower.level_modulus(1)))

    monkeypatch.setattr(towers, "_multiplication", by_bottom)
    assert oracles.limit_maps_unlike_the_oracle(tower)
