"""Verification report: conditions, lemma gating, negative controls."""

import json

import pytest

from adictower import towers
from adictower.exactalg import matrices
from adictower.exactalg.matrices import Matrix
from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.fpmod.modules import FpModule, ModuleMorphism, cyclic_module, module_order
from adictower.fpmod import functors
from adictower.fpmod.functors import hom_module, tensor_module
from adictower.fpmod.morphisms import identity_morphism, zero_morphism
from adictower.towers import build_adic_tower, truncated_limit
from adictower.verify import conditions
from adictower.verify.conditions import check_condition_2, check_conditions
from adictower.verify import lemmas
from adictower.verify.lemmas import PipelineState, lemma_self_small, lemma_weak_epi
from adictower.verify.pipeline import PREREQS, requested_lemmas, run_full_report
from adictower.verify.report import LEMMA_KEYS

Z = integer_ring()
CONDITION_KEYS = (
    "condition_1",
    "condition_2",
    "condition_3",
    "condition_3_prime",
    "condition_4",
    "condition_5",
)


def test_report_has_all_keys_in_order():
    rep = run_full_report(Z, 2, 2)
    assert tuple(rep.conditions.keys()) == CONDITION_KEYS
    assert tuple(rep.lemmas.keys()) == LEMMA_KEYS
    assert rep.overall == "pass"


def test_full_pass_small_towers():
    for p in (2, 3):
        for depth in (1, 2, 3):
            rep = run_full_report(Z, p, depth)
            bad = [
                k
                for k in list(rep.conditions) + list(rep.lemmas)
                if rep.entry(k).status == "fail"
            ]
            assert not bad, (p, depth, bad)
            assert rep.overall == "pass"


def test_composite_generator_fails_condition_4_only():
    rep = run_full_report(Z, 6, 3)
    assert rep.entry("condition_4").status == "fail"
    assert rep.entry("condition_4").witness == "generator 6 is not prime"
    for key in ("condition_1", "condition_2", "condition_3", "condition_3_prime", "condition_5"):
        assert rep.entry(key).status == "pass", key
    for key in ("homzz", "jislim", "zml", "quotient"):
        assert rep.entry(key).status == "pass", key
    for key in ("jjz", "homjz_a", "homjz_b", "weak_epi", "self_small_witness"):
        entry = rep.entry(key)
        assert entry.status == "skipped", key
        assert entry.skipped_due_to == "condition_4"
        assert "condition_4" in entry.witness
    assert rep.overall == "fail"


def test_composite_polynomial_generator_fails_condition_4():
    F2X = polynomial_ring(2)
    rep = run_full_report(F2X, (1, 0, 1), 2)
    entry = rep.entry("condition_4")
    assert entry.status == "fail"
    assert "is not irreducible" in entry.witness
    assert rep.overall == "fail"


def test_depth_one_skips_only_the_shift_lemma():
    rep = run_full_report(Z, 2, 1)
    jjz = rep.entry("jjz")
    assert jjz.status == "skipped"
    assert jjz.details.get("reason") == "depth-limited"
    assert jjz.skipped_due_to is None
    # the depth-limited skip satisfies downstream prerequisites
    for key in ("homjz_a", "homjz_b", "weak_epi", "self_small_witness"):
        assert rep.entry(key).status == "pass", key
    assert rep.overall == "pass"


def test_doctored_tower_fails_condition_2():
    tower = build_adic_tower(Z, 2, 3)
    tower.inclusions = (
        tower.inclusions[0],
        ModuleMorphism(tower.level(2), tower.level(3), Matrix.from_rows(Z, [[0]])),
    )
    conditions = check_conditions(tower)
    assert conditions["condition_2"].status == "fail"


def test_tower_error_in_a_lemma_becomes_its_failed_entry(monkeypatch):
    def doctored(limit):
        raise towers.TowerError("doctored shift")

    monkeypatch.setattr(lemmas, "shift_endomorphism", doctored)
    rep = run_full_report(Z, 2, 3)
    jjz = rep.entry("jjz")
    assert jjz.status == "fail"
    assert jjz.witness == "doctored shift"
    for key in ("homjz_a", "homjz_b", "weak_epi", "self_small_witness"):
        entry = rep.entry(key)
        assert entry.status == "skipped", key
        assert entry.skipped_due_to == "jjz", key
    assert rep.overall == "fail"


def test_lemma_filter_runs_transitive_closure():
    wanted = requested_lemmas("weak_epi")
    assert wanted == {"homzz", "jislim", "zml", "quotient", "jjz", "homjz_a", "homjz_b", "weak_epi"}
    rep = run_full_report(Z, 2, 2, lemma="weak_epi")
    assert rep.entry("weak_epi").status == "pass"
    assert rep.entry("self_small_witness").status == "skipped"
    assert rep.entry("self_small_witness").details.get("reason") == "filtered"
    assert rep.overall == "pass"
    with pytest.raises(ValueError):
        requested_lemmas("nope")


def test_prereq_table_is_closed():
    for key, deps in PREREQS.items():
        assert key in LEMMA_KEYS
        for dep in deps:
            assert dep in LEMMA_KEYS or dep in CONDITION_KEYS


def test_endomorphism_counts_match_carrier():
    tower = build_adic_tower(Z, 2, 3)
    lim = truncated_limit(tower, 3)
    hom = hom_module(lim.carrier, lim.carrier)
    assert module_order(hom.module) == 8
    F2X = polynomial_ring(2)
    ptower = build_adic_tower(F2X, (0, 1), 2)
    plim = truncated_limit(ptower, 2)
    phom = hom_module(plim.carrier, plim.carrier)
    assert module_order(phom.module) == 4


def test_weak_epi_exhaustive_and_sampled_agree():
    tower = build_adic_tower(Z, 2, 4)
    exhaustive = lemma_weak_epi(PipelineState(tower, oracle_bound=4096))
    sampled = lemma_weak_epi(PipelineState(tower, oracle_bound=2))
    assert exhaustive.status == "pass"
    assert sampled.status == "pass"
    assert exhaustive.details["mode"] == "exhaustive"
    assert sampled.details["mode"] == "sampled"


def test_self_small_with_large_index_set(monkeypatch):
    monkeypatch.setattr(lemmas, "INDEX_SIZE", 100)
    tower = build_adic_tower(Z, 2, 3)
    entry = lemma_self_small(PipelineState(tower))
    assert entry.status == "pass"
    assert entry.details["index_size"] == 100


def test_condition_2_reports_failing_pair():
    tower = build_adic_tower(Z, 2, 3)
    entry = check_condition_2(tower)
    assert entry.status == "pass"
    assert entry.details.get("pairs", 0) > 0


def test_json_tree_is_deterministic():
    a = run_full_report(Z, 2, 3).to_json_tree()
    b = run_full_report(Z, 2, 3).to_json_tree()
    assert json.dumps(a, sort_keys=False) == json.dumps(b, sort_keys=False)
    text = json.dumps(a)
    assert "timestamp" not in text


def test_seed_recorded_in_settings():
    rep = run_full_report(Z, 2, 2, seed=11)
    assert rep.settings["seed"] == 11
    tree = rep.to_json_tree()
    assert tree["settings"]["seed"] == 11


def test_random_residue_draws_beyond_sys_maxsize():
    # Residue counts above sys.maxsize have no len(); the draw must not
    # need one, nor list the residues.
    f3x = polynomial_ring(3)
    cases = ((Z, 2, 2**100), (f3x, f3x.parse("x+1"), f3x.parse("x^70")))
    for ring, generator, modulus in cases:
        state = PipelineState(build_adic_tower(ring, generator, 1), seed=5)
        r = state.random_residue(modulus)
        assert ring.rem(r, modulus) == r


def test_run_computes_each_colimit_once(monkeypatch):
    # condition_3 and homzz both ask for the stabilized homs; the run memo
    # hands homzz the ones condition_3 computed.
    computed = []
    compute = towers._compute_colimit

    def counted(tower, m):
        computed.append(m)
        return compute(tower, m)

    monkeypatch.setattr(towers, "_compute_colimit", counted)
    report = run_full_report(Z, 2, 4)
    assert report.lemmas["homzz"].status == "pass"
    assert sorted(computed) == [1, 2, 3, 4]


def test_smith_inputs_stay_within_twice_the_depth(monkeypatch):
    # With one-generator limit carriers, no Smith problem of a run is
    # wider than 2N columns, with transforms or without.
    shapes = []
    eliminate = matrices._eliminate

    def recording(ring, w, rows, cols, *transforms):
        shapes.append((rows, cols))
        return eliminate(ring, w, rows, cols, *transforms)

    monkeypatch.setattr(matrices, "_eliminate", recording)
    depth = 12
    assert run_full_report(Z, 2, depth).overall == "pass"
    assert shapes
    assert max(cols for _, cols in shapes) <= 2 * depth


def test_functors_are_built_once_per_distinct_input(monkeypatch):
    # Hom modules, tensor modules and induced maps are memoised by
    # presentation, so a run builds each one once.
    builds = {"hom": [], "tensor": [], "induced": []}

    init_hom = functors.HomModule.__init__
    compute_tensor = functors._compute_tensor_module
    compute_induced = functors._compute_induced_hom

    def hom(self, source, target):
        builds["hom"].append((source.relations, target.relations))
        init_hom(self, source, target)

    def tensor(left, right):
        builds["tensor"].append((left.relations, right.relations))
        return compute_tensor(left, right)

    def induced(*args):
        builds["induced"].append(args)
        return compute_induced(*args)

    monkeypatch.setattr(functors.HomModule, "__init__", hom)
    monkeypatch.setattr(functors, "_compute_tensor_module", tensor)
    monkeypatch.setattr(functors, "_compute_induced_hom", induced)
    assert run_full_report(Z, 2, 12).overall == "pass"
    for kind, keys in builds.items():
        assert keys, kind
        assert len(keys) == len(set(keys)), kind


def _split_state(depth=3):
    return PipelineState(build_adic_tower(Z, 2, depth))


def test_quotient_rejects_a_non_injective_split(monkeypatch):
    # Multiplication by g^total sends level 1 to zero in level 3: the
    # sequence check on the inclusion itself rejects it.
    state = _split_state()
    tower = state.tower
    real = lemmas.inclusion_composite

    def doctored(tower_, m, total):
        if (m, total) == (1, 3):
            g_total = tower.level_modulus(total)
            return ModuleMorphism(
                tower.level(m), tower.level(total), Matrix.from_rows(Z, [[g_total]])
            )
        return real(tower_, m, total)

    monkeypatch.setattr(lemmas, "inclusion_composite", doctored)
    entry = lemmas.lemma_quotient(state)
    assert entry.status == "fail"
    assert entry.witness == "split (1, 2): inject has nontrivial kernel"


def test_quotient_rejects_a_quotient_that_is_not_the_level(monkeypatch):
    state = _split_state()
    real = lemmas.find_isomorphism

    def doctored(source, target):
        # level 3 modulo the image of level 2: Z / (8, 2)
        if source.relations.to_lists() == [[8, 2]]:
            return None
        return real(source, target)

    monkeypatch.setattr(lemmas, "find_isomorphism", doctored)
    entry = lemmas.lemma_quotient(state)
    assert entry.status == "fail"
    assert entry.witness == "split (2, 1): quotient is not level 1"


def test_quotient_rejects_a_dual_sequence_that_is_not_exact(monkeypatch):
    state = _split_state()
    tower = state.tower
    real = lemmas.induced_hom

    def doctored(f, other, variance):
        induced = real(f, other, variance)
        # restriction along the inclusion of level 1 into level 3
        if f.source is tower.level(1) and f.target is tower.level(3):
            return zero_morphism(induced.source, induced.target)
        return induced

    monkeypatch.setattr(lemmas, "induced_hom", doctored)
    entry = lemmas.lemma_quotient(state)
    assert entry.status == "fail"
    assert entry.witness == "dual sequence at split (1, 2): surject is not onto"


def test_condition_5_rejects_a_quotient_that_is_not_the_bottom_level(monkeypatch):
    tower = build_adic_tower(Z, 2, 3)
    real = conditions.find_isomorphism

    def doctored(source, target):
        # level 3 modulo the ideal action: Z / (8, 2)
        if source.relations.to_lists() == [[8, 2]]:
            return None
        return real(source, target)

    monkeypatch.setattr(conditions, "find_isomorphism", doctored)
    entry = conditions.check_condition_5(tower)
    assert entry.status == "fail"
    assert entry.witness == (
        "level 3 modulo the ideal action is not isomorphic to the bottom level"
    )


@pytest.mark.parametrize(
    "factor, witness",
    [
        # Z/3 (x) Z/3: the relation 3 is not zero in level 2 modulo 2
        (3, "multiplication map on level 2 tensor bottom is not well defined"),
        # Z/4 (x) Z/4 onto Z/2 is well defined but not injective
        (4, "multiplication map level 2 (x) bottom -> bottom is not an isomorphism"),
    ],
)
def test_condition_5_rejects_a_bad_multiplication_map(monkeypatch, factor, witness):
    tower = build_adic_tower(Z, 2, 3)
    real = conditions.tensor_module

    def doctored(left, right):
        if left is tower.level(2):
            wrong = cyclic_module(Z, factor)
            return tensor_module(wrong, wrong)
        return real(left, right)

    monkeypatch.setattr(conditions, "tensor_module", doctored)
    entry = conditions.check_condition_5(tower)
    assert entry.status == "fail"
    assert entry.witness == witness


def test_jjz_rejects_a_shift_kernel_that_survives_truncation(monkeypatch):
    # zero shifts below the top level: their kernel is the whole carrier
    state = _split_state()
    tower = state.tower
    real = lemmas.shift_endomorphism

    def doctored(limit):
        if limit.level < tower.depth:
            return zero_morphism(limit.carrier, limit.carrier)
        return real(limit)

    monkeypatch.setattr(lemmas, "shift_endomorphism", doctored)
    entry = lemmas.lemma_jjz(state)
    assert entry.status == "fail"
    assert entry.witness == "kernel of the level-2 shift survives truncation to level 1"


def test_homjz_a_rejects_a_shift_image_that_survives_the_bottom_tensor(monkeypatch):
    # the identity in place of the shift: its image is the whole carrier
    state = _split_state()
    monkeypatch.setattr(
        lemmas, "shift_endomorphism", lambda limit: identity_morphism(limit.carrier)
    )
    entry = lemmas.lemma_homjz_a(state)
    assert entry.status == "fail"
    assert entry.witness == "bottom tensor of the shift-image inclusion does not vanish"


def test_weak_epi_rejects_an_enumeration_that_misses_a_class(monkeypatch):
    # every enumeration loses its last element: phi is still a certified
    # bijection, but the exhaustive oracle meets one class too few
    state = _split_state()
    real = lemmas.module_elements
    monkeypatch.setattr(
        lemmas, "module_elements", lambda module, bound: real(module, bound)[:-1]
    )
    entry = lemma_weak_epi(state)
    assert entry.status == "fail"
    assert entry.witness == (
        "multiplication classes do not biject with the endomorphisms"
    )


class _NonScalarLimit:
    """A stand-in limit on Z/2 + Z/2, whose endomorphism ring is not
    commutative, with the same non-scalar map as every multiplication.
    A tower's carrier is cyclic, so its 1x1 maps always commute."""

    carrier = FpModule(Matrix.from_rows(Z, [[2, 0], [0, 2]]))

    def element_from_column(self, col):
        return col

    def multiplication_morphism(self, elem):
        shear = Matrix.from_rows(Z, [[1, 1], [0, 1]])
        return ModuleMorphism(self.carrier, self.carrier, shear)


def test_self_small_rejects_an_endomorphism_that_fails_to_commute(monkeypatch):
    state = _split_state()
    monkeypatch.setattr(lemmas, "truncated_limit", lambda tower, upto: _NonScalarLimit())
    entry = lemma_self_small(state)
    assert entry.status == "fail"
    assert entry.witness == "an endomorphism fails to commute with a multiplication"
