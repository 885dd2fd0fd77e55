"""Verification report: conditions, lemma gating, negative controls."""

import ast
import json
import re
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings, strategies as st

from adictower import towers
from adictower.exactalg import matrices
from adictower.exactalg.matrices import Matrix
from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.fpmod.modules import FpModule, ModuleMorphism, cyclic_module, module_order
from adictower.fpmod import functors
from adictower.fpmod.functors import hom_module, induced_hom
from adictower.fpmod.morphisms import (
    cokernel,
    compose,
    equal_morphisms,
    find_isomorphism,
    is_injective,
    is_surjective,
)
from adictower.memo import memo_scope
from adictower.towers import (
    build_adic_tower,
    canonical_hom_embedding,
    inclusion_composite,
    truncated_limit,
)
from adictower.verify import conditions, lemmas, pipeline
from adictower.verify.conditions import check_condition_2
from adictower.verify.lemmas import PipelineState, lemma_self_small, lemma_weak_epi
from adictower.verify.pipeline import (
    PREREQS,
    requested_lemmas,
    run_full_report,
    verify_tower,
)
from adictower.verify.report import LEMMA_KEYS, failed
import oracles
from oracles import (
    IMPLIED_LEMMAS,
    hand_built_tower,
    implied_lemma_checks_that_fire,
    is_exact,
    is_zero_morphism,
    reduction_morphism,
    zero_morphism,
)

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
    # Where the adjacent level pairs pass, every hom system is stable from
    # its own level and none is built.  Where they fail, condition_3 builds
    # each system it asks for once; with the pair loops forced on a genuine
    # tower, the run memo hands homzz the ones condition_3 computed.
    computed = []
    compute = towers._compute_colimit

    def counted(tower, m):
        computed.append(m)
        return compute(tower, m)

    monkeypatch.setattr(towers, "_compute_colimit", counted)
    report = run_full_report(Z, 2, 4)
    assert report.lemmas["homzz"].status == "pass"
    assert computed == []
    report = verify_tower(hand_built_tower((2, 4, 8), (0, 2), 2))
    assert report.entry("condition_3").status == "fail"
    assert sorted(computed) == [1, 2, 3]
    computed.clear()
    with oracles.every_pair_checked():
        report = run_full_report(Z, 2, 4)
    assert report.lemmas["homzz"].status == "pass"
    assert sorted(computed) == [1, 2, 3, 4]


def test_adjacent_pairs_build_linearly_many_pair_maps(monkeypatch):
    # Z/2 at depth 24: the canonical maps of the pairs (m, m) and (m, m+1)
    # only, and quotient composes the inclusions out of level 1 only
    depth = 24
    embeddings = []
    embed = towers._compute_canonical_embedding

    def counted(tower, m, s):
        embeddings.append((m, s))
        return embed(tower, m, s)

    composites = []
    compose_up = lemmas.inclusion_composite

    def recorded(tower, m, n):
        composites.append((m, n))
        return compose_up(tower, m, n)

    monkeypatch.setattr(towers, "_compute_canonical_embedding", counted)
    monkeypatch.setattr(lemmas, "inclusion_composite", recorded)
    report = run_full_report(Z, 2, depth)
    assert report.overall == "pass"
    assert len(embeddings) == 2 * depth - 1
    assert sorted(embeddings) == sorted(
        [(m, m) for m in range(1, depth + 1)] + [(m, m + 1) for m in range(1, depth)]
    )
    assert composites == [(1, total) for total in range(2, depth + 1)]
    assert len(report.lemmas["quotient"].details["pairs"]) == depth * (depth - 1) // 2


SMALL_MODULI = (1, 2, 3, 4, 6, 8, 9, 12, 16, 27)


@st.composite
def small_hand_built_specs(draw):
    depth = draw(st.integers(1, 4))
    moduli = tuple(draw(st.sampled_from(SMALL_MODULI)) for _ in range(depth))
    multipliers = tuple(draw(st.integers(0, 8)) for _ in range(depth - 1))
    return moduli, multipliers, draw(st.sampled_from((2, 3)))


@given(small_hand_built_specs())
@settings(max_examples=200, deadline=None)
def test_adjacent_pairs_report_what_every_pair_reports(spec):
    # zero levels (modulus 1) included: the report with the adjacent pairs
    # deciding is the report with every pair and split checked
    fast, slow = oracles.adjacent_and_every_pair_reports(hand_built_tower(*spec))
    assert fast == slow


def test_adjacent_pairs_match_every_pair_on_genuine_towers():
    f2x, f3x = polynomial_ring(2), polynomial_ring(3)
    for ring, g, depth in ((Z, 2, 8), (Z, 5, 4), (f3x, (1, 1), 5), (f2x, (1, 1, 1), 4)):
        fast, slow = oracles.adjacent_and_every_pair_reports(
            build_adic_tower(ring, g, depth)
        )
        assert fast == slow
        assert '"overall":"pass"' in fast


def test_smith_inputs_stay_within_twice_the_depth(monkeypatch):
    # With one-generator limit carriers, no Smith problem of a run is
    # wider than 2N columns, with transforms or without, one-row sweeps
    # included.
    shapes = []
    eliminate = matrices._eliminate
    sweep_row = matrices._sweep_row

    def recording(ring, w, rows, cols, *transforms):
        shapes.append((rows, cols))
        return eliminate(ring, w, rows, cols, *transforms)

    def recording_row(ring, row):
        shapes.append((1, len(row)))
        return sweep_row(ring, row)

    monkeypatch.setattr(matrices, "_eliminate", recording)
    monkeypatch.setattr(matrices, "_sweep_row", recording_row)
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


# Every failure site can say no ------------------------------------------
#
# A failure site is a ``failed(`` call in the verifier.  FAULTS holds, for
# each site, the narrowest doctoring that reaches it, keyed by the site's
# witness template (its witness with ``{}`` for every formatted field).
# Every fault goes through verify_tower, with the real gating and
# TowerError handling.  Where a hand-built tower reaches the site, the
# fault is that tower; otherwise the tower is genuine and one name in the
# entry's module is doctored while that entry runs.

VERIFY_DIR = Path(pipeline.__file__).parent
# hand_built_tower(*GENUINE) is the 2-adic tower of depth 3
GENUINE = ((2, 4, 8), (2, 2), 2)


class Fault(NamedTuple):
    """A way to make one failure site say no.

    ``doctor`` is None or ``(name, make)``: while the ``scope`` entry (by
    default ``entry``) runs, ``name`` in its module (``conditions`` or
    ``lemmas``) is ``make(tower, real)`` instead of ``real``.  ``witness``
    is the witness the ``entry`` must show.
    """

    entry: str
    witness: str
    tower: tuple = GENUINE
    doctor: Optional[tuple] = None
    scope: Optional[str] = None
    settings: dict = {}


def _answers(value):
    """Doctoring: the doctored function answers ``value`` to every call."""
    return lambda tower, real: lambda *args: value


def _zero_product(tower, real):
    """Doctoring of ``kronecker``: the product has the right shape and
    every entry zero."""

    def fake(a, b):
        return Matrix.zeros(Z, a.rows * b.rows, a.cols * b.cols)

    return fake


def _wrong_tensor(factor):
    """Doctoring of ``tensor_module``: level 2 tensor anything is
    Z/factor (x) Z/factor."""

    def make(tower, real):
        def fake(left, right):
            if left is tower.level(2):
                wrong = cyclic_module(Z, factor)
                return real(wrong, wrong)
            return real(left, right)

        return fake

    return make


def _raises(err):
    def make(tower, real):
        def fake(*args):
            raise err

        return fake

    return make


def _zero_split_1_3(tower, real):
    """Doctoring of ``inclusion_composite``: multiplication by g^3 sends
    level 1 to zero in level 3."""

    def fake(tower_, m, n):
        if (m, n) == (1, 3):
            return ModuleMorphism(
                tower.level(1), tower.level(3), Matrix.from_rows(Z, [[8]])
            )
        return real(tower_, m, n)

    return fake


def _zero_restriction_1_3(tower, real):
    """Doctoring of ``induced_hom``: restriction along the inclusion of
    level 1 into level 3 is zero."""

    def fake(f, other, variance):
        induced = real(f, other, variance)
        if f.source is tower.level(1) and f.target is tower.level(3):
            return zero_morphism(induced.source, induced.target)
        return induced

    return fake


def _zero_preimage(tower, real):
    return lambda limit, amb: Matrix.zeros(Z, limit.carrier.generators, amb.cols)


def _zero_keys(tower, real):
    """Doctoring of ``element_keys``: every element reads as zero."""
    return lambda module, columns: [()] * columns.cols


def _drop_last_element(tower, real):
    return lambda module, bound: real(module, bound)[:-1]


def _zero_injections(tower, real):
    def fake(modules):
        summed, _, projections = real(modules)
        return summed, [zero_morphism(m, summed) for m in modules], projections

    return fake


class _IdentityLimit:
    """A stand-in limit on Z/2 + Z/2 whose multiplications are all the
    identity: its standard form has two generators, unlike a tower's
    cyclic carrier."""

    carrier = FpModule(Matrix.from_rows(Z, [[2, 0], [0, 2]]))

    def elements_from_columns(self, cols):
        return list(range(cols.cols))

    def multiplication_morphisms(self, elems):
        unit = Matrix.identity(Z, 2)
        return [ModuleMorphism(self.carrier, self.carrier, unit) for _ in elems]


class _NonScalarLimit:
    """A stand-in limit on Z/2 + Z/2, whose endomorphism ring is not
    commutative, with the same non-scalar map as every multiplication.
    A tower's carrier is cyclic, so its 1x1 maps always commute."""

    carrier = FpModule(Matrix.from_rows(Z, [[2, 0], [0, 2]]))

    def elements_from_columns(self, cols):
        return list(range(cols.cols))

    def multiplication_morphisms(self, elems):
        shear = Matrix.from_rows(Z, [[1, 1], [0, 1]])
        return [ModuleMorphism(self.carrier, self.carrier, shear) for _ in elems]


FAULTS = {
    # conditions.py
    "levels ({}, {}): {}": Fault(
        "condition_2",
        "levels (1, 3): canonical map into Hom(level 1, level 3) is not an "
        "isomorphism",
        tower=((2, 4, 8), (2, 0), 2),
    ),
    "restriction Hom(level {}, level {}) -> Hom(level {}, level {}) is not surjective": Fault(
        "condition_3_prime",
        "restriction Hom(level 3, level 3) -> Hom(level 2, level 3) is not surjective",
        tower=((2, 4, 8), (2, 0), 2),
    ),
    "direct stabilized check unavailable: {}": Fault(
        "condition_3",
        "direct stabilized check unavailable: hom system at level 2 still "
        "moving at depth 3",
        tower=((2, 4, 8), (2, 0), 2),
    ),
    # Z/2 -> Z/3 by 1 is not a morphism, so no restriction along it is a map
    "inclusion at level {} is not a morphism": Fault(
        "condition_3_prime",
        "inclusion at level 1 is not a morphism",
        tower=((2, 3, 8), (1, 1), 2),
    ),
    # condition 3' holds while the restrictions at the stabilized indices
    # are doctored not to surject
    "levelwise route and direct stabilized route disagree": Fault(
        "condition_3",
        "levelwise route and direct stabilized route disagree",
        doctor=("is_surjective", _answers(False)),
    ),
    "restrictions do not surject on stabilized hom values": Fault(
        "condition_3",
        "restrictions do not surject on stabilized hom values",
        tower=((2, 4, 8), (0, 2), 2),
    ),
    "generator {} is not {}": Fault(
        "condition_4", "generator 6 is not prime", tower=((6, 36, 216), (6, 6), 6)
    ),
    "annihilator of the bottom level is {}, expected {}": Fault(
        "condition_4",
        "annihilator of the bottom level is 4, expected 2",
        tower=((4, 8, 16), (2, 2), 2),
    ),
    "ideal action on level {} does not match the image of the level-{} inclusion": Fault(
        "condition_4",
        "ideal action on level 2 does not match the image of the level-1 inclusion",
        tower=((2, 2), (1,), 2),
    ),
    "level {} modulo the ideal action is not isomorphic to the bottom level": Fault(
        "condition_5",
        "level 2 modulo the ideal action is not isomorphic to the bottom level",
        tower=((2, 4, 8), (2, 2), 4),
    ),
    # Z/3 (x) Z/3: the relation 3 is not zero in level 2 modulo 2
    "multiplication map on level {} tensor bottom is not well defined": Fault(
        "condition_5",
        "multiplication map on level 2 tensor bottom is not well defined",
        doctor=("tensor_module", _wrong_tensor(3)),
    ),
    # Z/4 (x) Z/4 onto Z/2 is well defined but not injective
    "multiplication map level {} (x) bottom -> bottom is not an isomorphism": Fault(
        "condition_5",
        "multiplication map level 2 (x) bottom -> bottom is not an isomorphism",
        doctor=("tensor_module", _wrong_tensor(4)),
    ),
    # pipeline.py: a TowerError raised inside a lemma
    "{}": Fault(
        "jjz",
        "doctored transitions",
        doctor=(
            "build_transitions",
            _raises(towers.TowerError("doctored transitions")),
        ),
    ),
    # lemmas.py
    "split ({}, {}): inject has nontrivial kernel": Fault(
        "quotient",
        "split (1, 2): inject has nontrivial kernel",
        doctor=("inclusion_composite", _zero_split_1_3),
    ),
    "split ({}, {}): quotient is not level {}": Fault(
        "quotient", "split (1, 1): quotient is not level 1", tower=((2, 2), (1,), 2)
    ),
    "dual sequence at split ({}, {}): surject is not onto": Fault(
        "quotient",
        "dual sequence at split (1, 2): surject is not onto",
        doctor=("induced_hom", _zero_restriction_1_3),
    ),
    "action map at level {} is not linear over the limit ring": Fault(
        "homjz_a",
        "action map at level 1 is not linear over the limit ring",
        doctor=("kronecker", _zero_product),
    ),
    "multiplication map into the endomorphisms is not well defined": Fault(
        "weak_epi",
        "multiplication map into the endomorphisms is not well defined",
        doctor=("is_well_defined", _answers(False)),
    ),
    "multiplication map into the endomorphisms is not injective": Fault(
        "weak_epi",
        "multiplication map into the endomorphisms is not injective",
        doctor=("is_injective", _answers(False)),
    ),
    "multiplication map into the endomorphisms is not surjective": Fault(
        "weak_epi",
        "multiplication map into the endomorphisms is not surjective",
        doctor=("is_surjective", _answers(False)),
    ),
    # every enumeration loses its last element: phi is still a certified
    # bijection, but the exhaustive oracle meets one class too few
    "multiplication classes do not biject with the endomorphisms": Fault(
        "weak_epi",
        "multiplication classes do not biject with the endomorphisms",
        doctor=("module_elements", _drop_last_element),
    ),
    "sampled multiplication disagrees with its encoding": Fault(
        "weak_epi",
        "sampled multiplication disagrees with its encoding",
        doctor=("vanishes", _answers(False)),
        settings={"oracle_bound": 2},
    ),
    "top projection of the limit of level homs is not an isomorphism": Fault(
        "weak_epi",
        "top projection of the limit of level homs is not an isomorphism",
        doctor=("is_isomorphism", _answers(False)),
    ),
    "endomorphism components are not coherent in the hom system": Fault(
        "weak_epi",
        "endomorphism components are not coherent in the hom system",
        doctor=("limit_preimage", _answers(None)),
    ),
    "endomorphisms do not match the limit of level homs": Fault(
        "weak_epi",
        "endomorphisms do not match the limit of level homs",
        doctor=("limit_preimage", _zero_preimage),
    ),
    "an endomorphism fails to commute with a multiplication": Fault(
        "self_small_witness",
        "an endomorphism fails to commute with a multiplication",
        doctor=("truncated_limit", _answers(_NonScalarLimit())),
    ),
    "support detection missed or invented indices": Fault(
        "self_small_witness",
        "support detection missed or invented indices",
        doctor=("element_keys", _zero_keys),
    ),
    "map into the coproduct is not recovered from its finite support": Fault(
        "self_small_witness",
        "map into the coproduct is not recovered from its finite support",
        doctor=("direct_sum", _zero_injections),
    ),
}


class Site(NamedTuple):
    file: str
    first: int
    last: int
    template: str


def _template(witness: ast.expr) -> str:
    if isinstance(witness, ast.Constant):
        return witness.value
    if isinstance(witness, ast.JoinedStr):
        return "".join(
            v.value if isinstance(v, ast.Constant) else "{}" for v in witness.values
        )
    return "{}"


def _failure_sites():
    """Every ``failed(`` call under the verifier package, read by ``ast``."""
    sites = []
    for path in sorted(VERIFY_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "failed":
                sites.append(
                    Site(path.name, node.lineno, node.end_lineno, _template(node.args[0]))
                )
    return sorted(sites)


SITES = _failure_sites()


def _inject(monkeypatch, fault: Fault):
    """verify_tower on the fault's tower, doctored while its scope runs."""
    tower = hand_built_tower(*fault.tower)
    if fault.doctor is not None:
        name, make = fault.doctor
        scope = fault.scope or fault.entry
        if scope in pipeline.RUNNERS:
            module, runner = lemmas, pipeline.RUNNERS[scope]
        else:
            module, runner = conditions, getattr(conditions, f"check_{scope}")
        fake = make(tower, getattr(module, name))

        def doctored(*args):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, fake)
                return runner(*args)

        if module is lemmas:
            monkeypatch.setitem(pipeline.RUNNERS, scope, doctored)
        else:
            monkeypatch.setattr(conditions, f"check_{scope}", doctored)
    return verify_tower(tower, **fault.settings)


def _says_no(monkeypatch, template):
    """Run the fault for the site with this witness template; check that it
    reaches that ``failed(`` call and that its entry shows the witness."""
    fault = FAULTS[template]
    (site,) = [s for s in SITES if s.template == template]
    reached = []

    def recording(witness, **details):
        caller = sys._getframe(1)
        reached.append((Path(caller.f_code.co_filename).name, caller.f_lineno))
        return failed(witness, **details)

    for module in (conditions, lemmas, pipeline):
        monkeypatch.setattr(module, "failed", recording)
    report = _inject(monkeypatch, fault)
    entry = report.entry(fault.entry)
    assert (entry.status, entry.witness) == ("fail", fault.witness)
    pattern = re.escape(template).replace(re.escape("{}"), ".+")
    assert re.fullmatch(pattern, fault.witness)
    assert any(
        name == site.file and site.first <= line <= site.last for name, line in reached
    ), (site, reached)
    return report


@pytest.mark.parametrize("site", SITES, ids=lambda s: f"{s.file}:{s.template}")
def test_every_failure_site_says_no(monkeypatch, site):
    assert site.template in FAULTS, f"no fault reaches {site.file}:{site.first}"
    _says_no(monkeypatch, site.template)


def test_every_fault_names_one_site():
    assert sorted(FAULTS) == sorted(s.template for s in SITES)


def test_doctored_tower_fails_condition_2(monkeypatch):
    _says_no(monkeypatch, "levels ({}, {}): {}")


@pytest.mark.parametrize(
    "spec, witness",
    [
        (
            ((2, 3, 8), (1, 1), 2),
            "levels (1, 2): composite inclusion of level 1 into level 2 is not "
            "a morphism",
        ),
        (
            ((2, 4, 8), (2, 3), 2),
            "levels (1, 3): composite inclusion of level 1 into level 3 is not "
            "a morphism",
        ),
    ],
)
def test_inclusions_that_are_not_morphisms_fail_condition_2(spec, witness):
    # the hom encoder rejects the composite inclusion; the run still ends
    # in a report
    report = verify_tower(hand_built_tower(*spec))
    entry = report.entry("condition_2")
    assert (entry.status, entry.witness) == ("fail", witness)
    assert report.overall == "fail"


def test_condition_3_holds_through_the_direct_route_when_3_prime_fails(monkeypatch):
    # the levelwise route is only sufficient: its failure leaves the direct
    # route to decide.  The adjacent pairs are forced to fail, so condition
    # 3' checks each restriction and meets the doctored answer.
    monkeypatch.setattr(towers, "_compute_adjacent_pairs_pass", lambda tower: False)
    fault = FAULTS["levelwise route and direct stabilized route disagree"]
    report = _inject(monkeypatch, fault._replace(scope="condition_3_prime"))
    assert report.entry("condition_3_prime").status == "fail"
    entry = report.entry("condition_3")
    assert entry.status == "pass"
    assert entry.details["established_via"] == "the direct stabilized route"
    assert "direct_check" not in entry.details
    assert report.entry("zml").status == "pass"


def test_an_inclusion_out_of_a_zero_level_that_is_no_morphism_fails_condition_2():
    # Z/1 -> Z/2 by 1 is not a map; the hom encoder, which reads only the
    # standard block of the zero level, would encode it
    report = verify_tower(hand_built_tower((1, 2), (1,), 2))
    entry = report.entry("condition_2")
    assert (entry.status, entry.witness) == (
        "fail",
        "levels (1, 2): composite inclusion of level 1 into level 2 is not "
        "a morphism",
    )
    assert report.entry("condition_3_prime").status == "fail"


def test_tower_error_in_a_lemma_becomes_its_failed_entry(monkeypatch):
    report = _says_no(monkeypatch, "{}")
    for key in ("homjz_a", "homjz_b", "weak_epi", "self_small_witness"):
        entry = report.entry(key)
        assert entry.status == "skipped", key
        assert entry.skipped_due_to == "jjz", key
    assert report.overall == "fail"


def test_quotient_rejects_a_non_injective_split(monkeypatch):
    _says_no(monkeypatch, "split ({}, {}): inject has nontrivial kernel")


def test_quotient_rejects_a_quotient_that_is_not_the_level(monkeypatch):
    _says_no(monkeypatch, "split ({}, {}): quotient is not level {}")


def test_quotient_rejects_a_dual_sequence_that_is_not_exact(monkeypatch):
    _says_no(monkeypatch, "dual sequence at split ({}, {}): surject is not onto")


def test_condition_5_rejects_a_quotient_that_is_not_the_bottom_level(monkeypatch):
    _says_no(
        monkeypatch,
        "level {} modulo the ideal action is not isomorphic to the bottom level",
    )


@pytest.mark.parametrize(
    "factor, witness",
    [
        (3, "multiplication map on level 2 tensor bottom is not well defined"),
        (4, "multiplication map level 2 (x) bottom -> bottom is not an isomorphism"),
    ],
)
def test_condition_5_rejects_a_bad_multiplication_map(monkeypatch, factor, witness):
    tower = build_adic_tower(Z, 2, 3)
    doctored = _wrong_tensor(factor)(tower, conditions.tensor_module)
    monkeypatch.setattr(conditions, "tensor_module", doctored)
    entry = conditions.check_condition_5(tower)
    assert entry.status == "fail"
    assert entry.witness == witness


def test_weak_epi_rejects_an_enumeration_that_misses_a_class(monkeypatch):
    _says_no(monkeypatch, "multiplication classes do not biject with the endomorphisms")


def test_self_small_rejects_an_endomorphism_that_fails_to_commute(monkeypatch):
    _says_no(monkeypatch, "an endomorphism fails to commute with a multiplication")


def test_self_small_witness_runs_on_a_two_generator_carrier(monkeypatch):
    # the coproduct trials map the carrier's standard form, on k
    # generators, through blocks of k rows
    fault = Fault(
        "self_small_witness", "", doctor=("truncated_limit", _answers(_IdentityLimit()))
    )
    entry = _inject(monkeypatch, fault).entry("self_small_witness")
    assert entry.status == "pass"
    assert entry.details["factorization_trials"] == lemmas.TRIALS + 2
    batched, looped = _batched_and_looped(
        monkeypatch, hand_built_tower(*GENUINE), fault.entry, fault.doctor
    )
    assert batched == looped


# The batched passes against their per-trial loops -------------------------
#
# lemma_weak_epi's sampled oracle and lemma_self_small's coproduct trials
# draw every trial first and check them all at once; oracles.py keeps the
# loops that draw and check one trial at a time.  Each entry must give the
# same verdict, witness and draws either way, on genuine towers and under
# every doctoring of the fault table for those entries.  A row whose
# batched pass reads a primitive that the loop does not call names the
# loop's counterpart.

LOOPS = {
    "_samples_agree": oracles.samples_agree_by_trials,
    "_coproduct_failure": oracles.coproduct_failure_by_trials,
}
LOOP_COUNTERPARTS = {
    "vanishes": ("equal_morphisms", _answers(False)),
    "element_keys": ("is_zero_morphism", _answers(True)),
    "direct_sum": ("direct_sum", _zero_injections),
}


def _entry_or_error(run, state):
    with memo_scope():
        try:
            entry = run(state)
        except towers.TowerError as err:
            return ("TowerError", str(err)), None
    drawn = state.rng.getstate() if entry.status == "pass" else None
    return (entry.status, entry.witness, entry.details), drawn


def _of_rebuilt(real):
    """``multiplication_morphisms`` of the elements rebuilt from their
    carrier columns."""
    return lambda limit, elems: real(limit, oracles.rebuilt_elements(limit, elems))


def _batched_and_looped(monkeypatch, tower, entry, doctor=None, **settings):
    """The entry on ``tower`` with its batched passes and with the loops,
    each under ``doctor`` (and the loop's counterpart of it); the loops
    of ``self_small_witness`` multiply by rebuilt elements."""
    run = pipeline.RUNNERS[entry]
    outcomes = []
    for looped in (False, True):
        with monkeypatch.context() as patch:
            if doctor is not None:
                name, make = doctor
                patch.setattr(lemmas, name, make(tower, getattr(lemmas, name)))
                if looped and name in LOOP_COUNTERPARTS:
                    name, make = LOOP_COUNTERPARTS[name]
                    patch.setattr(oracles, name, make(tower, getattr(oracles, name)))
            if looped:
                for name, loop in LOOPS.items():
                    patch.setattr(lemmas, name, loop)
                if entry == "self_small_witness":
                    patch.setattr(
                        towers.TruncatedLimit,
                        "multiplication_morphisms",
                        _of_rebuilt(towers.TruncatedLimit.multiplication_morphisms),
                    )
            outcomes.append(_entry_or_error(run, PipelineState(tower, **settings)))
    return outcomes


BATCHED_ENTRIES = ("weak_epi", "self_small_witness")
SAMPLED = {"oracle_bound": 2, "seed": 7}


@pytest.mark.parametrize(
    "tower",
    [
        hand_built_tower(*GENUINE),
        build_adic_tower(Z, 2, 9),
        build_adic_tower(Z, 3, 5),
        build_adic_tower(polynomial_ring(3), (1, 1), 5),
        build_adic_tower(polynomial_ring(2), (1, 1, 1), 4),
    ],
    ids=["Z-2-3", "Z-2-9", "Z-3-5", "F3x-x+1-5", "F2x-x2+x+1-4"],
)
@pytest.mark.parametrize("entry", BATCHED_ENTRIES)
def test_batched_passes_match_the_per_trial_loops_on_genuine_towers(
    monkeypatch, tower, entry
):
    batched, looped = _batched_and_looped(monkeypatch, tower, entry, **SAMPLED)
    assert batched == looped
    assert batched[0][0] == "pass"
    assert batched[1] is not None
    if entry == "self_small_witness" and tower.depth > 3:
        # past the hand-built tower every carrier here has over 64
        # elements: they are drawn in the entry's order and multiplied as
        # drawn, not rebuilt
        assert batched[0][2]["element_mode"] == "sampled"
        multiplied = []
        real = towers.TruncatedLimit.multiplication_morphisms

        def spy(limit, elems):
            multiplied.append(list(elems))
            return real(limit, elems)

        monkeypatch.setattr(towers.TruncatedLimit, "multiplication_morphisms", spy)
        monkeypatch.setattr(towers.TruncatedLimit, "elements_from_columns", None)
        state, replay = PipelineState(tower, **SAMPLED), PipelineState(tower, **SAMPLED)
        with memo_scope():
            lemma_self_small(state)
            drawn = oracles.self_small_draws(replay)
        assert multiplied == [drawn]
        assert state.rng.getstate() == replay.rng.getstate() == batched[1]


@pytest.mark.parametrize(
    "template",
    [t for t, f in FAULTS.items() if f.entry in BATCHED_ENTRIES and f.doctor],
)
def test_batched_passes_match_the_per_trial_loops_under_every_fault(
    monkeypatch, template
):
    # as the fault table runs it, then on a deeper tower with every
    # oracle sampled
    fault = FAULTS[template]
    tower = hand_built_tower(*fault.tower)
    batched, looped = _batched_and_looped(
        monkeypatch, tower, fault.entry, fault.doctor, **fault.settings
    )
    assert batched == looped
    assert batched[0][:2] == ("fail", fault.witness)
    tower = build_adic_tower(Z, 2, 9)
    batched, looped = _batched_and_looped(
        monkeypatch, tower, fault.entry, fault.doctor, **SAMPLED
    )
    assert batched == looped


def test_batched_weak_epi_keeps_the_first_failing_trial(monkeypatch):
    # one drawn element lies outside the carrier and another's
    # multiplication is doctored to zero: whichever comes first in draw
    # order decides, as it does in the trial-by-trial loop
    tower = build_adic_tower(Z, 2, 9)
    with memo_scope():
        limit = truncated_limit(tower, 9)
        probe = PipelineState(tower, **SAMPLED)
        draws = [probe.random_coherent(limit) for _ in range(lemmas.TRIALS)]
    assert len(set(draws)) == len(draws)
    real_preimage = towers.limit_preimage
    real_mults = towers.TruncatedLimit.multiplication_morphisms
    outside = ("TowerError", "coherent element is outside the carrier")
    disagrees = ("fail", "sampled multiplication disagrees with its encoding")
    for stray, wrong, witness in ((3, 1, disagrees), (1, 3, outside)):

        def refuse(limit, amb, stray=draws[stray].components):
            if stray in zip(*amb.entries):
                return None
            return real_preimage(limit, amb)

        def zero_one(self, elems, wrong=draws[wrong]):
            zero = zero_morphism(self.carrier, self.carrier)
            mults = real_mults(self, elems)
            return [zero if e == wrong else m for e, m in zip(elems, mults)]

        monkeypatch.setattr(towers, "limit_preimage", refuse)
        monkeypatch.setattr(towers.TruncatedLimit, "multiplication_morphisms", zero_one)
        batched, looped = _batched_and_looped(monkeypatch, tower, "weak_epi", **SAMPLED)
        assert batched == looped
        assert batched[0][:2] == witness


def test_limit_of_level_homs_reuses_the_truncated_limit_folds(monkeypatch):
    # weak_epi's limit of the level homs folds modules and maps equal to
    # the levels and transitions, so the run memo hands it the folds of
    # the truncated limits
    folds = []
    fold = towers._fold_level

    def counted(*args):
        folds.append(args)
        return fold(*args)

    monkeypatch.setattr(towers, "_fold_level", counted)
    depth = 8
    report = run_full_report(Z, 2, depth)
    assert report.entry("weak_epi").status == "pass"
    assert len(folds) == depth - 1


# Checks that construction or a theorem makes true ------------------------
#
# Condition 2 counts its two square families without checking them, and
# the quotient lemma leaves out what the cokernel's construction and the
# left exactness of Hom(-, X) give.  Run here as oracles, on every pair,
# those checks never fire: not on genuine towers, and not on hand-built
# towers that pass condition 2, where the squares were reached.

HAND_BUILT_PASSING_CONDITION_2 = (
    ((2, 4), (2,), 2),
    ((2, 4, 8), (6, 2), 2),
    ((2, 4, 8), (6, 6), 3),
    ((3, 9), (3,), 2),
    ((3, 9), (6,), 2),
    ((4, 16), (4,), 2),
    ((2, 2), (1,), 2),
    ((2, 2, 2), (1, 3), 2),
    ((2, 4, 4), (2, 1), 2),
    ((3, 3, 3), (1, 2), 2),
    ((3, 9, 9), (3, 4), 2),
)


def _implied_checks_that_fire(tower):
    """The square checks of condition 2 and the construction and dual
    checks of the quotient lemma, run on every pair of ``tower``: the
    names of those that fail."""
    fired = []
    depth = tower.depth
    can = {
        (m, n): canonical_hom_embedding(tower, m, n)
        for m in range(1, depth + 1)
        for n in range(m, depth + 1)
    }
    for (m, n), embedding in can.items():
        if n < depth:
            step = induced_hom(tower.inclusion(n), tower.level(m), "post")
            if not equal_morphisms(compose(step, embedding), can[(m, n + 1)]):
                fired.append(f"postcomposition square ({m}, {n})")
        if m < n:
            restrict = induced_hom(tower.inclusion(m), tower.level(n), "pre")
            left = compose(restrict, can[(m + 1, n)])
            right = compose(embedding, reduction_morphism(tower, m))
            if not equal_morphisms(left, right):
                fired.append(f"restriction square ({m}, {n})")
    top = tower.level(depth)
    for total in range(2, depth + 1):
        for m in range(1, total):
            n = total - m
            incl = inclusion_composite(tower, m, total)
            quot, proj = cokernel(incl)
            if not is_surjective(proj):
                fired.append(f"split ({m}, {n}): projection onto")
            if not is_exact([incl, proj]):
                fired.append(f"split ({m}, {n}): exact in the middle")
            if is_injective(incl):
                orders = [module_order(x) for x in (incl.source, incl.target, quot)]
                if orders[0] * orders[2] != orders[1]:
                    fired.append(f"split ({m}, {n}): orders")
            qiso = find_isomorphism(quot, tower.level(n))
            if qiso is None:
                continue
            pre_surj = induced_hom(compose(qiso, proj), top, "pre")
            pre_incl = induced_hom(incl, top, "pre")
            if not is_injective(pre_surj):
                fired.append(f"dual ({m}, {n}): inject")
            if not is_zero_morphism(compose(pre_incl, pre_surj)):
                fired.append(f"dual ({m}, {n}): composite")
            if is_surjective(pre_incl):
                ends = (pre_surj.source, pre_surj.target, pre_incl.target)
                orders = [module_order(x) for x in ends]
                if orders[0] * orders[2] != orders[1]:
                    fired.append(f"dual ({m}, {n}): orders")
    return fired


def test_checks_left_to_construction_and_theorems_never_fire():
    f2x, f3x = polynomial_ring(2), polynomial_ring(3)
    started = time.perf_counter()
    towers_run = [
        build_adic_tower(ring, g, depth)
        for ring, g in ((Z, 2), (Z, 5), (f3x, (1, 1)), (f2x, (1, 1, 1)))
        for depth in (1, 2, 3, 4)
    ]
    for spec in HAND_BUILT_PASSING_CONDITION_2:
        tower = hand_built_tower(*spec)
        with memo_scope():
            assert check_condition_2(tower).status == "pass", spec
        towers_run.append(tower)
    for tower in towers_run:
        with memo_scope():
            assert _implied_checks_that_fire(tower) == [], tower
    assert time.perf_counter() - started < 3


# Checks the lemmas leave to conditions 2 and 4 and to construction -------
#
# jislim leaves its projection cone to the limit's construction, and jjz,
# homjz_a and homjz_b leave their pair and level checks to conditions 2
# and 4 (their docstrings say how).  The oracle runs those checks as the
# lemmas ran them: none fires on genuine towers, nor on hand-built towers
# that reach each entry.  tests/sweep_hand_built.py runs it on every
# hand-built tower of a wider enumeration.

REACHING_JJZ = (
    ((2, 4, 8), (6, 2), 2),
    ((3, 9, 27), (6, 6), 3),
    ((2, 4, 8, 16), (6, 2, 6), 2),
)
# each passes homzz, so jislim runs, and fails condition 4, so the three
# entries after it skip
REACHING_ONLY_JISLIM = (
    ((2, 2), (1,), 2),
    ((2, 6, 12), (3, 2), 2),
    ((2, 16, 16), (8, 1), 2),
    ((3, 9, 27), (3, 3), 2),
    ((4, 8, 16), (2, 2), 2),
    ((6, 12, 12), (2, 1), 2),
)


def _genuine_entries(depth):
    """The four entries a genuine tower of this depth runs: all but jjz,
    which needs two levels."""
    return set(IMPLIED_LEMMAS) - ({"jjz"} if depth < 2 else set())


def test_lemma_checks_left_to_the_conditions_never_fire():
    f2x, f3x = polynomial_ring(2), polynomial_ring(3)
    started = time.perf_counter()
    cases = [
        (build_adic_tower(ring, g, depth), _genuine_entries(depth))
        for ring, g in ((Z, 2), (Z, 5), (f3x, (1, 1)), (f2x, (1, 1, 1)))
        for depth in (1, 2, 3, 4)
    ]
    cases += [(hand_built_tower(*spec), set(IMPLIED_LEMMAS)) for spec in REACHING_JJZ]
    cases += [(hand_built_tower(*spec), {"jislim"}) for spec in REACHING_ONLY_JISLIM]
    for tower, expected in cases:
        report = verify_tower(tower)
        ran = {key for key in IMPLIED_LEMMAS if report.entry(key).status != "skipped"}
        assert ran == expected, (tower.levels, ran)
        assert implied_lemma_checks_that_fire(tower, ran) == [], tower.levels
    assert time.perf_counter() - started < 3


def test_a_doctored_map_makes_the_implied_checks_fire(monkeypatch):
    tower = hand_built_tower(*GENUINE)
    with monkeypatch.context() as patch:
        patch.setattr(
            oracles,
            "shift_endomorphism",
            lambda limit: zero_morphism(limit.carrier, limit.carrier),
        )
        fired = implied_lemma_checks_that_fire(tower, IMPLIED_LEMMAS)
    assert "jjz: shift image is not the ideal multiple" in fired
    assert "jjz: level-2 shift kernel survives truncation" in fired
    with monkeypatch.context() as patch:
        patch.setattr(
            oracles,
            "build_transition",
            lambda tower_, n: zero_morphism(tower.level(n + 1), tower.level(n)),
        )
        fired = implied_lemma_checks_that_fire(tower, {"jislim"})
    assert "jislim: projection cone at truncation 2, level 1" in fired


@pytest.mark.parametrize(
    "ring, generator, depth",
    [(Z, 2, 4), (Z, 3, 5), (polynomial_ring(3), (1, 1), 3)],
    ids=["Z-2", "Z-3", "F3x-x+1"],
)
def test_batched_linearity_block_is_the_tensored_multiplications(ring, generator, depth):
    # homjz_a's linearity pass builds id (x) (every sample's multiplication)
    # once per level, in place of one tensored map per (sample, level)
    tower = build_adic_tower(ring, generator, depth)
    with memo_scope():
        limit = truncated_limit(tower, depth)
        two = ring.add(ring.one, ring.one)
        samples = [limit.zero(), limit.one(), limit.from_scalar(two)]
        mults = limit.multiplication_morphisms(samples)
        for level in tower.levels:
            batched = matrices.kronecker(
                Matrix.identity(ring, level.generators),
                matrices.hstack([m.matrix for m in mults]),
            )
            each = [oracles.tensor_map_right(level, m).matrix for m in mults]
            assert batched == matrices.hstack(each)
