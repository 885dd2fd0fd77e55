"""Lemma entries of the verification report.

Each entry certifies one structural statement about a tower and its
truncated limits, mirroring the chain that ends in the weak-epimorphism
certificate: stabilized homs, the limit identification, image
stabilization, level splittings, the shift sequence, the tensor and hom
collapses, the endomorphism bijection and the finite-support witness.
All randomness is drawn from a seeded generator recorded in the report.
A ``TowerError`` raised while a lemma builds its objects is left to
:func:`adictower.verify.pipeline.run_full_report`, which records it as the
lemma's failed entry.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import List

from ..exactalg.matrices import Matrix, hstack, vstack
from ..fpmod.exactness import is_exact, short_exact_failure, submodule_quotient
from ..fpmod.functors import (
    HomModule,
    hom_module,
    induced_hom,
    tensor_map_left,
    tensor_map_right,
    tensor_module,
)
from ..fpmod.modules import (
    ModuleMorphism,
    annihilator_generator,
    direct_sum,
    element_key,
    module_elements,
    module_order,
    normalize,
)
from ..fpmod.morphisms import (
    compose,
    cokernel,
    equal_morphisms,
    find_isomorphism,
    identity_morphism,
    image,
    is_injective,
    is_isomorphism,
    is_surjective,
    is_well_defined,
    is_zero_morphism,
    kernel,
    lift,
    submodules_equal,
    zero_morphism,
)
from ..towers import (
    AdicTower,
    CoherentElement,
    ML_HOLDS,
    ML_HOLDS_BY_SURJECTIVITY,
    TowerError,
    TruncatedLimit,
    build_transition,
    build_transitions,
    hom_into_colimit,
    inclusion_composite,
    inverse_limit,
    mittag_leffler_check,
    shift_embedding,
    shift_endomorphism,
    transition_composite,
    truncated_limit,
    truncation_morphism,
)
from .report import Entry, failed, passed, skipped

# Coproduct size of the self-smallness witness, and the number of random
# draws for each sampled check.
INDEX_SIZE = 16
TRIALS = 6


class _ResidueSequence(Sequence):
    """Indexable view of ``ring.residues(modulus)`` backed by
    ``Ring.residue_at``."""

    def __init__(self, ring, modulus):
        self.ring = ring
        self.modulus = modulus
        self.count = ring.residue_count(modulus)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i):
        return self.ring.residue_at(self.modulus, i)


class PipelineState:
    """The tower, the settings and the seeded random stream of one
    verification run.

    Derived objects (limits, stabilized homs, shifts) are not kept here:
    the lemmas call the tower functions directly, and the run's
    :func:`adictower.memo.memo_scope` shares their results.
    """

    def __init__(
        self,
        tower: AdicTower,
        seed: int = 0,
        oracle_bound: int = 4096,
        horizon: int = 8,
    ):
        self.tower = tower
        self.seed = seed
        self.oracle_bound = oracle_bound
        self.horizon = horizon
        self.rng = random.Random(seed)

    def residue_pool(self, modulus) -> Sequence:
        """The residues mod ``modulus`` in ``Ring.residues`` order, as a
        lazy sequence: only the drawn ones are ever built."""
        ring = self.tower.ring
        if ring.kind == "integers":
            return range(ring.residue_count(modulus))
        return _ResidueSequence(ring, modulus)

    def random_residue(self, modulus):
        # The same draw as randrange(len(pool)), but len() stops at
        # sys.maxsize and the residue count does not.
        count = self.tower.ring.residue_count(modulus)
        return self.residue_pool(modulus)[self.rng.randrange(count)]

    def random_coherent(self, limit: TruncatedLimit) -> CoherentElement:
        """Uniform coherent element, drawn from the top level and pushed down."""
        ring = self.tower.ring
        n = limit.level
        comps: List[object] = [None] * n
        comps[n - 1] = self.random_residue(limit.moduli()[n - 1])
        for i in range(n - 2, -1, -1):
            d = limit.maps[i].matrix.entries[0][0]
            comps[i] = ring.rem(ring.mul(d, comps[i + 1]), limit.moduli()[i])
        return limit.element(comps)


def lemma_homzz(state: PipelineState) -> Entry:
    """Hom from each level into the rising levels stabilizes at the level
    itself."""
    tower = state.tower
    indices = []
    for m in range(1, tower.depth + 1):
        ch = hom_into_colimit(tower, m)
        if find_isomorphism(ch.stable_module, tower.level(m)) is None:
            return failed(
                f"stable hom value at level {m} is not isomorphic to level {m}"
            )
        indices.append([m, ch.stable_index])
    return passed(
        "hom into the rising levels is constant from the recorded index and "
        "matches the level",
        stable_indices=indices,
    )


def lemma_jislim(state: PipelineState) -> Entry:
    """The truncated limit carrier is the top level, compatibly with the
    projection cone."""
    tower = state.tower
    ring = tower.ring
    carriers = []
    for n in range(1, tower.depth + 1):
        try:
            lim = truncated_limit(tower, n)
        except TowerError as err:
            return failed(f"truncation at level {n}: {err}")
        if not is_isomorphism(lim.top):
            return failed(f"top projection at level {n} is not an isomorphism")
        for k in range(1, n):
            step = compose(build_transition(tower, k), lim.projections[k])
            if not equal_morphisms(step, lim.projections[k - 1]):
                return failed(
                    f"projection cone at truncation {n} breaks at level {k}"
                )
        factors = [ring.format(f) for f in normalize(lim.carrier).factors]
        carriers.append([n, factors])
    return passed(
        "every truncated limit is carried by its top level with a coherent "
        "projection cone",
        carriers=carriers,
    )


def lemma_zml(state: PipelineState) -> Entry:
    """Image stabilization (surjectivity short-circuit) of the transition
    system."""
    tower = state.tower
    transitions = build_transitions(tower)
    modules = [tower.level(n) for n in range(1, tower.depth + 1)]
    check = mittag_leffler_check(modules, transitions, state.horizon)
    if check.verdict not in (ML_HOLDS, ML_HOLDS_BY_SURJECTIVITY):
        return failed(
            "image chains did not stabilize within the horizon",
            verdict=check.verdict,
            plateau_starts={str(k): v for k, v in check.plateau_starts.items()},
        )
    return passed(
        "transition images stabilize",
        verdict=check.verdict,
        surjective=list(check.surjective_maps),
    )


def lemma_quotient(state: PipelineState) -> Entry:
    """Each level splits every higher level: short exact sequences with
    exact orders, and their hom duals swap the ends."""
    tower = state.tower
    pairs = []
    duality_pairs = 0
    for total in range(2, tower.depth + 1):
        for m in range(1, total):
            n = total - m
            amb = tower.level(total)
            incl = inclusion_composite(tower, m, total)
            sub_mod, sub_incl, quot, proj = submodule_quotient(amb, incl.matrix)
            if find_isomorphism(sub_mod, tower.level(m)) is None:
                return failed(
                    f"split ({m}, {n}): embedded copy is not level {m}"
                )
            qiso = find_isomorphism(quot, tower.level(n))
            if qiso is None:
                return failed(f"split ({m}, {n}): quotient is not level {n}")
            reason = short_exact_failure(sub_incl, proj)
            if reason is not None:
                return failed(f"split ({m}, {n}): {reason}")
            total_order = module_order(amb)
            part_orders = module_order(sub_mod), module_order(quot)
            if total_order != part_orders[0] * part_orders[1]:
                return failed(f"split ({m}, {n}): orders do not multiply out")
            surj_to_n = compose(qiso, proj)
            s = tower.depth
            pre_surj = induced_hom(surj_to_n, tower.level(s), "pre")
            pre_incl = induced_hom(incl, tower.level(s), "pre")
            reason = short_exact_failure(pre_surj, pre_incl)
            if reason is not None:
                return failed(f"dual sequence at split ({m}, {n}): {reason}")
            duality_pairs += 1
            pairs.append([m, n])
    if not pairs:
        return passed("no level pairs below depth 2", pairs=[])
    return passed(
        "every split is short exact with multiplicative orders and the hom "
        "dual swaps the ends",
        pairs=pairs,
        duality_pairs=duality_pairs,
        duality_reading="swapped",
    )


def lemma_jjz(state: PipelineState) -> Entry:
    """The shift embeds the one-lower truncation with bottom-level cokernel,
    and its image is the ideal multiple of the carrier."""
    tower = state.tower
    ring = tower.ring
    if tower.depth < 2:
        return skipped(
            "shift checks need at least two levels", reason="depth-limited"
        )
    limit = truncated_limit(tower, tower.depth)
    low = truncated_limit(tower, tower.depth - 1)
    shift = shift_endomorphism(limit)
    embed = shift_embedding(low, limit)
    g = tower.ideal.generator
    ideal_cols = Matrix.identity(ring, limit.carrier.generators).scale(g)
    if not submodules_equal(limit.carrier, shift.matrix, ideal_cols):
        return failed("image of the shift is not the ideal multiple of the carrier")
    coker_shift, _ = cokernel(shift)
    if find_isomorphism(coker_shift, tower.level(1)) is None:
        return failed("cokernel of the shift is not the bottom level")
    if not is_injective(embed):
        return failed("shift embedding of the lower truncation is not injective")
    coker_embed, embed_proj = cokernel(embed)
    qiso = find_isomorphism(coker_embed, tower.level(1))
    if qiso is None:
        return failed("cokernel of the shift embedding is not the bottom level")
    reason = short_exact_failure(embed, compose(qiso, embed_proj))
    if reason is not None:
        return failed(f"shift sequence is not short exact: {reason}")
    cross_checked = 0
    for k in range(1, tower.depth):
        hi = truncated_limit(tower, k + 1)
        lo = truncated_limit(tower, k)
        hi_shift = shift_endomorphism(hi)
        ker_sub = kernel(hi_shift)
        drop = truncation_morphism(hi, lo)
        if not is_zero_morphism(compose(drop, ker_sub.inclusion)):
            return failed(
                f"kernel of the level-{k + 1} shift survives truncation to "
                f"level {k}"
            )
        if k >= 2:
            lo_shift = shift_endomorphism(lo)
            if not equal_morphisms(compose(drop, hi_shift), compose(lo_shift, drop)):
                return failed(f"shift does not commute with truncation at level {k}")
        cross_checked += 1
    transitions = build_transitions(tower)
    levels = [tower.level(n) for n in range(1, tower.depth + 1)]
    ml_mid = mittag_leffler_check(levels, transitions, state.horizon)
    ml_sub = mittag_leffler_check(
        levels[: tower.depth - 1], transitions[: tower.depth - 2], state.horizon
    )
    bottom = tower.level(1)
    ml_quot = mittag_leffler_check(
        [bottom] * tower.depth,
        [identity_morphism(bottom) for _ in range(tower.depth - 1)],
        state.horizon,
    )
    verdicts = {
        "sub": ml_sub.verdict,
        "mid": ml_mid.verdict,
        "quotient": ml_quot.verdict,
    }
    if any(v not in (ML_HOLDS, ML_HOLDS_BY_SURJECTIVITY) for v in verdicts.values()):
        return failed("levelwise systems did not stabilize", ml_verdicts=verdicts)
    return passed(
        "shift sequence is exact with ideal image and bottom-level cokernel; "
        "next-level shift kernels vanish under truncation",
        ml_verdicts=verdicts,
        cross_level_checked=cross_checked,
    )


def lemma_homjz_a(state: PipelineState) -> Entry:
    """Tensoring levels with the truncated limit collapses to the levels,
    through action maps compatible with the level rows."""
    tower = state.tower
    ring = tower.ring
    iso_pairs = 0
    for cap in range(1, tower.depth + 1):
        lim = truncated_limit(tower, cap)
        for n in range(1, cap + 1):
            tens = tensor_module(tower.level(n), lim.carrier)
            if find_isomorphism(tens.module, tower.level(n)) is None:
                return failed(
                    f"level {n} tensor the level-{cap} limit is not level {n}"
                )
            iso_pairs += 1
    limit = truncated_limit(tower, tower.depth)
    gens = limit.carrier.generators
    unit = Matrix.identity(ring, gens)
    gen_elements = [limit.element_from_column(unit.column_at(t)) for t in range(gens)]
    action = {}
    for k in range(1, tower.depth + 1):
        row = tuple(gen_elements[t].components[k - 1] for t in range(gens))
        vk = ModuleMorphism(
            tensor_module(tower.level(k), limit.carrier).module,
            tower.level(k),
            Matrix(ring, 1, gens, (row,)),
        )
        if not is_well_defined(vk):
            return failed(f"action map at level {k} is not well defined")
        if not is_isomorphism(vk):
            return failed(f"action map at level {k} is not an isomorphism")
        action[k] = vk
    for n in range(1, tower.depth):
        up = tensor_map_left(tower.inclusion(n), limit.carrier)
        if not equal_morphisms(
            compose(action[n + 1], up), compose(tower.inclusion(n), action[n])
        ):
            return failed(f"inclusion action square breaks at level {n}")
        to_bottom = transition_composite(tower, 1, n + 1)
        down = tensor_map_left(to_bottom, limit.carrier)
        if not equal_morphisms(
            compose(action[1], down), compose(to_bottom, action[n + 1])
        ):
            return failed(f"bottom action square breaks at level {n}")
        if not is_exact([up, down]) or not is_surjective(down):
            return failed(f"tensored level row is not right exact at level {n}")
    base_checked = False
    if tower.depth >= 2:
        shift = shift_endomorphism(limit)
        img = image(shift)
        bottom_tensor = tensor_map_right(tower.level(1), img.inclusion)
        if not is_zero_morphism(bottom_tensor):
            return failed(
                "bottom tensor of the shift-image inclusion does not vanish"
            )
        base_checked = True
    cols = module_elements(limit.carrier, 64)
    if cols is not None:
        samples = [limit.element_from_column(col) for col in cols]
        sample_mode = "exhaustive"
    else:
        samples = [limit.zero(), limit.one()] + [
            state.random_coherent(limit) for _ in range(TRIALS)
        ]
        sample_mode = "sampled"
    for elem in samples:
        mult = limit.multiplication_morphism(elem)
        for k in range(1, tower.depth + 1):
            left = compose(action[k], tensor_map_right(tower.level(k), mult))
            scalar = ModuleMorphism(
                tower.level(k),
                tower.level(k),
                Matrix.from_rows(ring, [[elem.components[k - 1]]]),
            )
            if not equal_morphisms(left, compose(scalar, action[k])):
                return failed(
                    f"action map at level {k} is not linear over the limit ring"
                )
    return passed(
        "levels tensor the limit collapse onto the levels through "
        "ring-linear action maps",
        iso_pairs=iso_pairs,
        base_case_checked=base_checked,
        linearity_samples=len(samples),
        sample_mode=sample_mode,
    )


def lemma_homjz_b(state: PipelineState) -> Entry:
    """The level projections generate the homs from every truncation."""
    tower = state.tower
    pairs = []
    for n in range(1, tower.depth + 1):
        for cap in range(n, tower.depth + 1):
            lim = truncated_limit(tower, cap)
            hom = hom_module(lim.carrier, tower.level(n))
            try:
                col = hom.encode(lim.projections[n - 1])
            except ValueError as err:
                return failed(f"projection to level {n} is not a morphism: {err}")
            can = ModuleMorphism(tower.level(n), hom.module, col)
            if not is_isomorphism(can):
                return failed(
                    f"projection does not generate Hom(limit {cap}, level {n})"
                )
            pairs.append([n, cap])
    return passed(
        "multiples of the level projections exhaust the homs from every "
        "truncation, stably across truncation levels",
        pairs=pairs,
    )


def _generator_multiplications(limit: TruncatedLimit):
    """Multiplication endomorphisms by each carrier generator."""
    unit = Matrix.identity(limit.ring, limit.carrier.generators)
    return [
        limit.multiplication_morphism(
            limit.element_from_column(unit.column_at(t))
        ).matrix
        for t in range(unit.cols)
    ]


def lemma_weak_epi(state: PipelineState) -> Entry:
    """Multiplication identifies the carrier with its endomorphism module,
    and the endomorphisms match the limit of the level homs."""
    tower = state.tower
    ring = tower.ring
    limit = truncated_limit(tower, tower.depth)
    mult_mats = _generator_multiplications(limit)
    carrier = limit.carrier
    hom = hom_module(carrier, carrier)
    try:
        phi_cols = [
            hom.encode(ModuleMorphism(carrier, carrier, m)) for m in mult_mats
        ]
    except ValueError as err:
        return failed(f"generator multiplication is not an endomorphism: {err}")
    phi = ModuleMorphism(carrier, hom.module, hstack(phi_cols))
    if not is_well_defined(phi):
        return failed("multiplication map into the endomorphisms is not well defined")
    if not is_injective(phi):
        return failed("multiplication map into the endomorphisms is not injective")
    if not is_surjective(phi):
        return failed("multiplication map into the endomorphisms is not surjective")
    order = module_order(carrier)
    hom_order = module_order(hom.module)
    if order != hom_order:
        return failed("carrier and endomorphism module have different orders")
    if order is not None and order <= state.oracle_bound:
        expected = {
            element_key(hom.module, col)
            for col in module_elements(hom.module, state.oracle_bound)
        }
        seen = set()
        for col in module_elements(carrier, state.oracle_bound):
            mat = Matrix.zeros(ring, carrier.generators, carrier.generators)
            for t in range(carrier.generators):
                c = col.entries[t][0]
                if c != ring.zero:
                    mat = mat.add(mult_mats[t].scale(c))
            seen.add(
                element_key(
                    hom.module, hom.encode(ModuleMorphism(carrier, carrier, mat))
                )
            )
        if len(seen) != order or seen != expected:
            return failed(
                "multiplication classes do not biject with the endomorphisms"
            )
        mode = "exhaustive"
    else:
        for _ in range(TRIALS):
            elem = state.random_coherent(limit)
            col = limit.column(elem)
            encoded = phi.matrix @ col
            decoded = hom.decode(encoded)
            if not equal_morphisms(decoded, limit.multiplication_morphism(elem)):
                return failed("sampled multiplication disagrees with its encoding")
        mode = "sampled"
    hom_levels = [
        hom_module(carrier, tower.level(n)) for n in range(1, tower.depth + 1)
    ]
    level_maps = [
        induced_hom(build_transition(tower, n), carrier, "post")
        for n in range(1, tower.depth)
    ]
    lim_homs = inverse_limit([h.module for h in hom_levels], level_maps)
    stacked = []
    for t in range(hom.module.generators):
        psi = hom.basis_morphism(t)
        parts = [
            hom_levels[n].encode(compose(limit.projections[n], psi))
            for n in range(tower.depth)
        ]
        stacked.append(vstack(parts))
    sol = lift(lim_homs.include, hstack(stacked))
    if sol is None:
        return failed("endomorphism components are not coherent in the hom system")
    comparison = ModuleMorphism(hom.module, lim_homs.carrier, sol)
    if not is_isomorphism(comparison):
        return failed("endomorphisms do not match the limit of level homs")
    if find_isomorphism(lim_homs.carrier, carrier) is None:
        return failed("limit of level homs is not the carrier")
    return passed(
        "multiplication is a bijective correspondence with the endomorphisms "
        "and matches the limit of level homs",
        mode=mode,
        order=order,
        endomorphisms=hom_order,
    )


def _random_hom_column(hom: HomModule, state: PipelineState) -> Matrix:
    ring = hom.ring
    coeffs = []
    for entry in hom.basis:
        if entry.annihilator == ring.zero:
            coeffs.append(ring.from_int(state.rng.randrange(-8, 9)))
        else:
            coeffs.append(state.random_residue(entry.annihilator))
    return Matrix.column(ring, coeffs)


def lemma_self_small(state: PipelineState) -> Entry:
    """Self-smallness witness: endomorphisms are multiplication-linear and
    maps into a large coproduct of copies factor through their finite
    support."""
    tower = state.tower
    ring = tower.ring
    limit = truncated_limit(tower, tower.depth)
    carrier = limit.carrier
    hom = hom_module(carrier, carrier)
    endo_cols = module_elements(hom.module, 64)
    if endo_cols is not None:
        endo_mode = "exhaustive"
    else:
        endo_cols = [_random_hom_column(hom, state) for _ in range(TRIALS)]
        endo_mode = "sampled"
    elem_cols = module_elements(carrier, 64)
    if elem_cols is not None:
        elem_mode = "exhaustive"
    else:
        elem_cols = [
            limit.column(state.random_coherent(limit)) for _ in range(TRIALS)
        ]
        elem_mode = "sampled"
    multiplications = [
        (col, limit.multiplication_morphism(limit.element_from_column(col)))
        for col in elem_cols
    ]
    commutation_checks = 0
    for endo_col in endo_cols:
        endo = hom.decode(endo_col)
        for _, mult in multiplications:
            left = hom.encode(compose(endo, mult))
            right = hom.encode(compose(mult, endo))
            if left.entries != right.entries:
                return failed(
                    "an endomorphism fails to commute with a multiplication"
                )
            commutation_checks += 1
    std = normalize(carrier).standard
    if std.generators != 1:
        return failed("carrier normal form is not cyclic")
    modulus = annihilator_generator(std)
    count = INDEX_SIZE
    summed, injections, projections = direct_sum([std] * count)
    factor_trials = 0
    for trial in range(TRIALS + 2):
        if trial == 0:
            plan = []
        else:
            size = state.rng.randint(1, min(3, count))
            plan = sorted(state.rng.sample(range(count), size))
        values = {i: state.random_residue(modulus) for i in plan}
        column = Matrix.column(
            ring, [values.get(i, ring.zero) for i in range(count)]
        )
        into_sum = ModuleMorphism(std, summed, column)
        detected = [
            i
            for i in range(count)
            if not is_zero_morphism(compose(projections[i], into_sum))
        ]
        expected = [i for i in plan if ring.rem(values[i], modulus) != ring.zero]
        if detected != expected:
            return failed("support detection missed or invented indices")
        rebuilt = zero_morphism(std, summed)
        for i in detected:
            part = compose(injections[i], compose(projections[i], into_sum))
            rebuilt = ModuleMorphism(std, summed, rebuilt.matrix.add(part.matrix))
        if not equal_morphisms(into_sum, rebuilt):
            return failed(
                "map into the coproduct is not recovered from its finite support"
            )
        factor_trials += 1
    return passed(
        "endomorphisms commute with multiplications and coproduct maps "
        "factor through their finite support (checked on the carrier's "
        "normal form)",
        commutation_checks=commutation_checks,
        endo_mode=endo_mode,
        element_mode=elem_mode,
        index_size=count,
        factorization_trials=factor_trials,
    )
