"""Lemma entries of the verification report.

Each entry certifies one structural statement about a tower and its
truncated limits, mirroring the chain that ends in the weak-epimorphism
certificate: stabilized homs, the limit identification, image
stabilization, level splittings, the shift sequence, the tensor and hom
collapses, the endomorphism bijection and the finite-support witness.
All randomness is drawn from a seeded generator recorded in the report.
A ``TowerError`` raised while a lemma builds its objects is left to
:func:`adictower.verify.pipeline.verify_tower`, which records it as the
lemma's failed entry.  A fact that a prerequisite entry or a certificate
of the objects already establishes is not checked again; the lemma's
docstring or a comment names what establishes it.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import Optional

from ..exactalg.matrices import Matrix, hstack, kronecker, vstack
from ..fpmod.functors import HomModule, hom_module, induced_hom
from ..fpmod.modules import (
    ModuleMorphism,
    annihilator_generator,
    direct_sum,
    element_keys,
    module_elements,
    module_order,
    normalize,
)
from ..fpmod.morphisms import (
    compose,
    cokernel,
    identity_morphism,
    is_injective,
    is_isomorphic,
    is_isomorphism,
    is_surjective,
    is_well_defined,
    vanishes,
)
from ..towers import (
    AdicTower,
    CoherentElement,
    TowerError,
    TruncatedLimit,
    build_transition,
    build_transitions,
    hom_into_colimit,
    inclusion_composite,
    inverse_limit,
    limit_preimage,
    mittag_leffler_check,
    truncated_limit,
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
        top = self.random_residue(self.tower.level_modulus(limit.level))
        return limit.from_top(top)


def lemma_homzz(state: PipelineState) -> Entry:
    """Hom from each level into the rising levels stabilizes at the level
    itself.

    The stable value is the level because condition 2, a prerequisite,
    certified every canonical map from level m into Hom(level m, level n),
    n >= m, an isomorphism; this entry records where each system becomes
    constant.
    """
    tower = state.tower
    indices = [[m, hom_into_colimit(tower, m)] for m in range(1, tower.depth + 1)]
    return passed(
        "hom into the rising levels is constant from the recorded index and "
        "matches the level",
        stable_indices=indices,
    )


def lemma_jislim(state: PipelineState) -> Entry:
    """The truncated limit carrier is the top level, compatibly with the
    projection cone.

    The tower fact is the first: ``truncated_limit`` certifies each top
    projection an isomorphism, or raises.  The cone holds by the limit's
    construction.  The limit at level n+1 is the kernel of ``(l, x) ->
    top_n(l) - t_n(x)``, with t_n the transition that ``build_transition``
    returns, so its projection to level n is t_n after its projection to
    level n+1.  Each lower projection is the matching projection of the
    limit at level n after the kernel's first component, so the cone below
    level n carries over.  The entry records each carrier's invariant
    factors.
    """
    tower = state.tower
    ring = tower.ring
    carriers = []
    for n in range(1, tower.depth + 1):
        lim = truncated_limit(tower, n)
        factors = [ring.format(f) for f in normalize(lim.carrier).factors]
        carriers.append([n, factors])
    return passed(
        "every truncated limit is carried by its top level with a coherent "
        "projection cone",
        carriers=carriers,
    )


def lemma_zml(state: PipelineState) -> Entry:
    """Image stabilization (surjectivity short-circuit) of the transition
    system.

    ``build_transition`` certified every transition surjective, so the
    verdict is always the surjectivity short-circuit; the entry records it.
    """
    tower = state.tower
    transitions = build_transitions(tower)
    modules = [tower.level(n) for n in range(1, tower.depth + 1)]
    check = mittag_leffler_check(modules, transitions, state.horizon)
    return passed(
        "transition images stabilize",
        verdict=check.verdict,
        surjective=list(check.surjective_maps),
    )


def lemma_quotient(state: PipelineState) -> Entry:
    """Each level splits every higher level: short exact sequences with
    exact orders, and their hom duals swap the ends.

    For each split 0 -> level m -> level m+n -> level n -> 0 along the
    composite inclusion, three facts depend on the tower:
    - the inclusion is injective.  Between finite modules this is the
      count |level m|.|coker| = |level m+n|, so it is also the whole test
      of exactness in the middle;
    - its cokernel is isomorphic to level n;
    - restriction along it, Hom(level m+n, L) -> Hom(level m, L) with L
      the top level, is onto.
    The rest holds whatever the tower is.  The cokernel projection is onto
    and kills the inclusion by construction.  Hom(-, L) is left exact, so
    the dual sequence is exact up to its last map, and the restriction
    being onto makes it short exact with multiplicative orders.

    Only the split (1, total-1) at each total is checked.  Condition 2,
    through the prerequisite ``homzz``, makes level k R/(a_k) with the
    composite inclusion (m, k) equal to (a_k/a_m) times a unit modulo a_m
    (see :func:`adictower.towers.adjacent_pairs_pass`).  So:
    - every composite inclusion is injective, and restriction along it
      sends the generator of Hom(level m+n, L), the composite (m+n, top),
      to the composite (m, top), the generator of Hom(level m, L): the
      first and third facts hold for every split;
    - the cokernel of (m, m+n) is R/(a_(m+n)/a_m).  Once the splits (1,
      t-1) hold for every total t <= T, a_k = a_1^k up to a unit for k <= T
      by induction, and every split at a total up to T holds;
    - so the first failing split is a (1, T-1), which comes first at its
      total: the witness is the one every split in order would give.
    The other splits are recorded unchecked.
    """
    tower = state.tower
    top = tower.level(tower.depth)
    pairs = []
    m = 1
    for total in range(2, tower.depth + 1):
        n = total - m
        incl = inclusion_composite(tower, m, total)
        if not is_injective(incl):
            return failed(f"split ({m}, {n}): inject has nontrivial kernel")
        if not is_isomorphic(cokernel(incl)[0], tower.level(n)):
            return failed(f"split ({m}, {n}): quotient is not level {n}")
        if not is_surjective(induced_hom(incl, top, "pre")):
            return failed(
                f"dual sequence at split ({m}, {n}): surject is not onto"
            )
        pairs += [[k, total - k] for k in range(1, total)]
    if not pairs:
        return passed("no level pairs below depth 2", pairs=[])
    return passed(
        "every split is short exact with multiplicative orders and the hom "
        "dual swaps the ends",
        pairs=pairs,
        duality_pairs=len(pairs),
        duality_reading="swapped",
    )


def lemma_jjz(state: PipelineState) -> Entry:
    """The shift embeds the one-lower truncation with bottom-level cokernel,
    and its image is the ideal multiple of the carrier.

    Conditions 2 and 4, both prerequisites, make all of this true.
    Condition 2 makes each canonical map from level m into Hom(level m,
    level m+1) an isomorphism, so a_m divides a_(m+1) (a_m the modulus of
    level m) and the inclusion is u.a_(m+1)/a_m with u a unit modulo a_m.
    Condition 4 makes a_1 = g, and makes g times level m+1, the ideal
    (g, a_(m+1)) = (g) because g = a_1 divides a_(m+1), the image of that
    inclusion, (a_(m+1)/a_m).  So a_(m+1) = g.a_m up to a unit: the tower
    is R/(g^n) with inclusions g times a unit.  Each transition sends the
    generator to can_bot^-1(incl) = 1 (see ``build_transition``), so it is
    the reduction, and the limit at level N is R/(g^N) through its
    certified top projection.  The shift sends the string of x to the
    string of g.x, so on that cyclic carrier it is multiplication by g.
    Hence:
    - its image is g times the carrier, and its cokernel R/(g), the
      bottom level;
    - the shift embedding of the limit at level N-1 is multiplication by
      g from R/(g^(N-1)): injective, with cokernel R/(g);
    - at each level k+1 the kernel of the shift, g^k R/(g^(k+1)), dies
      under truncation to level k, and the shift commutes with
      truncation, both being multiplication by g and reductions.
    The entry counts the depth - 1 pairs of levels that the last two
    facts are about, and checks the three inverse systems of the shift
    sequence for image stabilization.
    """
    tower = state.tower
    if tower.depth < 2:
        return skipped(
            "shift checks need at least two levels", reason="depth-limited"
        )
    # Every map of these systems is an identity or a transition, which
    # build_transition certified surjective: each verdict is the
    # surjectivity short-circuit, recorded.
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
    return passed(
        "shift sequence is exact with ideal image and bottom-level cokernel; "
        "next-level shift kernels vanish under truncation",
        ml_verdicts=verdicts,
        cross_level_checked=tower.depth - 1,
    )


def lemma_homjz_a(state: PipelineState) -> Entry:
    """Tensoring levels with the truncated limit collapses to the levels,
    through action maps compatible with the level rows.

    One fact here depends on more than the tower's conditions: the action
    maps are linear over the limit ring, checked on every carrier element
    or on sampled ones.  The rest follows from R/(a) (x) R/(b) = R/(a) for
    a dividing b.  Conditions 2 and 4 make the tower R/(g^n) with
    reductions as transitions (see :func:`lemma_jjz`), and every limit at
    level N is R/(g^N) through its certified top projection.  So:
    - level n tensor the limit at level N >= n is level n (the recorded
      ``iso_pairs``);
    - the action map at level k sends 1 (x) e to the level-k component of
      the carrier generator e, a unit because the top projection is an
      isomorphism: it is well defined and an isomorphism;
    - both action squares commute, the inclusion being g times a unit and
      the composite transition to the bottom level the reduction;
    - the tensored row level n -> level n+1 -> bottom -> 0 is right exact:
      the row is exact, the image of g times a unit being (g), the kernel
      of the reduction (the quotient lemma's split (n, 1) certifies that
      cokernel), and tensoring is right exact;
    - the bottom level tensor the shift, multiplication by g on R/(g), is
      zero (recorded as ``base_case_checked``).
    """
    tower = state.tower
    ring = tower.ring
    limit = truncated_limit(tower, tower.depth)
    gens = limit.carrier.generators
    gen_elements = limit.elements_from_columns(Matrix.identity(ring, gens))
    elements = module_elements(limit.carrier, 64)
    if elements is not None:
        samples = limit.elements_from_columns(elements.matrix)
        sample_mode = "exhaustive"
    else:
        samples = [limit.zero(), limit.one()] + [
            state.random_coherent(limit) for _ in range(TRIALS)
        ]
        sample_mode = "sampled"
    # Linearity over every sample at once: per level, the action after
    # each sample's tensored multiplication against the sample's scalar
    # times the action, side by side, in one vanishes.  The tensored
    # multiplications of all samples are id (x) their matrices side by
    # side.  The witness is the first failing (sample, level) in
    # sample-major order.
    multiplications = hstack(
        [m.matrix for m in limit.multiplication_morphisms(samples)]
    )
    first = None
    for k in range(1, tower.depth + 1):
        level = tower.level(k)
        act = Matrix(
            ring, 1, gens, (tuple(e.components[k - 1] for e in gen_elements),)
        )
        left = act @ kronecker(
            Matrix.identity(ring, level.generators), multiplications
        )
        right = hstack([act.scale(elem.components[k - 1]) for elem in samples])
        diff = left.sub(right)
        if not vanishes(level, diff):
            column = next(
                c
                for c, key in enumerate(element_keys(level, diff))
                if any(v != ring.zero for v in key)
            )
            if first is None or column // act.cols < first[0]:
                first = (column // act.cols, k)
    if first is not None:
        return failed(
            f"action map at level {first[1]} is not linear over the limit ring"
        )
    return passed(
        "levels tensor the limit collapse onto the levels through "
        "ring-linear action maps",
        iso_pairs=tower.depth * (tower.depth + 1) // 2,
        base_case_checked=tower.depth >= 2,
        linearity_samples=len(samples),
        sample_mode=sample_mode,
    )


def lemma_homjz_b(state: PipelineState) -> Entry:
    """The level projections generate the homs from every truncation.

    For n <= N, Hom(limit at level N, level n) is Hom(R/(g^N), R/(g^n)) =
    R/(g^n) (see :func:`lemma_homjz_a`), and a map generates it exactly
    when it is onto.  The projection to level n is the composite
    transition, a reduction, after the certified top isomorphism, so it is
    onto.  The entry records the pairs (n, N).
    """
    depth = state.tower.depth
    pairs = [[n, cap] for n in range(1, depth + 1) for cap in range(n, depth + 1)]
    return passed(
        "multiples of the level projections exhaust the homs from every "
        "truncation, stably across truncation levels",
        pairs=pairs,
    )


def _generator_multiplications(limit: TruncatedLimit):
    """Multiplication endomorphisms by each carrier generator."""
    unit = Matrix.identity(limit.ring, limit.carrier.generators)
    gens = limit.elements_from_columns(unit)
    return [mult.matrix for mult in limit.multiplication_morphisms(gens)]


def lemma_weak_epi(state: PipelineState) -> Entry:
    """Multiplication identifies the carrier with its endomorphism module,
    and the endomorphisms match the limit of the level homs.

    The oracle of the correspondence is exhaustive on a small carrier
    (one product encodes every element's multiplication) and sampled on a
    large one (:func:`_samples_agree`).  The limit of the level homs
    folds modules and maps equal to the levels and transitions, so its
    folds come from the run memo.
    """
    tower = state.tower
    limit = truncated_limit(tower, tower.depth)
    carrier = limit.carrier
    hom = hom_module(carrier, carrier)
    # each multiplication is certified well defined by its restriction,
    # so it encodes
    mult_cells = hom.cells(_generator_multiplications(limit))
    phi = ModuleMorphism(carrier, hom.module, hom.encode_cells(mult_cells))
    if not is_well_defined(phi):
        return failed("multiplication map into the endomorphisms is not well defined")
    if not is_injective(phi):
        return failed("multiplication map into the endomorphisms is not injective")
    if not is_surjective(phi):
        return failed("multiplication map into the endomorphisms is not surjective")
    order = module_order(carrier)
    hom_order = module_order(hom.module)
    if order is not None and order <= state.oracle_bound:
        endos = module_elements(hom.module, state.oracle_bound)
        expected = set(element_keys(hom.module, endos.matrix))
        elements = module_elements(carrier, state.oracle_bound)
        # L (sum_t c_t M_t) R = sum_t c_t (L M_t R): the cells of the
        # generator multiplications, one column each, times the element
        # columns are the cells of every element's multiplication, in one
        # product.
        cells = mult_cells @ elements.matrix
        seen = set(element_keys(hom.module, hom.encode_cells(cells)))
        if len(seen) != order or seen != expected:
            return failed(
                "multiplication classes do not biject with the endomorphisms"
            )
        mode = "exhaustive"
    else:
        if not _samples_agree(state, limit, hom, phi):
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
    if not is_isomorphism(lim_homs.projections[-1]):
        return failed(
            "top projection of the limit of level homs is not an isomorphism"
        )
    stacked = []
    for t in range(hom.module.generators):
        psi = hom.basis_morphism(t)
        parts = [
            hom_levels[n].encode(compose(limit.projections[n], psi))
            for n in range(tower.depth)
        ]
        stacked.append(vstack(parts))
    sol = limit_preimage(lim_homs, hstack(stacked))
    if sol is None:
        return failed("endomorphism components are not coherent in the hom system")
    comparison = ModuleMorphism(hom.module, lim_homs.carrier, sol)
    if not is_isomorphism(comparison):
        return failed("endomorphisms do not match the limit of level homs")
    return passed(
        "multiplication is a bijective correspondence with the endomorphisms "
        "and matches the limit of level homs",
        mode=mode,
        order=order,
        endomorphisms=hom_order,
    )


def _samples_agree(
    state: PipelineState, limit: TruncatedLimit, hom: HomModule, phi: ModuleMorphism
) -> bool:
    """Whether ``phi`` sends each of ``TRIALS`` drawn coherent elements to
    the encoding of the multiplication by it.

    Every element is drawn first, in trial order.  Then one lift gives
    their carrier columns, one restriction their multiplications, one
    product their images under ``phi`` and one ``vanishes`` compares
    those with the multiplications' encodings.  When the lift or the
    restriction raises ``TowerError``, the trials run again one at a
    time, so the first failing trial in draw order decides, and within a
    trial an element outside the carrier comes before a disagreement.
    """
    elems = [state.random_coherent(limit) for _ in range(TRIALS)]
    try:
        return _encodings_agree(limit, hom, phi, elems)
    except TowerError:
        for elem in elems:
            if not _encodings_agree(limit, hom, phi, [elem]):
                return False
        raise


def _encodings_agree(
    limit: TruncatedLimit, hom: HomModule, phi: ModuleMorphism, elems
) -> bool:
    encoded = phi.matrix @ limit.columns(elems)
    mults = [m.matrix for m in limit.multiplication_morphisms(elems)]
    return vanishes(hom.module, encoded.sub(hom.encode_cells(hom.cells(mults))))


def _block_cells(ring, rows, corners, k: int) -> Matrix:
    """The cell matrix (see :meth:`HomModule.cells`) of the k x k blocks
    of the entry rows ``rows`` whose top left entries sit at ``corners``,
    one column per block."""
    return Matrix(
        ring,
        k * k,
        len(corners),
        tuple(
            tuple([rows[r + j][c + i] for r, c in corners])
            for i in range(k)
            for j in range(k)
        ),
    )


def _random_hom_column(hom: HomModule, state: PipelineState) -> Matrix:
    # a truncated limit is finite, so every basis entry has a nonzero
    # annihilator
    return Matrix.column(
        hom.ring, [state.random_residue(entry.annihilator) for entry in hom.basis]
    )


def lemma_self_small(state: PipelineState) -> Entry:
    """Self-smallness witness: endomorphisms are multiplication-linear and
    maps into a large coproduct of copies factor through their finite
    support.

    Listed carrier elements are rebuilt from their carrier columns.
    Sampled elements are multiplied as drawn, once one lift of them all
    has checked that they lie in the carrier.  The coproduct trials run
    as one batch (:func:`_coproduct_failure`).
    """
    tower = state.tower
    ring = tower.ring
    limit = truncated_limit(tower, tower.depth)
    carrier = limit.carrier
    hom = hom_module(carrier, carrier)
    all_endos = module_elements(hom.module, 64)
    if all_endos is not None:
        endo_cols = all_endos.matrix
        endo_mode = "exhaustive"
    else:
        endo_cols = hstack([_random_hom_column(hom, state) for _ in range(TRIALS)])
        endo_mode = "sampled"
    elements = module_elements(carrier, 64)
    if elements is not None:
        elems = limit.elements_from_columns(elements.matrix)
        elem_mode = "exhaustive"
    else:
        elems = [state.random_coherent(limit) for _ in range(TRIALS)]
        # refuses a drawn element outside the carrier
        limit.columns(elems)
        elem_mode = "sampled"
    # Each pair (E, x) is compared in standard form, L (E M_x) R against
    # L (M_x E) R, with L and R the carrier's to_standard and from_standard
    # matrices: one product gives the left sides of every pair and one the
    # right sides, and each side's cells, pair by pair, endomorphism-major,
    # are encoded in one call.
    norm = normalize(carrier)
    to_std, from_std = norm.to_standard, norm.from_standard
    mults = [mult.matrix for mult in limit.multiplication_morphisms(elems)]
    endos = [hom.decode(endo_cols.column_at(e)).matrix for e in range(endo_cols.cols)]
    lefts = (
        vstack([to_std @ endo for endo in endos])
        @ hstack([mult @ from_std for mult in mults])
    ).entries
    rights = (
        vstack([to_std @ mult for mult in mults])
        @ hstack([endo @ from_std for endo in endos])
    ).entries
    k = norm.standard.generators
    pairs = [(e * k, x * k) for e in range(len(endos)) for x in range(len(mults))]
    left = _block_cells(ring, lefts, pairs, k)
    right = _block_cells(ring, rights, [(x, e) for e, x in pairs], k)
    if hom.encode_cells(left) != hom.encode_cells(right):
        return failed("an endomorphism fails to commute with a multiplication")
    failure = _coproduct_failure(state, norm.standard)
    if failure is not None:
        return failure
    return passed(
        "endomorphisms commute with multiplications and coproduct maps "
        "factor through their finite support (checked on the carrier's "
        "normal form)",
        commutation_checks=len(pairs),
        endo_mode=endo_mode,
        element_mode=elem_mode,
        index_size=INDEX_SIZE,
        factorization_trials=TRIALS + 2,
    )


def _coproduct_failure(state: PipelineState, std) -> Optional[Entry]:
    """The failed entry of the first coproduct trial that fails, or None.

    Trial t maps ``std``, on k generators, into the sum of ``INDEX_SIZE``
    copies by a drawn residue times the identity into each copy of a
    drawn plan (trial 0 has none).  Every plan and residue is drawn
    first, in trial order, and the maps stand side by side, k columns per
    trial.  One product with the stacked projections gives every block;
    one ``element_keys`` call over the block columns with a nonzero entry
    detects every support; one product of the injections with the
    detected blocks rebuilds every map, and one ``vanishes`` compares
    them all.  Within a trial, detection comes before recovery.
    """
    ring, zero, k = std.ring, std.ring.zero, std.generators
    modulus = annihilator_generator(std)
    count = INDEX_SIZE
    summed, injections, projections = direct_sum([std] * count)
    draws = []
    for trial in range(TRIALS + 2):
        plan = []
        if trial:
            size = state.rng.randint(1, min(3, count))
            plan = sorted(state.rng.sample(range(count), size))
        draws.append({i: state.random_residue(modulus) for i in plan})
    trials = len(draws)
    grid = tuple(tuple(draw.get(i, zero) for draw in draws) for i in range(count))
    maps = kronecker(Matrix(ring, count, trials, grid), Matrix.identity(ring, k))
    blocks = (vstack([p.matrix for p in projections]) @ maps).entries
    bands = [tuple(zip(*blocks[i * k : (i + 1) * k])) for i in range(count)]
    # (copy, column) of every block column with a nonzero entry
    nonzero = [
        (i, c)
        for i, band in enumerate(bands)
        for c, col in enumerate(band)
        if any(v != zero for v in col)
    ]
    detected = [set() for _ in draws]
    if nonzero:
        cols = [bands[i][c] for i, c in nonzero]
        found = Matrix(ring, k, len(cols), tuple(zip(*cols)))
        for (i, c), key in zip(nonzero, element_keys(std, found)):
            if any(v != zero for v in key):
                detected[c // k].add(i)
    expected = [
        {i for i, v in draw.items() if ring.rem(v, modulus) != zero} for draw in draws
    ]
    missed = next((t for t in range(trials) if detected[t] != expected[t]), trials)
    kept = Matrix(
        ring,
        maps.rows,
        maps.cols,
        tuple(
            tuple(v if r // k in detected[c // k] else zero for c, v in enumerate(row))
            for r, row in enumerate(blocks)
        ),
    )
    diff = maps.sub(hstack([inj.matrix for inj in injections]) @ kept)
    lost = trials
    if not vanishes(summed, diff):
        lost = next(
            t
            for t in range(trials)
            if not vanishes(summed, diff.columns(range(t * k, (t + 1) * k)))
        )
    if missed <= lost and missed < trials:
        return failed("support detection missed or invented indices")
    if lost < trials:
        return failed("map into the coproduct is not recovered from its finite support")
    return None
