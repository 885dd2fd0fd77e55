"""Assemble a full verification report with dependency gating.

The condition checks always run.  Lemma entries run in a fixed order and
each one is gated on its prerequisites: a failed prerequisite (or one
skipped because of a failure further up) turns the entry into a skip that
names the root cause.  Skips that only reflect a shallow tower (depth
limited) satisfy prerequisites, so the chain keeps running on towers too
small for some checks.  A ``TowerError`` raised inside a lemma becomes
that lemma's failed entry, with the error message as its witness.

:func:`verify_tower` runs all of this on a tower as given, so a tower
built by hand (say, with a doctored level or inclusion) goes through the
same checks and gating, once its levels are found cyclic;
:func:`run_full_report` builds the tower first.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .. import __version__
from ..exactalg.rings import Ring
from ..memo import memo_scope
from ..towers import AdicTower, TowerError, build_adic_tower
from .conditions import check_conditions
from .lemmas import (
    INDEX_SIZE,
    TRIALS,
    PipelineState,
    lemma_homzz,
    lemma_homjz_a,
    lemma_homjz_b,
    lemma_jislim,
    lemma_jjz,
    lemma_quotient,
    lemma_self_small,
    lemma_weak_epi,
    lemma_zml,
)
from .report import (
    LEMMA_KEYS,
    PASS,
    SKIPPED,
    Entry,
    VerificationReport,
    failed,
    skipped,
)

PREREQS: Dict[str, Tuple[str, ...]] = {
    "homzz": ("condition_1", "condition_2"),
    "jislim": ("homzz",),
    "zml": ("homzz", "condition_3"),
    "quotient": ("homzz",),
    "jjz": ("jislim", "zml", "condition_4"),
    "homjz_a": ("jjz", "quotient", "condition_5"),
    "homjz_b": ("homjz_a", "homzz"),
    "weak_epi": ("homjz_b", "jislim"),
    "self_small_witness": ("weak_epi",),
}

RUNNERS = {
    "homzz": lemma_homzz,
    "jislim": lemma_jislim,
    "zml": lemma_zml,
    "quotient": lemma_quotient,
    "jjz": lemma_jjz,
    "homjz_a": lemma_homjz_a,
    "homjz_b": lemma_homjz_b,
    "weak_epi": lemma_weak_epi,
    "self_small_witness": lemma_self_small,
}


def requested_lemmas(lemma: Optional[str]) -> set:
    """The requested lemma plus every lemma it transitively depends on."""
    if lemma is None:
        return set(LEMMA_KEYS)
    if lemma not in RUNNERS:
        raise ValueError(f"unknown lemma key: {lemma}")
    wanted = set()
    stack = [lemma]
    while stack:
        key = stack.pop()
        if key in wanted or key not in RUNNERS:
            continue
        wanted.add(key)
        stack.extend(PREREQS[key])
    return wanted


def _prerequisite_blocker(key: str, statuses: Dict[str, Entry]) -> Optional[str]:
    """Root cause blocking this entry, or None when all prerequisites hold.

    A prerequisite is satisfied when it passed or when it was skipped only
    because the tower is too shallow for it.
    """
    for prereq in PREREQS[key]:
        entry = statuses[prereq]
        if entry.status == PASS:
            continue
        if entry.status == SKIPPED and entry.depth_limited:
            continue
        if entry.status == SKIPPED and entry.skipped_due_to:
            return entry.skipped_due_to
        return prereq
    return None


def verify_tower(
    tower: AdicTower,
    *,
    seed: int = 0,
    oracle_bound: int = 4096,
    horizon: int = 8,
    lemma: Optional[str] = None,
) -> VerificationReport:
    """Run the conditions and the gated lemma chain on a built tower.

    Every derived object of the run (Smith and normal forms, hom
    modules, induced maps, transitions, composite inclusions,
    stabilized homs, truncated limits and multiplication maps) is
    memoised for its length, modules keyed by presentation, so the
    conditions and the lemmas share them.  ``horizon`` decides nothing in
    a run (every transition system is Mittag-Leffler by surjectivity); the
    report's settings echo it.

    Every check reads the levels as cyclic modules R/(a), so a tower with a
    level on more than one generator, or none, or on one generator with no
    relation, is refused up front with a ``TowerError`` naming the first
    such level.
    """
    for n, level in enumerate(tower.levels, 1):
        if level.generators != 1:
            raise TowerError(
                f"level {n} has {level.generators} generators; "
                "tower levels must be cyclic"
            )
        if not level.relations.cols:
            raise TowerError(
                f"level {n} has no relation; tower levels must be R/(a)"
            )
    with memo_scope():
        conditions = check_conditions(tower)
        state = PipelineState(tower, seed=seed, oracle_bound=oracle_bound)
        statuses: Dict[str, Entry] = dict(conditions)
        lemmas: Dict[str, Entry] = {}
        wanted = requested_lemmas(lemma)
        for key in LEMMA_KEYS:
            if key not in wanted:
                entry = skipped("not requested", reason="filtered")
            else:
                blocker = _prerequisite_blocker(key, statuses)
                if blocker is not None:
                    entry = skipped(f"prerequisite {blocker} failed", due_to=blocker)
                else:
                    try:
                        entry = RUNNERS[key](state)
                    except TowerError as err:
                        entry = failed(str(err))
            lemmas[key] = entry
            statuses[key] = entry
    ring = tower.ring
    tool = {"name": "adictower", "version": __version__}
    tower_desc = {
        "ring": ring.kind,
        "characteristic": ring.characteristic,
        "ideal": ring.format(tower.ideal.generator),
        "depth": tower.depth,
    }
    settings = {
        "seed": seed,
        "oracle_bound": oracle_bound,
        "horizon": horizon,
        "lemma": lemma,
        "index_size": INDEX_SIZE,
        "trials": TRIALS,
    }
    return VerificationReport(tool, tower_desc, settings, conditions, lemmas)


def run_full_report(
    ring: Ring,
    generator,
    depth: int,
    *,
    seed: int = 0,
    oracle_bound: int = 4096,
    horizon: int = 8,
    lemma: Optional[str] = None,
) -> VerificationReport:
    """Build the tower and verify it (:func:`verify_tower`) in one memo
    scope, so the tower's own checks share the run's memo."""
    with memo_scope():
        tower = build_adic_tower(ring, generator, depth)
        return verify_tower(
            tower, seed=seed, oracle_bound=oracle_bound, horizon=horizon, lemma=lemma
        )
