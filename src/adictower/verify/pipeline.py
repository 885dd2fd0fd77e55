"""Assemble a full verification report with dependency gating.

The condition checks always run.  Lemma entries run in a fixed order and
each one is gated on its prerequisites: a failed prerequisite (or one
skipped because of a failure further up) turns the entry into a skip that
names the root cause.  Skips that only reflect a shallow tower (depth
limited) satisfy prerequisites, so the chain keeps running on towers too
small for some checks.  A ``TowerError`` raised inside a lemma becomes
that lemma's failed entry, with the error message as its witness.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .. import __version__
from ..exactalg.rings import Ring
from ..memo import memo_scope
from ..towers import TowerError, build_adic_tower
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
    """Build the tower, run the conditions and the gated lemma chain.

    Every derived object of the run (Smith and normal forms, transitions,
    stabilized homs, truncated limits and shifts) is memoised for its
    length, so the conditions and the lemmas share them.
    """
    with memo_scope():
        tower = build_adic_tower(ring, generator, depth)
        conditions = check_conditions(tower)
        state = PipelineState(
            tower, seed=seed, oracle_bound=oracle_bound, horizon=horizon
        )
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
    tool = {"name": "adictower", "version": __version__}
    tower_desc = {
        "ring": ring.kind,
        "characteristic": ring.characteristic,
        "ideal": ring.format(tower.ideal.generator),
        "depth": depth,
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
