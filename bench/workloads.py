"""Workloads of the tower-matrix benchmark.

Each workload is a fixed list of towers, verified one after another through
the command line entry point.  The benchmark seed only chooses the
verifier's ``--seed``; it is folded onto the seeds the shipped reference
covers, so every run can be checked against recorded verdicts and digests.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

REFERENCE_SEEDS = 16


class Tower(NamedTuple):
    name: str
    args: List[str]


def _poly(char: int, ideal: str, depth: int) -> List[str]:
    return ["--ring", "poly", "--char", str(char), "--ideal", ideal, "--depth", str(depth)]


def _z(ideal: int, depth: int) -> List[str]:
    return ["--ideal", str(ideal), "--depth", str(depth)]


# z2-deep: large carriers and Smith inputs, sampled oracles, a residue pool of
# 2^24 entries.  Smith-kernel, memo-layer and bounded-sampling work shows here.
# poly-tower: small matrices over F_p[x]; per-operation cost of polynomial
# Euclidean division dominates, so integer-only shortcuts show no gain.
# z-shallow: many tiny Smith calls and the exhaustive oracles, plus the
# composite control (g=6), which must exit 1 with only condition_4 failing.
WORKLOADS: Dict[str, List[Tower]] = {
    "z2-deep": [
        Tower("z-g2-d20", _z(2, 20)),
        Tower("z-g2-d24", _z(2, 24)),
    ],
    "poly-tower": [
        Tower("f3-x+1-d8", _poly(3, "x+1", 8)),
        Tower("f3-x+1-d10", _poly(3, "x+1", 10)),
        Tower("f2-x^2+x+1-d6", _poly(2, "x^2+x+1", 6)),
    ],
    "z-shallow": [
        Tower("z-g2-d6", _z(2, 6)),
        Tower("z-g5-d6", _z(5, 6)),
        Tower("z-g2-d12", _z(2, 12)),
        Tower("z-g6-d4", _z(6, 4)),
    ],
}

# Towers expected to fail verification, with the only entry that may fail.
NEGATIVE_CONTROLS = {"z-g6-d4": "condition_4"}


def verifier_seed(seed: int) -> int:
    """The verifier ``--seed`` a benchmark seed selects."""
    return seed % REFERENCE_SEEDS


def tower_argv(tower: Tower, vseed: int) -> List[str]:
    return list(tower.args) + ["--format", "json", "--seed", str(vseed)]
