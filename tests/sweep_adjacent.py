"""Differential sweep: every report with the adjacent level pairs deciding
conditions 2, 3', 3 and ``quotient`` against the report with every pair
checked.

For each tower, ``verify_tower`` runs as is and inside
``oracles.every_pair_checked`` (``adjacent_pairs_pass`` forced false, and
``quotient`` checking every split).  The two reports must be identical
text.  The towers:

- every hand-built Z tower Z/a_1 -> ... -> Z/a_d for d = 2 or 3, each a_n
  in {1, 2, 3, 4, 6, 8, 9, 12, 16, 27} (1 makes a zero level), each
  inclusion multiplication by 0..8, with the ideal (2) or (3): 163,800
  towers;
- 8,000 seeded random towers at depths 4 to 6 with g in {2, 3, 5}: half
  g-adic (moduli g^n, inclusions g times a small multiplier, mostly a
  unit modulo g, with now and then one modulus changed), half with moduli
  and multipliers drawn as in the grid.

The script prints how many towers the adjacent pairs decided, the counts
of overall verdicts, every mismatch or exception and the sha256 of all the
reports, and exits 1 if there was a mismatch or an exception.

This is not a pytest module (it takes a few minutes).  Run it from the
repository root with the package importable, for example::

    PYTHONPATH=src python3 tests/sweep_adjacent.py
"""

import hashlib
import itertools
import json
import random
import sys
import time
import traceback
from collections import Counter

from oracles import adjacent_and_every_pair_reports, hand_built_tower

from adictower.memo import memo_scope
from adictower.towers import adjacent_pairs_pass

MODULI = (1, 2, 3, 4, 6, 8, 9, 12, 16, 27)
MULTIPLIERS = range(9)
GENERATORS = (2, 3)
DEPTHS = (2, 3)
RANDOM_TOWERS = 8000
RANDOM_GENERATORS = (2, 3, 5)
SEED = 0


def grid_specs():
    for depth in DEPTHS:
        for moduli in itertools.product(MODULI, repeat=depth):
            for multipliers in itertools.product(MULTIPLIERS, repeat=depth - 1):
                for generator in GENERATORS:
                    yield moduli, multipliers, generator


def _adic_spec(rng, depth, g):
    moduli = [g**n for n in range(1, depth + 1)]
    if rng.random() < 0.2:
        moduli[rng.randrange(depth)] *= rng.choice((g, 2, 3, 5))
    multipliers = []
    for _ in range(depth - 1):
        if rng.random() < 0.8:
            unit = rng.randrange(1, g) + g * rng.randrange(3)
        else:
            unit = rng.randrange(3 * g)
        multipliers.append(g * unit)
    return tuple(moduli), tuple(multipliers), g


def random_specs():
    rng = random.Random(SEED)
    for k in range(RANDOM_TOWERS):
        depth = rng.randrange(4, 7)
        g = rng.choice(RANDOM_GENERATORS)
        if k % 2 == 0:
            yield _adic_spec(rng, depth, g)
        else:
            moduli = tuple(rng.choice(MODULI) for _ in range(depth))
            multipliers = tuple(rng.choice(MULTIPLIERS) for _ in range(depth - 1))
            yield moduli, multipliers, g


def main() -> int:
    started = time.perf_counter()
    digest = hashlib.sha256()
    verdicts = Counter()
    towers = decided = 0
    failures = []
    for spec in itertools.chain(grid_specs(), random_specs()):
        towers += 1
        tower = hand_built_tower(*spec)
        try:
            fast, slow = adjacent_and_every_pair_reports(tower)
            with memo_scope():
                decided += adjacent_pairs_pass(tower)
        except Exception:  # every tower must end in a report
            failures.append(f"{spec}: raised\n{traceback.format_exc()}")
            continue
        if fast != slow:
            failures.append(f"{spec}: reports differ\n  adjacent: {fast}\n  every pair: {slow}")
        verdicts[json.loads(fast)["overall"]] += 1
        digest.update(fast.encode())
        digest.update(b"\n")
    elapsed = time.perf_counter() - started
    print(f"{towers} towers in {elapsed:.1f} s")
    print(f"  adjacent pairs decided {decided}")
    print(f"  overall pass {verdicts['pass']}, fail {verdicts['fail']}")
    for line in failures:
        print(f"FAIL {line}")
    print(f"{len(failures)} mismatches or exceptions")
    print(f"sha256 of all reports {digest.hexdigest()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
