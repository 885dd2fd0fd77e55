"""Every hand-built Z tower of a fixed enumeration through the verifier,
with the checks that four lemmas leave to conditions 2 and 4 and to the
limit's construction, the transitions as they were once conjugated, the
tensor checks that condition 5 leaves to its per-level test, the
restrictions that condition 3 leaves to condition 3' and the image
stabilization checks that ``zml`` and ``jjz`` leave to surjectivity, run
beside it.

The towers are Z/a_1 -> ... -> Z/a_d for d = 2 or 3, each a_n in
{2, 3, 4, 6, 8, 9, 12, 16, 27}, each inclusion multiplication by 0..8,
with the ideal (2) or (3): 119,556 towers.  Each must get a report from
``verify_tower`` without an exception.  Wherever ``jislim``, ``jjz``,
``homjz_a`` or ``homjz_b`` ran, ``oracles.implied_lemma_checks_that_fire``
must find nothing.  For ``jislim`` that includes comparing each truncated
limit with the same levels and transitions folded one level at a time
(``oracles.folds_reach_the_top``), so a finite limit being its top level
is checked on every tower ``jislim`` reached.  It also includes the
comparison that ``weak_epi`` leaves to that construction: the
endomorphisms of the top carrier against the limit of the level homs,
through the whole inclusion of that limit
(``oracles._level_hom_checks``), on every tower ``jislim`` reached, not
only on those ``weak_epi`` reached.  On every tower that reached
``jislim``, each transition must be the one conjugated through hom modules
(``oracles.transitions_unlike_their_conjugation``: both raise the same
error, or the conjugated map is the reduction that ``build_transition``
returns).  On every tower whose condition 5 passed, the multiplication
map from each level tensor the bottom level must be well defined and an
isomorphism (``oracles.condition_5_collapse_checks``).  On every tower
whose condition 3' passed, each restriction at a stabilized index must be
onto (``oracles.condition_3_direct_route_checks``).  On every tower where
``zml`` ran, and so on every tower where ``jjz`` ran, each of the four
inverse systems those entries record must meet the surjectivity
short-circuit of ``mittag_leffler_check``
(``oracles.image_stabilization_checks``).  On every tower that
``homjz_a`` reached, the top limit's elements, kept as top residues,
must agree with the string route through the whole inclusion of the
levels: their level components, carrier columns and multiplication maps,
and which strings off the carrier the route refuses
(``oracles.limit_maps_unlike_the_oracle``).  The
script prints how many towers reached each of the four, ``weak_epi``, the
transition comparison, the collapse checks and the three checks above,
and every failure, and exits 1 if there was one.

This is not a pytest module (it takes about a minute).  Run it from the
repository root with the package importable, for example::

    PYTHONPATH=src python3 tests/sweep_hand_built.py
"""

import itertools
import sys
import time
import traceback

from oracles import (
    IMPLIED_LEMMAS,
    condition_3_direct_route_checks,
    condition_5_collapse_checks,
    hand_built_tower,
    image_stabilization_checks,
    implied_lemma_checks_that_fire,
    limit_maps_unlike_the_oracle,
    transitions_unlike_their_conjugation,
)

from adictower.verify.pipeline import verify_tower

MODULI = (2, 3, 4, 6, 8, 9, 12, 16, 27)
MULTIPLIERS = range(9)
GENERATORS = (2, 3)
DEPTHS = (2, 3)


def specs():
    for depth in DEPTHS:
        for moduli in itertools.product(MODULI, repeat=depth):
            for multipliers in itertools.product(MULTIPLIERS, repeat=depth - 1):
                for generator in GENERATORS:
                    yield moduli, multipliers, generator


def main() -> int:
    started = time.perf_counter()
    reached = dict.fromkeys(IMPLIED_LEMMAS, 0)
    towers = 0
    weak_epi = 0
    collapses = 0
    direct_routes = 0
    image_chains = 0
    limit_maps = 0
    failures = []
    for spec in specs():
        towers += 1
        tower = hand_built_tower(*spec)
        try:
            report = verify_tower(tower)
        except Exception:  # every tower must end in a report
            failures.append(f"{spec}: verify_tower raised\n{traceback.format_exc()}")
            continue
        ran = [key for key in IMPLIED_LEMMAS if report.entry(key).status != "skipped"]
        for key in ran:
            reached[key] += 1
        weak_epi += report.entry("weak_epi").status != "skipped"
        fired = implied_lemma_checks_that_fire(tower, ran) if ran else []
        if "jislim" in ran:
            fired += transitions_unlike_their_conjugation(tower)
        if report.entry("condition_5").status == "pass":
            collapses += 1
            fired += condition_5_collapse_checks(tower)
        if report.entry("condition_3_prime").status == "pass":
            direct_routes += 1
            fired += condition_3_direct_route_checks(tower)
        if report.entry("zml").status != "skipped":
            image_chains += 1
            fired += image_stabilization_checks(tower)
        if "homjz_a" in ran:
            limit_maps += 1
            fired += limit_maps_unlike_the_oracle(tower)
        if fired:
            failures.append(f"{spec}: {fired}")
    elapsed = time.perf_counter() - started
    print(f"{towers} hand-built towers in {elapsed:.1f} s")
    for key, count in reached.items():
        print(f"  {key} ran on {count}")
    print(f"  weak_epi ran on {weak_epi}; its level-hom comparison ran on {reached['jislim']}")
    print(f"  transitions compared with their conjugation on {reached['jislim']}")
    print(f"  condition 5 passed on {collapses}; its collapse checks ran on all of them")
    print(
        f"  condition 3' passed on {direct_routes}; the restrictions at the "
        "stabilized indices were taken on all of them"
    )
    print(f"  image stabilization checks ran on {image_chains}, every tower zml reached")
    print(
        f"  top residues compared with the string route on {limit_maps}, "
        "every tower homjz_a reached"
    )
    for line in failures:
        print(f"FAIL {line}")
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
