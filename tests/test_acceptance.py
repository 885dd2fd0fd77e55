"""Acceptance suite: one test per contract criterion.

Each test prints a single verdict line, so running this file verbosely
gives a pass/fail line per criterion.
"""

import json
import math
import subprocess
import sys
import time

from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.fpmod.modules import cyclic_module, module_order
from adictower.fpmod.functors import hom_module, induced_hom, tensor_module
from adictower.fpmod.morphisms import is_isomorphism
from adictower.towers import (
    build_adic_tower,
    build_transition,
    hom_into_colimit,
)
from adictower.verify.pipeline import run_full_report
from oracles import equal_morphisms, reduction_morphism

Z = integer_ring()


def verdict(name, ok):
    print(f"acceptance {name}: {'pass' if ok else 'fail'}")
    assert ok, name


def test_criterion_full_reports_pass_within_budget():
    start = time.monotonic()
    all_pass = True
    for p in (2, 3, 5):
        for depth in range(1, 7):
            rep = run_full_report(Z, p, depth)
            all_pass = all_pass and rep.overall == "pass"
    elapsed = time.monotonic() - start
    verdict(
        f"full reports for p in (2,3,5), depth 1..6 all pass in {elapsed:.1f}s",
        all_pass and elapsed < 60.0,
    )


def test_criterion_hom_tensor_agree_with_brute_force():
    ok = True
    for d in range(2, 13):
        for e in range(2, 13):
            hom = hom_module(cyclic_module(Z, d), cyclic_module(Z, e))
            tens = tensor_module(cyclic_module(Z, d), cyclic_module(Z, e))
            scalars = sum(1 for c in range(e) if (c * d) % e == 0)
            ok = ok and module_order(hom.module) == scalars == math.gcd(d, e)
            ok = ok and module_order(tens) == math.gcd(d, e)
    verdict("hom and tensor orders match brute-force counts for d,e <= 12", ok)


def test_criterion_hom_colimit_stabilizes():
    tower = build_adic_tower(Z, 2, 6)
    ok = True
    for m in range(1, 7):
        index = hom_into_colimit(tower, m)
        ok = ok and index <= m + 1
        ok = ok and all(
            is_isomorphism(induced_hom(tower.inclusion(n), tower.level(m), "post"))
            for n in range(index, 6)
        )
    verdict("hom into the rising levels stabilizes with small recorded index", ok)


def test_criterion_transitions_match_reductions():
    ok = True
    for p in (2, 3):
        tower = build_adic_tower(Z, p, 6)
        for n in range(1, 6):
            delta = build_transition(tower, n)
            ok = ok and equal_morphisms(delta, reduction_morphism(tower, n))
    verdict("reconstructed transitions equal the residue reductions", ok)


def test_criterion_quotient_splits_all_pairs():
    rep = run_full_report(Z, 2, 6, lemma="quotient")
    entry = rep.entry("quotient")
    pairs = {tuple(p) for p in entry.details.get("pairs", [])}
    expected = {(m, s - m) for s in range(2, 7) for m in range(1, s)}
    verdict(
        "level splits are short exact for every pair with total depth <= 6",
        entry.status == "pass" and pairs == expected,
    )


def test_criterion_weak_epimorphism_bijection():
    ok = True
    for depth in range(1, 7):
        rep = run_full_report(Z, 2, depth, lemma="weak_epi")
        entry = rep.entry("weak_epi")
        ok = ok and entry.status == "pass"
        if depth <= 5:
            ok = ok and entry.details.get("mode") == "exhaustive"
    verdict("multiplication bijects the carrier with its endomorphisms", ok)


def test_criterion_polynomial_pipelines_pass():
    F2X = polynomial_ring(2)
    F3X = polynomial_ring(3)
    rep_a = run_full_report(F2X, F2X.parse("x"), 4)
    rep_b = run_full_report(F3X, F3X.parse("x+1"), 3)
    verdict(
        "polynomial towers over F2 and F3 verify end to end",
        rep_a.overall == "pass" and rep_b.overall == "pass",
    )


def test_criterion_negative_controls():
    rep = run_full_report(Z, 6, 3)
    fails = [
        k
        for k in list(rep.conditions) + list(rep.lemmas)
        if rep.entry(k).status == "fail"
    ]
    skips = [k for k in rep.lemmas if rep.entry(k).status == "skipped"]
    structure_ok = (
        rep.overall == "fail"
        and fails == ["condition_4"]
        and skips
        == ["jjz", "homjz_a", "homjz_b", "weak_epi", "self_small_witness"]
    )
    base = [sys.executable, "-m", "adictower.cli"]
    failing = subprocess.run(
        base + ["--ideal", "6", "--depth", "3"], capture_output=True
    )
    control = subprocess.run(base + ["--ml-control"], capture_output=True)
    verdict(
        "negative controls fail in the advertised spots with exit code 1",
        structure_ok and failing.returncode == 1 and control.returncode == 1,
    )


def test_criterion_byte_identical_reports():
    cmd = [
        sys.executable,
        "-m",
        "adictower.cli",
        "--ideal",
        "3",
        "--depth",
        "4",
        "--format",
        "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    same = first.stdout == second.stdout
    parsed = json.loads(first.stdout)
    verdict(
        "repeated runs emit byte-identical reports",
        same and parsed["overall"] == "pass",
    )
