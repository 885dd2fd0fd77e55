"""Self-test of the benchmark harness.

Run from the checkout root: ``python3 -m pytest -q bench``.  It uses small
towers, so it takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from child import capture_failures, run_tower
from make_reference import check
from run import BENCH, REFERENCE, run_child, score
from tracer import ENTRY_KEYS
from workloads import WORKLOADS, Tower

ROOT = BENCH.parent
SMALL = [
    Tower("z-g2-d3", ["--depth", "3"]),
    Tower("z-g6-d3", ["--ideal", "6", "--depth", "3"]),
    Tower("f3-x+1-d3", ["--ring", "poly", "--char", "3", "--ideal", "x+1", "--depth", "3"]),
]


def sweep(trace, towers=SMALL, seed=5):
    result = run_child(ROOT, towers, seed, trace, time.perf_counter() + 120)
    assert result.error is None and result.done is not None
    return result


def counts(layers: dict) -> dict:
    """Everything the tracer reports except times."""
    return {k: v for k, v in layers.items() if not k.endswith(("_s", ".s"))}


def test_traced_reports_match_untraced_with_one_span_per_entry():
    plain, traced = sweep(False), sweep(True)
    for tower in SMALL:
        a, b = plain.towers[tower.name], traced.towers[tower.name]
        assert (a["exit"], a["entries"], a["sha256"]) == (b["exit"], b["entries"], b["sha256"])
        assert b["entry_spans"] == {key: 1 for key in ENTRY_KEYS}
        assert a["probe_mean_s"] > 0 and 0 <= a["probe_s"] < a["seconds"]
    assert plain.towers["z-g6-d3"]["exit"] == 1


def test_call_counts_repeat_exactly():
    first, second = (counts(sweep(True).done["layers"]) for _ in range(2))
    assert first["exactalg.smith_form.calls"] > 0
    assert first["exactalg.try_div.calls"] > 0
    assert first == second


PROFILE = """
import cProfile, io, pstats, sys
sys.path.insert(0, sys.argv[1])
from adictower import cli
from adictower.exactalg import matrices
sys.stdout = io.StringIO()
cli.main(["--depth", "1"])
prof = cProfile.Profile()
prof.runcall(cli.main, sys.argv[2:])
calls = sum(
    stat[1]
    for (path, _, name), stat in pstats.Stats(prof).stats.items()
    if name == "smith_form" and path == matrices.__file__
)
sys.__stdout__.write(str(calls))
"""


def test_smith_count_matches_cprofile():
    tower = Tower("z-g2-d5", ["--depth", "5"])
    traced = sweep(True, [tower]).done["layers"]
    argv = tower.args + ["--format", "json", "--seed", "5"]
    proc = subprocess.run(
        [sys.executable, "-c", PROFILE, str(ROOT / "src")] + argv,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert int(proc.stdout) == traced["exactalg.smith_form.calls"]


def test_failures_are_recorded_and_the_sweep_goes_on(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from adictower import cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    original = cli.run_full_report
    monkeypatch.setattr(cli, "run_full_report", out_of_memory)
    failures = capture_failures(cli)
    crashed = run_tower(cli, ["--depth", "2", "--format", "json"], 30, failures)
    assert (crashed["exit"], crashed["error"]) == (3, "MemoryError")

    monkeypatch.setattr(cli, "run_full_report", original)
    failures = capture_failures(cli)
    slow = run_tower(cli, ["--depth", "12", "--format", "json"], 0.05, failures)
    assert (slow["exit"], slow["error"]) == (None, "Timeout")
    fine = run_tower(cli, ["--depth", "2", "--format", "json"], 30, failures)
    assert (fine["exit"], fine["error"]) == (0, None)
    expected = {k: fine[k] for k in ("exit", "entries", "sha256")}
    assert [score(r, expected) for r in (crashed, slow, fine)] == ["error", "error", None]


def test_failure_labels():
    expected = {"exit": 0, "entries": {"a": "pass", "b": "pass mode=sampled"}, "sha256": "x"}
    ok = dict(expected, error=None)
    assert score(ok, expected) is None
    assert score(dict(ok, sha256="y"), expected) == "digest"
    assert score(dict(ok, entries={"a": "pass", "b": "pass mode=exhaustive"}), expected) == "mode"
    assert score(dict(ok, entries={"a": "fail", "b": "pass mode=sampled"}), expected) == "verdict"
    assert score(dict(ok, exit=1), expected) == "exit"
    assert score(dict(ok, error="Timeout"), expected) == "error"
    assert score(None, expected) == "error"


def test_reference_covers_every_tower_and_seed():
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    for workload, towers in WORKLOADS.items():
        per_seed = reference["workloads"][workload]
        assert len(per_seed) == reference["seeds"]
        for records in per_seed.values():
            for tower in towers:
                check(tower.name, dict(records[tower.name], error=None))


def test_refuses_to_run_without_the_program():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "z-shallow", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
