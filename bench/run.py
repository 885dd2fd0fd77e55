"""Tower-matrix benchmark of the adictower verifier.

Usage, from the root of a checkout:

    python3 bench/run.py --workload z2-deep --seed 3 --seconds 20 --trace 0

A single closed-loop client: each sweep verifies the workload's towers one
at a time in a fresh Python process (``bench/child.py``), and the next sweep
starts when the last one has ended, until ``--seconds`` have passed.  Every
report is checked against ``bench/reference.json``.  With ``--trace 0`` the
last line is a JSON object with the end-to-end metrics; with ``--trace 1``
untraced and traced sweeps alternate and it carries the per-layer metrics.
See ``bench/README.md`` for the metrics and what each one should move.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from workloads import WORKLOADS, Tower, tower_argv, verifier_seed

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
SPEC = BENCH.parent / "BENCHMARK.json"
TOWER_TIMEOUT_S = 60.0
RUN_LIMIT_S = 165.0
SETUP_SAMPLES = 8
PROBE_REF_S = 0.0004
FAILURE_LABELS = ("error", "exit", "verdict", "mode", "digest")


@dataclass
class Sweep:
    """What one child process reported."""

    setup_s: float  # at the reference core speed
    setup_wall_s: float
    towers: Dict[str, dict]
    done: Optional[dict]
    error: Optional[str]

    @property
    def seconds(self) -> float:
        """Wall seconds of the towers, without the speed probe's own time."""
        return sum(t["seconds"] - t.get("probe_s", 0.0) for t in self.towers.values())


def adjusted_seconds(record: dict) -> float:
    """A tower's wall time without the probe, scaled to the reference core
    speed at which the probe kernel takes ``PROBE_REF_S``."""
    return (record["seconds"] - record["probe_s"]) * PROBE_REF_S / record["probe_mean_s"]


def per_tower_medians(sweeps: List[Sweep], towers: List[Tower], measure) -> List[float]:
    return [
        median([measure(s.towers[t.name]) for s in sweeps if t.name in s.towers])
        for t in towers
    ]


def run_child(root: Path, towers: List[Tower], vseed: int, trace: bool, deadline: float, spans: Optional[Path] = None) -> Sweep:
    """Run one fresh process over ``towers`` and collect its records."""
    cfg = {
        "src": str(root / "src"),
        "towers": [[t.name, tower_argv(t, vseed)] for t in towers],
        "timeout": TOWER_TIMEOUT_S,
        "trace": trace,
        "spans": str(spans) if spans else None,
    }
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(cfg)],
        cwd=root,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    error = None
    try:
        out, err = proc.communicate(timeout=max(deadline - started, 1.0))
    except BaseException as exc:
        proc.kill()
        out, err = proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        error = "Deadline"
    if error is None and proc.returncode != 0:
        error = f"ChildExit{proc.returncode}"
    setup_s = setup_wall_s = float("nan")
    records, done = {}, None
    for line in out.splitlines():
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if event.get("kind") == "ready":
            setup_wall_s = event["t"] - started
            setup_s = setup_wall_s * PROBE_REF_S / event["probe_mean_s"]
        elif event.get("kind") == "tower":
            records[event["tower"]] = event
        elif event.get("kind") == "done":
            done = event
    if error is not None and err.strip():
        print(f"child stderr: {err.strip().splitlines()[-1]}", file=sys.stderr)
    return Sweep(setup_s, setup_wall_s, records, done, error)


def score(record: Optional[dict], expected: dict) -> Optional[str]:
    """Failure label of one tower against its reference, or None."""
    if record is None or record["error"] is not None:
        return "error"
    if record["exit"] != expected["exit"]:
        return "exit"
    got, want = record["entries"], expected["entries"]
    if got.keys() != want.keys():
        return "verdict"
    if any(got[k].split(" ")[0] != want[k].split(" ")[0] for k in want):
        return "verdict"
    if got != want:
        return "mode"
    if record["sha256"] != expected["sha256"]:
        return "digest"
    return None


def count_modes(sweep: Sweep) -> Dict[str, int]:
    """Entries with any sampled mode, and entries whose modes are all
    exhaustive, over the towers of a sweep."""
    counts = {"sampled": 0, "exhaustive": 0}
    for record in sweep.towers.values():
        for summary in record["entries"].values():
            modes = [part.split("=", 1)[1] for part in summary.split(" ")[1:]]
            if "sampled" in modes:
                counts["sampled"] += 1
            elif modes:
                counts["exhaustive"] += 1
    return counts


def median(values):
    values = [v for v in values if v == v]
    return statistics.median(values) if values else float("nan")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="tower-matrix benchmark of adictower")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "adictower" / "cli.py").is_file():
        print("error: run from a checkout root holding src/adictower", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    towers = WORKLOADS[args.workload]
    vseed = verifier_seed(args.seed)
    expected = reference["workloads"][args.workload][str(vseed)]
    # Stop a child on SIGTERM too, through run_child's cleanup.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    plain: List[Sweep] = []
    traced: List[Sweep] = []
    setups: List[Sweep] = []
    spans_path = None
    if args.trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}.spans.jsonl"
    elapsed = round_s = 0.0
    while not plain or (elapsed < args.seconds and elapsed + 1.5 * round_s < RUN_LIMIT_S):
        if not args.trace:
            setups.append(run_child(root, [], vseed, False, deadline))
        plain.append(run_child(root, towers, vseed, False, deadline))
        if args.trace:
            traced.append(run_child(root, towers, vseed, True, deadline, spans_path))
        round_s = time.perf_counter() - start - elapsed
        elapsed += round_s
    setups += plain
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_child(root, [], vseed, False, deadline))

    attempted = 0
    failures = {label: 0 for label in FAILURE_LABELS}
    for sweep in plain + traced:
        for tower in towers:
            attempted += 1
            label = score(sweep.towers.get(tower.name), expected[tower.name])
            if label is not None:
                failures[label] += 1
                record = sweep.towers.get(tower.name) or {}
                detail = record.get("error") or sweep.error or ""
                print(f"FAIL {tower.name}: {label} {detail}".rstrip())
    failed = sum(failures.values())

    if args.trace:
        names = spec["per_layer"]
        values = layer_metrics(plain, traced, towers, [m["name"] for m in names])
    else:
        per_tower = per_tower_medians(plain, towers, adjusted_seconds)
        wall = per_tower_medians(plain, towers, lambda r: r["seconds"] - r["probe_s"])
        setup_wall = median([s.setup_wall_s for s in setups])
        print(
            f"unadjusted wall: sweep {sum(wall):.6g} s, slowest tower {max(wall):.6g} s, "
            f"setup {setup_wall:.6g} s"
        )
        values = {
            "sweep_s": sum(per_tower),
            "max_tower_s": max(per_tower),
            "setup_s": median([s.setup_s for s in setups]),
            "peak_rss_mb": median([s.done["rss_mb"] for s in plain if s.done]),
            "ok_ratio": (attempted - failed) / attempted,
        }
        names = spec["end_to_end"]
    metrics = {}
    for m in names:
        value = values.get(m["name"], float("nan"))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value:.6g} {m['unit']}")
    sweeps = len(plain) + len(traced)
    print(
        f"workload {args.workload} seed {args.seed} (verifier seed {vseed}): "
        f"{sweeps} sweeps, {attempted} towers, fail_ratio {failed / attempted:.4g} "
        + " ".join(f"{k}={v}" for k, v in failures.items())
    )
    for m in metrics.values():
        if m["value"] != m["value"]:
            m["value"] = None
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(plain: List[Sweep], traced: List[Sweep], towers: List[Tower], names: List[str]) -> dict:
    """Medians over traced sweeps of the per-layer totals (a function never
    called counts 0), plus run-level figures that compare them with the
    untraced sweeps."""
    layers = [s.done["layers"] for s in traced if s.done and "layers" in s.done]
    out = {name: median([l.get(name, 0.0) for l in layers]) for name in names}
    modes = [count_modes(s) for s in traced]
    out["verify.sampled_entries"] = median([m["sampled"] for m in modes])
    out["verify.exhaustive_entries"] = median([m["exhaustive"] for m in modes])
    wall = per_tower_medians(plain, towers, lambda r: r["seconds"] - r["probe_s"])
    out["run.sweep_wall_s"] = sum(wall)
    out["run.cpu_s"] = median([s.done["cpu_s"] for s in plain if s.done])
    out["run.trace_overhead_s"] = median([s.seconds for s in traced]) - median(
        [s.seconds for s in plain]
    )
    return out


if __name__ == "__main__":
    raise SystemExit(main())
