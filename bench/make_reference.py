"""Record the reference verdicts the benchmark checks every report against.

Usage, from the root of a checkout: ``python3 bench/make_reference.py``.
For every workload tower and every verifier seed it runs one untraced sweep
and stores the exit code, each entry's status and sampling mode, and the
sha256 of the JSON report in ``bench/reference.json``.  It refuses to write
a reference in which a tower other than a negative control fails, or a
control fails anything but its expected entry.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from run import REFERENCE, run_child
from workloads import NEGATIVE_CONTROLS, REFERENCE_SEEDS, WORKLOADS


def check(name: str, record: dict) -> None:
    failing = sorted(k for k, v in record["entries"].items() if v.startswith("fail"))
    control = NEGATIVE_CONTROLS.get(name)
    want_exit, want_failing = (1, [control]) if control else (0, [])
    if record["error"] or record["exit"] != want_exit or failing != want_failing:
        raise SystemExit(
            f"{name}: exit {record['exit']}, error {record['error']}, failing {failing}"
        )


def commit(root: Path) -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    root = Path.cwd()
    out = {"commit": commit(root), "seeds": REFERENCE_SEEDS, "workloads": {}}
    for workload, towers in WORKLOADS.items():
        per_seed = {}
        for vseed in range(REFERENCE_SEEDS):
            sweep = run_child(root, towers, vseed, False, time.perf_counter() + 600)
            if sweep.error:
                raise SystemExit(f"{workload} seed {vseed}: {sweep.error}")
            per_seed[str(vseed)] = {}
            for tower in towers:
                record = sweep.towers[tower.name]
                check(tower.name, record)
                per_seed[str(vseed)][tower.name] = {
                    k: record[k] for k in ("exit", "entries", "sha256")
                }
            print(f"{workload} seed {vseed}: {sweep.seconds:.2f} s", file=sys.stderr)
        out["workloads"][workload] = per_seed
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
