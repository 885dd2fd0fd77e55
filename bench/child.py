"""One benchmark process: set up like a user's CLI call, then verify each
tower of a sweep once through ``adictower.cli.main``.

Usage: ``python3 bench/child.py '<json config>'`` from the checkout root.
The config names the source directory, the towers (name and argv), the
per-tower timeout, whether to trace, and where to write spans.  The process
writes one JSON line per event to stdout: ``ready`` once set-up is done
(with the probe kernel's speed measured right after it), one
``tower`` record per tower, and ``done`` with its peak memory, CPU time and,
when traced, the per-layer totals.  A tower that exits 3, raises or times
out is recorded with its exception type and the sweep goes on.

Untraced towers run under a speed probe: every 10 ms of CPU time a fixed
kernel runs and its duration is recorded, so the tower's time can be scaled
to a reference core speed (see ``bench/README.md``).
"""

import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time

OUT = sys.stdout
MODE_KEYS = ("mode", "sample_mode", "endo_mode", "element_mode")
PROBE_EVERY_S = 0.01
SETUP_PROBES = 25


def probe_kernel() -> int:
    """Fixed work of about 0.4 ms: integer arithmetic, small tuples and
    lists, a dict, all freed before it returns."""
    acc = 0
    for i in range(2000):
        acc += (i * 7919) % 104729
    for k in range(3):
        rows = [tuple([(i * j + k) % 1013 for j in range(10)]) for i in range(12)]
        seen = {}
        for row in rows:
            q, m = divmod(sum([x * x for x in row]), 97)
            seen[row[:3]] = q
            acc += q + m + len(seen)
    return acc


def timed_kernel() -> float:
    """Wall seconds of one probe kernel.

    With the collector off, the kernel's cost does not depend on the
    program's heap; its containers are freed before the collector is back
    on, so the program's collection schedule is unchanged.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Runs the probe kernel on SIGPROF while a tower runs and keeps each
    kernel's wall duration."""

    def __init__(self):
        self.samples: list = []
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame) -> None:
        self.samples.append(timed_kernel())

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_PROF, 0)
        if not self.samples:  # a tower shorter than one interval
            return {"probe_s": 0.0, "probe_mean_s": timed_kernel()}
        return {
            "probe_s": sum(self.samples),
            "probe_mean_s": sum(self.samples) / len(self.samples),
        }


class TowerTimeout(BaseException):
    """Raised by the alarm; a BaseException so the CLI's handler lets it by."""


def emit(record: dict) -> None:
    OUT.write(json.dumps(record) + "\n")
    OUT.flush()


def call_quietly(fn, *args):
    """Call with stdout and stderr captured; return (result, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        return fn(*args), out.getvalue(), err.getvalue()
    finally:
        sys.stdout, sys.stderr = saved


def capture_failures(cli) -> list:
    """Record the type of any exception escaping the verifier.

    The CLI turns such an exception into exit 3 and prints only its message,
    which is empty for a ``MemoryError``.
    """
    seen = []
    inner = cli.run_full_report

    def run_full_report(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        except BaseException as err:
            seen.append(type(err).__name__)
            raise

    cli.run_full_report = run_full_report
    return seen


def entry_summary(report_text: str) -> dict:
    """``status`` plus any sampling-mode details, per report entry."""
    tree = json.loads(report_text)
    out = {}
    for group in ("conditions", "lemmas"):
        for key, entry in tree[group].items():
            modes = [f"{k}={entry['details'][k]}" for k in MODE_KEYS if k in entry["details"]]
            out[key] = " ".join([entry["status"]] + modes)
    return out


def run_tower(cli, argv: list, timeout: float, failures: list, probe=None) -> dict:
    def on_alarm(signum, frame):
        raise TowerTimeout()

    signal.signal(signal.SIGALRM, on_alarm)
    del failures[:]
    code, text, error = None, "", None
    if probe is not None:
        probe.start()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            code, text, _ = call_quietly(cli.main, argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TowerTimeout:
        error = "Timeout"
    except Exception as err:  # the CLI must not raise; record and go on
        error = type(err).__name__
    seconds = time.perf_counter() - start
    speed = probe.stop() if probe is not None else {}
    if code == 3:
        error = failures[0] if failures else "InternalError"
    record = {
        "exit": code,
        "seconds": seconds,
        "error": error,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "entries": {},
        **speed,
    }
    if code in (0, 1):
        try:
            record["entries"] = entry_summary(text)
        except (ValueError, KeyError, TypeError) as err:
            record["error"] = f"BadReport:{type(err).__name__}"
    return record


def cpu_seconds() -> float:
    usage = [resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    from adictower import cli

    call_quietly(cli.main, ["--depth", "1"])
    ready = time.perf_counter()
    speed = sum(timed_kernel() for _ in range(SETUP_PROBES)) / SETUP_PROBES
    emit({"kind": "ready", "t": ready, "probe_mean_s": speed})
    if not cfg["towers"]:
        return 0
    tracer = probe = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        probe = SpeedProbe()
    failures = capture_failures(cli)
    cpu0 = cpu_seconds()
    probe_s = 0.0
    for index, (name, argv) in enumerate(cfg["towers"]):
        if tracer is not None:
            tracer.start_tower(index)
        record = run_tower(cli, argv, cfg["timeout"], failures, probe)
        probe_s += record.get("probe_s", 0.0)
        record.update(kind="tower", tower=name)
        if tracer is not None:
            record["entry_spans"] = tracer.entry_spans(index)
        emit(record)
    done = {
        "kind": "done",
        "cpu_s": cpu_seconds() - cpu0 - probe_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        done["layers"] = tracer.metrics()
        if cfg.get("spans"):
            tracer.write_spans(cfg["spans"])
    emit(done)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
