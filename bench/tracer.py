"""Spans and counters around the public functions of each layer.

Installed from outside the program: every module of the package that binds
a traced function under some name gets the wrapper in its place, because
``from x import f`` copies the binding (``smith_form`` is bound in five
modules, counting the ``exactalg`` package's re-export).  Methods are wrapped on their defining class.

A span is ``[name, start, end, parent, tower, outermost]``.  Inclusive
seconds count only spans with no enclosing span of the same name; self
seconds subtract the time covered by direct child spans.  Hook work (input
hashing, entry sizes) runs outside the span it describes, so it lands in
the caller's self time; ``run.trace_overhead_s`` reports the total cost.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from itertools import chain

ENTRY_KEYS = (
    "condition_1",
    "condition_2",
    "condition_3",
    "condition_3_prime",
    "condition_4",
    "condition_5",
    "homzz",
    "jislim",
    "zml",
    "quotient",
    "jjz",
    "homjz_a",
    "homjz_b",
    "weak_epi",
    "self_small_witness",
)

# (span name, module, attribute) for module-level functions.
FUNCTIONS = [
    ("cli.main", "adictower.cli", "main"),
    ("cli.parse_config", "adictower.cli", "parse_config"),
    ("cli.emit_report", "adictower.cli", "emit_report"),
    ("verify.run_full_report", "adictower.verify.pipeline", "run_full_report"),
    ("verify.check_conditions", "adictower.verify.conditions", "check_conditions"),
    ("towers.build_adic_tower", "adictower.towers", "build_adic_tower"),
    ("towers.truncated_limit", "adictower.towers", "truncated_limit"),
    ("towers.hom_into_colimit", "adictower.towers", "hom_into_colimit"),
    ("towers.build_transition", "adictower.towers", "build_transition"),
    ("towers.inverse_limit", "adictower.towers", "inverse_limit"),
    ("towers.mittag_leffler_check", "adictower.towers", "mittag_leffler_check"),
    ("fpmod.normalize", "adictower.fpmod.modules", "normalize"),
    ("fpmod.hom_module", "adictower.fpmod.functors", "hom_module"),
    ("fpmod.tensor_module", "adictower.fpmod.functors", "tensor_module"),
    ("fpmod.induced_hom", "adictower.fpmod.functors", "induced_hom"),
    ("fpmod.find_isomorphism", "adictower.fpmod.morphisms", "find_isomorphism"),
    ("fpmod.is_well_defined", "adictower.fpmod.morphisms", "is_well_defined"),
    ("fpmod.kernel", "adictower.fpmod.morphisms", "kernel"),
    ("fpmod.cokernel", "adictower.fpmod.morphisms", "cokernel"),
    ("exactalg.smith_form", "adictower.exactalg.matrices", "smith_form"),
    ("exactalg.kernel_basis", "adictower.exactalg.matrices", "kernel_basis"),
    ("exactalg.solve_matrix", "adictower.exactalg.matrices", "solve_matrix"),
    ("exactalg.solve_from_smith", "adictower.exactalg.matrices", "solve_from_smith"),
    ("exactalg.kronecker", "adictower.exactalg.matrices", "kronecker"),
] + [
    (f"verify.{key}", "adictower.verify.conditions", f"check_{key}")
    for key in ENTRY_KEYS[:6]
]

# (span name, module, class, method) for timed methods.
METHODS = [
    ("exactalg.matmul", "adictower.exactalg.matrices", "Matrix", "__matmul__"),
    ("verify.residue_pool", "adictower.verify.lemmas", "PipelineState", "residue_pool"),
]

# (counter name, module, class, method) for methods that are only counted;
# each is wrapped on every class of the hierarchy that defines it.
COUNTED = [
    ("exactalg.try_div.calls", "adictower.exactalg.rings", "Ring", "try_div"),
    ("exactalg.euclid_divmod.calls", "adictower.exactalg.rings", "Ring", "euclid_divmod"),
    ("exactalg.gcd_ext.calls", "adictower.exactalg.rings", "Ring", "gcd_ext"),
    ("fpmod.hom_encode.calls", "adictower.fpmod.functors", "HomModule", "encode"),
    ("fpmod.hom_decode.calls", "adictower.fpmod.functors", "HomModule", "decode"),
]


def _entry_size(ring, rows) -> int:
    """Largest entry: bits over the integers, degree over F_p[x]."""
    values = chain.from_iterable(rows)
    if ring.kind == "integers":
        return max(map(abs, values), default=0).bit_length()
    return max(map(len, values), default=0) - 1


class Tracer:
    """Spans and counters of one sweep, kept in memory until it ends."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict = defaultdict(int)
        self.tower = -1
        self._seen: dict = defaultdict(set)
        self._smith_new = False

    def start_tower(self, index: int) -> None:
        self.tower = index
        self._seen.clear()

    def _repeat(self, name: str, key) -> bool:
        """Count a call whose key was already seen in the current tower;
        True when the key is new."""
        seen = self._seen[name]
        if key in seen:
            self.counts[name + ".repeats"] += 1
            return False
        seen.add(key)
        return True

    def timed(self, name: str, fn, before=None, after=None):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tower, not active[name]]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[name] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def mark_skipped(self, key: str) -> None:
        """Zero-length span for an entry the gating skipped, so every
        tower has exactly one span per report entry."""
        now = time.perf_counter()
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([f"verify.{key}", now, now, parent, self.tower, True])

    # hooks ---------------------------------------------------------------

    def _smith_before(self, args) -> None:
        a = args[0]
        self._smith_new = self._repeat("exactalg.smith_form", hash((a.rows, a.cols, a.entries)))
        m = self.maxima
        m["exactalg.smith_form.max_rows"] = max(m["exactalg.smith_form.max_rows"], a.rows)
        m["exactalg.smith_form.max_cols"] = max(m["exactalg.smith_form.max_cols"], a.cols)

    def _smith_after(self, args, sf) -> None:
        # The result is a function of the input: sizes of a repeated input
        # were already taken.
        if self._smith_new:
            for mat in (args[0],) + tuple(sf):
                self._entry_max(mat.ring, mat.entries)

    def _entry_max(self, ring, rows) -> None:
        key = "exactalg.smith_form.max_entry_size"
        self.maxima[key] = max(self.maxima[key], _entry_size(ring, rows))

    def _normalize_before(self, args) -> None:
        mod = args[0]
        rel = mod.relations
        self._repeat("fpmod.normalize", hash((mod.generators, rel.cols, rel.entries)))

    def _colimit_before(self, args) -> None:
        self._repeat("towers.hom_into_colimit", args[1])

    def _pool_after(self, args, pool) -> None:
        key = "verify.residue_pool.max_len"
        self.maxima[key] = max(self.maxima[key], len(pool))

    def _elements_after(self, args, out) -> None:
        if out is not None:
            self.counts["fpmod.module_elements.elements"] += len(out)

    def _emit_after(self, args, text) -> None:
        self.counts["cli.emit_report.bytes"] += len(text.encode("utf-8"))

    # installation --------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "exactalg.smith_form": (self._smith_before, self._smith_after),
            "fpmod.normalize": (self._normalize_before, None),
            "towers.hom_into_colimit": (self._colimit_before, None),
            "verify.residue_pool": (None, self._pool_after),
            "cli.emit_report": (None, self._emit_after),
        }
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            _rebind(original, self.timed(name, original, *hooks.get(name, (None, None))))
        modules = importlib.import_module("adictower.fpmod.modules")
        original = modules.module_elements
        _rebind(original, self.hooked(original, self._elements_after))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            before, after = hooks.get(name, (None, None))
            setattr(cls, attr, self.timed(name, cls.__dict__[attr], before, after))
        for name, module, cls_name, attr in COUNTED:
            base = getattr(importlib.import_module(module), cls_name)
            for cls in _hierarchy(base):
                if attr in cls.__dict__:
                    setattr(cls, attr, self.counted(name, cls.__dict__[attr]))
        pipeline = importlib.import_module("adictower.verify.pipeline")
        for key, runner in list(pipeline.RUNNERS.items()):
            traced = self.timed(f"verify.{key}", runner)
            pipeline.RUNNERS[key] = traced
            _rebind(runner, traced)
        blocker = pipeline._prerequisite_blocker

        def gated(key, statuses):
            root_cause = blocker(key, statuses)
            if root_cause is not None:
                self.mark_skipped(key)
            return root_cause

        pipeline._prerequisite_blocker = gated

    def hooked(self, fn, after):
        """Wrapper that only runs a hook on the result, without a span."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    # results -------------------------------------------------------------

    def entry_spans(self, tower: int) -> dict:
        counts = Counter(
            s[0][len("verify."):]
            for s in self.spans
            if s[4] == tower and s[0][len("verify."):] in ENTRY_KEYS
        )
        return {key: counts[key] for key in ENTRY_KEYS}

    def metrics(self) -> dict:
        """Per-name and per-layer totals derived from the spans."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        out: dict = defaultdict(float)
        for span, child in zip(self.spans, covered):
            name, start, end = span[0], span[1], span[2]
            own = (end - start) - child
            out[name + ".calls"] += 1
            out[name + ".self_s"] += own
            out[name.split(".")[0] + ".self_s"] += own
            if span[5]:
                out[name + ".s"] += end - start
        for name, value in self.counts.items():
            out[name] += value
        out.update(self.maxima)
        for name in ("exactalg.smith_form", "fpmod.normalize", "towers.hom_into_colimit"):
            calls = out.get(name + ".calls", 0)
            repeats = self.counts.get(name + ".repeats", 0)
            out[name + ".repeat_ratio"] = repeats / calls if calls else 0.0
        out["exactalg.smith_form.distinct_inputs"] = out.get(
            "exactalg.smith_form.calls", 0
        ) - self.counts.get("exactalg.smith_form.repeats", 0)
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, tower, _) in enumerate(self.spans):
                handle.write(json.dumps([i, parent, tower, name, start, end]) + "\n")


def _hierarchy(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _rebind(original, replacement) -> None:
    """Replace every package-level binding of ``original``."""
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("adictower"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
