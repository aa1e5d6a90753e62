"""Outside-in layer trace: spans recorded around calls into each layer.

The library has no spans of its own. The traced run replaces each layer's
public functions, wherever a zifsim module holds them, with wrappers that
record a span (name, start, end, parent, op id) and the work counts of the
call, then runs `cli.main(argv)` in-process. Spans stay in memory and are
written out when the run ends.
"""

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, function) -> span name. The span name is the layer (module)
# and the function, so per-layer metrics read as `<layer>.<function>_s`.
SPANNED = (
    ("config", "parse_config"),
    ("config", "dump_config"),
    ("sim", "expand_schedule"),
    ("sim", "sample_trace"),
    ("sim", "measure_turnaround"),
    ("sim", "trace_to_csv"),
    ("rf", "load_capture"),
    ("rf", "sample_power_db"),
    ("rf", "filter_packets"),
    ("rf", "average_power_db"),
    ("rf", "noise_floor_report"),
    ("rf", "synthesize_capture"),
    ("ensm", "sweep_budgets"),
    ("mac", "compliance_matrix"),
)

# Calls whose results the traced run checks after the invocation.
KEPT = ("sim.measure_turnaround", "rf.filter_packets")


def _counts(name, args, result):
    """Work counts recorded with a span, measured where the work happens."""
    if name == "config.parse_config":
        return {"lines": args[0].count("\n")}
    if name == "sim.expand_schedule":
        return {"commands": len(args[0]), "events": len(result)}
    if name == "sim.sample_trace":
        return {"samples": len(result.samples)}
    if name == "rf.load_capture":
        return {"bytes": 4 * len(result)}
    if name == "rf.filter_packets":
        return {"samples": len(result.keep_mask), "filtered": result.samples_filtered}
    if name == "rf.noise_floor_report":
        return {"samples": result.sample_count_used + result.samples_filtered}
    return {}


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self.results = {}  # span name -> last result of a KEPT call

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.op, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name) as record:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if name in KEPT:
                        self.results[name] = exc
                    raise
            record.counts = _counts(name, args, result)
            if name in KEPT:
                self.results[name] = result
            return result
        return spanned

    @contextmanager
    def patched(self):
        """Route every zifsim reference to a spanned function through a wrapper."""
        saved = []
        for module_name, fn_name in SPANNED:
            original = getattr(sys.modules[f"zifsim.{module_name}"], fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original)
            for name, module in list(sys.modules.items()):
                if name.startswith("zifsim") and getattr(module, fn_name, None) is original:
                    saved.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)
        try:
            yield
        finally:
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)

    def self_seconds(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def to_json(self):
        return [
            {"name": s.name, "op": s.op, "parent": s.parent, "start": s.start,
             "end": s.end, **s.counts}
            for s in self.spans
        ]
