"""Spans around the public calls of each tsdlink module, timed from outside.

`Tracer.installed()` replaces each traced function by a timing wrapper under
every name it is bound to in a loaded `tsdlink` module (a name imported with
`from .x import f` is a binding of its own), and restores the originals on
exit.  Spans nest because the program is single-threaded: each keeps its
parent id and the op id, and stays in memory until the run ends.  A span's
self time is its duration minus the durations of its direct children.

The per-column hot paths (`SparseOperator.column`, `apply_entries`,
`_accumulate`) are deliberately not wrapped; their cost shows as self time
of the span that drives them.  `fields` has no span for the same reason.
"""

from __future__ import annotations

import re
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_COLUMNS = re.compile(r"^(\d+) columns$")


def _columns_checked(args, result) -> dict:
    return {"columns": sum(int(m.group(1)) for r in result.results if (m := _COLUMNS.match(r.detail)))}


def _traced_word(args, result) -> dict:
    word = args[1]
    atoms = sum(abs(letter.exp) for letter in word.letters) + sum(abs(f) for f in word.framings)
    return {"columns": result.operator_dim, "atoms": atoms}


# (module, function or Class.method, counter read from the call's arguments and result)
TARGETS = (
    ("cli", "run_cli", None),
    ("algebra", "load_algebra", None),
    ("algebra", "validate_algebra", None),
    ("tensor", "SparseOperator.trace", None),
    ("tensor", "SparseOperator.diff_witness", None),
    ("tensor", "SparseOperator.materialized", None),
    ("tsd", "check_tsd_properties", _columns_checked),
    ("braiding", "make_braiding_kit", None),
    ("braiding", "build_braiding", None),
    ("braiding", "build_twist", None),
    ("braiding", "build_braiding_inverse", None),
    ("braiding", "build_twist_inverse", None),
    ("braiding", "check_braiding", _columns_checked),
    ("braids", "parse_braid_word", None),
    ("braids", "random_markov_equivalent", None),
    ("invariant", "trace_invariant", _traced_word),
    ("invariant", "check_framed_braid_relations", None),
)

# Self-time metric (ms per op) -> the spans whose self time it sums.
SELF_TIME = {
    "cli.self_ms": ("cli.run_cli",),
    "algebra.load_ms": ("algebra.load_algebra",),
    "algebra.validate_ms": ("algebra.validate_algebra",),
    "tensor.trace_ms": ("tensor.SparseOperator.trace",),
    "tensor.diff_ms": ("tensor.SparseOperator.diff_witness",),
    "tensor.materialize_ms": ("tensor.SparseOperator.materialized",),
    "tsd.check_ms": ("tsd.check_tsd_properties",),
    "braiding.kit_ms": ("braiding.make_braiding_kit",),
    "braiding.build_ms": ("braiding.build_braiding", "braiding.build_twist"),
    "braiding.inverse_ms": ("braiding.build_braiding_inverse", "braiding.build_twist_inverse"),
    "braiding.check_ms": ("braiding.check_braiding",),
    "braids.parse_ms": ("braids.parse_braid_word",),
    "braids.rewrite_ms": ("braids.random_markov_equivalent",),
    "invariant.trace_ms": ("invariant.trace_invariant",),
    "invariant.relations_ms": ("invariant.check_framed_braid_relations",),
}

# Per-layer metric -> unit, for every metric `layer_metrics` returns.
UNITS = {name: "ms/op" for name in SELF_TIME} | {
    "tensor.trace_share": "ratio",
    "tsd.columns_checked": "columns/op",
    "braiding.columns_checked": "columns/op",
    "braiding.forward_builds": "count/kit",
    "algebra.validations": "count/op",
    "invariant.traces": "count/op",
    "invariant.columns": "columns/op",
    "braids.letters": "count/trace",
}


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    children: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.children


@dataclass
class Tracer:
    op: int = 0
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent.id if parent else None, self.op, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.children += span.end - span.start
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target under all its bindings; restore them on exit."""
        modules = [m for name, m in list(sys.modules.items()) if name == "tsdlink" or name.startswith("tsdlink.")]
        undo = []
        try:
            for module_name, qualname, counter in TARGETS:
                module = sys.modules[f"tsdlink.{module_name}"]
                wrapper_name = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(wrapper_name, original, counter))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(wrapper_name, original, counter)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, attr, original))
                            setattr(m, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _metric_of(span: Span, spans: list[Span], owners: dict) -> str:
    # The inverse builders' identity asserts run through diff_witness; they
    # are part of the inverse build, not of a check.
    if span.name == "tensor.SparseOperator.diff_witness" and span.parent is not None:
        if owners.get(spans[span.parent].name) == "braiding.inverse_ms":
            return "braiding.inverse_ms"
    return owners[span.name]


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced run of `ops` ops."""
    owners = {name: metric for metric, names in SELF_TIME.items() for name in names}
    self_ms = dict.fromkeys(SELF_TIME, 0.0)
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, int]] = {}
    for span in spans:
        self_ms[_metric_of(span, spans, owners)] += span.self_time * 1000.0
        calls[span.name] = calls.get(span.name, 0) + 1
        bucket = counts.setdefault(span.name, {})
        for key, value in span.counts.items():
            bucket[key] = bucket.get(key, 0) + value

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    op_wall = sum(s.end - s.start for s in spans if s.name == "cli.run_cli")
    traces = calls.get("invariant.trace_invariant", 0)
    traced = counts.get("invariant.trace_invariant", {})
    metrics = {name: value / ops for name, value in self_ms.items()}
    metrics |= {
        "tensor.trace_share": ratio(self_ms["tensor.trace_ms"] / 1000.0, op_wall),
        "tsd.columns_checked": counts.get("tsd.check_tsd_properties", {}).get("columns", 0) / ops,
        "braiding.columns_checked": counts.get("braiding.check_braiding", {}).get("columns", 0) / ops,
        "braiding.forward_builds": ratio(calls.get("braiding.build_braiding", 0), calls.get("braiding.make_braiding_kit", 0)),
        "algebra.validations": ratio(calls.get("algebra.validate_algebra", 0), calls.get("cli.run_cli", 0)),
        "invariant.traces": traces / ops,
        "invariant.columns": traced.get("columns", 0) / ops,
        "braids.letters": ratio(traced.get("atoms", 0), traces),
    }
    return metrics


def diff_ms_by_caller(spans: list[Span], ops: int) -> dict[str, float]:
    """Self time of diff_witness in ms per op, by the span that called it."""
    out: dict[str, float] = {}
    for span in spans:
        if span.name == "tensor.SparseOperator.diff_witness" and span.parent is not None:
            caller = spans[span.parent].name
            out[caller] = out.get(caller, 0.0) + span.self_time * 1000.0 / ops
    return {k: round(v, 3) for k, v in sorted(out.items())}


def trace_share_by_class(spans: list[Span], records) -> dict[str, float]:
    """Median share of an op's wall time spent in SparseOperator.trace, per op class."""
    trace_s = [0.0] * len(records)
    for span in spans:
        if span.name == "tensor.SparseOperator.trace":
            trace_s[span.op] += span.self_time
    groups: dict[str, list[float]] = {}
    for r, t in zip(records, trace_s):
        groups.setdefault(r["op"].label, []).append(t / r["latency"])
    return {k: round(statistics.median(v), 3) for k, v in sorted(groups.items())}
