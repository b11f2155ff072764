"""Span recorder for the traced benchmark run.

Every public function of a ``subindex`` module that the workloads reach is
wrapped from here, at each name its caller looks up (a function imported
with ``from .x import f`` is patched in the importing module too). Nothing
under ``src/`` is edited. Spans are kept in memory and written out when the
run ends; per-layer metrics are computed from one traced pass.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import tracemalloc


def _points(args, kwargs, result):
    return {"points": int(len(result))}


# (span name, bindings, attrs) where a binding is "module:attr" or
# "module:Class.method" and attrs is None, a function of (args, kwargs,
# result), "rows" (rows in and kept by a DirectionSet) or "alloc" (tracemalloc
# peak inside the span). Names imported into another module are listed at
# every place they are looked up. Spans with no metric of their own (report,
# trajectory, align_soul, index_form) keep their work out of the caller's
# self time.
LAYERS = [
    ("directions.build", ["subindex.directions:DirectionSet.__post_init__"], "rows"),
    ("lp.separation", ["subindex.lp:separation_margin"], None),
    ("lp.interior", ["subindex.lp:interior_weight_margin"], None),
    ("lp.soul_margin", ["subindex.lp:soul_margin_lp"], None),
    ("lp.soul_feasibility", ["subindex.lp:soul_feasibility_lp"], None),
    ("convexity.is_critical", ["subindex.convexity:is_critical", "subindex.torus:is_critical"], None),
    (
        "convexity.classify_polar",
        [
            "subindex.convexity:classify_polar_region",
            "subindex.torus:classify_polar_region",
            "subindex.flows:classify_polar_region",
        ],
        None,
    ),
    (
        "convexity.report",
        ["subindex.convexity:classification_report", "subindex.cli:classification_report"],
        None,
    ),
    (
        "sampling.sphere_samples",
        [
            "subindex.sampling:sphere_samples",
            "subindex.convexity:sphere_samples",
            "subindex.flows:sphere_samples",
        ],
        _points,
    ),
    ("torus.enumerate", ["subindex.torus:TorusDistanceField.enumerate_critical_points"], "alloc"),
    ("torus.classify_point", ["subindex.torus:TorusDistanceField.classify_point"], None),
    ("torus.distance_many", ["subindex.torus:TorusDistanceField.distance_many"], _points),
    ("torus.connectivity", ["subindex.torus:TorusDistanceField.sublevel_connectivity"], "alloc"),
    (
        "flows.arrival_bounds_many",
        ["subindex.flows:arrival_bounds_many", "subindex.cli:arrival_bounds_many"],
        lambda args, kwargs, result: {"points": int(len(result[0]))},
    ),
    ("flows.cutoff_flow", ["subindex.flows:cutoff_linear_flow", "subindex.cli:cutoff_linear_flow"], None),
    ("flows.trajectory", ["subindex.flows:bump_flow_trajectory", "subindex.cli:bump_flow_trajectory"], None),
    ("flows.ode", ["subindex.flows:solve_ivp"], None),
    (
        "flows.cap_bound",
        ["subindex.flows:terminal_cap_angle_bound", "subindex.cli:terminal_cap_angle_bound"],
        None,
    ),
    ("flows.align_soul", ["subindex.flows:align_soul", "subindex.cli:align_soul"], None),
    ("jacobi.index_form", ["subindex.jacobi:index_form"], None),
    ("jacobi.index_form_quadrature", ["subindex.jacobi:index_form_quadrature"], None),
    ("jacobi.index_form_boundary", ["subindex.jacobi:index_form_boundary"], None),
    ("jacobi.index_divergence", ["subindex.jacobi:index_divergence"], None),
    ("jacobi.boundary_norm_bound", ["subindex.jacobi:boundary_norm_bound"], None),
    ("cli.main", ["subindex.cli:main"], None),
]

# Per-layer metrics: name -> unit. Counts and byte totals are exact and must
# repeat between two traced runs of one seed; the rest are times and memory.
PER_LAYER = {
    "directions.build.calls": "count",
    "directions.build.self_s": "s",
    "directions.rows_in": "count",
    "directions.rows_kept": "count",
    "lp.separation.calls": "count",
    "lp.interior.calls": "count",
    "lp.soul_margin.calls": "count",
    "lp.soul_feasibility.calls": "count",
    "lp.self_s": "s",
    "convexity.is_critical.calls": "count",
    "convexity.classify_polar.calls": "count",
    "convexity.self_s": "s",
    "convexity.lp_per_set": "count/set",
    "convexity.ambiguous": "count",
    "torus.enumerate.self_s": "s",
    "torus.enumerate.peak_alloc_mb": "MB",
    "torus.scan.lp_calls": "count",
    "torus.classify_point.calls": "count",
    "torus.classify_point.self_s": "s",
    "torus.distance_many.points": "count",
    "torus.distance_many.self_s": "s",
    "torus.connectivity.self_s": "s",
    "torus.connectivity.peak_alloc_mb": "MB",
    "flows.arrival_bounds_many.points": "count",
    "flows.arrival_bounds_many.self_s": "s",
    "flows.cutoff_flow.calls": "count",
    "flows.cutoff_flow.self_s": "s",
    "flows.ode.calls": "count",
    "flows.ode.self_s": "s",
    "flows.cap_bound.self_s": "s",
    "sampling.sphere_samples.points": "count",
    "sampling.self_s": "s",
    "jacobi.index_form_quadrature.calls": "count",
    "jacobi.index_form_quadrature.self_s": "s",
    "jacobi.index_form_boundary.calls": "count",
    "jacobi.index_form_boundary.self_s": "s",
    "jacobi.index_divergence.self_s": "s",
    "jacobi.boundary_norm_bound.self_s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}

EXACT = {name for name, unit in PER_LAYER.items() if unit.startswith("count") or unit == "bytes"}


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "attrs", "error", "subject")

    def __init__(self, sid, name, start, end, parent, op, attrs, error, subject):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.op, self.attrs, self.error = parent, op, attrs, error
        self.subject = subject

    def to_json(self, pass_index: int) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "pass": pass_index,
            "attrs": self.attrs,
            "error": self.error,
        }


class Recorder:
    """Collects spans while ``enabled``; one instance per benchmark process.

    Each thread keeps its own stack of open spans. A span opened in a worker
    thread with an empty stack takes the innermost open span of the main
    thread as its parent, so pool work is charged to the call that waits on it.
    """

    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans: list[Span] = []
        self.unpatched: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, attrs):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack = rec._stack()
            if stack:
                parent = stack[-1]
            else:
                main = rec._main_stack
                parent = main[-1] if main else None
            sid = next(rec._ids)
            stack.append(sid)
            # the first argument is pinned so that id() stays unique in a pass
            subject = args[0] if args else None
            own_alloc = attrs == "alloc" and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            elif attrs == "alloc":
                tracemalloc.reset_peak()
            if attrs == "rows":
                raw = args[0].directions
                rows_in = raw.shape[0] if getattr(raw, "ndim", 0) == 2 else 1
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = None
                if attrs == "alloc":
                    extra = {"peak_alloc_mb": tracemalloc.get_traced_memory()[1] / 2**20}
                    if own_alloc:
                        tracemalloc.stop()
                elif attrs == "rows" and error is None:
                    extra = {"rows_in": int(rows_in), "rows_kept": len(args[0])}
                elif callable(attrs) and error is None:
                    extra = attrs(args, kwargs, result)
                rec.spans.append(Span(sid, name, start, end, parent, rec.op, extra, error, subject))

        return traced

    def install(self):
        """Patch every binding in LAYERS; missing names are listed in ``unpatched``."""
        for name, bindings, attrs in LAYERS:
            wrappers: dict[int, object] = {}
            for binding in bindings:
                module_name, _, path = binding.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.unpatched.append(binding)
                    continue
                key = id(original)
                if key not in wrappers:
                    wrappers[key] = self.wrap(name, original, attrs)
                setattr(owner, attr, wrappers[key])


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of the children's intervals, per span id."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = (span.end - span.start) - covered
    return out


def layer_metrics(spans: list[Span], report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in PER_LAYER.

    ``trace.overhead_s`` compares passes and is added by the caller.
    """
    by_id = {span.sid: span for span in spans}
    self_s = _self_times(spans)
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        own[span.name] = own.get(span.name, 0.0) + self_s[span.sid]

    def ancestors(span):
        while span.parent is not None and span.parent in by_id:
            span = by_id[span.parent]
            yield span.name

    def layer_self(prefix):
        return sum((v for k, v in own.items() if k.startswith(prefix + ".")), 0.0)

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in spans if s.name == name and s.attrs)

    def attr_max(name, key):
        return max((s.attrs[key] for s in spans if s.name == name and s.attrs), default=0.0)

    lp_spans = [s for s in spans if s.name.startswith("lp.")]
    scan_lp = 0
    convexity_lp = 0
    for span in lp_spans:
        names = list(ancestors(span))
        if "torus.enumerate" in names and "torus.classify_point" not in names:
            scan_lp += 1
        if any(n.startswith("convexity.") for n in names):
            convexity_lp += 1
    convexity_spans = [s for s in spans if s.name.startswith("convexity.")]
    sets = {id(s.subject) for s in convexity_spans}
    ambiguous = sum(
        1
        for s in convexity_spans
        if s.error == "AmbiguousClassificationError"
        and not (s.parent in by_id and by_id[s.parent].name.startswith("convexity."))
    )

    special = {
        "directions.rows_in": attr_sum("directions.build", "rows_in"),
        "directions.rows_kept": attr_sum("directions.build", "rows_kept"),
        "convexity.lp_per_set": convexity_lp / len(sets) if sets else 0.0,
        "convexity.ambiguous": ambiguous,
        "torus.scan.lp_calls": scan_lp,
        "cli.report_bytes": report_bytes,
    }
    metrics = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if metric in special:
            metrics[metric] = special[metric]
        elif kind == "calls":
            metrics[metric] = calls.get(base, 0)
        elif kind == "self_s":  # "<layer>.self_s" sums the layer, "<span>.self_s" one span
            metrics[metric] = own.get(base, 0.0) if "." in base else layer_self(base)
        elif kind == "points":
            metrics[metric] = attr_sum(base, "points")
        elif kind == "peak_alloc_mb":
            metrics[metric] = attr_max(base, "peak_alloc_mb")
    return metrics


def write_spans(path, passes: list[list[Span]], note: dict):
    with open(path, "w") as fh:
        fh.write(json.dumps({"note": note}) + "\n")
        for index, spans in enumerate(passes):
            for span in spans:
                fh.write(json.dumps(span.to_json(index)) + "\n")
