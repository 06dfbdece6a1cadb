"""Call tracing for the adiaflow benchmark, installed from outside the package.

The tracer wraps the public functions of each adiaflow module, plus a few
methods, and records one span per call: name, start, end and the span that
was open when the call began.  Hot grid and model primitives, called
thousands of times per operation, get no span; they keep a call count, a
row count and summed busy time instead.

The package's modules import each other's functions by name (``from .reference
import evolve_full``), so a wrapper is useful only if every module that holds
the function is rebound to it.  ``install`` rebinds every such reference it
finds among the loaded ``adiaflow`` modules and ``uninstall`` puts every one
of them back.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

#: Modules whose public functions get spans, by the short name used in
#: metric names.
SPANNED_MODULES = (
    "grid", "model", "spectral", "modulation", "paths", "manifold",
    "reference", "harness", "cli", "config", "presets",
)

#: Methods that get spans: (module, class, method, span name).
SPANNED_METHODS = (
    ("manifold", "SolutionMapWorkspace", "__init__", "manifold.workspace_init"),
    ("manifold", "SolutionMapWorkspace", "apply_raw", "manifold.apply_raw"),
)

#: Hot primitives that are counted instead of spanned.
COUNTED_METHODS = (
    ("grid", "PeriodicGrid", "shift_values", "grid.shift_values"),
    ("grid", "PeriodicGrid", "strong_norm_values", "grid.strong_norm_values"),
    ("model", "PulseModel", "family", "model.family"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = None


def _shift_rows(args, kwargs, result):
    return 1 if result.ndim == 1 else result.shape[0]


def _evolve_attrs(args, kwargs, result):
    return {"steps": int(result.stats["steps"]), "escaped": result.escaped}


def _refine_attrs(args, kwargs, result):
    return {"evaluations": int(result.evaluations)}


def _construct_attrs(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _extract_attrs(args, kwargs, result):
    return {"samples": int(result.n_samples)}


def _csv_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


#: Span name -> function (args, kwargs, result) -> attributes kept on the span.
OBSERVERS = {
    "reference.evolve_full": _evolve_attrs,
    "reference.refine_correction": _refine_attrs,
    "manifold.construct_manifold_point": _construct_attrs,
    "reference.extract_modulated": _extract_attrs,
    "harness.write_trajectory_csv": _csv_attrs,
}

#: Counted name -> function (args, kwargs, result) -> rows produced.
ROW_COUNTERS = {"grid.shift_values": _shift_rows}


class Tracer:
    """Span and counter store plus the wrappers that fill it.

    Single-threaded by design: the open spans form one stack.
    """

    def __init__(self):
        #: Calls made while this is False pass straight through unrecorded.
        self.enabled = True
        self.spans: list[Span] = []
        self.counters: dict[str, list] = {}
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------
    def _spanned(self, name, func):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            span = Span(name, clock(), stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.attrs = observe(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, func):
        entry = self.counters.setdefault(name, [0, 0, 0])
        rows = ROW_COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                entry[0] += 1
                entry[1] += clock() - start
            if rows is not None:
                entry[2] += rows(args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------
    def install(self) -> None:
        """Rebind every traced callable in every loaded adiaflow module."""
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        packages = [mod for key, mod in sorted(sys.modules.items())
                    if key == "adiaflow" or key.startswith("adiaflow.")]
        for short in SPANNED_MODULES:
            module = sys.modules[f"adiaflow.{short}"]
            for attr, func in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != module.__name__):
                    continue
                wrapped = self._spanned(f"{short}.{attr}", func)
                for holder in packages:
                    for key, value in list(vars(holder).items()):
                        if value is func:
                            self._rebind(holder, key, wrapped)
        for methods, make in ((SPANNED_METHODS, self._spanned),
                              (COUNTED_METHODS, self._counted)):
            for short, cls_name, attr, name in methods:
                cls = getattr(sys.modules[f"adiaflow.{short}"], cls_name)
                self._rebind(cls, attr, make(name, vars(cls)[attr]))

    def _rebind(self, holder, key, wrapped) -> None:
        self._rebound.append((holder, key, vars(holder)[key]))
        setattr(holder, key, wrapped)

    def uninstall(self) -> list[str]:
        """Restore every original; return a problem for each that failed."""
        problems = []
        for holder, key, original in reversed(self._rebound):
            setattr(holder, key, original)
        for holder, key, original in self._rebound:
            if vars(holder)[key] is not original:
                problems.append(f"{holder.__name__}.{key} was not restored")
        self._rebound.clear()
        return problems

    # -- analysis ----------------------------------------------------------------
    def overhead_s(self, calls: int = 20000) -> float:
        """Estimated time the wrappers added to the recorded calls.

        Times a no-op called plainly, through a span wrapper and through a
        counting wrapper, and charges each recorded span and counted call
        with its wrapper's extra cost.  A whole-run traced-minus-untraced
        difference would drown in run-to-run noise far larger than this.
        """
        def noop():
            return None

        probe = Tracer()
        costs = []
        for func in (noop, probe._spanned("probe", noop),
                     probe._counted("probe", noop)):
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(calls):
                    func()
                best = min(best, time.perf_counter() - start)
            costs.append(best / calls)
        plain, spanned, counted = costs
        n_counted = sum(entry[0] for entry in self.counters.values())
        return (len(self.spans) * (spanned - plain)
                + n_counted * (counted - plain))

    def self_times(self) -> list[int]:
        """Per-span duration minus the part its direct children cover (ns)."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def verify(self) -> list[str]:
        """Problems with span nesting; empty when the trace is consistent."""
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans still open")
        for index, span in enumerate(self.spans):
            if span.end is None or span.end < span.start:
                problems.append(f"span {index} ({span.name}) has no valid end")
                continue
            if span.parent is None:
                continue
            parent = self.spans[span.parent]
            if not (parent.start <= span.start and span.end <= parent.end):
                problems.append(
                    f"span {index} ({span.name}) lies outside its parent "
                    f"{span.parent} ({parent.name})"
                )
        for index, own in enumerate(self.self_times()):
            if own < 0:
                problems.append(
                    f"span {index} ({self.spans[index].name}) has negative "
                    f"self time {own} ns"
                )
        return problems

    def to_dict(self) -> dict:
        """Trace as JSON-ready data; times in ns from the first span."""
        origin = self.spans[0].start if self.spans else 0
        return {
            "spans": [
                {"id": index, "name": span.name,
                 "start_ns": span.start - origin, "end_ns": span.end - origin,
                 "parent": span.parent, "attrs": span.attrs}
                for index, span in enumerate(self.spans)
            ],
            "counters": {
                name: {"calls": calls, "busy_ns": busy, "rows": rows}
                for name, (calls, busy, rows) in sorted(self.counters.items())
            },
        }


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced pass.

    A layer that did no work reports 0 for each of its metrics.
    """
    own = tracer.self_times()
    spans: dict[str, list[int]] = {}
    for index, span in enumerate(tracer.spans):
        spans.setdefault(span.name, []).append(index)

    def durations(name):
        return [tracer.spans[i].end - tracer.spans[i].start
                for i in spans.get(name, ())]

    def busy(name):
        return sum(durations(name)) / 1e9

    def calls(name):
        return len(spans.get(name, ()))

    def self_s(name):
        return sum(own[i] for i in spans.get(name, ())) / 1e9

    def attrs(name, key):
        return [tracer.spans[i].attrs[key] for i in spans.get(name, ())]

    def counter(name):
        return tracer.counters.get(name, [0, 0, 0])

    refine_ids = set(spans.get("reference.refine_correction", ()))
    probes = [tracer.spans[i].attrs["escaped"]
              for i in spans.get("reference.evolve_full", ())
              if tracer.spans[i].parent in refine_ids]
    evaluations = sum(attrs("reference.refine_correction", "evaluations"))
    escaped = sum(probes)
    survived = len(probes) - escaped
    steps = sum(attrs("reference.evolve_full", "steps"))

    out: dict[str, tuple[float, str]] = {}
    for name in ("grid.shift_values", "grid.strong_norm_values", "model.family"):
        n_calls, busy_ns, rows = counter(name)
        out[f"{name}.calls"] = (n_calls, "count")
        out[f"{name}.busy_s"] = (busy_ns / 1e9, "s")
        if name == "grid.shift_values":
            out[f"{name}.rows"] = (rows, "count")
    for name in ("spectral.decompose", "spectral.propagate_stable_batch",
                 "spectral.measure_propagator_constant",
                 "paths.path_distance",
                 "manifold.construct_manifold_point",
                 "manifold.measure_contraction",
                 "reference.refine_correction",
                 "reference.extract_modulated",
                 "reference.instability_witness",
                 "reference.compare_effective",
                 "harness.build_runtime",
                 "harness.trajectory_rows",
                 "harness.write_trajectory_csv",
                 "harness.write_json"):
        out[f"{name}.busy_s"] = (busy(name), "s")
    for name in ("modulation.decompose_state", "modulation.solve_modulation",
                 "manifold.apply_raw", "reference.evolve_full"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.busy_s"] = (busy(name), "s")
    out["manifold.workspace_init_s"] = (busy("manifold.workspace_init"), "s")
    apply_raw = durations("manifold.apply_raw")
    out["manifold.apply_raw.ms_p50"] = (
        statistics.median(apply_raw) / 1e6 if apply_raw else 0.0, "ms")
    out["manifold.picard_iterations"] = (
        sum(attrs("manifold.construct_manifold_point", "iterations")), "count")
    out["reference.refine.evaluations"] = (evaluations, "count")
    out["reference.refine.escaped"] = (escaped, "count")
    out["reference.refine.survived"] = (survived, "count")
    out["reference.refine.useful_ratio"] = (
        survived / evaluations if evaluations else 0.0, "ratio")
    out["reference.evolve_full.escaped"] = (
        sum(attrs("reference.evolve_full", "escaped")), "count")
    out["reference.evolve_full.steps"] = (steps, "count")
    out["reference.evolve_full.us_per_step"] = (
        busy("reference.evolve_full") / steps * 1e6 if steps else 0.0, "us")
    out["reference.extract_modulated.samples"] = (
        sum(attrs("reference.extract_modulated", "samples")), "count")
    out["harness.run_full_pipeline.self_s"] = (
        self_s("harness.run_full_pipeline"), "s")
    out["harness.traj_csv_bytes"] = (
        sum(attrs("harness.write_trajectory_csv", "bytes")), "B")
    out["cli.main.self_s"] = (self_s("cli.main"), "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def traced_seconds(tracer: Tracer) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(span.end - span.start for span in tracer.spans
               if span.parent is None) / 1e9
