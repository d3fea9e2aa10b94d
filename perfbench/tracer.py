"""Outside-in trace of the cuspcorr layers, installed by the benchmark.

No source module is edited: ``Tracer.install`` replaces each layer's public
functions with timing wrappers in every ``cuspcorr`` namespace that holds
them (``cli`` imports several names directly, so patching only the defining
module would miss those calls) and wraps ``BesselKernel.grid`` on the class.

A span is ``(id, name, start, end, parent, task)``; spans are kept in memory
and written as JSON lines at the end.  A span's self time is its duration
minus the part of it that its direct child spans cover.  Spans started in a
``parallel_map`` worker thread are children of the ``parallel_map`` span, and
per-layer times sum thread-busy time, so with several threads the layer
times can add up to more than the wall time.  The time outside every span
(``trace.unattributed_s``) is therefore taken from the union of the
outermost spans; without overlapping threads it equals the wall time minus
the sum of all layer self times.

``gl_nodes_weights`` is only counted (it runs about a million times in the
``duality`` workload).  Counts that live inside a function, such as Bessel
monitor rejections or the refinements in ``voronoi._dual_integral``, are out
of reach from here.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Span names by layer; a layer's "_s" metric is the self time of its spans.
_TARGETS = [
    # (module, attribute, span name)
    ("cuspcorr.qseries", "mul_coeffs", "qseries.mul"),
    ("cuspcorr.coeffs", "make_eigenform", "coeffs.make_eigenform"),
    ("cuspcorr.coeffs", "divisor_sieve", "coeffs.sieve"),
    ("cuspcorr.arith", "kloosterman", "arith.kloosterman"),
    # The spectral side computes its Kloosterman sums in this block, so it is
    # timed as Kloosterman work rather than as spectral self time.
    ("cuspcorr.spectral", "_kloosterman_block", "arith.kloosterman"),
    ("cuspcorr.spectral", "petersson_table", "spectral"),
    ("cuspcorr.spectral", "petersson_geometric", "spectral"),
    ("cuspcorr.spectral", "petersson_ratio_check", "spectral"),
    ("cuspcorr.spectral", "sieve_quadratic_form", "spectral"),
    ("cuspcorr.spectral", "large_sieve_ratio", "spectral"),
    ("cuspcorr.quadrature", "osc_quad", "quadrature.osc_quad"),
    ("cuspcorr.windows", "mellin_at", "windows"),
    ("cuspcorr.windows", "w_star", "windows"),
    ("cuspcorr.windows", "w_star_grid", "windows"),
    ("cuspcorr.windows", "extract_oscillatory_parts", "windows"),
    ("cuspcorr.windows", "kuznetsov_transform_dot", "windows"),
    ("cuspcorr.windows", "kuznetsov_transform_tilde", "windows"),
    ("cuspcorr.windows", "dot_decay_slope", "windows"),
    ("cuspcorr.windows", "maass_bessel_kernel", "windows"),
    ("cuspcorr.voronoi", "voronoi_instance", "voronoi"),
    ("cuspcorr.voronoi", "voronoi_lhs", "voronoi"),
    ("cuspcorr.voronoi", "voronoi_rhs", "voronoi"),
    ("cuspcorr.voronoi", "voronoi_check", "voronoi"),
    ("cuspcorr.circle", "build_cover", "circle.cover"),
    ("cuspcorr.circle", "sweep_measures", "circle.sweep"),
    ("cuspcorr.circle", "detect_additive", "circle.detect"),
    ("cuspcorr.correlations", "divisor_main_term", "correlations.divisor"),
    ("cuspcorr.correlations", "pipeline_fidelity", "correlations.pipeline"),
    ("cuspcorr.correlations", "shifted_pair_correlation", "correlations.sums"),
    ("cuspcorr.correlations", "triple_correlation", "correlations.sums"),
    ("cuspcorr.correlations", "wilton_sup", "correlations.sums"),
    ("cuspcorr.correlations", "gamma_star_norm", "correlations.sums"),
    ("cuspcorr.correlations", "scaling_study", "correlations.sums"),
    ("cuspcorr.util", "parallel_map", "util.parallel_map"),
    ("cuspcorr.report", "write_report", "report.write"),
    ("cuspcorr.report", "write_csv", "report.write"),
]

# (metric, unit) in report order.  "_s" metrics are self-time sums of a span
# name, except util.parallel_map_s, the time inside parallel_map calls.
PER_LAYER = [
    ("qseries.mul_s", "s"), ("qseries.mul_calls", "count"), ("qseries.mul_terms", "count"),
    ("coeffs.build_s", "s"), ("coeffs.builds", "count"), ("coeffs.hits", "count"),
    ("coeffs.build_efficiency", "ratio"), ("coeffs.sieve_s", "s"),
    ("arith.kloosterman_s", "s"), ("arith.kloosterman_calls", "count"), ("arith.units", "count"),
    ("spectral.self_s", "s"), ("spectral.calls", "count"),
    ("bessel.grid_s", "s"), ("bessel.grid_calls", "count"), ("bessel.values", "count"),
    ("bessel.values_per_call", "values/call"), ("bessel.series_zone", "count"),
    ("bessel.hankel_zone", "count"), ("bessel.integral_zone", "count"),
    ("quadrature.osc_quad_s", "s"), ("quadrature.osc_quad_calls", "count"),
    ("quadrature.integrand_evals", "count"), ("quadrature.nodes", "count"),
    ("quadrature.gl_rules", "count"),
    ("windows.self_s", "s"), ("windows.calls", "count"),
    ("voronoi.self_s", "s"), ("voronoi.checks", "count"), ("voronoi.dual_terms", "count"),
    ("circle.cover_s", "s"), ("circle.sweep_s", "s"), ("circle.sweeps", "count"),
    ("circle.sweep_intervals", "count"), ("circle.detect_s", "s"), ("circle.detect_ffts", "count"),
    ("correlations.divisor_s", "s"), ("correlations.pipeline_s", "s"),
    ("correlations.sums_s", "s"),
    ("util.parallel_map_s", "s"), ("util.workers", "count"),
    ("report.write_s", "s"), ("report.bytes", "B"),
    ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
]

_SELF_TIME = {
    "qseries.mul_s": "qseries.mul", "coeffs.build_s": "coeffs.build",
    "coeffs.sieve_s": "coeffs.sieve", "arith.kloosterman_s": "arith.kloosterman",
    "spectral.self_s": "spectral", "bessel.grid_s": "bessel.grid",
    "quadrature.osc_quad_s": "quadrature.osc_quad", "windows.self_s": "windows",
    "voronoi.self_s": "voronoi", "circle.cover_s": "circle.cover",
    "circle.sweep_s": "circle.sweep", "circle.detect_s": "circle.detect",
    "correlations.divisor_s": "correlations.divisor",
    "correlations.pipeline_s": "correlations.pipeline",
    "correlations.sums_s": "correlations.sums", "report.write_s": "report.write",
}

_CALLS = {
    "qseries.mul_calls": "qseries.mul", "arith.kloosterman_calls": "arith.kloosterman",
    "spectral.calls": "spectral", "bessel.grid_calls": "bessel.grid",
    "quadrature.osc_quad_calls": "quadrature.osc_quad", "windows.calls": "windows",
    "circle.sweeps": "circle.sweep",
}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, []), start, end)
            for sid, _, start, end, _, _ in spans}


class Tracer:
    """Span recorder and counters for one process; install, run, summarize."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.task: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._forms: dict[int, object] = {}
        self._built: list[int] = []

    # -- span machinery ------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            if before is not None:
                args, kwargs = before(sid, args, kwargs)
            stack.append(sid)
            start = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if not done:  # keep the span of a call that raised
                    tracer.spans.append((sid, name, start, end, parent, tracer.task))
            label = name
            if after is not None:
                with tracer._lock:
                    label = after(args, kwargs, result) or name
            tracer.spans.append((sid, label, start, end, parent, tracer.task))
            return result

        return wrapper

    def _under(self, parent: int, fn):
        """fn run with `parent` as the enclosing span in whichever thread runs it."""
        tracer = self

        def call(x):
            stack = tracer._stack()
            if stack and stack[-1] == parent:
                return fn(x)
            stack.append(parent)
            try:
                return fn(x)
            finally:
                stack.pop()

        return call

    # -- counters ------------------------------------------------------------
    def _hooks(self):
        import cuspcorr.util as util
        from cuspcorr.arith import euler_phi
        counts = self.counts

        def mul(args, kwargs, result):
            counts["qseries.mul_terms"] += len(result)

        def eigenform(args, kwargs, form):
            if self._forms.get(form.weight) is form:
                counts["coeffs.hits"] += 1
                return "coeffs.hit"
            self._forms[form.weight] = form
            self._built.append(form.length)
            counts["coeffs.builds"] += 1
            return "coeffs.build"

        def kloosterman(args, kwargs, result):
            c = args[2] if len(args) > 2 else kwargs["c"]
            counts["arith.units"] += euler_phi(int(c))

        def kloosterman_block(args, kwargs, result):
            c = args[1] if len(args) > 1 else kwargs["c"]
            counts["arith.units"] += euler_phi(int(c))

        def osc_quad_before(sid, args, kwargs):
            f = args[0]

            def integrand(x):
                n = np.size(x)
                with self._lock:
                    counts["quadrature.integrand_evals"] += n
                return f(x)

            return (integrand,) + tuple(args[1:]), kwargs

        def voronoi_rhs(args, kwargs, result):
            counts["voronoi.dual_terms"] += result[1]["n_terms"]

        def voronoi_check(args, kwargs, result):
            counts["voronoi.checks"] += 1

        def sweep(args, kwargs, result):
            cover = args[0] if args else kwargs["cover"]
            counts["circle.sweep_intervals"] += cover.n_intervals

        def detect(args, kwargs, result):
            cover = args[0] if args else kwargs["cover"]
            nodes = args[4] if len(args) > 4 else kwargs.get("eta_nodes", 16)
            counts["circle.detect_ffts"] += 2 * nodes * len(cover.weights)

        def pmap_before(sid, args, kwargs):
            fn, items = args[0], args[1]
            workers = 1 if len(items) <= 1 else min(util.worker_count(), len(items))
            with self._lock:
                counts["util.workers"] = max(counts["util.workers"], workers)
            return (self._under(sid, fn), items) + tuple(args[2:]), kwargs

        def write(args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            fmt = args[2] if len(args) > 2 else kwargs.get("format", "json")
            if fmt == "json":  # write_report(csv) and write_csv both reach write_csv
                counts["report.bytes"] += os.path.getsize(path)

        def write_csv(args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            counts["report.bytes"] += os.path.getsize(path)

        return {
            "mul_coeffs": (None, mul),
            "make_eigenform": (None, eigenform),
            "kloosterman": (None, kloosterman),
            "_kloosterman_block": (None, kloosterman_block),
            "osc_quad": (osc_quad_before, None),
            "voronoi_rhs": (None, voronoi_rhs),
            "voronoi_check": (None, voronoi_check),
            "sweep_measures": (None, sweep),
            "detect_additive": (None, detect),
            "parallel_map": (pmap_before, None),
            "write_report": (None, write),
            "write_csv": (None, write_csv),
        }

    # -- install / uninstall -------------------------------------------------
    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cuspcorr" or mod_name.startswith("cuspcorr.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self) -> None:
        import importlib

        hooks = self._hooks()
        for mod_name, attr, span in _TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            before, after = hooks.get(attr, (None, None))
            self._replace_everywhere(original, self._span(span, original, before, after))

        from cuspcorr.bessel import BesselKernel
        from cuspcorr import quadrature
        counts = self.counts
        lock = self._lock

        def grid_after(args, kwargs, result):
            kernel, xs = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["xs"])
            series = int(np.count_nonzero(xs <= kernel.series_cutoff))
            hankel = int(np.count_nonzero(xs >= kernel.hankel_cutoff))
            counts["bessel.values"] += xs.size
            counts["bessel.series_zone"] += series
            counts["bessel.hankel_zone"] += hankel
            counts["bessel.integral_zone"] += xs.size - series - hankel

        grid = BesselKernel.grid
        self._patches.append((BesselKernel, "grid", grid))
        BesselKernel.grid = self._span("bessel.grid", grid, None, grid_after)

        gl = quadrature.gl_nodes_weights

        def gl_counted(a, b, n):
            with lock:
                counts["quadrature.gl_rules"] += 1
                counts["quadrature.nodes"] += n
            return gl(a, b, n)

        self._replace_everywhere(gl, gl_counted)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer metrics (all but the trace.* pair) and ``in_layers_s``."""
        selfs = self_times(self.spans)
        by_name: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, name, *_ in self.spans:
            by_name[name] += selfs[sid]
            calls[name] += 1
        out = {}
        for metric, _ in PER_LAYER:
            if metric in _SELF_TIME:
                out[metric] = by_name[_SELF_TIME[metric]]
            elif metric in _CALLS:
                out[metric] = calls[_CALLS[metric]]
            elif not metric.startswith("trace."):  # the trace.* pair needs the untraced run
                out[metric] = self.counts[metric]
        # Inclusive: the wall time of the threaded sections, to see whether threads pay.
        out["util.parallel_map_s"] = sum(end - start for _, name, start, end, _, _ in self.spans
                                         if name == "util.parallel_map")
        built = sum(self._built)
        out["coeffs.build_efficiency"] = max(self._built) / built if built else 0.0
        grids = calls["bessel.grid"]
        out["bessel.values_per_call"] = self.counts["bessel.values"] / grids if grids else 0.0
        top = [(start, end) for _, _, start, end, parent, _ in self.spans if parent is None]
        out["in_layers_s"] = _covered(top, float("-inf"), float("inf"))
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
