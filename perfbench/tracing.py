"""Outside-in layer tracing for the benchmark's traced run.

The tracer wraps every public function of each qutritdistill module by
rebinding the module attribute, so calls through ``module.func`` and
intra-module calls through the global name (``distill.projected_min_eig``
from inside ``distill``) both pass through the wrapper. Names a module
imported by value (``cli.write_csv``, ``cli.json_dumps``,
``minors.write_csv``) are rebound to the same wrapper. Nothing inside the
package is edited; ``uninstall`` restores every attribute.

A span is ``[name, start, end, parent, info]`` kept in memory;
``layer_metrics`` folds one pass of spans into the per-layer metrics, with
self time = duration minus the time the span's direct children cover.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import time

LAYERS = ("cli", "_fmt", "minors", "distill", "kernel", "states", "linalg")

# Called once per CSV cell (millions per grid pass): a span each would
# dominate the run it is meant to measure. Their time stays in write_csv.
UNTRACED = {"_fmt.sig17"}

# Spans that also record process CPU time, for kernel.cpu_over_wall.
CPU_SPANS = {"kernel.kernel_product_vector"}


def _observe_write_csv(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


def _observe_scan(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return {"points": int(result.samples.shape[0]), "panels": len(spec.c_values)}


OBSERVERS = {
    "_fmt.write_csv": _observe_write_csv,
    "minors.scan": _observe_scan,
    "minors.cross_check": lambda a, k, r: {"failed": not r.passed},
    "distill.witness_search": lambda a, k, r: {"found": r.witness is not None},
    "distill.find_threshold": lambda a, k, r: {"iterations": r.iterations},
    "kernel.kernel_product_vector": lambda a, k, r: {"found": bool(r.found)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def reset(self):
        self.spans = []
        self._stack.clear()

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        cpu = name in CPU_SPANS
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            if stack and spans[stack[-1]][0] == name:  # recursion: one span per outer call
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            cpu0 = time.process_time() if cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = {"raised": type(exc).__name__}
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            info = observe(args, kwargs, result) if observe else None
            if cpu:
                info = dict(info or {}, cpu=time.process_time() - cpu0)
            rec[4] = info
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap the public functions of every layer module of ``package``."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrapped[id(obj)] = self._wrap(name, obj)
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def dump(self, path: str):
        """Write the current spans as JSON lines: name, start, end, parent, info."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# --- per-layer metrics -------------------------------------------------------

# Metric name -> unit. Layer "fmt" is the module _fmt: metric names must start
# with a letter or digit.
LAYER_UNITS = {
    "fmt.write_csv.s": "s",
    "fmt.write_csv.rows": "count",
    "fmt.write_csv.bytes": "B",
    "fmt.write_csv.mb_per_s": "MB/s",
    "fmt.json_dumps.s": "s",
    "minors.scan.s": "s",
    "minors.scan.points": "count",
    "minors.scan.points_per_s": "1/s",
    "minors.scan.alpha_bytes": "B",
    "minors.build_projected.calls": "count",
    "minors.build_projected.s": "s",
    "minors.cross_check.self_s": "s",
    "minors.cross_check.failed": "count",
    "minors.refine_minimum.s": "s",
    "minors.value_at.calls": "count",
    "minors.psd_scan_form1.s": "s",
    "distill.witness_search.calls": "count",
    "distill.witness_search.self_s": "s",
    "distill.eigensolves": "count",
    "distill.eigensolve_s": "s",
    "distill.evals_per_s": "1/s",
    "distill.witness_found_ratio": "ratio",
    "distill.budget_exhausted": "count",
    "distill.find_threshold.s": "s",
    "distill.find_threshold.iterations": "count",
    "kernel.kernel_product_vector.s": "s",
    "kernel.objective_evals": "count",
    "kernel.objective_s": "s",
    "kernel.optimizer_self_s": "s",
    "kernel.found_ratio": "ratio",
    "kernel.cpu_over_wall": "ratio",
    "states.build_family.calls": "count",
    "states.build_family.s": "s",
    "states.range_kernel.s": "s",
    "linalg.partial_transpose.calls": "count",
    "linalg.s": "s",
    "cli.self_s": "s",
}

ALPHA_BYTES_PER_POINT = 36 * 16  # one 6x6 complex128 compression per grid point


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pass of whole commands (root spans ``cli.main``)."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    calls, total, self_s, info = {}, {}, {}, {}
    for i, (name, start, end, parent, extra) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
        if extra:
            info.setdefault(name, []).append(extra)

    def summed(name, key):
        return sum(e.get(key, 0) for e in info.get(name, ()))

    csv_rows = summed("_fmt.write_csv", "rows")
    csv_bytes = summed("_fmt.write_csv", "bytes")
    csv_s = total.get("_fmt.write_csv", 0.0)
    # scan time with its own CSV writing taken out
    scan_csv_s = sum(end - start for name, start, end, parent, _ in spans
                     if name == "_fmt.write_csv" and parent >= 0
                     and spans[parent][0] == "minors.scan")
    scan_s = total.get("minors.scan", 0.0) - scan_csv_s
    scan_points = summed("minors.scan", "points")
    largest_batch = max((e["points"] // e["panels"] for e in info.get("minors.scan", ())),
                        default=0)
    searches = calls.get("distill.witness_search", 0)
    eigensolves = calls.get("distill.projected_min_eig", 0)
    kpv_s = total.get("kernel.kernel_product_vector", 0.0)
    # linalg time counted once: spans whose parent is not itself a linalg span
    linalg_s = sum((end - start for name, start, end, parent, _ in spans
                    if name.startswith("linalg.")
                    and not (parent >= 0 and spans[parent][0].startswith("linalg."))), 0.0)
    raised = [e.get("raised") for e in info.get("distill.witness_search", ())]

    return {
        "fmt.write_csv.s": csv_s,
        "fmt.write_csv.rows": csv_rows,
        "fmt.write_csv.bytes": csv_bytes,
        "fmt.write_csv.mb_per_s": _ratio(csv_bytes / 1e6, csv_s),
        "fmt.json_dumps.s": total.get("_fmt.json_dumps", 0.0),
        "minors.scan.s": scan_s,
        "minors.scan.points": scan_points,
        "minors.scan.points_per_s": _ratio(scan_points, scan_s),
        "minors.scan.alpha_bytes": largest_batch * ALPHA_BYTES_PER_POINT,
        "minors.build_projected.calls": calls.get("minors.build_projected", 0),
        "minors.build_projected.s": total.get("minors.build_projected", 0.0),
        "minors.cross_check.self_s": self_s.get("minors.cross_check", 0.0),
        "minors.cross_check.failed": summed("minors.cross_check", "failed"),
        "minors.refine_minimum.s": total.get("minors.refine_minimum", 0.0),
        "minors.value_at.calls": calls.get("minors.value_at", 0),
        "minors.psd_scan_form1.s": total.get("minors.psd_scan_form1", 0.0),
        "distill.witness_search.calls": searches,
        "distill.witness_search.self_s": self_s.get("distill.witness_search", 0.0),
        "distill.eigensolves": eigensolves,
        "distill.eigensolve_s": total.get("distill.projected_min_eig", 0.0),
        "distill.evals_per_s": _ratio(eigensolves, total.get("distill.witness_search", 0.0)),
        "distill.witness_found_ratio": _ratio(summed("distill.witness_search", "found"),
                                              searches),
        "distill.budget_exhausted": raised.count("BudgetExhausted"),
        "distill.find_threshold.s": total.get("distill.find_threshold", 0.0),
        "distill.find_threshold.iterations": summed("distill.find_threshold", "iterations"),
        "kernel.kernel_product_vector.s": kpv_s,
        "kernel.objective_evals": calls.get("kernel.rank1_minor_system", 0),
        "kernel.objective_s": total.get("kernel.rank1_minor_system", 0.0),
        "kernel.optimizer_self_s": self_s.get("kernel.minimize_minor_objective", 0.0),
        "kernel.found_ratio": _ratio(summed("kernel.kernel_product_vector", "found"),
                                     calls.get("kernel.kernel_product_vector", 0)),
        "kernel.cpu_over_wall": _ratio(summed("kernel.kernel_product_vector", "cpu"), kpv_s),
        "states.build_family.calls": calls.get("states.build_family", 0),
        "states.build_family.s": total.get("states.build_family", 0.0),
        "states.range_kernel.s": total.get("states.range_kernel", 0.0),
        "linalg.partial_transpose.calls": calls.get("linalg.partial_transpose", 0),
        "linalg.s": linalg_s,
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
    }


def median_metrics(per_pass: list[dict]) -> dict:
    """Metric-wise median over passes; counts stay whole numbers."""
    out = {}
    for k in per_pass[0]:
        values = [p[k] for p in per_pass]
        ints = all(isinstance(v, int) for v in values)
        out[k] = statistics.median_low(values) if ints else statistics.median(values)
    return out
