"""Spans around the public `udl` functions a job calls, recorded from outside
the program, and the per-layer metrics computed from them.

A span is (id, name, start, end, parent, k) plus the counters its function
exposes.  Spans stay in memory; the job prints them when it ends.
"""

from __future__ import annotations

import functools
import inspect
import resource
import statistics
import sys
import time

# The public functions that carry a span, by module.  Private helpers
# (_adjvec, _tuple_stats, _max_pair_grid, the DFS kernels) are not wrapped:
# their cost shows as self time of the public function that calls them.
LAYERS = {
    "numtheory": ("primes_in_ap", "chebyshev"),
    "gaussian": ("representations",),
    "config": ("choose_params", "build_config", "verify_edge_in_group"),
    "udgraph": ("build_graph", "peel", "lattice_vectors"),
    "paths": ("count_irredundant_many", "max_pair_count", "total_irredundant_paths", "per_pair_counts"),
    "bounds": ("enumerate_nondegenerate", "lambert_w"),
    "cli": ("verify_all",),
}

PATH_KS = (2, 3, 4)

# Quantities per wrapped function, besides self seconds ("s").
_PATHS_QUANTITIES = {
    "count_irredundant_many": ("s", "rss_gain_mb", "paths_per_s", "yield"),
    "max_pair_count": ("s", "rss_gain_mb"),
    "total_irredundant_paths": ("s",),
    "per_pair_counts": ("s",),
}
_OTHER_METRICS = (
    "numtheory.primes_in_ap.s",
    "numtheory.chebyshev.s",
    "gaussian.representations.s",
    "gaussian.representations.points_per_s",
    "config.choose_params.s",
    "config.build_config.s",
    "config.verify_edge_in_group.s",
    "udgraph.build_graph.s",
    "udgraph.build_graph.rss_gain_mb",
    "udgraph.peel.s",
    "udgraph.peel.rss_gain_mb",
    "udgraph.peel.kept_frac",
    "udgraph.lattice_vectors.s",
    "bounds.enumerate_nondegenerate.s",
    "bounds.enumerate_nondegenerate.solutions",
    "bounds.lambert_w.s",
    "cli.verify_all.self_s",
)
OVERHEAD_METRIC = "trace.overhead_frac"


def _paths_metric_names() -> list[str]:
    names = []
    for fn, quantities in _PATHS_QUANTITIES.items():
        for q in quantities:
            names.append(f"paths.{fn}.{q}")
            names.extend(f"paths.{fn}.k{k}.{q}" for k in PATH_KS)
    return names


LAYER_METRICS = (*_OTHER_METRICS, *_paths_metric_names(), OVERHEAD_METRIC)

_UNITS = {"s": "s", "self_s": "s", "rss_gain_mb": "MB", "paths_per_s": "paths/s",
          "points_per_s": "points/s", "yield": "ratio", "kept_frac": "ratio",
          "solutions": "count", "overhead_frac": "ratio"}
_HIGHER_IS_BETTER = {"paths_per_s", "points_per_s", "yield", "kept_frac", "solutions"}


def metric_unit(name: str) -> str:
    return _UNITS[name.rsplit(".", 1)[1]]


def metric_better(name: str) -> str:
    return "higher" if name.rsplit(".", 1)[1] in _HIGHER_IS_BETTER else "lower"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _counters(name: str, arguments: dict, result) -> dict:
    """Work counts read from a call's bound arguments and its result."""
    if name == "paths.count_irredundant_many":
        vectors = max(len(arguments["g"].vectors), 1)
        return {"paths": sum(result.values()), "attempts": len(arguments["starts"]) * vectors ** arguments["k"]}
    if name == "gaussian.representations":
        return {"points": len(result)}
    if name == "udgraph.peel":
        return {"kept": result.vertex_count, "in": arguments["g"].vertex_count}
    if name == "bounds.enumerate_nondegenerate":
        return {"solutions": len(result)}
    return {}


class Tracer:
    """Records nested spans of the wrapped functions in one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments
            span = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
                    "k": arguments.get("k"), "rss0_kb": _maxrss_kb()}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                span["rss1_kb"] = _maxrss_kb()
            span.update(_counters(name, arguments, result))
            return result

        return traced

    def install(self) -> None:
        """Replace each layer function in every loaded udl.* namespace that
        binds it, so calls through `from .x import f` are traced too."""
        modules = [m for key, m in sys.modules.items() if key == "udl" or key.startswith("udl.")]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"udl.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._originals.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            lo, hi = max(s["start"], p["start"]), min(s["end"], p["end"])
            if hi > lo:
                children.setdefault(p["id"], []).append((lo, hi))
    return {s["id"]: (s["end"] - s["start"]) - _union_length(children.get(s["id"], ())) for s in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], speed: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one job, every name in LAYER_METRICS but the
    overhead; a layer the job never called reads 0.  Times and rates are
    scaled to reference seconds by the job's measured host speed."""
    selfs = self_times(spans)
    acc: dict[str, dict[str, float]] = {}

    def add(key: str, field: str, value: float) -> None:
        bucket = acc.setdefault(key, {})
        bucket[field] = bucket.get(field, 0.0) + value

    for s in spans:
        keys = [s["name"]]
        if s["name"].startswith("paths.") and s["k"] in PATH_KS:
            keys.append(f"{s['name']}.k{s['k']}")
        for key in keys:
            add(key, "self", selfs[s["id"]])
            add(key, "dur", s["end"] - s["start"])
            add(key, "rss_gain_kb", s["rss1_kb"] - s["rss0_kb"])
            for field in ("paths", "attempts", "points", "kept", "in", "solutions"):
                if field in s:
                    add(key, field, s[field])

    out = {}
    for metric in LAYER_METRICS:
        if metric == OVERHEAD_METRIC:
            continue
        key, quantity = metric.rsplit(".", 1)
        b = acc.get(key, {})
        if quantity in ("s", "self_s"):
            out[metric] = b.get("self", 0.0) * speed
        elif quantity == "rss_gain_mb":
            out[metric] = b.get("rss_gain_kb", 0.0) / 1024
        elif quantity == "paths_per_s":
            out[metric] = _ratio(b.get("paths", 0.0), b.get("dur", 0.0) * speed)
        elif quantity == "points_per_s":
            out[metric] = _ratio(b.get("points", 0.0), b.get("dur", 0.0) * speed)
        elif quantity == "yield":
            out[metric] = _ratio(b.get("paths", 0.0), b.get("attempts", 0.0))
        elif quantity == "kept_frac":
            out[metric] = _ratio(b.get("kept", 0.0), b.get("in", 0.0))
        elif quantity == "solutions":
            out[metric] = b.get("solutions", 0.0)
    return out


def span_table(per_job: list[list[dict]]) -> list[tuple[str, int, float, float]]:
    """(name, calls, total seconds, self seconds) per span name over several
    jobs' spans, by self time.  Span ids are unique only within a job."""
    rows: dict[str, list] = {}
    for job_spans in per_job:
        selfs = self_times(job_spans)
        for s in job_spans:
            row = rows.setdefault(s["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s["end"] - s["start"]
            row[2] += selfs[s["id"]]
    return sorted(((n, *r) for n, r in rows.items()), key=lambda r: -r[3])


def median_metrics(per_job: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
