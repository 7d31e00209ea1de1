"""Spans around the program's public functions, recorded from outside it.

The tracer replaces each traced function, in every loaded ``dpkmeans``
module that holds a reference to it, with a wrapper that records one span
(name, unit, start, end, details) per call.  Nothing under ``src/`` knows
about it.  Spans are kept in memory and reduced to the per-layer metrics by
:func:`layer_metrics` when the run ends.

A *unit* is one set-up or one timed operation of the workload; spans that
start outside any unit (the benchmark's own checks) are not recorded.
Spans from the engine's worker threads carry the unit that was current when
they started, which is exact because the benchmark runs one operation at a
time.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Traced functions as (module, attribute); a dotted attribute is a method.
TRACED = [
    ("ingestion", "load_csv"),
    ("ingestion", "normalize"),
    ("ingestion", "synthetic_blobs"),
    ("planner", "make_plan"),
    ("canopy", "select_initial_centroids"),
    ("canopy", "default_thresholds"),
    ("canopy", "run_canopy"),
    ("mechanism", "derive_stream_seed"),
    ("mechanism", "perturb_aggregate"),
    ("core", "label_points"),
    ("core", "assign_labels"),
    ("engine", "run_edpdcs"),
    ("engine", "run_baseline"),
    ("evaluation", "nicv"),
    ("evaluation", "compare_variants"),
    ("evaluation", "write_comparison_csv"),
    ("evaluation", "RunReport.to_json"),
    ("evaluation", "RunReport.comparable_json"),
    ("evaluation", "ComparisonSummary.to_json"),
    ("cli", "main"),
]

_ENGINE = ("engine.run_edpdcs", "engine.run_baseline")
_SERIALIZE = (
    "evaluation.write_comparison_csv",
    "evaluation.RunReport.to_json",
    "evaluation.RunReport.comparable_json",
    "evaluation.ComparisonSummary.to_json",
)
_INGESTION = ("ingestion.load_csv", "ingestion.normalize", "ingestion.synthetic_blobs")

#: Per-layer metrics in output order: name -> unit.
LAYER_METRICS = {
    "ingestion.load_csv_ms": "ms",
    "ingestion.normalize_ms": "ms",
    "ingestion.synthetic_blobs_ms": "ms",
    "planner.make_plan_ms": "ms",
    "canopy.select_initial_centroids_ms": "ms",
    "canopy.default_thresholds_ms": "ms",
    "canopy.run_canopy_ms": "ms",
    "mechanism.derive_stream_seed_ms": "ms",
    "mechanism.perturb_aggregate_ms": "ms",
    "core.label_points_ms": "ms",
    "core.rows_labelled": "rows/op",
    "core.label_temp_mb": "MB",
    "engine.data_passes": "passes/run",
    "engine.self_ms": "ms",
    "engine.cpu_per_wall": "ratio",
    "engine.timings_coverage": "ratio",
    "evaluation.nicv_ms": "ms",
    "evaluation.compare_variants_ms": "ms",
    "evaluation.serialize_ms": "ms",
    "cli.self_ms": "ms",
}


@dataclass(slots=True)
class Span:
    name: str
    unit: str
    start: float
    end: float
    info: dict


def _details(name: str, args: tuple, result: Any) -> dict:
    """Counts taken at the call boundary, where the work happens."""
    if name == "core.label_points":
        points, centroids = args[0], args[1]
        n, d = points.shape
        return {"rows": n, "temp_bytes": n * centroids.shape[0] * d * 8}
    if name in _ENGINE:
        report = result[2]
        timings = report.timings_ms
        return {
            "variant": report.variant,
            "rows": report.n_rows,
            "reported_ms": timings["init_ms"] + sum(timings["iterations_ms"]),
        }
    return {}


class Tracer:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit: str | None = None
        self._undo: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for module_name, attr in TRACED:
            owner_name, _, method = attr.partition(".")
            module = importlib.import_module(f"dpkmeans.{module_name}")
            span_name = f"{module_name}.{attr}"
            if method:
                cls = getattr(module, owner_name)
                original = cls.__dict__[method]
                self._replace(cls, method, self._wrap(span_name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original)
            for name, mod in list(sys.modules.items()):
                if name.startswith("dpkmeans") and getattr(mod, attr, None) is original:
                    self._replace(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, span_name: str, fn: Callable) -> Callable:
        engine = span_name in _ENGINE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            unit = self.unit
            if unit is None:
                return fn(*args, **kwargs)
            cpu0 = time.process_time() if engine else 0.0
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            info = _details(span_name, args, result)
            if engine:
                info["cpu_s"] = time.process_time() - cpu0
            self.spans.append(Span(span_name, unit, start, end, info))
            return result

        return wrapper


def _covered(start: float, end: float, children: list[Span]) -> float:
    """Length of [start, end] covered by the union of the children's spans.

    ``children`` must be sorted by start time.
    """
    total = 0.0
    reach = start
    for child in children:
        lo, hi = max(child.start, reach), min(child.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _inside(parent: Span, spans: list[Span], starts: list[float]) -> list[Span]:
    """Spans (sorted by start, with ``starts`` their start times) within ``parent``."""
    lo = bisect.bisect_left(starts, parent.start)
    hi = bisect.bisect_right(starts, parent.end)
    return [s for s in spans[lo:hi] if s is not parent and s.end <= parent.end]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], op_units: list[str]) -> dict[str, float]:
    """Reduce spans to the per-layer metrics, keyed as :data:`LAYER_METRICS`.

    Ingestion times are per call (median over every call, set-up included);
    other times and counts are per operation (median over ``op_units`` of
    the operation's total).  A self time is the span's length minus the part
    its child spans cover, from any thread.  ``core.label_temp_mb`` is the
    largest call's (n, k, d) float64 temporary in MiB.  ``engine.data_passes``
    is the rows labelled inside EDPDCS runs over their row counts, so one
    full-data labelling counts as one pass.
    """
    by_unit: dict[str, list[Span]] = {u: [] for u in op_units}
    for s in spans:
        if s.unit in by_unit:
            by_unit[s.unit].append(s)
    for unit_spans in by_unit.values():
        unit_spans.sort(key=lambda s: s.start)
    starts = {u: [s.start for s in ss] for u, ss in by_unit.items()}

    def per_op(fn: Callable[[str], float]) -> float:
        return _median([fn(u) for u in op_units])

    def op_ms(*names: str) -> float:
        return per_op(lambda u: 1e3 * sum(s.end - s.start for s in by_unit[u] if s.name in names))

    def per_call_ms(name: str) -> float:
        return _median([1e3 * (s.end - s.start) for s in spans if s.name == name])

    def self_ms(u: str, parents: tuple[str, ...], counted: Callable[[Span], bool]) -> float:
        total = 0.0
        for p in by_unit[u]:
            if p.name in parents:
                children = [c for c in _inside(p, by_unit[u], starts[u]) if counted(c)]
                total += (p.end - p.start) - _covered(p.start, p.end, children)
        return 1e3 * total

    engine = [s for u in op_units for s in by_unit[u] if s.name in _ENGINE]
    label_spans = [s for u in op_units for s in by_unit[u] if s.name == "core.label_points"]
    edpdcs_rows = labelled_rows = 0
    for u in op_units:
        for e in by_unit[u]:
            if e.name in _ENGINE and e.info["variant"] == "EDPDCS":
                edpdcs_rows += e.info["rows"]
                labelled_rows += sum(
                    c.info["rows"] for c in _inside(e, by_unit[u], starts[u])
                    if c.name == "core.label_points"
                )
    engine_wall = sum(s.end - s.start for s in engine)
    cli_children = _INGESTION + ("evaluation.compare_variants",)

    return {
        "ingestion.load_csv_ms": per_call_ms("ingestion.load_csv"),
        "ingestion.normalize_ms": per_call_ms("ingestion.normalize"),
        "ingestion.synthetic_blobs_ms": per_call_ms("ingestion.synthetic_blobs"),
        "planner.make_plan_ms": op_ms("planner.make_plan"),
        "canopy.select_initial_centroids_ms": op_ms("canopy.select_initial_centroids"),
        "canopy.default_thresholds_ms": op_ms("canopy.default_thresholds"),
        "canopy.run_canopy_ms": op_ms("canopy.run_canopy"),
        "mechanism.derive_stream_seed_ms": op_ms("mechanism.derive_stream_seed"),
        "mechanism.perturb_aggregate_ms": op_ms("mechanism.perturb_aggregate"),
        "core.label_points_ms": op_ms("core.label_points"),
        "core.rows_labelled": per_op(
            lambda u: sum(s.info["rows"] for s in by_unit[u] if s.name == "core.label_points")
        ),
        "core.label_temp_mb": max((s.info["temp_bytes"] for s in label_spans), default=0) / 2**20,
        "engine.data_passes": labelled_rows / edpdcs_rows if edpdcs_rows else 0.0,
        "engine.self_ms": per_op(lambda u: self_ms(u, _ENGINE, lambda c: True)),
        "engine.cpu_per_wall": (
            sum(s.info["cpu_s"] for s in engine) / engine_wall if engine_wall else 0.0
        ),
        "engine.timings_coverage": (
            sum(s.info["reported_ms"] for s in engine) / (1e3 * engine_wall)
            if engine_wall else 0.0
        ),
        "evaluation.nicv_ms": op_ms("evaluation.nicv"),
        "evaluation.compare_variants_ms": op_ms("evaluation.compare_variants"),
        "evaluation.serialize_ms": op_ms(*_SERIALIZE),
        "cli.self_ms": per_op(
            lambda u: self_ms(u, ("cli.main",), lambda c: c.name in cli_children)
        ),
    }
