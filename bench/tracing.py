"""Spans around toristack's public functions, for the traced run only.

``Tracer.install`` replaces each listed function by a wrapper wherever a
toristack module binds it, so calls made through ``from .linalg import
smith_normal_form`` are seen as well as calls through the module. Every
wrapped call records one span: layer name, operation id, start, end and the
index of the span that was open when it began. A layer's self time is the
duration of its spans minus the part covered by their child spans.

Spans are kept in memory; counters that need more than a span (matrix bit
lengths, parallelepiped points) keep a reference to the call's input and are
computed after the timed phase, so they add nothing inside the spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from lattice import index_of_rays

# layer name -> (module, attribute) pairs; every binding of each function
# in every toristack module is wrapped
LAYERS = {
    "cones.intersect": [("cones", "intersect")],
    "linalg.snf": [("linalg", "smith_normal_form")],
    "linalg.hnf": [("linalg", "hermite_normal_form")],
    "stackyfan.validate_fan": [("stackyfan", "validate_fan")],
    "monoids.hilbert_basis": [("monoids", "hilbert_basis")],
    "monoids.resolution": [("monoids", "minimal_free_resolution"),
                           ("monoids", "admissible_resolution")],
    "monoids.saturation_check": [("monoids", "saturation_intersection_check")],
    "charts.local_chart": [("charts", "local_chart")],
    "cli.parse": [("cli", "document_from_json")],
    "cli.validation_errors": [("cli", "validation_errors")],
    "cli.report_data": [("cli", "report_data")],
    "cli.mfr_data": [("cli", "mfr_data")],
    "cli.emit": [("cli", "emit_json"), ("cli", "render_report_text"),
                 ("cli", "render_mfr_text")],
}
MODULES = ("linalg", "cones", "monoids", "stackyfan", "charts", "cli")

# Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "cones.from_generators_calls": ("count", "lower"),
    "cones.from_generators_ms": ("ms", "lower"),
    "cones.intersect_calls": ("count", "lower"),
    "cones.intersect_ms": ("ms", "lower"),
    "linalg.snf_calls": ("count", "lower"),
    "linalg.snf_ms": ("ms", "lower"),
    "linalg.hnf_calls": ("count", "lower"),
    "linalg.hnf_ms": ("ms", "lower"),
    "linalg.max_bits": ("bits", "lower"),
    "stackyfan.validate_fan_calls": ("count", "lower"),
    "stackyfan.validate_fan_ms": ("ms", "lower"),
    "stackyfan.cone_geometry_hits": ("count", "higher"),
    "stackyfan.cone_geometry_misses": ("count", "lower"),
    "monoids.hilbert_basis_calls": ("count", "lower"),
    "monoids.hilbert_basis_ms": ("ms", "lower"),
    "monoids.lattice_points": ("count", "lower"),
    "monoids.resolution_ms": ("ms", "lower"),
    "monoids.saturation_check_ms": ("ms", "lower"),
    "charts.local_chart_calls": ("count", "lower"),
    "charts.local_chart_ms": ("ms", "lower"),
    "charts.charts_per_cone": ("ratio", "lower"),
    "cli.parse_ms": ("ms", "lower"),
    "cli.validation_errors_ms": ("ms", "lower"),
    "cli.report_data_ms": ("ms", "lower"),
    "cli.mfr_data_ms": ("ms", "lower"),
    "cli.emit_ms": ("ms", "lower"),
}


class Tracer:
    """Collects spans for one workload process."""

    def __init__(self):
        self.spans: list[tuple | None] = []   # (layer, op, start, end, parent)
        self.stack: list[int] = []
        self.op = -1
        self.inputs: dict[str, list] = defaultdict(list)
        self.cache_start = None
        self.cache_end = None
        self._fan_class = None

    # -- instrumentation ---------------------------------------------------
    def _wrap(self, layer, fn, keep_input=False):
        spans, stack, inputs = self.spans, self.stack, self.inputs
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            if keep_input:
                inputs[layer].append(args[0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, self.op, start, end, parent)

        return wrapper

    def install(self, package):
        """Wrap every listed function wherever a toristack module binds it."""
        modules = [package] + [getattr(package, name) for name in MODULES]
        keep = {"linalg.snf", "linalg.hnf", "monoids.hilbert_basis"}
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                original = getattr(getattr(package, module_name), attr)
                wrapper = self._wrap(layer, original, keep_input=layer in keep)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
        cone_class = package.cones.Cone
        original = cone_class.__dict__["from_generators"].__func__
        cone_class.from_generators = classmethod(self._wrap("cones.from_generators", original))
        self._fan_class = package.stackyfan.Fan
        self.cache_start = self._fan_class.cone_geometry.cache_info()

    # -- operation boundaries ----------------------------------------------
    def begin(self, op: int) -> int:
        """Open the root span of operation ``op``; returns its index."""
        self.op = op
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index

    def end(self, index: int, start: float, end: float) -> None:
        self.stack.pop()
        self.spans[index] = ("op", self.op, start, end, -1)

    def finish(self):
        self.cache_end = self._fan_class.cone_geometry.cache_info()

    # -- aggregation -------------------------------------------------------
    def layer_metrics(self, scales: list[float], cones_reported: int) -> dict[str, float]:
        """Per-layer counts and scaled self times, keyed like ``PER_LAYER``."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        self_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (layer, op, start, end, _) in enumerate(self.spans):
            calls[layer] += 1
            self_ms[layer] += (end - start - child[i]) * scales[op] * 1000.0
        bits = 0
        for layer in ("linalg.snf", "linalg.hnf"):
            for matrix in self.inputs[layer]:
                bits = max([bits] + [abs(x).bit_length() for x in matrix.entries])
        points = sum(index_of_rays(cone.rays) for cone in self.inputs["monoids.hilbert_basis"]
                     if cone.rays)
        out = {}
        for name in PER_LAYER:
            layer, _, what = name.rpartition("_")
            if what == "calls":
                out[name] = calls[layer]
            elif what == "ms":
                out[name] = self_ms[layer]
        out["linalg.max_bits"] = bits
        out["monoids.lattice_points"] = points
        out["stackyfan.cone_geometry_hits"] = self.cache_end.hits - self.cache_start.hits
        out["stackyfan.cone_geometry_misses"] = self.cache_end.misses - self.cache_start.misses
        out["charts.charts_per_cone"] = (calls["charts.local_chart"] / cones_reported
                                         if cones_reported else 0.0)
        return out
