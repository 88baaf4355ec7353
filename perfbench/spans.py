"""In-memory spans around the public calls of each trustconnect layer.

``Tracer.installed()`` swaps every module-level binding of the listed public
functions (and the ``TrustReport`` serializers) for a wrapper that records a
span: name, start, end, parent span and op id. Nothing inside the program is
changed; the spans sit at the boundaries the benchmark calls through. After a
``full_report`` call the tracer also times ``trust_scores`` and
``baseline_trust`` on the same inputs, as *probe* spans, because
``full_report`` does not call those public functions itself.

``layer_metrics`` turns spans into per-layer self times: a span's duration
minus the time its child spans cover, summed per op, then the median over the
ops (or set-up units) that call the layer.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _graph_counts(graph):
    return {"graph.nodes": len(graph.nodes), "graph.edges": len(graph.edges)}


def _detection_counts(report):
    return {
        "detector.contradictions": sum(len(e.contradicting_neighbors) for e in report.entries),
        "detector.flagged": len(report.flagged_ids()),
    }


def _bytes_written(paths):
    return {"experiment.bytes_written": sum(Path(p).stat().st_size for p in paths)}


def _svg_bytes(svg):
    return {"svgchart.bytes": len(svg.encode("utf-8"))}


# (home module, attribute, layer metric, counts taken from the result, or None)
FUNCTIONS = (
    ("trustconnect.graph", "load_graph", "graph.load_s", _graph_counts),
    ("trustconnect.snapshot", "load_snapshot", "snapshot.load_s", None),
    ("trustconnect.snapshot", "synthesize_snapshot", "snapshot.synthesize_s", None),
    ("trustconnect.snapshot", "deviations", "snapshot.deviations_s", None),
    ("trustconnect.trust", "full_report", "trust.full_report_s", None),
    ("trustconnect.detector", "detect", "detector.detect_s", _detection_counts),
    ("trustconnect.experiment", "run_sweep", "experiment.run_sweep_s", None),
    ("trustconnect.experiment", "emit_figure_data", "experiment.emit_figure_data_s", _bytes_written),
    ("trustconnect.svgchart", "grouped_bar_svg", "svgchart.render_s", _svg_bytes),
)
METHODS = (("to_json", "trust.serialize_s"), ("to_csv", "trust.serialize_s"))


class Tracer:
    """Spans and counts for one process; ``op`` tags everything recorded."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[tuple[object, str, float]] = []
        self.op: object = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            probe = probe or self.spans[parent]["probe"]
        record = {"name": name, "parent": parent, "op": self.op, "probe": probe}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, layer, counter):
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if counter is not None:
                for name, value in counter(result).items():
                    self.counts.append((self.op, name, value))
            return result

        return traced

    def _wrap_full_report(self, fn, trust_module):
        traced = self._wrap(fn, "trust.full_report_s", None)

        def full_report(graph, snapshot, params, *args, **kwargs):
            report = traced(graph, snapshot, params, *args, **kwargs)
            with self.span("trust.trust_scores_s", probe=True):
                trust_module.trust_scores(graph, snapshot, params)
            with self.span("trust.baseline_trust_s", probe=True):
                trust_module.baseline_trust(graph, params)
            return report

        return full_report

    @contextmanager
    def installed(self):
        """Route every binding of the traced functions through span wrappers."""
        import trustconnect.trust as trust_module

        modules = [m for name, m in list(sys.modules.items())
                   if name == "trustconnect" or name.startswith("trustconnect.")]
        undo = []
        for home, attr, layer, counter in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            if attr == "full_report":
                wrapper = self._wrap_full_report(original, trust_module)
            else:
                wrapper = self._wrap(original, layer, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, wrapper)
        report_cls = trust_module.TrustReport
        for attr, layer in METHODS:
            original = getattr(report_cls, attr)
            undo.append((report_cls, attr, original))
            setattr(report_cls, attr, self._wrap(original, layer, None))
        try:
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def top_level_seconds(spans: list[dict]) -> dict:
    """Per op: the summed duration of spans with no parent."""
    totals: dict = {}
    for s in spans:
        if s["parent"] is None:
            totals[s["op"]] = totals.get(s["op"], 0.0) + s["end"] - s["start"]
    return totals


def _probe_root(spans: list[dict], s: dict) -> bool:
    return s["probe"] and (s["parent"] is None or not spans[s["parent"]]["probe"])


def probe_seconds(spans: list[dict]) -> dict:
    """Per op: time spent in probe spans, which the op itself would not spend."""
    totals: dict = {}
    for s in spans:
        if _probe_root(spans, s):
            totals[s["op"]] = totals.get(s["op"], 0.0) + s["end"] - s["start"]
    return totals


def layer_metrics(spans: list[dict], counts) -> dict:
    """Median per-op self time of each layer, and median per-op counts.

    Probe roots report their whole duration; spans under a probe are left
    out of the layer they belong to, so probing does not inflate it.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    per_op: dict = {}
    for index, s in enumerate(spans):
        probe_root = _probe_root(spans, s)
        if s["probe"] and not probe_root:
            continue
        seconds = s["end"] - s["start"]
        if not probe_root:
            seconds -= covered[index]
        layers = per_op.setdefault(s["op"], {})
        layers[s["name"]] = layers.get(s["name"], 0.0) + seconds
    counted: dict = {}
    for op, name, value in counts:
        layers = counted.setdefault(op, {})
        layers[name] = layers.get(name, 0) + value
    metrics = {}
    for table in (per_op, counted):
        names = {name for layers in table.values() for name in layers}
        for name in names:
            metrics[name] = statistics.median(
                layers[name] for layers in table.values() if name in layers
            )
    return metrics
