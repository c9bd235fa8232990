"""Spans around the program's layers, recorded from outside the package.

A traced run replaces, for its duration only, the names ``alliances.report``
calls through (``spectral_summary``, ``girth``, ``min_alliance_number``,
``domination_number``, ``build``, ``bounds.evaluate_all`` and ``analyze``
itself), plus the parse and serialize calls the benchmark makes. Each span
records its name, start, end, parent span and the graph it belongs to.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Callable, Iterator
from unittest import mock

from alliances import bounds, io_formats, report

LAYERS = ("alliance_solver", "spectral", "graph_core", "io_formats", "generators", "bounds", "report")
VARIANTS = report.DEFAULT_SPECS
ROOT = "graph"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    graph: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._graph: int | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(name, perf_counter(), 0.0, self._open[-1] if self._open else None, self._graph)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    @contextmanager
    def graph(self, graph_id: int) -> Iterator[Span]:
        """Root span for all the work on one input graph."""
        self._graph = graph_id
        try:
            with self.span(ROOT) as record:
                yield record
        finally:
            self._graph = None

    def wrap(self, name: str, fn: Callable, attrs_of: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    record.attrs.update(attrs_of(args, result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _search_attrs(args, result) -> dict:
    return {"variant": args[1].name, "nodes": result.nodes_explored}


def _domination_attrs(args, result) -> dict:
    return {"variant": "domination", "nodes": result.nodes_explored}


@contextmanager
def install(tracer: Tracer) -> Iterator[None]:
    """Route the program's layer calls through ``tracer`` until the block exits."""
    points = (
        (io_formats, "parse_graph6", "io_formats.parse", None),
        (report, "analyze", "report.analyze", None),
        (report, "report_to_json", "report.serialize", None),
        (report, "spectral_summary", "spectral.summary", lambda args, result: {"sweeps": result.sweeps}),
        (report, "girth", "graph_core.girth", None),
        (report, "min_alliance_number", "alliance_solver.search", _search_attrs),
        (report, "domination_number", "alliance_solver.search", _domination_attrs),
        (report, "build", "generators.build", None),
        (bounds, "evaluate_all", "bounds.evaluate", lambda args, rows: {"applicable": sum(r.applicable for r in rows)}),
    )
    with ExitStack() as stack:
        for module, attr, name, attrs_of in points:
            stack.enter_context(mock.patch.object(module, attr, tracer.wrap(name, getattr(module, attr), attrs_of)))
        yield


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


def layer_metrics(spans: list[Span], round0: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass whose graphs are numbered from 0.

    Times are seconds per graph over every traced graph. Counts cover graphs
    ``0 .. round0-1`` only, so that they repeat exactly for a fixed seed.
    ``bounds.tight`` is read from the root spans, where the run stores it.
    """
    own = self_times(spans)
    roots = [span for span in spans if span.name == ROOT]
    graphs = len(roots)
    wall = sum(span.end - span.start for span in roots)
    total: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    search_s: dict[str, float] = defaultdict(float)
    nodes: dict[str, int] = defaultdict(int)
    nodes_all = 0
    counts = {"spectral.sweeps": 0, "bounds.applicable": 0, "bounds.tight": 0}
    for span, self_s in zip(spans, own):
        duration = span.end - span.start
        total[span.name] += duration
        self_by_layer[span.name.split(".")[0]] += self_s
        in_round0 = span.graph is not None and span.graph < round0
        if span.name == "alliance_solver.search":
            search_s[span.attrs["variant"]] += duration
            nodes_all += span.attrs["nodes"]
            if in_round0:
                nodes[span.attrs["variant"]] += span.attrs["nodes"]
        elif in_round0 and span.name == "spectral.summary":
            counts["spectral.sweeps"] += span.attrs["sweeps"]
        elif in_round0 and span.name == "bounds.evaluate":
            counts["bounds.applicable"] += span.attrs["applicable"]
        elif in_round0 and span.name == ROOT:
            counts["bounds.tight"] += span.attrs.get("tight", 0)

    search_total = sum(search_s.values())
    metrics: dict[str, float] = {}
    for variant in VARIANTS:
        metrics[f"alliance_solver.search_s.{variant}"] = search_s[variant] / graphs
        metrics[f"alliance_solver.nodes.{variant}"] = nodes[variant]
    metrics["alliance_solver.nodes_per_s"] = nodes_all / search_total if search_total else 0.0
    metrics["spectral.summary_s"] = total["spectral.summary"] / graphs
    metrics["spectral.sweeps"] = counts["spectral.sweeps"]
    metrics["graph_core.girth_s"] = total["graph_core.girth"] / graphs
    metrics["io_formats.parse_s"] = total["io_formats.parse"] / graphs
    metrics["generators.build_s"] = total["generators.build"] / graphs
    metrics["bounds.evaluate_s"] = total["bounds.evaluate"] / graphs
    metrics["bounds.applicable"] = counts["bounds.applicable"]
    metrics["bounds.tight"] = counts["bounds.tight"]
    metrics["report.self_s"] = sum(s for span, s in zip(spans, own) if span.name == "report.analyze") / graphs
    metrics["report.serialize_s"] = total["report.serialize"] / graphs
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_by_layer[layer] / wall
    return metrics
