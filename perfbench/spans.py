"""Span recorder for the traced run, and the per-layer metrics derived from it.

The traced run calls the CLI in-process with each layer's public functions
wrapped from outside: every binding of the function in a loaded `commgraph`
module is swapped for a wrapper that records a span (name, start, end,
parent span, run id) and is restored afterwards. No program file changes,
and the spans appear in exactly the order the CLI and `run_pipeline` make
the calls. Work counts are computed after the run, from the recorded
arguments and return values, so the counting adds no time to any span; the
BFS counts model the algorithm of the commit that added the benchmark.
"""

from __future__ import annotations

import csv
import json
import statistics
import sys
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

# span name -> (module, attribute); "Class.method" patches the class
LAYERS = {
    "ingest.load_dataset": ("commgraph.ingest", "load_dataset"),
    "graph.unweighted": ("commgraph.graph", "Graph.unweighted"),
    "metrics.global_metrics": ("commgraph.metrics", "global_metrics"),
    "metrics.local_clustering": ("commgraph.metrics", "local_clustering"),
    "centrality.all_centralities": ("commgraph.centrality", "all_centralities"),
    "centrality.degree": ("commgraph.centrality", "degree_centrality"),
    "centrality.betweenness": ("commgraph.centrality", "betweenness_centrality"),
    "centrality.closeness": ("commgraph.centrality", "closeness_centrality"),
    "centrality.harmonic": ("commgraph.centrality", "harmonic_centrality"),
    "centrality.pagerank": ("commgraph.centrality", "pagerank"),
    "centrality.rank_top_k": ("commgraph.centrality", "rank_top_k"),
    "centrality.table_csv": ("commgraph.centrality", "centrality_table_csv"),
    "community.louvain": ("commgraph.community", "louvain"),
    "community.girvan_newman": ("commgraph.community", "girvan_newman"),
    "community.partition_to_csv": ("commgraph.community", "partition_to_csv"),
    "community.gn_trace_to_csv": ("commgraph.community", "gn_trace_to_csv"),
    "report.correlation": ("commgraph.report", "pearson_correlation_matrix"),
    "report.report_to_json": ("commgraph.report", "report_to_json"),
    "report.write_outputs": ("commgraph.report", "write_outputs"),
    "report.export_graph": ("commgraph.report", "export_graph"),
    "report.export_gexf": ("commgraph.report", "export_gexf"),
    "report.export_dot": ("commgraph.report", "export_dot"),
    "report.export_json": ("commgraph.report", "export_graph_json"),
}

# per-layer metric -> unit; time metrics are "<span name>_s", summed per run
PER_LAYER = {
    "ingest.load_dataset_s": "s",
    "ingest.input_bytes": "bytes",
    "ingest.rows_parsed": "count",
    "ingest.rows_rejected": "count",
    "ingest.duplicates_collapsed": "count",
    "ingest.labels_merged": "count",
    "graph.unweighted_s": "s",
    "metrics.global_metrics_s": "s",
    "metrics.local_clustering_s": "s",
    "metrics.bfs_sources": "count",
    "metrics.arcs_scanned": "count",
    "centrality.degree_s": "s",
    "centrality.betweenness_s": "s",
    "centrality.closeness_s": "s",
    "centrality.harmonic_s": "s",
    "centrality.pagerank_s": "s",
    "centrality.bfs_sources": "count",
    "centrality.arcs_scanned": "count",
    "centrality.table_csv_s": "s",
    "community.louvain_s": "s",
    "community.louvain_levels": "count",
    "community.girvan_newman_s": "s",
    "community.gn_removals": "count",
    "community.gn_bfs_sources": "count",
    "report.correlation_s": "s",
    "report.report_to_json_s": "s",
    "report.write_outputs_s": "s",
    "report.export_gexf_s": "s",
    "report.export_dot_s": "s",
    "report.export_json_s": "s",
    "report.bytes_written": "bytes",
    "trace.run_s": "s",
    "trace.overhead_frac": "frac",
    "trace.unattributed_s": "s",
}


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    args: tuple
    kwargs: dict
    result: Any

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run_id,
        }


class Recorder:
    """Holds spans in memory; `dump` writes them as JSON lines at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self.run_id, args, kwargs, result))

        return traced

    def run_spans(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                fh.write(json.dumps(span.record()) + "\n")

    @contextmanager
    def installed(self):
        """Swap every layer function for its traced wrapper; yield missing layers."""
        undo = []
        missing = []
        for name, (module_name, attr) in LAYERS.items():
            owner = sys.modules.get(module_name)
            *classes, fn_name = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = getattr(owner, fn_name, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            targets = [(owner, fn_name)] if classes else [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name.split(".")[0] == "commgraph"
                for key, value in list(vars(mod).items())
                if value is original
            ]
            for target, key in targets:
                undo.append((target, key, getattr(target, key)))
                setattr(target, key, wrapper)
        try:
            yield missing
        finally:
            for target, key, value in reversed(undo):
                setattr(target, key, value)


def _bfs_work(g) -> tuple[int, int]:
    """(sources, arcs) for one BFS from every node of graph `g`.

    A BFS from s scans every arc of s's component, so the arcs over all
    sources are sum over components of n_c * 2 * E_c. This models the work
    of the one-BFS-per-source algorithm that each BFS-family function used
    when the benchmark was added; it is computed from the input graph, not
    measured, and a program that shares traversals still reports it.
    """
    n = len(g.adjacency)
    seen = [False] * n
    arcs = 0
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        size = degree_sum = 0
        while queue:
            u = queue.popleft()
            size += 1
            degree_sum += len(g.adjacency[u])
            for v, _ in g.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        arcs += size * degree_sum
    return n, arcs


def _data_rows(path) -> int:
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        return sum(1 for row in csv.reader(fh) if any(f.strip() for f in row)) - 1


def _counts(span: Span) -> dict[str, float]:
    """Work counts of one span, from its arguments and return value."""
    a, r = [*span.args, *span.kwargs.values()], span.result
    if r is None:
        return {}
    if span.name == "ingest.load_dataset":
        _, log = r
        return {
            "ingest.input_bytes": sum(Path(p).stat().st_size for p in a if p is not None),
            "ingest.rows_parsed": _data_rows(a[0]),
            "ingest.rows_rejected": len(log.rows_rejected),
            "ingest.duplicates_collapsed": log.duplicates_collapsed,
            "ingest.labels_merged": len(log.labels_merged),
        }
    if span.name == "metrics.global_metrics":
        sources, arcs = _bfs_work(a[0])
        return {"metrics.bfs_sources": sources, "metrics.arcs_scanned": arcs}
    if span.name in ("centrality.betweenness", "centrality.closeness", "centrality.harmonic"):
        sources, arcs = _bfs_work(a[0])
        return {"centrality.bfs_sources": sources, "centrality.arcs_scanned": arcs}
    if span.name == "community.louvain":
        return {"community.louvain_levels": len(r.levels)}
    if span.name == "community.girvan_newman":
        removals = len(r.removals)
        return {"community.gn_removals": removals, "community.gn_bfs_sources": removals * len(a[0].adjacency)}
    return {}


def run_metrics(spans: list[Span], run_s: float) -> dict[str, float]:
    """Per-layer values of one traced run: span times and work counts summed."""
    values = {name: 0.0 for name in PER_LAYER}
    for span in spans:
        key = span.name + "_s"
        if key in values:
            values[key] += span.duration
        for name, count in _counts(span).items():
            values[name] += count
    values["trace.run_s"] = run_s
    values["trace.unattributed_s"] = run_s - sum(s.duration for s in spans if s.parent is None)
    return values


def release(run_spans: list[Span]) -> None:
    """Drop the arguments and results a finished run's spans still hold."""
    for span in run_spans:
        span.args, span.kwargs, span.result = (), {}, None


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(run[name] for run in per_run) for name in per_run[0]}
