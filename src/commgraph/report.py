"""Analysis pipeline: ingest, metrics, centralities, communities, exports.

`run_pipeline` is the one driver: each CLI command names the stages it
needs, then serialises its part of the result. The report is a pure
function of the input bytes and flags: serialization is deterministic
(sorted keys, no timestamps), and the input digest ties a report to its
source files.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .centrality import MEASURES, CentralityVector, all_centralities, centrality_table_csv, pagerank, rank_top_k
from .community import Dendrogram, GNTrace, girvan_newman, gn_trace_to_csv, louvain, partition_to_csv
from .errors import DegenerateGraphError, UndefinedModularityError, warn
from .graph import Graph, Partition, left_sum, sweep_beside
from .ingest import CleaningLog, load_dataset, weight_text
from .metrics import MetricsReport, global_metrics

EXPORT_FORMATS = ("gexf", "dot", "json")
STAGES = ("centralities", "louvain", "gn", "report")

GEXF_NS = "http://www.gexf.net/1.2draft"


# ------------------------------------------------------------ correlation


def _pearson(x, y) -> float | None:
    n = len(x)
    mx = left_sum(x) / n
    my = left_sum(y) / n
    dx = [a - mx for a in x]
    dy = [b - my for b in y]
    vx = left_sum(a * a for a in dx)
    vy = left_sum(b * b for b in dy)
    if vx == 0 or vy == 0:
        return None
    return left_sum(a * b for a, b in zip(dx, dy)) / (vx * vy) ** 0.5


def _ranks(values) -> list[float]:
    """Average ranks (1-based); ties share the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def pearson_correlation_matrix(vectors: list[CentralityVector], spearman: bool = False):
    """Symmetric correlation matrix over vectors of one length; zero-variance pairs yield None entries.

    With `spearman` it is Pearson's over average ranks. The null pairs off
    the diagonal make one stderr warning naming their count and the first.
    """
    data = [list(v.scores) for v in vectors]
    if spearman:
        data = [_ranks(col) for col in data]
    k = len(data)
    matrix: list[list[float | None]] = [[None] * k for _ in range(k)]
    nulls = []
    for i in range(k):
        for j in range(i, k):
            r = _pearson(data[i], data[j])
            if r is None and i < j:  # a null diagonal only repeats its row's pairs
                nulls.append(f"{vectors[i].measure}/{vectors[j].measure}")
            matrix[i][j] = r
            matrix[j][i] = r
    if nulls:
        warn(
            f"commgraph: warning: zero variance in {len(nulls)} correlation pairs, reported as null"
            f" (first: {nulls[0]})"
        )
    return matrix


# ---------------------------------------------------------------- exports


def _node_rows(g: Graph, partition: Partition | None, scores):
    for v in range(g.node_count):
        rec = g.records[v]
        row = {"label": rec.label, "kind": rec.kind, "location": rec.location, "score": rec.external_score}
        if partition is not None:
            row["community"] = partition.assignment[v]
        if scores:
            for vec in scores:
                row[vec.measure] = vec.scores[v]
        yield v, row


def _xml_attr(text: str) -> str:
    """`text` escaped as ElementTree escapes an attribute value."""
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
        .replace("\r", "&#13;").replace("\n", "&#10;").replace("\t", "&#09;")
    )


def _xml_block(lines: list, indent: str, tag: str, children: list) -> None:
    """Append `<tag>` holding `children`, or `<tag />` without any, as ElementTree indents them."""
    if children:
        lines += [f"{indent}<{tag}>", *children, f"{indent}</{tag}>"]
    else:
        lines.append(f"{indent}<{tag} />")


def export_gexf(g: Graph, partition: Partition | None = None, scores=None) -> str:
    """GEXF 1.2 text, written line by line in the bytes that ElementTree's `indent` and `tostring` give."""
    attrs = [("kind", "string"), ("location", "string")]
    if partition is not None:
        attrs.append(("community", "long"))
    if scores:
        attrs += [(vec.measure, "double") for vec in scores]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<gexf xmlns="{GEXF_NS}" version="1.2">',
        '  <graph mode="static" defaultedgetype="undirected">',
        '    <attributes class="node">',
        *(f'      <attribute id="{i}" title="{name}" type="{kind}" />' for i, (name, kind) in enumerate(attrs)),
        "    </attributes>",
    ]
    nodes: list[str] = []
    for v, row in _node_rows(g, partition, scores):
        nodes.append(f'      <node id="{v}" label="{_xml_attr(row["label"])}">')
        values = []
        for i, (name, _) in enumerate(attrs):
            value = row.get(name)
            if value is not None:  # str of a float is its repr
                values.append(f'          <attvalue for="{i}" value="{_xml_attr(str(value))}" />')
        _xml_block(nodes, "        ", "attvalues", values)
        nodes.append("      </node>")
    _xml_block(lines, "    ", "nodes", nodes)
    edges = [
        f'      <edge id="{i}" source="{u}" target="{v}" weight="{weight_text(w)}" />'
        for i, (u, v, w) in enumerate(g.edges())
    ]
    _xml_block(lines, "    ", "edges", edges)
    lines += ["  </graph>", "</gexf>"]
    return "\n".join(lines) + "\n"


def export_dot(g: Graph, partition: Partition | None = None, scores=None) -> str:
    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph collaboration {"]
    if partition is not None:
        lines.append("  node [style=filled, colorscheme=set312];")
    for v in range(g.node_count):
        attrs = []
        if partition is not None:
            attrs.append(f"fillcolor={partition.assignment[v] % 12 + 1}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {quote(g.labels[v])}{suffix};")
    for u, v, w in g.edges():
        weight = f" [weight={weight_text(w)}]" if w != 1.0 else ""
        lines.append(f"  {quote(g.labels[u])} -- {quote(g.labels[v])}{weight};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graph_json(g: Graph, partition: Partition | None = None, scores=None) -> str:
    nodes = [row for _, row in _node_rows(g, partition, scores)]
    edges = [
        {"source": g.labels[u], "target": g.labels[v], "weight": w} for u, v, w in g.edges()
    ]
    return json.dumps({"nodes": nodes, "edges": edges}, indent=2, sort_keys=True, allow_nan=False) + "\n"


def export_graph(g: Graph, partition: Partition | None = None, scores=None, fmt: str = "gexf") -> str:
    """`g` in `fmt`, one of EXPORT_FORMATS (the CLI parser accepts no other)."""
    if fmt == "gexf":
        return export_gexf(g, partition, scores)
    if fmt == "dot":
        return export_dot(g, partition, scores)
    return export_graph_json(g, partition, scores)


# --------------------------------------------------------------- pipeline


class AnalysisReport(NamedTuple):
    """What `run_pipeline` computed; each field of a stage it did not run is None."""

    graph: Graph
    cleaning: CleaningLog
    vectors: dict[str, CentralityVector] | None  # "centralities"
    dendrogram: Dendrogram | None  # "louvain"
    gn_trace: GNTrace | None  # "gn"
    metrics: MetricsReport | None  # "report", with the three fields below
    correlation: list[list[float | None]] | None
    top_k: dict[str, list[tuple[str, float]]] | None
    input_digest: str | None
    flags: dict


def _digest(paths) -> str:
    outer = hashlib.sha256()
    for p in paths:
        if p is None:
            outer.update(b"\x00absent\x00")
        else:
            outer.update(hashlib.sha256(Path(p).read_bytes()).digest())
    return outer.hexdigest()


def run_pipeline(
    edge_path,
    node_path=None,
    alias_path=None,
    *,
    stages,
    weighted: bool = False,
    spearman: bool = False,
    top_k: int = 5,
    damping: float = 0.85,
    seed: int | None = None,
) -> AnalysisReport:
    """Ingest, then run only the named `stages`; `write_outputs` writes the result.

    The stages are "centralities", "louvain", "gn" (Girvan-Newman) and
    "report" (global metrics, correlation, top-k and the input digest; it
    needs the first two). They run in one fixed order, whatever the order
    given. Once ingest is done, rejected edge rows and unknown node kinds
    go to stderr, one warning line each; then a graph too small for the
    stages is refused before any of them runs (DegenerateGraphError or
    UndefinedModularityError), and the stages do not check again. Last,
    when the centralities are asked for, one line names the isolated nodes,
    whose closeness is 0; the stages themselves write no warning but the
    correlation's.
    Metrics and centralities read hop distances only; community detection
    reads every weight as 1 unless `weighted`, and when it is the only work
    the report's graph is that unit-weight copy. `top_k` (at least 1) and
    `damping` (in (0, 1)) are checked by the CLI parser, before any input is read.

    The centralities need the all-pairs sweep, which runs first, through
    `graph.sweep_beside`; its `PathSweep` is passed to the global metrics
    and the centralities. PageRank, and Louvain when it is asked for, run
    as more tasks of the sweep's one round, so they use a CPU that the
    sweep's last blocks leave idle. An error of either is raised from the
    sweep with its own type and text, so stderr and the exit code are those
    of a run in one process.
    """
    if not set(stages) <= set(STAGES) or "report" in stages and not {"centralities", "louvain"} <= set(stages):
        raise ValueError(f"stages {tuple(stages)}: each one of {STAGES}, and 'report' needs the first two")
    loaded, cleaning = load_dataset(edge_path, node_path, alias_path)
    if cleaning.rows_rejected:
        line_no, reason = cleaning.rows_rejected[0]
        warn(
            f"commgraph: warning: {edge_path}: {len(cleaning.rows_rejected)} rows rejected"
            f" (first: line {line_no}: {reason})"
        )
    if cleaning.warnings:
        warn(
            f"commgraph: warning: {node_path}: {len(cleaning.warnings)} cleaning warnings"
            f" (first: {cleaning.warnings[0]})"
        )
    reporting = "report" in stages
    detecting = "louvain" in stages or "gn" in stages
    # in the order the stages run, so the refusal names the first stage that would fail
    if reporting and loaded.node_count == 0:
        raise DegenerateGraphError("metrics are undefined on an empty graph")
    if "centralities" in stages and loaded.node_count < 2:
        raise DegenerateGraphError("normalized degree needs at least 2 nodes")
    if detecting and loaded.edge_count == 0:
        raise UndefinedModularityError("modularity is undefined with zero total edge weight")
    isolated = [v for v in range(loaded.node_count) if not loaded.degree(v)] if "centralities" in stages else []
    if isolated:  # their closeness is 0
        warn(
            f"commgraph: warning: closeness of {len(isolated)} isolated nodes reported as 0"
            f" (first: {loaded.labels[isolated[0]]!r})"
        )
    communities = (loaded if weighted else loaded.unweighted()) if detecting else None
    if detecting and set(stages) <= {"louvain", "gn"}:
        loaded = communities  # the output reads labels only; let the weighted graph go before Louvain

    metrics = vectors = None
    if "centralities" in stages:
        tasks = [functools.partial(pagerank, loaded, damping=damping)]
        if "louvain" in stages:
            tasks.append(functools.partial(louvain, communities))
        sweep, (ranks, *beside) = sweep_beside(loaded.neighbor_ids, tasks)
        metrics = global_metrics(loaded, sweep) if reporting else None
        vectors = all_centralities(loaded, sweep, ranks)
        dendrogram = beside[0] if beside else None
    else:
        dendrogram = louvain(communities) if "louvain" in stages else None
    gn_trace = girvan_newman(communities) if "gn" in stages else None
    correlation = pearson_correlation_matrix([vectors[m] for m in MEASURES], spearman) if reporting else None
    rankings = {m: rank_top_k(vectors[m], top_k, loaded) for m in MEASURES} if reporting else None

    return AnalysisReport(
        graph=loaded,
        cleaning=cleaning,
        vectors=vectors,
        dendrogram=dendrogram,
        gn_trace=gn_trace,
        metrics=metrics,
        correlation=correlation,
        top_k=rankings,
        input_digest=_digest([edge_path, node_path, alias_path]) if reporting else None,
        flags={
            "weighted": weighted,
            "validate_gn": "gn" in stages,
            "spearman": spearman,
            "top_k": top_k,
            "damping": damping,
            "seed": seed,
        },
    )


def report_to_json(report: AnalysisReport) -> str:
    g = report.graph
    labels = g.labels
    table = [
        {"label": labels[v], **{m: report.vectors[m].scores[v] for m in MEASURES}}
        for v in g.label_order
    ]
    partition = report.dendrogram.final_partition
    payload = {
        "metrics": report.metrics._asdict(),
        "centrality": {
            "table": table,
            "top_k": {m: [[lab, s] for lab, s in report.top_k[m]] for m in MEASURES},
        },
        "communities": {
            "count": partition.community_count,
            "louvain_q": report.dendrogram.final_q,
            "q_per_level": list(report.dendrogram.q_per_level),
            "gn_best_q": report.gn_trace.best_q if report.gn_trace is not None else None,
            "assignment": {labels[v]: partition.assignment[v] for v in range(g.node_count)},
        },
        "correlation": {
            "measures": list(MEASURES),
            "method": "spearman" if report.flags["spearman"] else "pearson",
            "matrix": report.correlation,
        },
        "cleaning": vars(report.cleaning),
        "meta": {
            "tool_version": __version__,
            "input_digest": report.input_digest,
            "flags": report.flags,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_outputs(report: AnalysisReport, out_dir, exports=()) -> None:
    """Write the report bundle into `out_dir`, with the graph in each of the `exports` formats."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    g = report.graph
    partition = report.dendrogram.final_partition

    def emit(name: str, text: str):
        (out / name).write_text(text, encoding="utf-8")

    emit("report.json", report_to_json(report))
    emit("centrality.csv", centrality_table_csv(g, report.vectors))
    emit("communities.csv", partition_to_csv(g, partition))
    if report.gn_trace is not None:
        emit("gn_trace.csv", gn_trace_to_csv(g.labels, report.gn_trace))
    score_list = [report.vectors[m] for m in MEASURES]
    for fmt in exports:
        emit(f"graph.{fmt}", export_graph(g, partition, score_list, fmt))
