"""Output checks, run outside the timed region.

Every check compares a program output with the generator's `Truth` or with
a quantity this file recomputes independently; none of them calls into
`commgraph`. A check returns a list of problems, empty when the output is
correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

from gen import Truth

GEXF_NS = "{http://www.gexf.net/1.2draft}"
Q_TOLERANCE = 1e-9
MIN_COLLAB_Q = 0.5  # planted blocks at 90% intra-block weight give Q near 0.88

_DOT_EDGE = re.compile(r'^  "((?:[^"\\]|\\.)*)" -- "((?:[^"\\]|\\.)*)"(?: \[weight=([^\]]+)\])?;$')
_DOT_NODE = re.compile(r'^  "((?:[^"\\]|\\.)*)"(?: \[[^\]]*\])?;$')


def digest_dir(path: Path) -> str:
    """One hash over every file under `path`, names and bytes included."""
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def modularity(truth: Truth, community_of: dict[int, int]) -> float:
    """Q = sum_c [e_c/m - (d_c/2m)^2] over the generator's weighted edges."""
    m = sum(truth.edges.values())
    intra: dict[int, float] = {}
    degree: dict[int, float] = {}
    for (u, v), w in truth.edges.items():
        cu, cv = community_of[u], community_of[v]
        degree[cu] = degree.get(cu, 0.0) + w
        degree[cv] = degree.get(cv, 0.0) + w
        if cu == cv:
            intra[cu] = intra.get(cu, 0.0) + w
    return sum(intra.get(c, 0.0) / m - (d / (2 * m)) ** 2 for c, d in degree.items())


def _compare_edges(truth: Truth, found, where: str) -> list[str]:
    """`found` is an iterable of (label, label, weight) triples."""
    ids = {lab: i for i, lab in enumerate(truth.labels)}
    got: dict[tuple[int, int], float] = {}
    for a, b, w in found:
        if a not in ids or b not in ids:
            return [f"{where}: edge {a!r} -- {b!r} names an unknown node"]
        u, v = ids[a], ids[b]
        key = (u, v) if u < v else (v, u)
        if key in got:
            return [f"{where}: edge {a!r} -- {b!r} listed twice"]
        got[key] = w
    if got != truth.edges:
        missing = len(truth.edges.keys() - got.keys())
        extra = len(got.keys() - truth.edges.keys())
        wrong = sum(1 for k in got.keys() & truth.edges.keys() if got[k] != truth.edges[k])
        return [f"{where}: edges differ ({missing} missing, {extra} extra, {wrong} wrong weights)"]
    return []


def _compare_nodes(truth: Truth, labels: list[str], where: str) -> list[str]:
    if len(labels) != truth.node_count or set(labels) != set(truth.labels):
        return [f"{where}: {len(labels)} nodes, expected the generator's {truth.node_count}"]
    return []


def check_gexf(truth: Truth, path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name}: not parseable XML ({exc})"]
    graph = root.find(f"{GEXF_NS}graph")
    if graph is None:
        return [f"{path.name}: no graph element"]
    label_of = {n.get("id"): n.get("label") for n in graph.iter(f"{GEXF_NS}node")}
    try:
        edges = [
            (label_of.get(e.get("source")), label_of.get(e.get("target")), float(e.get("weight", "1")))
            for e in graph.iter(f"{GEXF_NS}edge")
        ]
    except ValueError as exc:
        return [f"{path.name}: an edge weight is not a number ({exc})"]
    return _compare_nodes(truth, list(label_of.values()), path.name) + _compare_edges(truth, edges, path.name)


def check_graph_json(truth: Truth, path: Path) -> list[str]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        labels = [n["label"] for n in payload["nodes"]]
        edges = [(e["source"], e["target"], float(e["weight"])) for e in payload["edges"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: not a graph JSON document ({exc!r})"]
    return _compare_nodes(truth, labels, path.name) + _compare_edges(truth, edges, path.name)


def _dot_unquote(s: str) -> str:
    return re.sub(r"\\(.)", r"\1", s)


def check_dot(truth: Truth, path: Path) -> list[str]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if not lines or lines[0] != "graph collaboration {" or lines[-1] != "}":
        return [f"{path.name}: not an undirected DOT graph"]
    labels, edges = [], []
    for line in lines[1:-1]:
        if m := _DOT_EDGE.match(line):
            try:
                weight = float(m[3] or "1")
            except ValueError:
                return [f"{path.name}: edge weight in {line!r} is not a number"]
            edges.append((_dot_unquote(m[1]), _dot_unquote(m[2]), weight))
        elif m := _DOT_NODE.match(line):
            labels.append(_dot_unquote(m[1]))
        elif not line.startswith("  node ["):
            return [f"{path.name}: unexpected line {line!r}"]
    return _compare_nodes(truth, labels, path.name) + _compare_edges(truth, edges, path.name)


GRAPH_CHECKS = {"gexf": check_gexf, "dot": check_dot, "json": check_graph_json}


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _partition_problems(truth: Truth, assignment: dict[str, int], where: str) -> tuple[list[str], dict[int, int]]:
    ids = {lab: i for i, lab in enumerate(truth.labels)}
    if set(assignment) != set(ids):
        return [f"{where}: assignment does not cover exactly the generator's nodes"], {}
    return [], {ids[lab]: c for lab, c in assignment.items()}


def check_report_dir(truth: Truth, out: Path, gn: bool, exports=()) -> list[str]:
    """An `analyze --out` bundle: report, tables, GN trace and graph exports."""
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        counts = (report["metrics"]["node_count"], report["metrics"]["edge_count"])
        assignment = dict(report["communities"]["assignment"])
        louvain_q = float(report["communities"]["louvain_q"])
        table_rows = _read_csv(out / "centrality.csv")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"report bundle unreadable ({exc!r})"]
    problems = []
    if counts != (truth.node_count, truth.edge_count):
        problems.append(f"report counts {counts[0]}/{counts[1]}, generator {truth.node_count}/{truth.edge_count}")
    if len(table_rows) != truth.node_count + 1:
        problems.append(f"centrality.csv has {len(table_rows) - 1} rows, expected {truth.node_count}")
    found, community_of = _partition_problems(truth, assignment, "report.json")
    problems += found
    if community_of:
        q = modularity(truth, community_of)
        if abs(q - louvain_q) > Q_TOLERANCE:
            problems.append(f"louvain_q {louvain_q!r} but recomputed Q is {q!r}")
    trace_path = out / "gn_trace.csv"
    if gn:
        removals = len(_read_csv(trace_path)) - 1 if trace_path.exists() else -1
        if removals != truth.edge_count:
            problems.append(f"gn_trace.csv has {removals} removals, expected E={truth.edge_count}")
    for fmt in exports:
        problems += GRAPH_CHECKS[fmt](truth, out / f"graph.{fmt}")
    return problems


def check_partition_csv(truth: Truth, path: Path) -> list[str]:
    """A `communities --out` file: every node once, and a good weighted Q."""
    try:
        rows = _read_csv(path)
    except OSError as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if not rows or rows[0] != ["label", "community"]:
        return [f"{path.name}: expected a label,community header"]
    try:
        assignment = {lab: int(c) for lab, c in rows[1:]}
    except ValueError:
        return [f"{path.name}: rows are not label,integer pairs"]
    if len(assignment) != len(rows) - 1:
        return [f"{path.name}: a label is listed twice"]
    problems, community_of = _partition_problems(truth, assignment, path.name)
    if community_of:
        q = modularity(truth, community_of)
        if q < MIN_COLLAB_Q:
            problems.append(f"{path.name}: weighted Q {q:.4f} below {MIN_COLLAB_Q}")
    return problems
