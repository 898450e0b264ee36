"""Brute-force reference implementations, independent of the package internals.

Everything here trades speed for obviousness: explicit path enumeration,
dense matrices, pairwise double sums. Intended for graphs of ~7 nodes.
The exceptions are `girvan_newman_full_recompute`, the plain divisive run
that recomputes every edge's betweenness after each removal,
`louvain_reference`, the plain Louvain loop that rebuilds every node's
neighbor-community weights on every visit, `load_dataset_reference`, the
two-stage ingest that lists every row before resolving any label, and
`sweep_all_pairs_reference`, the one-process all-pairs loop; they are the
references for the component-local recompute and the cached sweep in
`commgraph.community`, for the one-pass `commgraph.ingest.load_dataset` and
for the block-folded `commgraph.graph.sweep_beside`.
`parse_alias_csv_reference` walks every alias chain from its start, the
reference for the one-pass resolver of `commgraph.ingest.parse_alias_csv`.
`export_gexf_reference` builds the GEXF as an ElementTree, the reference
for the line-by-line `commgraph.report.export_gexf`.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from commgraph.community import (
    _GAIN_EPS,
    _GN_TIE_REL,
    AggregateGraph,
    Dendrogram,
    GNTrace,
    _modularity_kernel,
    aggregate_graph,
)
from commgraph.errors import IngestError, UndefinedModularityError
from commgraph.graph import (
    Graph,
    NodeRecord,
    Partition,
    PathSweep,
    collapse_edges,
    components,
    left_sum,
)
from commgraph.ingest import (
    _ALIAS,
    _EDGE,
    _MARK,
    _NUL,
    _CONTROL,
    CleaningLog,
    _row_error,
    canonical_label,
    display_label,
    parse_alias_csv,
    parse_node_csv,
)
from commgraph.graph import shortest_paths as bfs_kernel

INF = math.inf


def random_graph(rng: random.Random, max_nodes: int = 7) -> Graph:
    """Seeded random simple graph with 2..max_nodes nodes, any density."""
    n = rng.randint(2, max_nodes)
    records = [NodeRecord(label=f"n{i}") for i in range(n)]
    p = rng.uniform(0.0, 1.0)
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            edges.append((u, v, None))
    g, _, _ = collapse_edges(records, edges)
    return g


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.node_count, g.node_count))
    for u, v, w in g.edges():
        a[u, v] = w
        a[v, u] = w
    return a


def floyd_warshall(g: Graph) -> list[list[float]]:
    """All-pairs hop distances by the classic triple loop."""
    n = g.node_count
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v, _ in g.edges():
        d[u][v] = 1
        d[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def all_simple_paths(g: Graph, s: int, t: int) -> list[list[int]]:
    paths = []

    def extend(path, seen):
        u = path[-1]
        if u == t:
            paths.append(list(path))
            return
        for v in g.neighbor_ids[u]:
            if v not in seen:
                path.append(v)
                seen.add(v)
                extend(path, seen)
                seen.remove(v)
                path.pop()

    extend([s], {s})
    return paths


def shortest_paths(g: Graph, s: int, t: int) -> list[list[int]]:
    paths = all_simple_paths(g, s, t)
    if not paths:
        return []
    best = min(len(p) for p in paths)
    return [p for p in paths if len(p) == best]


def betweenness_by_enumeration(g: Graph) -> list[float]:
    """Normalized node betweenness from explicit shortest-path lists."""
    n = g.node_count
    scores = [0.0] * n
    for s, t in itertools.combinations(range(n), 2):
        paths = shortest_paths(g, s, t)
        if not paths:
            continue
        sigma = len(paths)
        for v in range(n):
            if v in (s, t):
                continue
            through = sum(1 for p in paths if v in p)
            scores[v] += through / sigma
    if n > 2:
        denom = (n - 1) * (n - 2) / 2
        scores = [x / denom for x in scores]
    return scores


def edge_betweenness_by_enumeration(g: Graph) -> dict[tuple[int, int], float]:
    scores = {(u, v): 0.0 for u, v, _ in g.edges()}
    for s, t in itertools.combinations(range(g.node_count), 2):
        paths = shortest_paths(g, s, t)
        if not paths:
            continue
        sigma = len(paths)
        for p in paths:
            for a, b in zip(p, p[1:]):
                key = (a, b) if a < b else (b, a)
                scores[key] += 1 / sigma
    return scores


def closeness_from_distances(g: Graph) -> list[float]:
    n = g.node_count
    d = floyd_warshall(g)
    out = []
    for v in range(n):
        finite = [d[v][u] for u in range(n) if u != v and d[v][u] < INF]
        total = sum(finite)
        if total == 0:
            out.append(0.0)
            continue
        reach = len(finite)  # component size minus one
        out.append((reach / total) * (reach / (n - 1)))
    return out


def sweep_all_pairs_reference(adjacency) -> PathSweep:
    """One BFS and one Brandes back-propagation per source, all in this process.

    Each node's dependency adds every other source's term in ascending source
    order, and each harmonic sum adds reciprocal distances in node-id order:
    the sums whose order fixes the bits the block-folded sweep must match.
    """
    n = len(adjacency)
    reach, totals, harmonic = [0] * n, [0] * n, [0.0] * n
    dependency = [0.0] * n
    diameter = 0
    seen = [False] * n
    component_count = 0
    for s in range(n):
        order, dist, sigma, preds = bfs_kernel(adjacency, s)
        if not seen[s]:
            component_count += 1
            for v in order:
                seen[v] = True
        reach[s] = len(order) - 1
        totals[s] = sum(dist[v] for v in order)
        diameter = max([diameter] + [dist[v] for v in order])
        harmonic[s] = left_sum([0.0] + [1 / d for d in dist if 0 < d < INF])
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] * ((1 + delta[w]) / sigma[w])
        for v in order:
            if v != s:
                dependency[v] += delta[v]
    return PathSweep(tuple(reach), tuple(totals), tuple(harmonic), tuple(dependency), diameter, component_count)


def harmonic_from_distances(g: Graph) -> list[float]:
    n = g.node_count
    d = floyd_warshall(g)
    out = []
    for v in range(n):
        total = sum(1 / d[v][u] for u in range(n) if u != v and d[v][u] < INF)
        out.append(total / (n - 1))
    return out


def pagerank_power_iteration(g: Graph, damping: float = 0.85) -> list[float]:
    """Dense power iteration on the full transition matrix (sum-to-1 form)."""
    n = g.node_count
    m = np.zeros((n, n))
    for u in range(n):
        deg = g.degree(u)
        if deg == 0:
            m[:, u] = 1 / n  # dangling mass spreads uniformly
        else:
            for v in g.neighbor_ids[u]:
                m[v, u] = 1 / deg
    x = np.full(n, 1 / n)
    for _ in range(100_000):
        nxt = (1 - damping) / n + damping * (m @ x)
        if np.abs(nxt - x).sum() < 1e-14:
            x = nxt
            break
        x = nxt
    return x.tolist()


def modularity_pairwise(g: Graph, assignment) -> float:
    """Q as the double sum over all ordered node pairs of [A_ij - k_i k_j / 2m]."""
    a = adjacency_matrix(g)
    k = a.sum(axis=1)
    two_m = k.sum()
    q = 0.0
    n = g.node_count
    for i in range(n):
        for j in range(n):
            if assignment[i] == assignment[j]:
                q += a[i, j] - k[i] * k[j] / two_m
    return q / two_m


def _full_edge_betweenness(adjacency) -> dict[tuple[int, int], float]:
    n = len(adjacency)
    scores: dict[tuple[int, int], float] = {}
    for u in range(n):
        for v in adjacency[u]:
            if u < v:
                scores[(u, v)] = 0.0
    for s in range(n):
        order, _, sigma, preds = bfs_kernel(adjacency, s)
        delta = [0.0] * n
        while order:
            w = order.pop()
            coeff = (1 + delta[w]) / sigma[w]
            for v in preds[w]:
                contribution = sigma[v] * coeff
                key = (v, w) if v < w else (w, v)
                scores[key] += contribution
                delta[v] += contribution
    return {e: x / 2 for e, x in scores.items()}


def girvan_newman_full_recompute(g: Graph) -> GNTrace:
    """Girvan-Newman recomputing betweenness over the whole graph after every removal."""
    original = AggregateGraph.from_graph(g)
    adjacency = [list(nbrs) for nbrs in g.neighbor_ids]
    best_partition = components(adjacency)
    best_q = _modularity_kernel(original, best_partition.assignment)
    removals = []
    edges_left = g.edge_count
    while edges_left:
        scores = _full_edge_betweenness(adjacency)
        top = max(scores.values())
        target = min(e for e, x in scores.items() if x >= top - top * _GN_TIE_REL)
        u, v = target
        adjacency[u].remove(v)
        adjacency[v].remove(u)
        edges_left -= 1
        part = components(adjacency)
        q = _modularity_kernel(original, part.assignment)
        removals.append((target, q))
        if q > best_q:
            best_partition, best_q = part, q
    return GNTrace(tuple(removals), best_partition, best_q)


# Louvain as first written: per-node weighted_degree calls, link sums rebuilt
# on every visit, candidates in sorted order. Float sums fold left to right
# (`left_sum`), which is what `sum()` did on every Python before 3.12.


def _weighted_degree(agg: AggregateGraph, v: int) -> float:
    return left_sum(w for _, w in agg.adjacency[v]) + 2 * agg.self_loops[v]


def _modularity_reference(agg: AggregateGraph, assignment) -> float:
    m = agg.total_weight
    count = max(assignment) + 1 if assignment else 0
    intra = [0.0] * count
    degree = [0.0] * count
    for v in range(agg.node_count):
        c = assignment[v]
        degree[c] += _weighted_degree(agg, v)
        intra[c] += agg.self_loops[v]
        for u, w in agg.adjacency[v]:
            if assignment[u] == c and u < v:
                intra[c] += w
    return left_sum(e / m - (d / (2 * m)) ** 2 for e, d in zip(intra, degree))


def _local_sweep_reference(agg: AggregateGraph, m: float) -> tuple[list[int], bool]:
    n = agg.node_count
    community = list(range(n))
    degree = [_weighted_degree(agg, v) for v in range(n)]
    tot = degree[:]
    moved_any = False
    improved = True
    while improved:
        improved = False
        for v in range(n):
            old = community[v]
            k_v = degree[v]
            link: dict[int, float] = {}
            for u, w in agg.adjacency[v]:
                link[community[u]] = link.get(community[u], 0.0) + w
            tot[old] -= k_v
            stay_gain = link.get(old, 0.0) / m - tot[old] * k_v / (2 * m * m)
            best_c, best_gain = old, 0.0
            for c in sorted(link):
                if c == old:
                    continue
                gain = link[c] / m - tot[c] * k_v / (2 * m * m) - stay_gain
                if gain > best_gain:
                    best_c, best_gain = c, gain
            tot[best_c] += k_v
            if best_c != old:
                community[v] = best_c
                improved = True
                moved_any = True
    return community, moved_any


def louvain_reference(g: Graph) -> Dendrogram:
    """Louvain rebuilding each visited node's neighbor-community weights from scratch."""
    agg = AggregateGraph.from_graph(g)
    m = agg.total_weight
    if m <= 0:
        raise UndefinedModularityError("modularity is undefined with zero total edge weight")
    original = agg
    node_map = list(range(g.node_count))
    levels: list[Partition] = []
    qs: list[float] = []
    while True:
        assignment, moved = _local_sweep_reference(agg, m)
        local = Partition.from_assignment(assignment)
        projected = Partition.from_assignment([local.assignment[node_map[v]] for v in range(g.node_count)])
        q = _modularity_reference(original, projected.assignment)
        if levels and (not moved or q - qs[-1] < _GAIN_EPS):
            break
        levels.append(projected)
        qs.append(q)
        if not moved:
            break
        agg = aggregate_graph(agg, local)
        node_map = [local.assignment[s] for s in node_map]
    return Dendrogram(tuple(levels), tuple(qs))


# Ingest as first written: every row of the edge file is listed, then every
# accepted row becomes a record and then a resolved tuple, and the labels are
# canonicalized again while the graph is assembled. Node and alias files go
# through the package's parsers.


def _read_table_reference(path, spec):
    form, accepts = spec
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8-sig")
        escaped = False
    except UnicodeDecodeError:
        text = raw.decode("utf-8-sig", errors="surrogateescape")
        escaped = True
    text = text.replace("\x00", _NUL)
    marked = escaped or any(c in text for c in _NUL + _CONTROL)
    rows = []
    row_no = 0
    try:
        for row_no, fields in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            if not fields or all(f.strip() == "" for f in fields):
                continue
            error = None
            if marked and (mark := _MARK.search("".join(fields))):
                error = _row_error(mark[0])
            rows.append((row_no, fields, error))
    except csv.Error as exc:
        raise IngestError(f"{path}: line {row_no + 1}: {exc}") from None
    if not rows:
        raise IngestError(f"{path}: empty file, expected a {form} header")
    header_no, header, error = rows[0]
    if error is not None:
        raise IngestError(f"{path}: line {header_no}: {error} in the header")
    header = [h.strip().casefold() for h in header]
    if not accepts(header):
        raise IngestError(f"{path}: expected header {form}, got {','.join(header)!r}")
    return header, rows[1:]


def _parse_edge_csv_reference(path):
    header, rows = _read_table_reference(path, _EDGE)
    width = len(header)
    log = CleaningLog()
    out = []
    for line_no, fields, err in rows:
        if err is not None:
            log.rows_rejected.append((line_no, err))
            continue
        if len(fields) != width:
            log.rows_rejected.append((line_no, f"expected {width} fields, got {len(fields)}"))
            continue
        source, target = display_label(fields[0]), display_label(fields[1])
        if not source:
            log.rows_rejected.append((line_no, "empty source"))
            continue
        if not target:
            log.rows_rejected.append((line_no, "empty target"))
            continue
        weight = None
        if width == 3 and fields[2].strip():
            try:
                weight = float(fields[2])
            except ValueError:
                log.rows_rejected.append((line_no, f"non-numeric weight {fields[2].strip()!r}"))
                continue
            if not math.isfinite(weight) or weight <= 0:
                log.rows_rejected.append((line_no, f"weight must be positive, got {fields[2].strip()!r}"))
                continue
        out.append((source, target, weight, line_no))
    return out, log


def parse_alias_csv_reference(path) -> dict[str, str]:
    """`commgraph.ingest.parse_alias_csv` walking each key's whole chain, testing each step against a list.

    A chain of L links costs O(L**3), so it is for small files only.
    """
    _, rows = _read_table_reference(path, _ALIAS)
    aliases = {}
    variants = {}
    for line_no, fields, err in rows:
        if err is not None:
            raise IngestError(f"{path}: line {line_no}: {err}")
        if len(fields) != 2 or not display_label(fields[0]) or not display_label(fields[1]):
            raise IngestError(f"{path}: line {line_no}: expected variant,canonical")
        key = canonical_label(fields[0])
        target = display_label(fields[1])
        if key in aliases and canonical_label(aliases[key]) != canonical_label(target):
            raise IngestError(f"{path}: line {line_no}: conflicting alias for {fields[0].strip()!r}")
        aliases[key] = target
        variants.setdefault(key, display_label(fields[0]))

    resolved = {}
    for key, target in aliases.items():
        chain = [key]
        nxt = canonical_label(target)
        while nxt in aliases and nxt != chain[-1]:
            if nxt in chain:
                cycle = chain[chain.index(nxt):] + [nxt]
                raise IngestError(f"{path}: alias cycle {' -> '.join(variants[k] for k in cycle)}")
            chain.append(nxt)
            target = aliases[nxt]
            nxt = canonical_label(target)
        resolved[key] = target
    return resolved


def load_dataset_reference(edge_path, node_path=None, alias_path=None) -> tuple[Graph, CleaningLog]:
    """`commgraph.ingest.load_dataset` in two stages, for differential tests."""
    edge_rows, log = _parse_edge_csv_reference(edge_path)
    records = list(parse_node_csv(node_path, log).values()) if node_path is not None else []
    aliases = parse_alias_csv(alias_path) if alias_path is not None else {}

    registry = {}
    for r in records:
        key = canonical_label(r.label)
        if key in aliases and canonical_label(aliases[key]) != key:
            raise IngestError(f"{node_path}: label {r.label!r} is an alias of {aliases[key]!r} in {alias_path}")
        registry[key] = r
    merged = set()

    def resolve(name):
        key = canonical_label(name)
        if key in aliases:
            target = aliases[key]
            merged.add((name, target))
            name, key = display_label(target), canonical_label(target)
        if key not in registry:
            registry[key] = NodeRecord(label=name, kind="other")
        stored = registry[key].label
        if stored != name:
            merged.add((name, stored))
        return stored

    resolved = [(resolve(source), resolve(target), weight) for source, target, weight, _ in edge_rows]
    ordered = tuple(registry[key] for key in sorted(registry))
    index = {canonical_label(r.label): i for i, r in enumerate(ordered)}
    weights = {}
    for row, (source, target, weight) in zip(edge_rows, resolved):
        u, v = index[canonical_label(source)], index[canonical_label(target)]
        if u == v:
            log.self_loops_dropped += 1
            continue
        pair = (min(u, v), max(u, v))
        if pair in weights:
            weights[pair] += 1.0 if weight is None else weight
            log.duplicates_collapsed += 1
            if weights[pair] == INF:
                raise IngestError(
                    f"{edge_path}: line {row[3]}: weight {row[2]!r} makes the collapsed weight of "
                    f"{row[0]!r} and {row[1]!r} overflow"
                )
        else:
            weights[pair] = 1.0 if weight is None else weight
    if weights:  # the weight-ratio bound, reported at the first row of the lightest pair
        lightest = min(weights, key=lambda pair: (weights[pair], pair))
        if max(weights.values()) / weights[lightest] > 2.0**500:
            row = next(
                row for row, (source, target, _) in zip(edge_rows, resolved)
                if sorted([index[canonical_label(source)], index[canonical_label(target)]]) == list(lightest)
            )
            raise IngestError(
                f"{edge_path}: line {row[3]}: the collapsed weight {weights[lightest]!r} of {row[0]!r} and "
                f"{row[1]!r} is more than 2**500 times smaller than the largest, {max(weights.values())!r}"
            )
    nbrs = [[] for _ in ordered]
    for (u, v), w in weights.items():
        nbrs[u].append((v, w))
        nbrs[v].append((u, w))
    log.labels_merged = sorted(merged)
    return Graph(ordered, tuple(tuple(sorted(lst)) for lst in nbrs), len(weights)), log


def export_gexf_reference(g: Graph, partition: Partition | None = None, scores=None) -> str:
    """The GEXF export built as an ElementTree, indented and serialized by the standard library."""
    root = ET.Element("gexf", {"xmlns": "http://www.gexf.net/1.2draft", "version": "1.2"})
    graph_el = ET.SubElement(root, "graph", {"mode": "static", "defaultedgetype": "undirected"})
    attrs = ["kind", "location"]
    types = {"kind": "string", "location": "string", "community": "long"}
    if partition is not None:
        attrs.append("community")
    if scores:
        for measure in scores:
            attrs.append(measure)
            types[measure] = "double"
    attr_el = ET.SubElement(graph_el, "attributes", {"class": "node"})
    ids = {}
    for i, name in enumerate(attrs):
        ids[name] = str(i)
        ET.SubElement(attr_el, "attribute", {"id": str(i), "title": name, "type": types[name]})
    nodes_el = ET.SubElement(graph_el, "nodes")
    for v, rec in enumerate(g.records):
        row = {"kind": rec.kind, "location": rec.location}
        if partition is not None:
            row["community"] = partition.assignment[v]
        for measure, values in (scores or {}).items():
            row[measure] = values[v]
        node_el = ET.SubElement(nodes_el, "node", {"id": str(v), "label": rec.label})
        values_el = ET.SubElement(node_el, "attvalues")
        for name in attrs:
            value = row.get(name)
            if value is None:
                continue
            if isinstance(value, float):
                value = repr(value)
            ET.SubElement(values_el, "attvalue", {"for": ids[name], "value": str(value)})
    edges_el = ET.SubElement(graph_el, "edges")
    for i, (u, v, w) in enumerate(g.edges()):
        weight = format(w, "g") if float(format(w, "g")) == w else repr(w)  # 6 digits only where they are exact
        ET.SubElement(edges_el, "edge", {"id": str(i), "source": str(u), "target": str(v), "weight": weight})
    ET.indent(root)
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(root, encoding="unicode") + "\n"
