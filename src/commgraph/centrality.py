"""The five node-centrality measures and their ranking/serialization helpers.

The hop-distance consumers (betweenness, closeness, harmonic, and the path
metrics in `metrics`) share one BFS per source: `graph.sweep_beside` runs
`graph.shortest_paths` from every node once and returns what all four need
as a `PathSweep`. Each consumer is given it and only normalizes its part.
The sweep deals blocks of `graph.SWEEP_BLOCK` consecutive sources to one
forked process per usable CPU, which sends each block back whole. The
calling process alone adds the blocks' dependency vectors, in ascending
source order, so the scores are the same bits whatever the process count.

Conventions (all for undirected unweighted traversal, all normalized):
    degree       deg(v)/(N-1)
    betweenness  Brandes accumulation over unordered pairs, divided by
                 (N-1)(N-2)/2
    closeness    Wasserman-Faust component scaling
                 ((n_c-1)/sum(d)) * ((n_c-1)/(N-1))
    harmonic     sum(1/d)/(N-1)
    pagerank     damped random-walk fixed point, summing to 1
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConvergenceError
from .graph import Graph, PathSweep, left_sum
from .ingest import csv_text

MEASURES = ("degree", "betweenness", "closeness", "harmonic", "pagerank")

# PageRank stops once the L1 change between iterates falls below PAGERANK_TOL
PAGERANK_TOL = 1e-9
PAGERANK_MAX_ITER = 200


class CentralityVector(NamedTuple):
    measure: str
    scores: tuple[float, ...]


def degree_centrality(g: Graph) -> CentralityVector:
    """deg(v)/(N-1) on a graph of at least 2 nodes."""
    n = g.node_count
    return CentralityVector("degree", tuple(g.degree(v) / (n - 1) for v in range(n)))


def betweenness_centrality(g: Graph, sweep: PathSweep) -> CentralityVector:
    """Brandes single-source accumulation; never enumerates paths."""
    n = g.node_count
    denom = (n - 1) * (n - 2) / 2
    if denom <= 0:
        return CentralityVector("betweenness", (0.0,) * n)
    # each unordered pair is counted from both endpoints
    return CentralityVector("betweenness", tuple(x / 2 / denom for x in sweep.dependency))


def closeness_centrality(g: Graph, sweep: PathSweep) -> CentralityVector:
    """Wasserman-Faust closeness; a node that reaches no other scores 0.

    It writes nothing: `report.run_pipeline` warns of the isolated nodes
    before the centralities run.
    """
    n = g.node_count
    pairs = zip(sweep.reach, sweep.distance_totals)
    return CentralityVector("closeness", tuple((r / t) * (r / (n - 1)) if t else 0.0 for r, t in pairs))


def harmonic_centrality(g: Graph, sweep: PathSweep) -> CentralityVector:
    n = g.node_count
    return CentralityVector("harmonic", tuple(total / (n - 1) if n > 1 else total for total in sweep.harmonic))


def pagerank(g: Graph, damping: float = 0.85) -> CentralityVector:
    """Damped random-walk fixed point, undirected edges as reciprocal links.

    Scores solve PR(v) = (1-d)/N + d * sum(PR(u)/deg(u)) and sum to 1;
    isolated nodes redistribute their mass uniformly. `damping` lies in
    (0, 1); the CLI parser checks it.
    """
    n = g.node_count
    degree = [g.degree(v) for v in range(n)]
    ranks = [1 / n] * n
    base = (1 - damping) / n
    residual = math.inf
    for _ in range(PAGERANK_MAX_ITER):
        dangling = left_sum(ranks[v] for v in range(n) if degree[v] == 0)
        spread = damping * dangling / n
        nxt = [
            base + spread + damping * left_sum([ranks[u] / degree[u] for u in nbrs])
            for nbrs in g.neighbor_ids
        ]
        residual = left_sum(abs(a - b) for a, b in zip(nxt, ranks))
        ranks = nxt
        if residual < PAGERANK_TOL:
            return CentralityVector("pagerank", tuple(ranks))
    raise ConvergenceError(
        f"pagerank did not reach tol={PAGERANK_TOL} within {PAGERANK_MAX_ITER} iterations", residual
    )


def rank_top_k(vec: CentralityVector, k: int, g: Graph) -> list[tuple[str, float]]:
    """Top-k (label, score) of `g`'s nodes, descending score, ties in `g.label_order`; k is at least 1."""
    order = sorted(g.label_order, key=lambda v: -vec.scores[v])  # a stable sort keeps label order on ties
    return [(g.labels[v], vec.scores[v]) for v in order[:k]]


def all_centralities(g: Graph, sweep: PathSweep, ranks: CentralityVector) -> dict[str, CentralityVector]:
    """All five normalized measures, keyed in canonical MEASURES order.

    `sweep` is `g`'s all-pairs sweep and `ranks` PageRank's vector:
    `run_pipeline` gets both from one `sweep_beside`, with `pagerank` run
    beside the sweep.
    """
    return {
        "degree": degree_centrality(g),
        "betweenness": betweenness_centrality(g, sweep),
        "closeness": closeness_centrality(g, sweep),
        "harmonic": harmonic_centrality(g, sweep),
        "pagerank": ranks,
    }


def centrality_table_csv(g: Graph, vectors: dict[str, CentralityVector]) -> str:
    """Per-node CSV, 6 significant digits, rows sorted by label."""
    return csv_text(
        ["label", *MEASURES],
        ([g.labels[v]] + [format(vectors[m].scores[v], ".6g") for m in MEASURES] for v in g.label_order),
    )
