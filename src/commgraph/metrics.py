"""Global graph attributes: degree, density, path lengths, clustering."""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, left_sum


class MetricsReport(NamedTuple):
    node_count: int
    edge_count: int
    average_degree: float
    density: float
    average_path_length: float
    diameter: int
    average_clustering: float
    is_connected: bool
    component_count: int


def local_clustering(g: Graph, v: int) -> float:
    """Fraction of neighbor pairs of v that are themselves adjacent; 0 if deg < 2."""
    nbrs = g.neighbor_ids[v]
    deg = len(nbrs)
    if deg < 2:
        return 0.0
    nbr_set = set(nbrs)
    links = 0
    for a in nbrs:
        for b in g.neighbor_ids[a]:
            if b in nbr_set and b > a:
                links += 1
    return links / (deg * (deg - 1) / 2)


def global_metrics(g: Graph) -> MetricsReport:
    """The full attribute bundle for a graph with at least one node.

    Path statistics cover unordered reachable pairs only; with no reachable
    pair at all (edgeless or single-node graphs) both the average path length
    and the diameter report 0. They and the component count come from the
    graph's shared `path_sweep`, which the path centralities read too.
    """
    n = g.node_count
    sweep = g.path_sweep
    # the per-source totals count each unordered reachable pair from both ends
    dist_sum = sum(sweep.distance_totals) // 2
    pair_count = sum(sweep.reach) // 2
    clustering_sum = left_sum(local_clustering(g, v) for v in range(n))

    return MetricsReport(
        node_count=n,
        edge_count=g.edge_count,
        average_degree=2 * g.edge_count / n,
        density=2 * g.edge_count / (n * (n - 1)) if n >= 2 else 0.0,
        average_path_length=dist_sum / pair_count if pair_count else 0.0,
        diameter=sweep.diameter,
        average_clustering=clustering_sum / n,
        is_connected=sweep.component_count == 1,
        component_count=sweep.component_count,
    )
