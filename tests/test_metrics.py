from __future__ import annotations

import math
import random

import pytest

from commgraph.graph import NodeRecord, collapse_edges
from commgraph.metrics import global_metrics, local_clustering
from conftest import make_graph
from oracles import floyd_warshall, random_graph

INF = math.inf


def test_local_clustering_triangle(triangle):
    assert all(local_clustering(triangle, v) == 1.0 for v in range(3))


def test_local_clustering_star_center(star4):
    assert local_clustering(star4, 0) == 0.0


def test_local_clustering_one_of_three_pairs():
    # v=0 adjacent to 1,2,3; only (1,2) linked
    g = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert local_clustering(g, 0) == pytest.approx(1 / 3)


def test_local_clustering_degree_below_two():
    g = make_graph(2, [(0, 1)])
    assert local_clustering(g, 0) == 0.0


def test_table_scale_degree_and_density():
    recs = [NodeRecord(label=f"u{i}") for i in range(183)]
    edges = [(i, i + 1, None) for i in range(182)]
    edges += [(i, i + 2, None) for i in range(320 - 182)]
    g, _, _ = collapse_edges(recs, edges)
    rep = global_metrics(g)
    assert rep.average_degree == pytest.approx(3.4973, abs=1e-4)
    assert round(rep.density, 3) == 0.019


def test_four_cycle_metrics():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rep = global_metrics(g)
    assert rep.average_degree == 2.0
    assert rep.density == pytest.approx(2 / 3)
    assert rep.average_path_length == pytest.approx(8 / 6)
    assert rep.diameter == 2
    assert rep.average_clustering == 0.0
    assert rep.is_connected


def test_triangle_metrics(triangle):
    rep = global_metrics(triangle)
    assert rep.average_path_length == 1.0
    assert rep.diameter == 1
    assert rep.average_clustering == 1.0
    assert rep.is_connected


def test_complete_graph_extremes():
    for n in (3, 5, 7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = make_graph(n, pairs)
        rep = global_metrics(g)
        assert rep.density == 1.0
        assert rep.average_path_length == 1.0
        assert rep.diameter == 1
        assert rep.average_clustering == 1.0


def test_disconnected_graph_uses_reachable_pairs():
    g = make_graph(4, [(0, 1), (2, 3)])
    rep = global_metrics(g)
    assert rep.average_path_length == 1.0
    assert rep.diameter == 1
    assert not rep.is_connected
    assert rep.component_count == 2


def test_single_node_graph():
    g = make_graph(1, [])
    rep = global_metrics(g)
    assert rep.density == 0.0
    assert rep.average_path_length == 0.0
    assert rep.diameter == 0
    assert rep.is_connected


def test_path_stats_match_floyd_warshall():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng)
        d = floyd_warshall(g)
        finite = [
            d[u][v]
            for u in range(g.node_count)
            for v in range(u + 1, g.node_count)
            if d[u][v] < INF
        ]
        rep = global_metrics(g)
        if finite:
            assert rep.average_path_length == sum(finite) / len(finite)
            assert rep.diameter == max(finite)
        else:
            assert rep.average_path_length == 0.0
            assert rep.diameter == 0


def test_adding_edge_never_increases_path_stats():
    rng = random.Random(29)
    trials = 0
    while trials < 30:
        g = random_graph(rng)
        absent = [
            (u, v)
            for u in range(g.node_count)
            for v in range(u + 1, g.node_count)
            if v not in g.neighbor_ids[u]
        ]
        if not absent or global_metrics(g).component_count != 1:
            continue
        trials += 1
        u, v = rng.choice(absent)
        g2, _, _ = collapse_edges(g.records, [*g.edges(), (u, v, 1.0)])
        before, after = global_metrics(g), global_metrics(g2)
        assert after.average_path_length <= before.average_path_length
        assert after.diameter <= before.diameter
