from __future__ import annotations

import math
import random

import pytest

from commgraph.errors import GraphBuildError
from commgraph.graph import (
    Memo,
    NodeRecord,
    Partition,
    collapse_edges,
    components,
    left_sum,
    shortest_paths,
)
from conftest import make_graph
from oracles import all_simple_paths, floyd_warshall, random_graph

INF = math.inf


def records(*labels):
    return [NodeRecord(label=lab) for lab in labels]


def test_left_sum_folds_left_to_right_without_compensation():
    # compensated summation (math.fsum, and sum() from Python 3.12) gives 2.0 here
    values = [1.0, 1e100, 1.0, -1e100]
    assert math.fsum(values) == 2.0
    assert left_sum(values) == 0.0
    assert left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


def test_left_sum_starts_at_int_zero_like_sum():
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert type(left_sum([1, 2])) is int
    assert left_sum([-0.0]) == 0.0 and math.copysign(1, left_sum([-0.0])) == 1


def test_memo_computes_once_per_key_and_stores_no_failure():
    calls = []

    def square(x):
        calls.append(x)
        if x < 0:
            raise KeyError(x)
        return x * x

    memo = Memo(square)
    assert [memo[3], memo[3], memo[4]] == [9, 9, 16]
    assert calls == [3, 4]
    with pytest.raises(KeyError):
        memo[-1]
    assert -1 not in memo


def test_duplicate_edges_collapse_by_summing_weights():
    g, duplicates, self_loops = collapse_edges(records("A", "B", "C"), [(0, 1, None), (1, 2, None), (1, 0, None)])
    assert g.edge_count == 2
    assert (duplicates, self_loops) == (1, 0)
    assert dict(g.adjacency[0])[1] == 2.0  # A-B seen twice at default weight 1.0


def test_table_scale_graph_has_exact_counts():
    n = 183
    edges = [(i, i + 1, None) for i in range(n - 1)]
    edges += [(i, i + 2, None) for i in range(320 - len(edges))]
    g, duplicates, self_loops = collapse_edges(records(*[f"u{i}" for i in range(n)]), edges)
    assert g.node_count == 183
    assert g.edge_count == 320
    assert (duplicates, self_loops) == (0, 0)


def test_self_loops_dropped_with_count():
    g, duplicates, self_loops = collapse_edges(records("A"), [(0, 0, None)])
    assert g.edge_count == 0
    assert (duplicates, self_loops) == (0, 1)


def test_collapsed_weight_overflow_rejected_naming_the_edge():
    with pytest.raises(GraphBuildError, match=r"^edge 3: collapsed weight of 'B' and 'A' overflows$") as exc:
        collapse_edges(records("A", "B"), [(0, 1, 1e308), (0, 0, 1e308), (1, 0, 1e308)])
    assert exc.value.edge == 3


def test_adjacency_is_symmetric_and_sorted():
    g = make_graph(5, [(3, 1), (4, 0), (2, 0), (1, 0)])
    for u, nbrs in enumerate(g.adjacency):
        assert list(nbrs) == sorted(nbrs)
        for v, w in nbrs:
            assert (u, w) in g.adjacency[v]


def test_handshake_identity_on_random_graphs():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng)
        assert sum(g.degree(v) for v in range(g.node_count)) == 2 * g.edge_count


def test_unweighted_skeleton_keeps_structure():
    g, _, _ = collapse_edges(records("A", "B"), [(0, 1, 3.5)])
    skel = g.unweighted()
    assert skel.edge_count == 1
    assert list(skel.edges()) == [(0, 1, 1.0)]
    assert skel.labels == g.labels


def test_labels_built_once():
    g, _, _ = collapse_edges(records("B", "A"), [(1, 0, None)])
    assert g.labels == ("B", "A")
    assert g.labels is g.labels


def test_bfs_path_graph():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert shortest_paths(g.neighbor_ids, 0)[1] == [0, 1, 2]


def test_bfs_triangle():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert shortest_paths(g.neighbor_ids, 1)[1] == [1, 0, 1]


def test_bfs_unreachable_sentinel():
    g = make_graph(4, [(0, 1), (2, 3)])
    assert shortest_paths(g.neighbor_ids, 0)[1] == [0, 1, INF, INF]


def test_bfs_matches_simple_path_minimum():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng)
        for s in range(g.node_count):
            dist = shortest_paths(g.neighbor_ids, s)[1]
            for t in range(g.node_count):
                paths = all_simple_paths(g, s, t)
                expected = min((len(p) - 1 for p in paths), default=INF)
                if s == t:
                    expected = 0
                assert dist[t] == expected


def test_bfs_triangle_property():
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(rng)
        dist = shortest_paths(g.neighbor_ids, 0)[1]
        for u, v, _ in g.edges():
            assert dist[v] <= dist[u] + 1
            assert dist[u] <= dist[v] + 1


def test_shortest_paths_matches_oracles():
    rng = random.Random(19)
    for _ in range(60):
        g = random_graph(rng)
        n = g.node_count
        expected_dist = floyd_warshall(g)
        for s in range(n):
            order, dist, sigma, preds = shortest_paths(g.neighbor_ids, s)
            assert dist == expected_dist[s]
            assert sorted(order) == [t for t in range(n) if dist[t] < INF]
            assert [dist[t] for t in order] == sorted(dist[t] for t in order)
            position = {u: i for i, u in enumerate(order)}
            for t in range(n):
                shortest = [p for p in all_simple_paths(g, s, t) if len(p) - 1 == dist[t]]
                assert sigma[t] == len(shortest)
                assert set(preds[t]) == {p[-2] for p in shortest if len(p) > 1}
                assert preds[t] == sorted(preds[t], key=position.get)  # discovery order


def test_components_triangle():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert components(g.neighbor_ids).community_count == 1


def test_components_two_triangles():
    g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    p = components(g.neighbor_ids)
    assert p.community_count == 2
    assert p.assignment == (0, 0, 0, 1, 1, 1)


def test_components_edgeless_graph():
    g = make_graph(4, [])
    p = components(g.neighbor_ids)
    assert p.community_count == 4
    assert p.assignment == (0, 1, 2, 3)


def test_single_component_iff_no_sentinel():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng)
        p = components(g.neighbor_ids)
        reachable_all = all(d < INF for d in shortest_paths(g.neighbor_ids, 0)[1])
        assert (p.community_count == 1) == reachable_all


def test_partition_canonical_relabeling():
    p = Partition.from_assignment([2, 2, 0, 1, 0])
    assert p.assignment == (0, 0, 1, 2, 1)
    assert p.community_count == 3
    assert Partition.from_assignment(p.assignment) == p


def test_partition_rejects_gappy_ids():
    with pytest.raises(ValueError):
        Partition((0, 2), 3)


def test_partition_rejects_non_canonical_ids():
    # contiguous, but community 1 holds the smallest node
    with pytest.raises(ValueError, match="first appearance"):
        Partition((1, 0), 2)
