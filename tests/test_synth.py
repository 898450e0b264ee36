from __future__ import annotations

import math

import pytest

from commgraph.ingest import edges_to_csv
from commgraph.synth import gen_planted_partition, gen_ring_of_cliques


def test_ring_of_cliques_counts():
    g, truth = gen_ring_of_cliques(4, 5)
    assert g.node_count == 20
    assert g.edge_count == 44
    assert truth.community_count == 4


def test_ring_of_two_cliques():
    g, _ = gen_ring_of_cliques(2, 3)
    assert g.edge_count == 8  # two triangles plus both ring bridges


def test_ring_parameter_bounds():
    with pytest.raises(ValueError):
        gen_ring_of_cliques(1, 5)
    with pytest.raises(ValueError):
        gen_ring_of_cliques(3, 2)


def test_planted_partition_degenerate_full():
    g, truth = gen_planted_partition(3, 4, 1.0, 0.0, seed=1)
    assert g.edge_count == 3 * 6  # three disjoint K4 blocks
    assert truth.community_count == 3


def test_planted_partition_degenerate_empty():
    g, _ = gen_planted_partition(3, 4, 0.0, 0.0, seed=1)
    assert g.edge_count == 0
    assert g.node_count == 12  # isolates retained


def test_planted_partition_parameter_bounds():
    with pytest.raises(ValueError):
        gen_planted_partition(2, 4, 0.3, 0.5, seed=1)
    with pytest.raises(ValueError):
        gen_planted_partition(0, 4, 0.3, 0.1, seed=1)


def test_planted_partition_intra_count_within_4_sigma():
    g, truth = gen_planted_partition(4, 32, 0.3, 0.01, seed=42)
    intra = sum(
        1 for u, v, _ in g.edges() if truth.assignment[u] == truth.assignment[v]
    )
    pairs = 4 * 32 * 31 // 2
    mean = pairs * 0.3
    sigma = math.sqrt(pairs * 0.3 * 0.7)
    assert abs(intra - mean) <= 4 * sigma


def test_generation_is_byte_identical():
    for generate in (
        lambda: gen_ring_of_cliques(4, 5),
        lambda: gen_planted_partition(4, 10, 0.38, 0.025, seed=42),
    ):
        g1, p1 = generate()
        g2, p2 = generate()
        assert edges_to_csv(g1) == edges_to_csv(g2)
        assert p1 == p2


def test_generated_graphs_satisfy_core_invariants():
    g, _ = gen_planted_partition(3, 8, 0.4, 0.05, seed=7)
    assert sum(g.degree(v) for v in range(g.node_count)) == 2 * g.edge_count
    for u, nbrs in enumerate(g.adjacency):
        for v, w in nbrs:
            assert u != v
            assert (u, w) in g.adjacency[v]

