from __future__ import annotations

import hashlib
import math

import pytest

from commgraph.community import partition_to_csv
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


@pytest.mark.parametrize("cliques, clique_size", [(2, 5), (4, 3), (34, 3)])
def test_node_ids_are_in_label_order(cliques, clique_size):
    # 10, 12 and 102 nodes: the labels are zero-padded, so they sort as the ids do
    g, _ = gen_ring_of_cliques(cliques, clique_size)
    assert list(g.labels) == sorted(g.labels, key=lambda label: (label.casefold(), label))


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


# sha256 of edges_to_csv and of partition_to_csv: pins the generated bytes across versions
_PLANTED_PARTITION = "7a4912b8c505f80c4e39371e92b22dd81e0d66d990f6ff44aa99036434af4dac"
_GENERATED_DIGESTS = {
    "ring_4x5": (
        lambda: gen_ring_of_cliques(4, 5),
        "d976d1383bd17b7e0e38f6e84f8ff0c2283fb1cc26dac0452c03a7a12191be79",
        "bf48ae51e0db99b38864b55c404991dd0d8ae484ea79b2fd3ed59ec85d8b9d2e",
    ),
    "planted_seed1": (
        lambda: gen_planted_partition(4, 32, 0.3, 0.02, seed=1),
        "87bc962f275b7e486af3b722d15d1a8fa8ee393315d4dc3513790fbdd732c4d0",
        _PLANTED_PARTITION,
    ),
    "planted_seed2": (
        lambda: gen_planted_partition(4, 32, 0.3, 0.02, seed=2),
        "6fb3de5dba375e497c68a7de0930487dcb2ad6ef142a95845c6c2470172543a8",
        _PLANTED_PARTITION,
    ),
    "planted_seed3": (
        lambda: gen_planted_partition(4, 32, 0.3, 0.02, seed=3),
        "9d5333b1825a87a15f3f5260ba857e6f6f6db369dd5fb66c2ecd288ad115a264",
        _PLANTED_PARTITION,
    ),
}


@pytest.mark.parametrize("case", _GENERATED_DIGESTS)
def test_generated_bytes_match_pinned_digests(case):
    generate, edges_digest, partition_digest = _GENERATED_DIGESTS[case]
    g, truth = generate()
    assert hashlib.sha256(edges_to_csv(g).encode()).hexdigest() == edges_digest
    assert hashlib.sha256(partition_to_csv(g, truth).encode()).hexdigest() == partition_digest


def test_generated_graphs_satisfy_core_invariants():
    g, _ = gen_planted_partition(3, 8, 0.4, 0.05, seed=7)
    assert sum(g.degree(v) for v in range(g.node_count)) == 2 * g.edge_count
    for u, nbrs in enumerate(g.adjacency):
        for v, w in nbrs:
            assert u != v
            assert (u, w) in g.adjacency[v]

