"""Slow references: the program against networkx on the benchmark's own inputs.

Outside `testpaths`, so tier-1 does not collect it; run it with
`python -m pytest tests_slow`. The inputs come from the benchmark's
generators, imported from perfbench, and are read through `load_dataset`
as the benchmark's CLI calls read them. networkx is a test-only
dependency; these tests skip when it is not installed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

# the tier-1 references of the path measures, clustering and PageRank, run again here on the `pair` below
from test_networkx_reference import (  # noqa: E402  (skips without networkx)
    nx,
    replay_girvan_newman,
    test_average_clustering,
    test_betweenness_normalized,
    test_closeness_wasserman_faust,
    test_harmonic_over_n_minus_one,
    test_pagerank,
    test_path_length_and_diameter_over_reachable_pairs,
)
from workloads import WORKLOADS  # noqa: E402

from commgraph.ingest import load_dataset  # noqa: E402


# `perfbench/run.py` at its default --seed 1 makes the input sets 3, 4 and 5
# (seed * INPUTS_PER_SEED + j); each replay takes about 6 s
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_girvan_newman_replays_every_removal_on_the_benchmark_sbm120(tmp_path, seed):
    full_size = WORKLOADS["sbm_analyze_gn"].inputs["sbm120"][0]
    truth = full_size(tmp_path, seed)
    g, _ = load_dataset(truth.files["edges"])
    assert g.node_count == truth.node_count and g.edge_count == truth.edge_count
    replay_girvan_newman(g)


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    """The benchmark's collab2k input (set 3), read as its `export` calls read it, and networkx's copy.

    N 2,000 and E 7,667; the six references take about 34 s on a 2-CPU host.
    """
    full_size = WORKLOADS["collab_export_louvain"].inputs["collab2k"][0]
    truth = full_size(tmp_path_factory.mktemp("collab2k"), 3)
    g, _ = load_dataset(truth.files["edges"], truth.files["nodes"], truth.files["aliases"])
    assert g.node_count == truth.node_count and g.edge_count == truth.edge_count
    ref = nx.Graph()
    ref.add_nodes_from(range(g.node_count))
    ref.add_edges_from((u, v) for u, v, _ in g.edges())
    # several components, so closeness's component scaling and the reachable-pair statistics are tested
    assert nx.number_connected_components(ref) > 1
    return g.unweighted(), ref
