"""Differential tests against networkx at realistic sizes (N of 360 and 600).

The graphs are sparse planted partitions with isolates and several
components, so every path measure meets unreachable pairs. Girvan-Newman is
replayed removal by removal on two planted partitions of N = 80, about 1.5 s
each. networkx is a test-only dependency; these tests skip when it is not
installed.
"""

from __future__ import annotations

import pytest

from commgraph.centrality import betweenness_centrality, closeness_centrality, harmonic_centrality, pagerank
from commgraph.community import girvan_newman, louvain, modularity
from commgraph.metrics import global_metrics
from commgraph.synth import gen_planted_partition
from conftest import communities, sweep_of

nx = pytest.importorskip("networkx")

SPECS = [(6, 60, 0.05, 0.0005, 11), (6, 100, 0.03, 0.0003, 12)]  # blocks, size, p_in, p_out, seed


@pytest.fixture(scope="module", params=SPECS, ids=lambda spec: f"N{spec[0] * spec[1]}")
def pair(request):
    g, _ = gen_planted_partition(*request.param)
    ref = nx.Graph()
    ref.add_nodes_from(range(g.node_count))
    ref.add_edges_from((u, v) for u, v, _ in g.edges())
    return g.unweighted(), ref


def by_node(scores: dict, n: int) -> list[float]:
    return [scores[v] for v in range(n)]


def test_graphs_have_isolates_and_several_components(pair):
    _, ref = pair
    assert nx.number_of_isolates(ref) > 0
    assert nx.number_connected_components(ref) - nx.number_of_isolates(ref) >= 2


def test_betweenness_normalized(pair):
    g, ref = pair
    want = by_node(nx.betweenness_centrality(ref, normalized=True), g.node_count)
    assert list(betweenness_centrality(g, sweep_of(g))) == pytest.approx(want, rel=1e-9, abs=1e-15)


def test_closeness_wasserman_faust(pair):
    g, ref = pair
    want = by_node(nx.closeness_centrality(ref, wf_improved=True), g.node_count)
    assert list(closeness_centrality(g, sweep_of(g))) == pytest.approx(want, rel=1e-12)


def test_harmonic_over_n_minus_one(pair):
    g, ref = pair
    n = g.node_count
    want = [x / (n - 1) for x in by_node(nx.harmonic_centrality(ref), n)]
    assert list(harmonic_centrality(g, sweep_of(g))) == pytest.approx(want, rel=1e-12)


def test_average_clustering(pair):
    g, ref = pair
    assert global_metrics(g, sweep_of(g)).average_clustering == pytest.approx(nx.average_clustering(ref), rel=1e-12)


def test_path_length_and_diameter_over_reachable_pairs(pair):
    g, ref = pair
    lengths = [
        d
        for s, row in nx.all_pairs_shortest_path_length(ref)
        for t, d in row.items()
        if s < t
    ]
    report = global_metrics(g, sweep_of(g))
    assert report.diameter == max(lengths)
    assert report.average_path_length == pytest.approx(sum(lengths) / len(lengths), rel=1e-12)
    assert report.component_count == nx.number_connected_components(ref)



def test_pagerank(pair):
    g, ref = pair
    want = by_node(nx.pagerank(ref, alpha=0.85, tol=1e-12, max_iter=1000), g.node_count)
    # both stop on an L1 residual; ours at tol=1e-9
    assert list(pagerank(g)) == pytest.approx(want, abs=1e-9)


def test_modularity_of_louvain_partition(pair):
    g, ref = pair
    partition = louvain(g).final_partition
    want = nx.community.modularity(ref, communities(partition))
    assert modularity(g, partition) == pytest.approx(want, abs=1e-12)


def replay_girvan_newman(g) -> None:
    """Replay `girvan_newman(g)` on networkx: each removal is its max-betweenness edge, each Q its modularity."""
    ref = nx.Graph()
    ref.add_nodes_from(range(g.node_count))
    ref.add_edges_from((u, v) for u, v, _ in g.edges())
    original = ref.copy()
    trace = girvan_newman(g)
    assert len(trace.removals) == g.edge_count
    want = nx.community.modularity(original, nx.connected_components(ref))
    for (u, v), q in trace.removals:
        scores = nx.edge_betweenness_centrality(ref, normalized=False)
        top = max(scores.values())
        # tied: equal up to networkx's own rounding, far below any gap between distinct scores here
        assert (u, v) == min(tuple(sorted(e)) for e, x in scores.items() if x >= top * (1 - 1e-9))
        ref.remove_edge(u, v)
        if not nx.has_path(ref, u, v):  # only a split changes the components, and so Q
            want = nx.community.modularity(original, nx.connected_components(ref))
        assert q == pytest.approx(want, abs=1e-12)


# Seed 1 at step 164 and seed 2 at steps 132, 147 and 156 hold edges of equal
# betweenness whose float sums differ in the last place; an exact argmax
# removed the larger pair first there.
@pytest.mark.parametrize("seed", [1, 2])
def test_girvan_newman_replays_every_removal(seed):
    replay_girvan_newman(gen_planted_partition(4, 20, 0.25, 0.02, seed)[0])
