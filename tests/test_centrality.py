from __future__ import annotations

import random

import pytest

from commgraph.cli import build_parser
from commgraph.errors import ConvergenceError
from commgraph.centrality import (
    MEASURES,
    all_centralities,
    betweenness_centrality,
    centrality_table_csv,
    closeness_centrality,
    degree_centrality,
    harmonic_centrality,
    pagerank,
    rank_top_k,
)
from commgraph.graph import NodeRecord, collapse_edges
from commgraph.ingest import load_dataset
from conftest import make_graph, pagerank_iterates, sweep_of
from oracles import (
    betweenness_by_enumeration,
    closeness_from_distances,
    harmonic_from_distances,
    pagerank_power_iteration,
    random_graph,
)


def complete_graph(n):
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# ---------------------------------------------------------------- degree


def test_degree_normalization_convention():
    # reference ratios for the N-1 convention at N=183
    expected = {66: 0.36263, 63: 0.346153, 51: 0.280219, 19: 0.104395, 12: 0.065934}
    for raw, value in expected.items():
        assert abs(raw / 182 - value) < 1e-5


def test_degree_triangle_all_one(triangle):
    assert degree_centrality(triangle) == (1.0, 1.0, 1.0)


def test_degree_star_leaves(star4):
    # degrees 3, 1, 1, 1 over N - 1 = 3
    assert degree_centrality(star4) == (1.0, 1 / 3, 1 / 3, 1 / 3)


def test_degree_raw_counts(star4):
    # the normalized score times N - 1 gives back the edge counts
    n = len(star4.labels)
    raw = tuple(round(s * (n - 1)) for s in degree_centrality(star4))
    assert raw == (3, 1, 1, 1)


# ----------------------------------------------------------- betweenness


def test_betweenness_path_middle(path3):
    vec = betweenness_centrality(path3, sweep_of(path3))
    assert vec == (0.0, 1.0, 0.0)


def test_betweenness_triangle_zero(triangle):
    assert betweenness_centrality(triangle, sweep_of(triangle)) == (0.0, 0.0, 0.0)


def test_betweenness_star_center(star4):
    assert betweenness_centrality(star4, sweep_of(star4)) == (1.0, 0.0, 0.0, 0.0)


# ------------------------------------------------------------- closeness


def test_closeness_path(path3):
    # distance sums 3, 2, 3, each node reaching both others
    vec = closeness_centrality(path3, sweep_of(path3))
    assert vec == (pytest.approx(2 / 3), 1.0, pytest.approx(2 / 3))


def test_closeness_complete_graph():
    g = complete_graph(5)
    vec = closeness_centrality(g, sweep_of(g))
    assert all(s == 1.0 for s in vec)


def test_closeness_raw_is_inverse_distance_sum(path3):
    # the normalized score over N - 1 is 1 / (sum of distances)
    n = len(path3.labels)
    raw = tuple(s / (n - 1) for s in closeness_centrality(path3, sweep_of(path3)))
    assert raw == (pytest.approx(1 / 3), 0.5, pytest.approx(1 / 3))


def test_closeness_isolated_node_zero_with_warning(capsys):
    g = make_graph(3, [(0, 1)])
    vec = closeness_centrality(g, sweep_of(g))
    assert vec[2] == 0.0
    # the warning is the pipeline's (test_cli); the function itself writes nothing
    assert capsys.readouterr().err == ""


# -------------------------------------------------------------- harmonic


def test_harmonic_path_end(path3):
    vec = harmonic_centrality(path3, sweep_of(path3))
    assert vec[0] == pytest.approx(1.5 / 2)


def test_harmonic_complete_graph():
    g = complete_graph(4)
    assert all(s == 1.0 for s in harmonic_centrality(g, sweep_of(g)))


def test_harmonic_two_disjoint_edges():
    g = make_graph(4, [(0, 1), (2, 3)])
    assert all(s == pytest.approx(1 / 3) for s in harmonic_centrality(g, sweep_of(g)))


# -------------------------------------------------------------- pagerank


def test_pagerank_cycle_uniform():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    vec = pagerank(g)
    assert all(abs(s - 0.25) < 1e-12 for s in vec)


def test_pagerank_k2_symmetric():
    g = make_graph(2, [(0, 1)])
    assert pagerank(g) == pytest.approx((0.5, 0.5))


def test_pagerank_star_fixed_point(star4):
    vec = pagerank(star4)
    assert vec[0] == pytest.approx(0.47973, abs=1e-4)
    for leaf in (1, 2, 3):
        assert vec[leaf] == pytest.approx(0.17342, abs=1e-4)


def test_pagerank_sums_to_one_every_iteration(star4):
    for scores in pagerank_iterates(star4, 50):
        assert abs(sum(scores) - 1.0) < 1e-9


def test_pagerank_handles_isolated_nodes():
    g = make_graph(3, [(0, 1)])
    vec = pagerank(g)
    assert abs(sum(vec) - 1.0) < 1e-9
    assert all(0 < s < 1 for s in vec)


def test_pagerank_bad_damping_rejected(capsys):
    # pagerank takes its damping as given; the CLI parser rejects one outside (0, 1)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["centrality", "--edges", "edges.csv", "--damping", "1.0"])
    assert exc.value.code == 1
    assert "--damping" in capsys.readouterr().err


def test_pagerank_nonconvergence_carries_residual(star4, monkeypatch):
    import commgraph.centrality as centrality_module

    # the default budget reaches this tolerance; three iterations do not
    monkeypatch.setattr(centrality_module, "PAGERANK_TOL", 1e-6)
    assert pagerank(star4)
    monkeypatch.setattr(centrality_module, "PAGERANK_MAX_ITER", 3)
    with pytest.raises(ConvergenceError, match=r"tol=1e-06 within 3 iterations") as exc:
        pagerank(star4)
    assert exc.value.residual > 1e-6


# ------------------------------------------------------- oracle sweeps


def test_all_measures_match_oracles_on_random_graphs():
    rng = random.Random(101)
    for _ in range(60):
        g = random_graph(rng)
        n = g.node_count
        deg = degree_centrality(g)
        assert deg == tuple(g.degree(v) / (n - 1) for v in range(n))
        sweep = sweep_of(g)
        bet = betweenness_centrality(g, sweep)
        for got, want in zip(bet, betweenness_by_enumeration(g)):
            assert abs(got - want) <= 1e-9
        clo = closeness_centrality(g, sweep)
        for got, want in zip(clo, closeness_from_distances(g)):
            assert abs(got - want) <= 1e-9
        har = harmonic_centrality(g, sweep)
        for got, want in zip(har, harmonic_from_distances(g)):
            assert abs(got - want) <= 1e-9
        pr = pagerank(g)
        for got, want in zip(pr, pagerank_power_iteration(g)):
            assert abs(got - want) <= 1e-9


def test_label_invariance_under_relabeling():
    rng = random.Random(103)
    for _ in range(20):
        g = random_graph(rng)
        n = g.node_count
        perm = list(range(n))
        rng.shuffle(perm)  # perm[old] = new id
        records = [None] * n
        for old, new in enumerate(perm):
            records[new] = NodeRecord(label=f"n{old}")
        g2, _, _ = collapse_edges(records, [(perm[u], perm[v], w) for u, v, w in g.edges()])
        for measure, vec in all_centralities(g, sweep_of(g), pagerank(g)).items():
            vec2 = all_centralities(g2, sweep_of(g2), pagerank(g2))[measure]
            for old in range(n):
                assert vec[old] == pytest.approx(vec2[perm[old]], abs=1e-12)


def test_vertex_transitive_graphs_are_constant():
    cycle6 = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    for g in (cycle6, complete_graph(5)):
        for vec in all_centralities(g, sweep_of(g), pagerank(g)).values():
            assert max(vec) - min(vec) < 1e-12


# ------------------------------------------------------------- rankings


def test_rank_top_k_basic():
    assert rank_top_k((0.3, 0.7), 1, make_graph(2, [])) == [("B", 0.7)]


def test_rank_top_k_tie_breaks_by_label(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target\nB,A\n", encoding="utf-8")
    g, _ = load_dataset(edges)
    assert rank_top_k(degree_centrality(g), 2, g) == [("A", 1.0), ("B", 1.0)]


def test_rank_top_k_clamps_to_n():
    out = rank_top_k((1.0, 2.0, 3.0), 5, make_graph(3, []))
    assert out == [("C", 3.0), ("B", 2.0), ("A", 1.0)]


def test_centrality_csv_shape(star4):
    text = centrality_table_csv(star4, all_centralities(star4, sweep_of(star4), pagerank(star4)))
    lines = text.strip().split("\n")
    assert lines[0] == "label," + ",".join(MEASURES)
    assert len(lines) == 5
    assert lines[1].startswith("A,1,1,1,1,")  # center first by label sort


def test_metrics_and_centralities_share_one_sweep(tmp_path, monkeypatch, cpus):
    import commgraph.graph as graph_module
    import commgraph.report as report_module
    from commgraph.ingest import edges_to_csv
    from commgraph.synth import gen_planted_partition

    g, _ = gen_planted_partition(3, 20, 0.3, 0.02, seed=5)  # N = 60: two sweep blocks
    edge_path = tmp_path / "edges.csv"
    edge_path.write_text(edges_to_csv(g), encoding="utf-8")
    sweeps, sources = [], []
    sweep, kernel = report_module.sweep_beside, graph_module.shortest_paths

    def counting_sweep(adjacency, tasks):
        sweeps.append(adjacency)
        return sweep(adjacency, tasks)

    def counting(adjacency, source):
        sources.append(source)
        return kernel(adjacency, source)

    monkeypatch.setattr(report_module, "sweep_beside", counting_sweep)
    monkeypatch.setattr(graph_module, "shortest_paths", counting)
    # forked workers' kernel calls are invisible here; one CPU keeps the sweep in this process
    cpus(1)
    report = report_module.run_pipeline(edge_path, stages=("centralities", "louvain", "report"))
    assert report.graph.node_count == g.node_count == 60
    assert len(sweeps) == 1
    assert sources == list(range(g.node_count))
