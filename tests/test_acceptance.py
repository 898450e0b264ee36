"""Acceptance gate: one test per shipping criterion, stated tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest

from commgraph.centrality import (
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    harmonic_centrality,
    pagerank,
)
from commgraph.community import (
    girvan_newman,
    louvain,
    modularity,
    normalized_mutual_information,
)
from commgraph.graph import NodeRecord, Partition, collapse_edges
from commgraph.metrics import global_metrics
from commgraph.report import report_to_json, run_pipeline
from commgraph.synth import gen_planted_partition, gen_ring_of_cliques
from conftest import edge_betweenness, make_graph, pagerank_iterates, sweep_of
from oracles import (
    betweenness_by_enumeration,
    closeness_from_distances,
    harmonic_from_distances,
    modularity_pairwise,
    pagerank_power_iteration,
    random_graph,
)

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "sample"


def announce(criterion: int, description: str):
    print(f"PASS criterion {criterion}: {description}")


def test_criterion_1_table_scale_arithmetic():
    recs = [NodeRecord(label=f"u{i}") for i in range(183)]
    edges = [(i, i + 1, None) for i in range(182)]
    edges += [(i, i + 2, None) for i in range(138)]
    g, _, _ = collapse_edges(recs, edges)
    start = time.perf_counter()
    rep = global_metrics(g, sweep_of(g))
    elapsed = time.perf_counter() - start
    assert rep.node_count == 183 and rep.edge_count == 320
    assert abs(rep.average_degree - 3.4973) <= 1e-4
    assert round(rep.density, 3) == 0.019
    assert elapsed < 1.0
    announce(1, f"N=183/E=320 gives average degree {rep.average_degree:.5f}, density rounds to 0.019")


def test_criterion_2_degree_normalization_convention():
    reference = [(66, 0.36263), (63, 0.346153), (51, 0.280219), (19, 0.104395), (12, 0.065934)]
    for raw, expected in reference:
        assert abs(raw / 182 - expected) < 1e-5
    announce(2, "raw degrees over N-1=182 reproduce the reference ratios to 5 decimals")


def test_criterion_3_centrality_oracle_equivalence():
    rng = random.Random(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        g = random_graph(rng)
        n = g.node_count
        sweep = sweep_of(g)
        pairs = [
            (degree_centrality(g).scores, [g.degree(v) / (n - 1) for v in range(n)]),
            (betweenness_centrality(g, sweep).scores, betweenness_by_enumeration(g)),
            (closeness_centrality(g, sweep).scores, closeness_from_distances(g)),
            (harmonic_centrality(g, sweep).scores, harmonic_from_distances(g)),
            (pagerank(g).scores, pagerank_power_iteration(g)),
        ]
        for got, want in pairs:
            for a, b in zip(got, want):
                worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 30.0
    announce(3, f"five measures vs brute-force oracles on 200 graphs, max abs error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_4_modularity_fixtures():
    two_triangles = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert modularity(two_triangles, Partition((0, 0, 0, 1, 1, 1), 2)) == 0.5
    assert modularity(two_triangles, Partition((0,) * 6, 1)) == 0.0
    k2 = make_graph(2, [(0, 1)])
    assert modularity(k2, Partition((0, 1), 2)) == -0.5

    rng = random.Random(77)
    checked = 0
    while checked < 60:
        g = random_graph(rng)
        if g.edge_count == 0:
            continue
        checked += 1
        assignment = [rng.randrange(g.node_count) for _ in range(g.node_count)]
        p = Partition.from_assignment(assignment)
        assert abs(modularity(g, p) - modularity_pairwise(g, p.assignment)) <= 1e-12
    announce(4, "fixtures exact (0.5 / 0 / -0.5); pairwise double-sum agreement within 1e-12")


def test_criterion_5_louvain_recovery():
    start = time.perf_counter()
    ring, ring_truth = gen_ring_of_cliques(4, 5)
    ring_dend = louvain(ring)
    assert ring_dend.final_partition == ring_truth

    planted, truth = gen_planted_partition(4, 32, 0.3, 0.01, seed=42)
    planted_dend = louvain(planted)
    nmi = normalized_mutual_information(planted_dend.final_partition, truth)
    assert nmi >= 0.95

    rng = random.Random(88)
    graphs = [ring, planted]
    while len(graphs) < 22:
        g = random_graph(rng)
        if g.edge_count:
            graphs.append(g)
    for g in graphs:
        dend = louvain(g)
        qs = list(dend.q_per_level)
        assert qs == sorted(qs)
        for level, q in zip(dend.levels, dend.q_per_level):
            assert abs(q - modularity(g, level)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(5, f"ring(4,5) exact, planted NMI {nmi:.3f}, q levels monotone, Q recomputation within 1e-12")


def test_criterion_6_girvan_newman_barbell():
    barbell = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    assert edge_betweenness(barbell)[(2, 3)] == 9.0
    trace = girvan_newman(barbell)
    assert trace.removals[0][0] == (2, 3)
    assert abs(trace.best_q - 0.35714) <= 1e-5
    announce(6, f"bridge removed first with betweenness 9.0; best modularity {trace.best_q:.5f}")


def test_criterion_7_pagerank():
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    vec = pagerank(star, damping=0.85)
    assert abs(vec.scores[0] - 0.47973) <= 1e-4

    rng = random.Random(99)
    for _ in range(40):
        g = random_graph(rng)
        assert abs(sum(pagerank(g).scores) - 1.0) <= 1e-9
        for scores in pagerank_iterates(g, 60):
            assert abs(sum(scores) - 1.0) <= 1e-9

    for n in (3, 4, 5, 8):
        cycle = make_graph(n, [(i, (i + 1) % n) for i in range(n)])
        scores = pagerank(cycle).scores
        assert max(abs(s - 1 / n) for s in scores) <= 1e-12
    announce(7, "star fixed point at 0.47973; unit mass every iteration; cycles uniform to 1e-12")


def test_criterion_8_pipeline_determinism(tmp_path):
    first = report_to_json(run_pipeline(SAMPLE / "edges.csv", stages=("centralities", "louvain", "report")))
    second = report_to_json(run_pipeline(SAMPLE / "edges.csv", stages=("centralities", "louvain", "report")))
    assert first == second
    assert first.encode() == (SAMPLE / "report.json").read_bytes()

    report = run_pipeline(SAMPLE / "edges.csv", stages=("centralities", "louvain", "report"))
    for i in range(5):
        assert report.correlation[i][i] == pytest.approx(1.0)
        for j in range(5):
            assert report.correlation[i][j] == report.correlation[j][i]
    announce(8, "sample-dataset report byte-identical across runs and vs committed golden")


def test_criterion_9_ingestion_conservation(tmp_path):
    from commgraph.ingest import load_dataset

    csv_path = tmp_path / "crafted.csv"
    csv_path.write_text(
        "source,target\n"
        "A,B\nB,C\nC,D\nD,A\n"      # 4 unique rows
        "B,A\nc, b\nA,D\n"          # 3 duplicates
        "E,E\nf, F\n"               # 2 self-loops
        "A,\n",                     # 1 malformed row
        encoding="utf-8",
    )
    g, log = load_dataset(csv_path)
    rows_in = 10
    assert g.edge_count == 4
    assert log.duplicates_collapsed == 3
    assert log.self_loops_dropped == 2
    assert len(log.rows_rejected) == 1
    assert rows_in == g.edge_count + log.duplicates_collapsed + log.self_loops_dropped + len(log.rows_rejected)
    announce(9, "10 rows reconcile: 4 edges + 3 duplicates + 2 self-loops + 1 rejection")
