from __future__ import annotations

import csv
import json
import os
import pickle
import random
import re
import signal
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from commgraph.centrality import MEASURES, all_centralities, pagerank
from commgraph.cli import build_parser, main
from commgraph.community import louvain
from commgraph.errors import CommGraphError, ConvergenceError
from commgraph.graph import Partition
from commgraph.ingest import edges_to_csv, load_dataset
from commgraph.report import (
    GEXF_NS,
    export_dot,
    export_gexf,
    export_graph,
    export_graph_json,
    pearson_correlation_matrix,
    report_to_json,
    run_pipeline,
    write_outputs,
)
from commgraph.synth import gen_planted_partition, gen_ring_of_cliques
from conftest import import_graph_json, make_graph, recording_forks, sweep_of
from oracles import export_gexf_reference

SAMPLE_COLLAB = Path(__file__).resolve().parent.parent / "data" / "sample" / "collab"


# ------------------------------------------------------------ correlation


def test_correlation_with_itself_is_one():
    m = pearson_correlation_matrix({"degree": (0.1, 0.4, 0.9)})
    assert m == [[pytest.approx(1.0)]]


def test_correlation_with_negation_is_minus_one():
    m = pearson_correlation_matrix({"degree": (0.1, 0.4, 0.9), "harmonic": (0.9, 0.6, 0.1)})
    assert m[0][1] == pytest.approx(-1.0)


def test_correlation_zero_variance_is_null(capsys):
    m = pearson_correlation_matrix({"degree": (0.1, 0.4), "harmonic": (0.5, 0.5)})
    assert m[0][1] is None
    assert m[1][1] is None
    assert m[0][0] == pytest.approx(1.0)
    assert "zero variance" in capsys.readouterr().err


def test_correlation_warns_only_off_diagonal(capsys):
    m = pearson_correlation_matrix({"degree": (0.1, 0.4), "closeness": (0.5, 0.5), "harmonic": (0.2, 0.2)})
    assert m[1][1] is None and m[2][2] is None
    # one line for pairs (0, 1), (0, 2) and (1, 2), the first named by its keys; never the constant vectors' self-pairs
    assert capsys.readouterr().err == (
        "commgraph: warning: zero variance in 3 correlation pairs, reported as null (first: degree/closeness)\n"
    )


def test_spearman_is_rank_based():
    # monotone but non-linear relation: spearman 1.0, pearson below
    vectors = {"degree": (0.0, 0.1, 0.2, 0.3, 0.4), "harmonic": (0.0, 0.001, 0.01, 0.1, 1.0)}
    pearson = pearson_correlation_matrix(vectors)[0][1]
    spearman = pearson_correlation_matrix(vectors, spearman=True)[0][1]
    assert spearman == pytest.approx(1.0)
    assert pearson < 0.99


def test_correlation_symmetric_exactly():
    g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    vectors = all_centralities(g, sweep_of(g), pagerank(g))
    m = pearson_correlation_matrix(vectors)
    for i in range(5):
        assert m[i][i] == pytest.approx(1.0)
        for j in range(5):
            assert m[i][j] == m[j][i]


# ---------------------------------------------------------------- exports


def test_dot_triangle_stable(triangle):
    text = export_dot(triangle)
    assert text == export_dot(triangle)
    assert text.count(" -- ") == 3
    for lab in ("A", "B", "C"):
        assert f'"{lab}";' in text


def test_dot_colors_follow_communities(triangle):
    text = export_dot(triangle, Partition((0,) * 3, 1))
    assert text.count("fillcolor=1") == 3


def test_gexf_single_community(triangle):
    text = export_gexf(triangle, Partition((0,) * 3, 1))
    root = ET.fromstring(text)
    nodes = root.findall(f".//{{{GEXF_NS}}}node")
    assert len(nodes) == 3
    attr_id = {
        a.get("title"): a.get("id")
        for a in root.findall(f".//{{{GEXF_NS}}}attribute")
    }
    for node in nodes:
        values = {v.get("for"): v.get("value") for v in node.findall(f".//{{{GEXF_NS}}}attvalue")}
        assert values[attr_id["community"]] == "0"


def test_gexf_each_node_and_edge_once(barbell):
    scores = all_centralities(barbell, sweep_of(barbell), pagerank(barbell))
    text = export_gexf(barbell, louvain(barbell).final_partition, scores)
    root = ET.fromstring(text)
    node_ids = [n.get("id") for n in root.findall(f".//{{{GEXF_NS}}}node")]
    assert sorted(node_ids) == sorted(str(i) for i in range(6))
    edges = root.findall(f".//{{{GEXF_NS}}}edge")
    assert len(edges) == barbell.edge_count


def test_gexf_of_a_graph_whose_every_edge_row_is_rejected(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target\nA,\n,B\n", encoding="utf-8")
    out = tmp_path / "graph.gexf"
    assert main(["export", "--edges", str(edges), "--format", "gexf", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == export_gexf_reference(load_dataset(edges)[0])
    assert "    <nodes />\n    <edges />\n" in text
    ET.fromstring(text)


def collab_shaped_files(directory, nodes: int, seed: int):
    """Edge, node and alias CSVs shaped like the benchmark's collab inputs: blocks of 100, 4 rows per node.

    Weights are integers 1-5 or quarters, labels and locations carry & and
    quotes, some rows spell a label in upper case, every 50th node has an
    alias, and some locations and scores are blank.
    """
    rng = random.Random(seed)
    kinds = ("public", "medical", "technical", "other")
    cities = ("Lyon", "Porto", "S\u00e3o Paulo", "Graz & Linz", 'T\u00fcrku "Old"', "")
    labels = [f"Agency {i}" if i % 7 else f'R&D "Lab" {i}' for i in range(nodes)]
    rows = []
    for _ in range(4 * nodes):
        u = rng.randrange(nodes)
        v = u - u % 100 + rng.randrange(min(100, nodes - u + u % 100)) if rng.random() < 0.9 else rng.randrange(nodes)
        weight = str(rng.randint(1, 5)) if rng.random() < 0.8 else str(rng.randint(1, 20) / 4)
        rows.append([labels[u] if rng.random() < 0.9 else labels[u].upper(), labels[v], weight])
    node_rows = [
        [lab, rng.choice(kinds), rng.choice(cities), "" if rng.random() < 0.1 else f"{rng.uniform(0, 100):.2f}"]
        for lab in labels
    ]
    files = {name: directory / f"{name}.csv" for name in ("edges", "nodes", "aliases")}
    for name, header, body in (
        ("edges", ["source", "target", "weight"], rows),
        ("nodes", ["label", "kind", "location", "score"], node_rows),
        ("aliases", ["variant", "canonical"], [[f"AG-{i}", labels[i]] for i in range(0, nodes, 50)]),
    ):
        with files[name].open("w", encoding="utf-8", newline="") as f:
            csv.writer(f).writerows([header, *body])
    return files


def test_gexf_of_a_collab_shaped_graph_matches_the_element_tree_reference(tmp_path):
    files = collab_shaped_files(tmp_path, 2000, seed=17)
    g, _ = load_dataset(files["edges"], files["nodes"], files["aliases"])
    assert g.node_count == 2000 and g.edge_count > 7000
    rng = random.Random(17)
    scores = {m: tuple(rng.random() for _ in range(g.node_count)) for m in MEASURES}
    partition = louvain(g).final_partition
    for args in ((), (partition,), (partition, scores)):
        assert export_gexf(g, *args) == export_gexf_reference(g, *args)


def _read_dot(text: str):
    """Node fill colours and edge weights, by label, of the DOT subset `export_dot` writes."""
    quoted = r'"((?:[^"\\]|\\.)*)"'

    def unquote(label: str) -> str:
        return re.sub(r"\\(.)", r"\1", label)

    lines = text.splitlines()
    assert lines[0] == "graph collaboration {" and lines[-1] == "}"
    colours, weights = {}, {}
    for line in lines[1:-1]:
        if edge := re.fullmatch(rf"  {quoted} -- {quoted}(?: \[weight=([^\]]+)\])?;", line):
            weights[frozenset((unquote(edge[1]), unquote(edge[2])))] = float(edge[3] or 1.0)
        elif node := re.fullmatch(rf"  {quoted} \[fillcolor=(\d+)\];", line):
            colours[unquote(node[1])] = int(node[2])
        else:
            assert line == "  node [style=filled, colorscheme=set312];"
    return colours, weights


def assert_exports_read_back(directory, g, communities, scores) -> None:
    """graph.gexf, .dot and .json in `directory`, read by networkx, a DOT parser and `json`, give `g` and the report.

    `communities` maps each label to its community and `scores` to its five
    centrality scores. Labels, edges and weights must come back exactly.
    """
    nx = pytest.importorskip("networkx")
    weights = {frozenset((g.labels[u], g.labels[v])): w for u, v, w in g.edges()}
    attributes = {
        label: {"kind": rec.kind, "location": rec.location, "community": communities[label], **scores[label]}
        for label, rec in zip(g.labels, g.records)
    }
    names = list(attributes[g.labels[0]])
    gexf = nx.read_gexf(directory / "graph.gexf")
    labels = nx.get_node_attributes(gexf, "label")
    assert {labels[v]: {name: data.get(name) for name in names} for v, data in gexf.nodes(data=True)} == attributes
    assert {frozenset((labels[u], labels[v])): w for u, v, w in gexf.edges(data="weight")} == weights
    assert gexf.number_of_edges() == len(weights)
    payload = json.loads((directory / "graph.json").read_text(encoding="utf-8"))
    assert {node["label"]: {name: node.get(name) for name in names} for node in payload["nodes"]} == attributes
    assert {frozenset((e["source"], e["target"])): e["weight"] for e in payload["edges"]} == weights
    assert len(payload["edges"]) == len(weights)
    colours, dot_weights = _read_dot((directory / "graph.dot").read_text(encoding="utf-8"))
    assert colours == {label: communities[label] % 12 + 1 for label in attributes}
    assert dot_weights == weights


def test_the_collab_sample_exports_read_back_to_its_graph_and_report(tmp_path, capsys):
    files = [SAMPLE_COLLAB / f"{name}.csv" for name in ("edges", "nodes", "aliases")]
    argv = ["--edges", str(files[0]), "--nodes", str(files[1]), "--aliases", str(files[2]), "--weighted"]
    assert main(["analyze", *argv, "--export", "gexf,dot,json", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    g, _ = load_dataset(*files)
    # 0.6000000000000001, 0.666666666667 and 1.833333333333 are not exact in 6 digits
    assert sum(float(format(w, "g")) != w for _, _, w in g.edges()) == 3
    scores = {row.pop("label"): row for row in report["centrality"]["table"]}
    assert_exports_read_back(tmp_path, g, report["communities"]["assignment"], scores)


def test_a_collab_shaped_graph_with_non_dyadic_weights_reads_back(tmp_path):
    files = collab_shaped_files(tmp_path, 2000, seed=19)
    rng = random.Random(19)
    with files["edges"].open(encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    for row in rows[1:]:  # thirds and tenths, whose sums are rarely exact in 6 digits
        row[2] = repr(rng.randint(1, 30) / rng.choice((3, 10)))
    with files["edges"].open("w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows(rows)
    g, _ = load_dataset(files["edges"], files["nodes"], files["aliases"])
    assert sum(float(format(w, "g")) != w for _, _, w in g.edges()) > 1000
    partition = louvain(g).final_partition
    vectors = {m: tuple(rng.random() / 3 for _ in range(g.node_count)) for m in MEASURES}
    for fmt in ("gexf", "dot", "json"):
        (tmp_path / f"graph.{fmt}").write_text(export_graph(g, partition, vectors, fmt), encoding="utf-8")
    communities = {g.labels[v]: c for v, c in enumerate(partition.assignment)}
    scores = {g.labels[v]: {m: values[v] for m, values in vectors.items()} for v in range(g.node_count)}
    assert_exports_read_back(tmp_path, g, communities, scores)


def test_json_round_trip(barbell):
    text = export_graph_json(barbell)
    assert import_graph_json(text) == barbell


def test_json_round_trip_with_attributes(tmp_path):
    from commgraph.ingest import load_dataset

    e = tmp_path / "e.csv"
    e.write_text("source,target,weight\nNorthside U,City Medical,2.5\n", encoding="utf-8")
    n = tmp_path / "n.csv"
    n.write_text("label,kind,location,score\nNorthside U,public,Springfield,41.5\nCity Medical,medical,Springfield,\n", encoding="utf-8")
    g, _ = load_dataset(e, n)
    assert import_graph_json(export_graph_json(g)) == g


def test_export_dispatch_unknown_format(triangle, capsys):
    # export_graph dispatches on EXPORT_FORMATS alone; both commands that export reject any other format
    assert export_graph(triangle, fmt="gexf") == export_gexf(triangle)
    assert export_graph(triangle, fmt="dot") == export_dot(triangle)
    assert export_graph(triangle, fmt="json") == export_graph_json(triangle)
    for argv in (
        ["export", "--edges", "edges.csv", "--format", "graphml"],
        ["analyze", "--edges", "edges.csv", "--out", "out", "--export", "graphml"],
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 1
        assert "graphml" in capsys.readouterr().err


# --------------------------------------------------------------- pipeline


# the stages `analyze` runs without --validate-gn
ANALYZE = ("centralities", "louvain", "report")


@pytest.fixture
def dataset(tmp_path):
    g, _ = gen_ring_of_cliques(4, 5)
    edge_path = tmp_path / "edges.csv"
    edge_path.write_text(edges_to_csv(g), encoding="utf-8")
    return edge_path


def test_pipeline_reports_are_byte_identical(dataset):
    a = report_to_json(run_pipeline(dataset, stages=ANALYZE))
    b = report_to_json(run_pipeline(dataset, stages=ANALYZE))
    assert a == b


def test_pipeline_report_structure(dataset):
    report = run_pipeline(dataset, stages=("centralities", "louvain", "gn", "report"))
    payload = json.loads(report_to_json(report))
    assert set(payload) == {"metrics", "centrality", "communities", "correlation", "cleaning", "meta"}
    assert payload["metrics"]["node_count"] == 20
    assert payload["communities"]["count"] == 4
    assert payload["communities"]["gn_best_q"] is not None
    assert len(payload["centrality"]["table"]) == 20
    assert payload["correlation"]["method"] == "pearson"
    matrix = payload["correlation"]["matrix"]
    for i in range(5):
        assert matrix[i][i] == pytest.approx(1.0)
        for j in range(5):
            assert matrix[i][j] == matrix[j][i]
    assert payload["meta"]["tool_version"]
    assert payload["meta"]["input_digest"]


def test_pipeline_ring_partition_matches_truth(dataset, tmp_path):
    out = tmp_path / "out"
    write_outputs(run_pipeline(dataset, stages=ANALYZE), out, ("gexf", "dot", "json"))
    partition_csv = (out / "communities.csv").read_text(encoding="utf-8")
    _, truth = gen_ring_of_cliques(4, 5)
    communities = set()
    for line in partition_csv.strip().split("\n")[1:]:
        label, cid = line.split(",")
        node = int(label[1:])
        communities.add((truth.assignment[node], int(cid)))
    assert len(communities) == 4  # bijection between truth blocks and found ids
    assert len({t for t, _ in communities}) == 4
    for fmt in ("gexf", "dot", "json"):
        assert (out / f"graph.{fmt}").exists()
    assert (out / "report.json").exists()
    assert (out / "centrality.csv").exists()


def test_pipeline_weighted_flag_recorded(dataset):
    report = run_pipeline(dataset, stages=ANALYZE, weighted=True, top_k=3)
    payload = json.loads(report_to_json(report))
    assert payload["meta"]["flags"]["weighted"] is True
    assert all(len(v) == 3 for v in payload["centrality"]["top_k"].values())


def test_weighted_flag_feeds_collapsed_weights_to_louvain(tmp_path):
    # square with two heavy opposite sides (weight 5 via repetition)
    rows = ["A,B"] * 5 + ["B,C"] + ["C,D"] * 5 + ["D,A"]
    path = tmp_path / "square.csv"
    path.write_text("source,target\n" + "\n".join(rows) + "\n", encoding="utf-8")
    weighted = run_pipeline(path, stages=("louvain",), weighted=True)
    unweighted = run_pipeline(path, stages=("louvain",))
    assert weighted.dendrogram.final_q == pytest.approx(1 / 3)
    assert unweighted.dendrogram.final_q == pytest.approx(0.0)
    assert weighted.dendrogram.final_partition.assignment == (0, 0, 1, 1)  # heavy pairs together


def test_pipeline_rejects_unknown_export(dataset, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--edges", str(dataset), "--out", str(out), "--export", "graphml"])
    assert exc.value.code == 1
    assert not out.exists()


def test_pipeline_no_partial_outputs_on_bad_input(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("source,target\nA,\nB,\n", encoding="utf-8")
    out = tmp_path / "out"
    # every artifact is computed before the first file is written
    assert main(["analyze", "--edges", str(bad), "--out", str(out), "--export", "gexf,dot,json", "--validate-gn"]) == 1
    assert not out.exists()


def test_communities_writes_no_file_when_girvan_newman_fails(dataset, tmp_path, monkeypatch, capsys):
    def fail(g):
        raise CommGraphError("girvan-newman failed")

    monkeypatch.setattr("commgraph.report.girvan_newman", fail)
    part, trace = tmp_path / "part.csv", tmp_path / "trace.csv"
    # every stage runs before the first file is written
    assert main(["communities", "--edges", str(dataset), "--out", str(part), "--gn-out", str(trace)]) == 1
    assert capsys.readouterr().err == "commgraph: error: girvan-newman failed\n"
    assert not part.exists()
    assert not trace.exists()


# ------------------------------------------- stages beside the sweep


@pytest.fixture
def planted_files(tmp_path):
    """`gen_planted_partition(4, 30, 0.2, 0.01, seed=1)` as an edge CSV, and a node CSV adding one isolated node.

    The 121 nodes make four sweep blocks, so with two CPUs PageRank and
    Louvain run in forked workers, after the source blocks.
    """
    g, _ = gen_planted_partition(4, 30, 0.2, 0.01, seed=1)
    edges, nodes = tmp_path / "edges.csv", tmp_path / "nodes.csv"
    edges.write_text(edges_to_csv(g), encoding="utf-8")
    nodes.write_text("label\n" + "".join(f"{label}\n" for label in (*g.labels, "Lonely")), encoding="utf-8")
    return edges, nodes


def test_an_error_of_a_stage_beside_the_sweep_exits_1_as_in_one_process(cpus, planted_files, monkeypatch, capsys):
    # PageRank's error crosses the sweep's pool with its type and text, after closeness's warning, which the
    # pipeline writes before the sweep; had it ended its worker, the run would exit 2
    import commgraph.centrality as centrality_module

    edges, nodes = planted_files
    monkeypatch.setattr(centrality_module, "PAGERANK_MAX_ITER", 3)
    runs = {}
    for count in (1, 2):
        forks = recording_forks(monkeypatch)
        cpus(count)
        runs[count] = (main(["analyze", "--edges", str(edges), "--nodes", str(nodes)]), *capsys.readouterr())
        assert len(forks) == (count if count > 1 else 0)
    assert runs[2] == runs[1]
    assert runs[1] == (
        1,
        "",
        "commgraph: warning: closeness of 1 isolated nodes reported as 0 (first: 'Lonely')\n"
        "commgraph: error: pagerank did not reach tol=1e-09 within 3 iterations\n",
    )


def test_a_convergence_error_keeps_its_residual_through_a_pipe():
    exc = pickle.loads(pickle.dumps(ConvergenceError("pagerank did not converge", 0.25)))
    assert (type(exc), str(exc), exc.residual) == (ConvergenceError, "pagerank did not converge", 0.25)


def test_a_worker_killed_beside_the_sweep_makes_main_exit_2(cpus, planted_files, monkeypatch, capsys):
    parent = os.getpid()

    def killed_in_a_worker(g, damping):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("PageRank ran in the calling process")

    monkeypatch.setattr("commgraph.report.pagerank", killed_in_a_worker)
    cpus(2)
    assert main(["analyze", "--edges", str(planted_files[0])]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    # four source blocks, then PageRank and Louvain
    assert err.startswith("commgraph: internal error: all-pairs sweep: block 4 of 6 did not arrive")


def test_the_whole_pipeline_is_identical_with_any_process_count(cpus, planted_files, monkeypatch, capsys, tmp_path):
    # the sweep's pool runs PageRank and Louvain too, and Girvan-Newman forks its own: no third pool
    argv = ["analyze", "--edges", str(planted_files[0]), "--validate-gn", "--export", "gexf,dot,json"]
    runs = {}
    for count in (1, 2, 3):
        forks = recording_forks(monkeypatch)
        cpus(count)
        out = tmp_path / f"cpus{count}"
        assert main([*argv, "--out", str(out)]) == 0
        runs[count] = (capsys.readouterr(), {p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(forks) == (2 * min(count, 4) if count > 1 else 0)
    assert set(runs[1][1]) == {
        "report.json", "centrality.csv", "communities.csv", "gn_trace.csv", "graph.gexf", "graph.dot", "graph.json"
    }
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]
