from __future__ import annotations

import gc
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from commgraph import report
from commgraph.cli import main
from conftest import import_graph_json

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "sample"
_COLLAB_FILES = [f"--{name}={SAMPLE / 'collab' / name}.csv" for name in ("edges", "nodes", "aliases")]


@pytest.fixture
def ring_dir(tmp_path):
    out = tmp_path / "ring"
    rc = main([
        "synth", "--kind", "ring_of_cliques",
        "--cliques", "4", "--clique-size", "5", "--out", str(out),
    ])
    assert rc == 0
    return out


def test_synth_emits_edge_and_partition_csv(ring_dir):
    edges = (ring_dir / "edges.csv").read_text(encoding="utf-8")
    partition = (ring_dir / "partition.csv").read_text(encoding="utf-8")
    assert edges.startswith("source,target,weight\n")
    assert len(edges.strip().split("\n")) == 45  # header + 44 edges
    assert partition.startswith("label,community\n")
    assert len(partition.strip().split("\n")) == 21


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["analyze", "--damping", "1.5"], "--damping"),
        (["centrality", "--damping", "0"], "--damping"),
        (["analyze", "--top-k", "0"], "--top-k"),
        (["analyze", "--out", "out", "--export", "gexf,graphml"], "--export"),
        (["analyze", "--export", "gexf"], "--export"),
        (["communities", "--validate-gn"], "--validate-gn"),
    ],
    ids=["analyze-damping", "centrality-damping", "top-k", "unknown-export", "export-without-out", "communities-validate-gn"],
)
def test_bad_flag_exits_one_before_reading_input(argv, flag, monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("input read before the flags were checked")

    monkeypatch.setattr("commgraph.report.load_dataset", fail)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--edges", str(SAMPLE / "edges.csv")])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: commgraph {argv[0]} [-h]")
    assert captured.err.splitlines()[-1].startswith(f"commgraph {argv[0]}: error: ")
    assert flag in captured.err.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


def test_centrality_bad_damping_exits_one_before_reading_input(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("input read before the flags were checked")

    monkeypatch.setattr("commgraph.report.load_dataset", fail)
    with pytest.raises(SystemExit) as exc:
        main(["centrality", "--edges", str(SAMPLE / "edges.csv"), "--damping", "1.5"])
    assert exc.value.code == 1
    assert "damping" in capsys.readouterr().err


def test_synth_missing_params_exits_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--kind", "ring_of_cliques", "--cliques", "4", "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: commgraph synth [-h]")
    assert err.splitlines()[-1] == "commgraph synth: error: --kind ring_of_cliques requires --clique-size"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "ring_of_cliques", "--cliques", "4", "--clique-size", "5", "--p-in", "0.5"],
         "--kind ring_of_cliques does not take --p-in"),
        (["--kind", "planted_partition", "--blocks", "2", "--block-size", "3", "--p-in", "0.5", "--p-out", "0.1",
          "--cliques", "4", "--clique-size", "5"],
         "--kind planted_partition does not take --cliques --clique-size"),
    ],
)
def test_synth_flag_of_the_other_kind_exits_one(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", *argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: commgraph synth [-h]")
    assert err.splitlines()[-1] == f"commgraph synth: error: {message}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--edges", "edges.csv", "--top-k", "abc"], "invalid int value: 'abc'"),
        (["synth", "--kind", "lattice"], "invalid choice: 'lattice'"),
    ],
)
def test_usage_error_exits_one(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: commgraph {argv[0]} [-h]")
    assert message in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--validate-gn" in capsys.readouterr().out


def test_analyze_writes_bundle(ring_dir, tmp_path):
    out = tmp_path / "analysis"
    rc = main([
        "analyze", "--edges", str(ring_dir / "edges.csv"),
        "--out", str(out), "--export", "gexf,json", "--validate-gn",
    ])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"report.json", "centrality.csv", "communities.csv", "gn_trace.csv", "graph.gexf", "graph.json"}


def test_analyze_stdout_when_no_out(ring_dir, capsys):
    rc = main(["analyze", "--edges", str(ring_dir / "edges.csv")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metrics"]["node_count"] == 20


def test_analyze_sample_dataset_is_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["analyze", "--edges", str(SAMPLE / "edges.csv"), "--out", str(out)])
        assert rc == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_analyze_sample_matches_committed_golden(tmp_path):
    out = tmp_path / "golden"
    rc = main(["analyze", "--edges", str(SAMPLE / "edges.csv"), "--out", str(out)])
    assert rc == 0
    assert (out / "report.json").read_bytes() == (SAMPLE / "report.json").read_bytes()


def test_validate_gn_sample_matches_committed_trace(tmp_path):
    # gn_trace.csv pins the Girvan-Newman removal order, ties included
    out = tmp_path / "gn"
    rc = main(["analyze", "--edges", str(SAMPLE / "edges.csv"), "--validate-gn", "--out", str(out)])
    assert rc == 0
    assert (out / "gn_trace.csv").read_bytes() == (SAMPLE / "gn_trace.csv").read_bytes()


def test_analyze_weighted_collab_sample_matches_committed_golden(tmp_path):
    # dirty weighted input: case/whitespace variants, aliases, duplicates,
    # self-loops, malformed rows and non-integer weights (no alias chain)
    collab = SAMPLE / "collab"
    out = tmp_path / "collab"
    rc = main([
        "analyze", "--weighted",
        "--edges", str(collab / "edges.csv"),
        "--nodes", str(collab / "nodes.csv"),
        "--aliases", str(collab / "aliases.csv"),
        "--out", str(out), "--export", "gexf,dot,json",
    ])
    assert rc == 0
    expected = collab / "expected"
    names = sorted(p.name for p in expected.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["centrality", *_COLLAB_FILES, "--out"], "collab/expected/centrality.csv"),
        (["communities", "--weighted", *_COLLAB_FILES, "--out"], "collab/expected/communities.csv"),
        *(
            (["export", "--with-analytics", "--weighted", "--format", fmt, *_COLLAB_FILES, "--out"], f"collab/expected/graph.{fmt}")
            for fmt in ("gexf", "dot", "json")
        ),
        (["communities", "--edges", str(SAMPLE / "edges.csv"), "--gn-out"], "gn_trace.csv"),
        # labels whose case-folded order is not their code-point order: the rows follow the case-folded one
        *(([command, "--edges", str(SAMPLE / "labels" / "edges.csv"), "--out"], f"labels/expected/{command}.csv")
          for command in ("centrality", "communities")),
    ],
    ids=[
        "centrality", "communities", "export-gexf", "export-dot", "export-json", "communities-gn-out",
        "labels-centrality", "labels-communities",
    ],
)
def test_every_subcommand_reproduces_the_committed_files(argv, golden, tmp_path):
    out = tmp_path / "out"
    assert main([*argv, str(out)]) == 0
    assert out.read_bytes() == (SAMPLE / golden).read_bytes()


def test_alias_chain_merges_into_one_node(tmp_path, capsys):
    (tmp_path / "e.csv").write_text("source,target\nA,X\nB,Y\nC,Z\n", encoding="utf-8")
    (tmp_path / "a.csv").write_text("variant,canonical\nA,B\nB,C\n", encoding="utf-8")
    rc = main(["communities", "--edges", str(tmp_path / "e.csv"), "--aliases", str(tmp_path / "a.csv")])
    assert rc == 0
    assert [row.split(",")[0] for row in capsys.readouterr().out.splitlines()[1:]] == ["C", "X", "Y", "Z"]


def test_alias_cycle_exits_1_naming_its_labels(tmp_path, capsys):
    (tmp_path / "e.csv").write_text("source,target\nA,B\n", encoding="utf-8")
    (tmp_path / "a.csv").write_text("variant,canonical\nA,B\nB,A\n", encoding="utf-8")
    rc = main(["analyze", "--edges", str(tmp_path / "e.csv"), "--aliases", str(tmp_path / "a.csv")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alias cycle A -> B -> A" in captured.err


def test_sample_dataset_regenerates_bit_identically(tmp_path):
    out = tmp_path / "regen"
    rc = main([
        "synth", "--kind", "planted_partition",
        "--blocks", "4", "--block-size", "10",
        "--p-in", "0.38", "--p-out", "0.025",
        "--seed", "42", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "edges.csv").read_bytes() == (SAMPLE / "edges.csv").read_bytes()
    assert (out / "partition.csv").read_bytes() == (SAMPLE / "partition.csv").read_bytes()


def test_analyze_missing_file_exits_one(tmp_path, capsys):
    rc = main(["analyze", "--edges", str(tmp_path / "nope.csv")])
    assert rc == 1


def test_centrality_subcommand(ring_dir, tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["centrality", "--edges", str(ring_dir / "edges.csv"), "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "label,degree,betweenness,closeness,harmonic,pagerank"
    assert len(lines) == 21


def test_communities_subcommand_with_gn(ring_dir, tmp_path):
    part = tmp_path / "p.csv"
    trace = tmp_path / "t.csv"
    rc = main([
        "communities", "--edges", str(ring_dir / "edges.csv"),
        "--out", str(part), "--gn-out", str(trace),
    ])
    assert rc == 0
    assert part.read_text(encoding="utf-8").startswith("label,community\n")
    trace_lines = trace.read_text(encoding="utf-8").strip().split("\n")
    assert trace_lines[0] == "step,removed_u,removed_v,modularity"
    assert len(trace_lines) == 45


def test_export_subcommand_round_trip(ring_dir, tmp_path):
    out = tmp_path / "g.json"
    rc = main(["export", "--edges", str(ring_dir / "edges.csv"), "--format", "json", "--out", str(out)])
    assert rc == 0
    from commgraph.ingest import load_dataset

    g, _ = load_dataset(ring_dir / "edges.csv")
    assert import_graph_json(out.read_text(encoding="utf-8")) == g


@pytest.mark.parametrize("weighted", [[], ["--weighted"]], ids=["unit", "weighted"])
def test_export_writes_the_graph_analyze_exports(tmp_path, weighted):
    # every export writes the loaded graph's collapsed weights; --weighted only picks what Louvain reads
    inputs = _COLLAB_FILES + weighted
    assert main(["analyze", *inputs, "--out", str(tmp_path / "a"), "--export", "json"]) == 0
    assert main(["export", *inputs, "--format", "json", "--out", str(tmp_path / "plain.json")]) == 0
    assert main(["export", *inputs, "--format", "json", "--with-analytics", "--out", str(tmp_path / "full.json")]) == 0
    analyzed = (tmp_path / "a" / "graph.json").read_text(encoding="utf-8")
    plain = json.loads((tmp_path / "plain.json").read_text(encoding="utf-8"))
    assert plain["edges"] == json.loads(analyzed)["edges"]
    assert {e["weight"] for e in plain["edges"]} != {1.0}
    assert (tmp_path / "full.json").read_text(encoding="utf-8") == analyzed


def test_export_with_analytics_carries_community(ring_dir, capsys):
    rc = main(["export", "--edges", str(ring_dir / "edges.csv"), "--format", "gexf", "--with-analytics"])
    assert rc == 0
    text = capsys.readouterr().out
    assert 'title="community"' in text
    assert 'title="pagerank"' in text


@pytest.mark.parametrize(
    "argv",
    [["communities"], ["export", "--format", "json"], ["centrality"], ["analyze", "--out", "out"]],
    ids=["communities", "export", "centrality", "analyze"],
)
def test_rejected_edge_rows_are_named_on_stderr(argv, tmp_path, monkeypatch, capsys):
    # the line is a library warning, written to the `sys.stderr` of the moment,
    # which capsys holds in process; the closeness test below checks the real
    # stderr in a subprocess. Unknown node kinds, which used to reach only
    # report.json, follow on a line of their own.
    monkeypatch.chdir(tmp_path)
    dirty = tmp_path / "dirty.csv"
    dirty.write_bytes(b"source,target\nA\x01x,B\nC,D\nE\n")
    clean = tmp_path / "clean.csv"
    clean.write_bytes(b"source,target\nC,D\n")
    nodes = tmp_path / "nodes.csv"
    nodes.write_bytes(b"label,kind\nC,other\nD,other\n")
    odd_nodes = tmp_path / "odd_nodes.csv"  # both kinds fall back to `other`: the same graph
    odd_nodes.write_bytes(b"label,kind\nC,alien\nD,Martian\n")
    assert main([*argv, "--edges", str(clean), "--nodes", str(nodes)]) == 0
    want = capsys.readouterr()
    assert main([*argv, "--edges", str(dirty), "--nodes", str(odd_nodes)]) == 0
    got = capsys.readouterr()
    assert got.out == want.out
    assert got.err.splitlines() == [
        f"commgraph: warning: {dirty}: 2 rows rejected (first: line 2: control character U+0001)",
        f"commgraph: warning: {odd_nodes}: 2 cleaning warnings (first: line 2: unknown kind 'alien' mapped to 'other')",
        *want.err.splitlines(),
    ]


@pytest.mark.parametrize(
    "argv, never",
    [
        (["communities"], ["report.girvan_newman", "report.sweep_beside", "graph.sweep_beside", "report._digest"]),
        (
            ["export", "--weighted", "--format", "json"],
            [
                "report.louvain",
                "report.girvan_newman",
                "report.sweep_beside",
                "graph.sweep_beside",
                "report._digest",
                "graph.Graph.unweighted",
            ],
        ),
        (["centrality"], ["report.louvain", "report.girvan_newman", "report._digest"]),
    ],
    ids=["communities", "export-weighted", "centrality"],
)
def test_each_command_runs_only_the_stages_it_names(argv, never, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("ran a stage the command does not need")

    for name in never:
        monkeypatch.setattr(f"commgraph.{name}", fail)
    assert main([*argv, "--edges", str(SAMPLE / "edges.csv")]) == 0
    captured = capsys.readouterr()
    assert captured.out
    assert captured.err == ""


def test_closeness_warning_names_the_first_isolated_node_once():
    # it used to print `closeness of isolated node 10 reported as 0`: an internal
    # id, with no prefix, one line per node. A subprocess shows the real stderr,
    # as a user of the command sees it.
    collab = SAMPLE / "collab"
    src = str(SAMPLE.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    files = ["--edges", str(collab / "edges.csv"), "--nodes", str(collab / "nodes.csv"), "--aliases", str(collab / "aliases.csv")]
    run = subprocess.run([sys.executable, "-m", "commgraph.cli", "centrality", *files], capture_output=True, text=True, env=env)
    assert run.returncode == 0
    assert run.stderr.splitlines() == [
        f"commgraph: warning: {collab / 'edges.csv'}: 8 rows rejected (first: line 31: expected 3 fields, got 2)",
        f"commgraph: warning: {collab / 'nodes.csv'}: 1 cleaning warnings (first: line 6: unknown kind 'Observatory' mapped to 'other')",
        "commgraph: warning: closeness of 1 isolated nodes reported as 0 (first: 'Omicron Works')",
    ]


def test_importing_the_cli_loads_no_dataclasses_logging_or_inspect():
    # every CLI call pays for its imports; which modules load, unlike what
    # they cost, does not depend on the host
    probe = "import sys; before = set(sys.modules); import commgraph.cli; print(*sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": str(SAMPLE.parent.parent / "src")}
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    added = set(run.stdout.split())
    assert "commgraph.cli" in added
    assert added.isdisjoint({"dataclasses", "logging", "inspect"})


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("rc", [0, 1, 2])
def test_a_command_runs_without_the_cyclic_collector(rc, enabled, tmp_path, monkeypatch):
    louvain = report.louvain
    states = []

    def probe(graph):
        states.append(gc.isenabled())
        if rc == 2:
            raise RuntimeError("stage failed")
        return louvain(graph)

    monkeypatch.setattr(report, "louvain", probe)
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target\nA,B\nB,C\n" if rc != 1 else "from,to\nA,B\n", encoding="utf-8")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code = main(["communities", "--edges", str(edges)])
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    # a bad header (exit 1) stops the run before any stage; a failing stage exits 2
    assert (code, states) == (rc, [] if rc == 1 else [False])
    assert after is enabled


_DEGENERATE_EDGES = {
    "header-only": "source,target\n",
    "all-rejected": "source,target\nA,\n,B\n",
    "one-self-loop": "source,target\nA,A\n",
    "two-self-loops": "source,target\nA,A\nB,B\n",
    "one-edge": "source,target\nA,B\n",
    "one-edge-one-isolated": "source,target\nA,B\nC,C\n",
}
# each takes its output path last
_EDGE_COMMANDS = {
    "analyze": ["analyze", "--out"],
    "analyze-gn": ["analyze", "--validate-gn", "--out"],
    "centrality": ["centrality", "--out"],
    "communities": ["communities", "--out"],
    "communities-gn": ["communities", "--gn-out"],
    "export": ["export", "--format", "json", "--out"],
    "export-analytics": ["export", "--with-analytics", "--format", "json", "--out"],
}
_EMPTY = "metrics are undefined on an empty graph"
_ONE_NODE = "normalized degree needs at least 2 nodes"
_NO_EDGE = "modularity is undefined with zero total edge weight"
# the error each command exits 1 with, in _EDGE_COMMANDS order; None is exit 0
_REFUSALS = {
    "header-only": (_EMPTY, _EMPTY, _ONE_NODE, _NO_EDGE, _NO_EDGE, None, _ONE_NODE),
    "all-rejected": (_EMPTY, _EMPTY, _ONE_NODE, _NO_EDGE, _NO_EDGE, None, _ONE_NODE),
    "one-self-loop": (_ONE_NODE, _ONE_NODE, _ONE_NODE, _NO_EDGE, _NO_EDGE, None, _ONE_NODE),
    "two-self-loops": (_NO_EDGE, _NO_EDGE, None, _NO_EDGE, _NO_EDGE, None, _NO_EDGE),
    "one-edge": (None,) * 7,
    "one-edge-one-isolated": (None,) * 7,
}
_ZERO_VARIANCE = "commgraph: warning: zero variance in 10 correlation pairs, reported as null (first: degree/betweenness)"
_ISOLATED_C = "commgraph: warning: closeness of 1 isolated nodes reported as 0 (first: 'C')"
_ISOLATED_C_ZERO_VARIANCE = "commgraph: warning: zero variance in 4 correlation pairs, reported as null (first: degree/betweenness)"
# the warnings of a run that exits 0, beyond the rejected-rows line; the isolated-node
# line comes once from each command that computes the centralities, and from no other
_STAGE_WARNINGS = {
    ("two-self-loops", "centrality"): ["commgraph: warning: closeness of 2 isolated nodes reported as 0 (first: 'A')"],
    ("one-edge", "analyze"): [_ZERO_VARIANCE],
    ("one-edge", "analyze-gn"): [_ZERO_VARIANCE],
    ("one-edge-one-isolated", "analyze"): [_ISOLATED_C, _ISOLATED_C_ZERO_VARIANCE],
    ("one-edge-one-isolated", "analyze-gn"): [_ISOLATED_C, _ISOLATED_C_ZERO_VARIANCE],
    ("one-edge-one-isolated", "centrality"): [_ISOLATED_C],
    ("one-edge-one-isolated", "export-analytics"): [_ISOLATED_C],
}


@pytest.mark.parametrize("command", _EDGE_COMMANDS)
@pytest.mark.parametrize("case", _DEGENERATE_EDGES)
def test_degenerate_graph_is_refused_before_any_stage_runs(case, command, tmp_path, monkeypatch, capsys):
    # a refused run used to compute every stage before the failing one: the
    # all-pairs sweep, with its closeness warning, ran before Louvain refused
    def fail(*args, **kwargs):
        raise AssertionError("a stage ran on a graph the pipeline refuses")

    edges = tmp_path / "edges.csv"
    edges.write_text(_DEGENERATE_EDGES[case], encoding="utf-8")
    out = tmp_path / "out"
    refusal = _REFUSALS[case][list(_EDGE_COMMANDS).index(command)]
    if refusal is not None:
        for name in ("global_metrics", "all_centralities", "louvain", "girvan_newman"):
            monkeypatch.setattr(f"commgraph.report.{name}", fail)
    rc = main([*_EDGE_COMMANDS[command], str(out), "--edges", str(edges)])
    captured = capsys.readouterr()
    lines = [f"commgraph: warning: {edges}: 2 rows rejected (first: line 2: empty target)"] if case == "all-rejected" else []
    lines += _STAGE_WARNINGS.get((case, command), [])
    if refusal is None:
        assert rc == 0
    else:
        lines.append(f"commgraph: error: {refusal}")
        assert (rc, captured.out) == (1, "")
        assert not out.exists()
    # library warnings and the CLI's error share stderr, in the order they were written
    assert captured.err == "".join(f"{line}\n" for line in lines)


# every weight scaled alike: modularity is scale-free, so the answer is the unit-weight one
_EXTREME_WEIGHTS = {
    # a triangle plus a pendant edge: Louvain's 2*m*m underflowed to 0 (exit 2)
    "1e-200": [("A", "B"), ("B", "C"), ("A", "C"), ("C", "D")],
    # two triangles joined by a bridge: tot[c] * k_v overflowed (six singletons, Q -0.173)
    "1e200": [("A", "B"), ("B", "C"), ("A", "C"), ("D", "E"), ("E", "F"), ("D", "F"), ("C", "D")],
    # plus a triangle on F: the total weight overflowed, so every GN Q was nan or 0
    "1e307": [("A", "B"), ("B", "C"), ("A", "C"), ("D", "E"), ("E", "F"), ("D", "F"), ("C", "D"),
              ("F", "G"), ("G", "H"), ("F", "H")],
}


@pytest.mark.parametrize("weight", sorted(_EXTREME_WEIGHTS))
def test_extreme_weights_give_the_unit_weight_communities(weight, tmp_path, capsys):
    runs = {}
    for w in (weight, "1"):
        edges = tmp_path / f"{w}.csv"
        edges.write_text("source,target,weight\n" + "".join(f"{u},{v},{w}\n" for u, v in _EXTREME_WEIGHTS[weight]))
        assert main(["communities", "--weighted", "--edges", str(edges)]) == 0
        partition = capsys.readouterr().out
        assert main(["analyze", "--weighted", "--validate-gn", "--edges", str(edges)]) == 0
        runs[w] = partition, json.loads(capsys.readouterr().out)["communities"]
    (partition, report), (unit_partition, unit_report) = runs[weight], runs["1"]
    assert partition == unit_partition
    assert report["assignment"] == unit_report["assignment"]
    assert unit_report["count"] > 1
    # 1e-200, 1e200 and 1e307 are no powers of two, so Q may differ from the unit-weight Q in its last bits
    for key in ("louvain_q", "gn_best_q"):
        assert report[key] == pytest.approx(unit_report[key], rel=1e-12)


@pytest.mark.parametrize(
    "heaviest, rc", [("1e300", 1), (repr(2.0**500), 0), (repr(2.0**501), 1)], ids=["1e300", "at-bound", "past-bound"]
)
def test_weight_ratio_beyond_2_to_the_500_exits_one_naming_the_lightest_pair(heaviest, rc, tmp_path, capsys):
    # scaling the largest weight into [1, 2) used to turn every 1e-300 into 0.0,
    # and `communities --weighted` exited 0 with A,B | C | D
    lightest = "1e-300" if heaviest == "1e300" else "1"
    edges = tmp_path / "edges.csv"
    edges.write_text(
        f"source,target,weight\nA,B,{heaviest}\nB,C,{lightest}\nc,a,{lightest}\nC,D,{lightest}\n", encoding="utf-8"
    )
    assert main(["communities", "--weighted", "--edges", str(edges)]) == rc
    captured = capsys.readouterr()
    if rc == 0:
        assert captured.err == ""
        return
    assert captured.out == ""
    # the lightest pairs are A-C, B-C and C-D; A-C has the smallest ids, and line 4 is its first row
    assert captured.err == (
        f"commgraph: error: {edges}: line 4: the collapsed weight {float(lightest)!r} of 'c' and 'a' is more than "
        f"2**500 times smaller than the largest, {float(heaviest)!r}\n"
    )


def _readme_commands() -> list[str]:
    """The `commgraph ...` lines of README.md's CLI block, `\\` continuations joined."""
    readme = (SAMPLE.parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("commgraph ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) >= 5
    shutil.copytree(SAMPLE, tmp_path / "data" / "sample")
    shutil.copy(SAMPLE / "edges.csv", tmp_path / "edges.csv")
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, (command, capsys.readouterr().err)
