"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(tmp_path, name):
    wl = WORKLOADS[name]
    for directory, seed in (("a", 7), ("b", 7), ("c", 8)):
        wl.generate(tmp_path / directory, seed, tiny=True)
    for part in wl.inputs:
        assert _files(tmp_path / "a" / part) == _files(tmp_path / "b" / part)
        assert _files(tmp_path / "a" / part)["edges.csv"] != _files(tmp_path / "c" / part)["edges.csv"]


def test_full_size_inputs_match_the_documented_shapes(tmp_path):
    sbm = gen.planted_partition(tmp_path / "sbm", 3, blocks=8, block_size=100, p_in=0.06, p_out=0.003)
    assert sbm.edge_count == sbm.edge_rows == 2376 + 840
    collab = gen.collab(tmp_path / "collab", 3, nodes=2000)
    assert collab.node_count == 2000
    assert collab.edge_rows == 8000 + collab.rejected_rows


def test_metric_names_and_spec_agree_with_the_code():
    name_re = re.compile(r"[A-Za-z0-9_.-]+")
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == spans.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    assert all(name_re.fullmatch(name) for name in [*e2e, *layer, *WORKLOADS])


def test_checks_reject_a_wrong_export(tmp_path):
    truth = gen.collab(tmp_path, 5, nodes=60, block_size=10)
    good = {
        "nodes": [{"label": lab} for lab in truth.labels],
        "edges": [
            {"source": truth.labels[u], "target": truth.labels[v], "weight": w}
            for (u, v), w in truth.edges.items()
        ],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(good), encoding="utf-8")
    assert checks.check_graph_json(truth, path) == []
    good["edges"][0]["weight"] += 1
    path.write_text(json.dumps(good), encoding="utf-8")
    assert checks.check_graph_json(truth, path)


def test_a_report_missing_a_key_is_a_problem_not_a_crash(tmp_path):
    truth = gen.planted_partition(tmp_path / "in", 1, blocks=2, block_size=4, p_in=0.6, p_out=0.1)
    (tmp_path / "report.json").write_text(json.dumps({"metrics": {}, "communities": {}}), encoding="utf-8")
    (tmp_path / "centrality.csv").write_text("label\n", encoding="utf-8")
    problems = checks.check_report_dir(truth, tmp_path, gn=False)
    assert problems and "unreadable" in problems[0]


def test_modularity_of_two_triangles():
    truth = gen.Truth(
        labels=list("abcdef"),
        edges={(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0, (3, 4): 1.0, (3, 5): 1.0, (4, 5): 1.0, (2, 3): 1.0},
        edge_rows=7,
    )
    q = checks.modularity(truth, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
    assert q == pytest.approx(2 * (3 / 7 - (7 / 14) ** 2))


def test_one_command_runs_every_workload_and_prints_every_metric():
    """Tiny sizes: every workload passes its output checks in both modes."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--size", "tiny", "--seconds", "0.5"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert "WARNING" not in proc.stderr, proc.stderr
    printed = {tuple(line.split()[i] for i in (0, 1, 3)) for line in proc.stdout.splitlines()}
    for wl in WORKLOADS:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert (wl, metric["name"], metric["unit"]) in printed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sbm_analyze_gn", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
