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

from test_networkx_reference import replay_girvan_newman  # noqa: E402  (skips without networkx)
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
