from __future__ import annotations

import json
import math
import os
import signal

import pytest

import commgraph.centrality as centrality_module
from commgraph.community import _edge_dependencies, _edge_index
from commgraph.errors import ConvergenceError
from commgraph.graph import NodeRecord, Partition, collapse_edges, sweep_beside


def make_graph(n: int, pairs, weights=None):
    """Small-graph helper: nodes A, B, C, ... plus integer-id edge pairs."""
    records = [NodeRecord(label=chr(ord("A") + i)) for i in range(n)]
    if weights is None:
        weights = [None] * len(pairs)
    g, _, _ = collapse_edges(records, [(u, v, w) for (u, v), w in zip(pairs, weights)])
    return g


def sweep_of(g):
    """`g`'s all-pairs sweep, the `PathSweep` that `run_pipeline` passes on: `sweep_beside` with no tasks."""
    return sweep_beside(g.neighbor_ids, ())[0]


def communities(p: Partition) -> list[list[int]]:
    """The node ids of each community, by community id."""
    groups: list[list[int]] = [[] for _ in range(p.community_count)]
    for node, cid in enumerate(p.assignment):
        groups[cid].append(node)
    return groups


def edge_betweenness(g) -> dict[tuple[int, int], float]:
    """Per-edge shortest-path betweenness over unordered node pairs, from GN's kernel."""
    ends, index = _edge_index(g)
    scores = [0.0] * len(ends)
    _edge_dependencies(g.neighbor_ids, index, range(g.node_count), scores)
    return {e: x / 2 for e, x in zip(ends, scores)}


def import_graph_json(text: str):
    """Rebuild a Graph from `export_graph_json` output (analytics fields ignored)."""
    payload = json.loads(text)
    records = [
        NodeRecord(
            label=n["label"],
            kind=n.get("kind", "other"),
            location=n.get("location"),
            external_score=n.get("score"),
        )
        for n in payload["nodes"]
    ]
    ids = {r.label: i for i, r in enumerate(records)}
    edges = [(ids[e["source"]], ids[e["target"]], e["weight"]) for e in payload["edges"]]
    g, _, _ = collapse_edges(records, edges)
    return g


def pagerank_iterates(g, count: int) -> list[tuple[float, ...]]:
    """PageRank's first `count` iterates, each got by stopping the solver there.

    The solver raises at iteration k when given k iterations and tolerance 0;
    a tolerance just above that residual then makes it return iterate k (or
    an earlier one with a residual as small, which is an iterate too). The
    solver's constants are restored on return.
    """
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for k in range(1, count + 1):
            mp.setattr(centrality_module, "PAGERANK_MAX_ITER", k)
            mp.setattr(centrality_module, "PAGERANK_TOL", 0.0)
            with pytest.raises(ConvergenceError) as exc:
                centrality_module.pagerank(g)
            mp.setattr(centrality_module, "PAGERANK_TOL", math.nextafter(exc.value.residual, math.inf))
            out.append(centrality_module.pagerank(g).scores)
    return out


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs `block_pool` may use; fails a test that hangs, or leaves a worker or an fd behind."""
    fds_before = len(os.listdir("/proc/self/fd"))

    def hung(signum, frame):
        raise TimeoutError("the test hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield lambda count: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child process of this one is left, running or not reaped
    assert len(os.listdir("/proc/self/fd")) == fds_before


def recording_forks(monkeypatch) -> list[int]:
    """Record in the returned list the pid of each child that `os.fork` makes in this process."""
    fork = os.fork
    forked: list[int] = []

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


@pytest.fixture
def triangle():
    return make_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3():
    # A - B - C
    return make_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def star4():
    # center A with leaves B, C, D
    return make_graph(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def two_triangles():
    return make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


@pytest.fixture
def barbell():
    # two K3s joined by the bridge (2, 3)
    return make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
