from __future__ import annotations

import contextlib
import gc
import math
import os
import pickle
import random
import signal
import time
from pathlib import Path

import pytest

import commgraph.community as community_module
import commgraph.graph as graph_module
from commgraph.cli import main
from commgraph.community import girvan_newman
from commgraph.errors import ConvergenceError
from commgraph.graph import (
    SWEEP_BLOCK,
    Memo,
    NodeRecord,
    Partition,
    collapse_edges,
    components,
    left_sum,
    shortest_paths,
    sweep_beside,
)
from commgraph.ingest import load_dataset
from commgraph.synth import gen_planted_partition
from conftest import make_graph, recording_forks
from oracles import all_simple_paths, floyd_warshall, random_graph, sweep_all_pairs_reference

INF = math.inf


def records(*labels):
    return [NodeRecord(label=lab) for lab in labels]


def test_left_sum_folds_left_to_right_without_compensation():
    # compensated summation (math.fsum, and sum() from Python 3.12) gives 2.0 here
    values = [1.0, 1e100, 1.0, -1e100]
    assert math.fsum(values) == 2.0
    assert left_sum(values) == 0.0
    assert left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


def test_left_sum_starts_at_int_zero_like_sum():
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert type(left_sum([1, 2])) is int
    assert left_sum([-0.0]) == 0.0 and math.copysign(1, left_sum([-0.0])) == 1


def test_memo_computes_once_per_key_and_stores_no_failure():
    calls = []

    def square(x):
        calls.append(x)
        if x < 0:
            raise KeyError(x)
        return x * x

    memo = Memo(square)
    assert [memo[3], memo[3], memo[4]] == [9, 9, 16]
    assert calls == [3, 4]
    with pytest.raises(KeyError):
        memo[-1]
    assert -1 not in memo


def test_duplicate_edges_collapse_by_summing_weights():
    g, duplicates, self_loops = collapse_edges(records("A", "B", "C"), [(0, 1, None), (1, 2, None), (1, 0, None)])
    assert g.edge_count == 2
    assert (duplicates, self_loops) == (1, 0)
    assert dict(g.adjacency[0])[1] == 2.0  # A-B seen twice at default weight 1.0


def test_table_scale_graph_has_exact_counts():
    n = 183
    edges = [(i, i + 1, None) for i in range(n - 1)]
    edges += [(i, i + 2, None) for i in range(320 - len(edges))]
    g, duplicates, self_loops = collapse_edges(records(*[f"u{i}" for i in range(n)]), edges)
    assert g.node_count == 183
    assert g.edge_count == 320
    assert (duplicates, self_loops) == (0, 0)


def test_self_loops_dropped_with_count():
    g, duplicates, self_loops = collapse_edges(records("A"), [(0, 0, None)])
    assert g.edge_count == 0
    assert (duplicates, self_loops) == (0, 1)


def test_adjacency_is_symmetric_and_sorted():
    g = make_graph(5, [(3, 1), (4, 0), (2, 0), (1, 0)])
    for u, nbrs in enumerate(g.adjacency):
        assert list(nbrs) == sorted(nbrs)
        for v, w in nbrs:
            assert (u, w) in g.adjacency[v]


def test_handshake_identity_on_random_graphs():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng)
        assert sum(g.degree(v) for v in range(g.node_count)) == 2 * g.edge_count


def test_unweighted_skeleton_keeps_structure():
    g, _, _ = collapse_edges(records("A", "B"), [(0, 1, 3.5)])
    skel = g.unweighted()
    assert skel.edge_count == 1
    assert list(skel.edges()) == [(0, 1, 1.0)]
    assert skel.labels == g.labels


def test_labels_built_once():
    g, _, _ = collapse_edges(records("B", "A"), [(1, 0, None)])
    assert g.labels == ("B", "A")
    assert g.labels is g.labels


def test_bfs_path_graph():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert shortest_paths(g.neighbor_ids, 0)[1] == [0, 1, 2]


def test_bfs_triangle():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert shortest_paths(g.neighbor_ids, 1)[1] == [1, 0, 1]


def test_bfs_unreachable_sentinel():
    g = make_graph(4, [(0, 1), (2, 3)])
    assert shortest_paths(g.neighbor_ids, 0)[1] == [0, 1, INF, INF]


def test_bfs_matches_simple_path_minimum():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng)
        for s in range(g.node_count):
            dist = shortest_paths(g.neighbor_ids, s)[1]
            for t in range(g.node_count):
                paths = all_simple_paths(g, s, t)
                expected = min((len(p) - 1 for p in paths), default=INF)
                if s == t:
                    expected = 0
                assert dist[t] == expected


def test_bfs_triangle_property():
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(rng)
        dist = shortest_paths(g.neighbor_ids, 0)[1]
        for u, v, _ in g.edges():
            assert dist[v] <= dist[u] + 1
            assert dist[u] <= dist[v] + 1


def test_shortest_paths_matches_oracles():
    rng = random.Random(19)
    for _ in range(60):
        g = random_graph(rng)
        n = g.node_count
        expected_dist = floyd_warshall(g)
        for s in range(n):
            order, dist, sigma, preds = shortest_paths(g.neighbor_ids, s)
            assert dist == expected_dist[s]
            assert sorted(order) == [t for t in range(n) if dist[t] < INF]
            assert [dist[t] for t in order] == sorted(dist[t] for t in order)
            position = {u: i for i, u in enumerate(order)}
            for t in range(n):
                shortest = [p for p in all_simple_paths(g, s, t) if len(p) - 1 == dist[t]]
                assert sigma[t] == len(shortest)
                assert set(preds[t]) == {p[-2] for p in shortest if len(p) > 1}
                assert list(preds[t]) == sorted(preds[t], key=position.get)  # discovery order
            # only a reached node other than the source gets a list of its own; the rest share ()
            assert [t for t in range(n) if isinstance(preds[t], list)] == sorted(order[1:])


def test_components_triangle():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert components(g.neighbor_ids).community_count == 1


def test_components_two_triangles():
    g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    p = components(g.neighbor_ids)
    assert p.community_count == 2
    assert p.assignment == (0, 0, 0, 1, 1, 1)


def test_components_edgeless_graph():
    g = make_graph(4, [])
    p = components(g.neighbor_ids)
    assert p.community_count == 4
    assert p.assignment == (0, 1, 2, 3)


def test_single_component_iff_no_sentinel():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng)
        p = components(g.neighbor_ids)
        reachable_all = all(d < INF for d in shortest_paths(g.neighbor_ids, 0)[1])
        assert (p.community_count == 1) == reachable_all


def test_partition_canonical_relabeling():
    p = Partition.from_assignment([2, 2, 0, 1, 0])
    assert p.assignment == (0, 0, 1, 2, 1)
    assert p.community_count == 3
    assert Partition.from_assignment(p.assignment) == p


# ------------------------------------------------------- all-pairs sweep

SAMPLE_EDGES = Path(__file__).resolve().parent.parent / "data" / "sample" / "edges.csv"


def numbered(n: int, pairs):
    g, _, _ = collapse_edges([NodeRecord(f"n{i}") for i in range(n)], [(u, v, None) for u, v in pairs])
    return g


def cycle(n: int):
    return numbered(n, [(i, (i + 1) % n) for i in range(n)])


SWEEP_GRAPHS = {
    "empty": lambda: numbered(0, []),
    "one node": lambda: numbered(1, []),
    "path of one block": lambda: numbered(SWEEP_BLOCK, [(i, i + 1) for i in range(SWEEP_BLOCK - 1)]),
    "cycle of one block plus one": lambda: cycle(SWEEP_BLOCK + 1),
    # three stars and a path, apart, over three blocks
    "disconnected": lambda: numbered(
        90, [(c, c + i) for c in (0, 20, 40) for i in range(1, 20)] + [(i, i + 1) for i in range(60, 89)]
    ),
    # every odd node has no edge
    "isolated nodes": lambda: numbered(99, [(i, (i + 2) % 98) for i in range(0, 98, 2)] + [(0, 50), (10, 72)]),
    "data/sample": lambda: load_dataset(SAMPLE_EDGES)[0],
    "planted partition": lambda: gen_planted_partition(4, 30, 0.2, 0.02, seed=3)[0],
}


def failing_at(monkeypatch, source: int, exc: BaseException) -> None:
    kernel = graph_module.shortest_paths

    def kernel_failing_once(adjacency, s):
        if s == source:
            raise exc
        return kernel(adjacency, s)

    monkeypatch.setattr(graph_module, "shortest_paths", kernel_failing_once)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("name", list(SWEEP_GRAPHS))
def test_sweep_is_bit_identical_with_any_process_count(cpus, monkeypatch, name, count):
    adjacency = SWEEP_GRAPHS[name]().neighbor_ids
    forks = recording_forks(monkeypatch)
    cpus(count)
    got = sweep_beside(adjacency, ())[0]
    want = sweep_all_pairs_reference(adjacency)
    assert got == want
    assert [x.hex() for x in got.dependency + got.harmonic] == [x.hex() for x in want.dependency + want.harmonic]
    blocks = -(-len(adjacency) // SWEEP_BLOCK)
    assert len(forks) == (min(count, blocks) if count > 1 and blocks > 1 else 0)


def collector_state(adjacency, block) -> bool:
    return gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_pool_workers_run_without_the_cyclic_collector(cpus, count, enabled):
    adjacency = SWEEP_GRAPHS["planted partition"]().neighbor_ids  # four blocks
    cpus(count)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with graph_module.block_pool(adjacency, collector_state, "collector probe") as run_round:
            states = list(run_round([range(lo, lo + SWEEP_BLOCK) for lo in range(0, len(adjacency), SWEEP_BLOCK)]))
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    # forked workers switch it off; on one CPU the blocks run here, each with it paused
    assert states == [False] * 4
    assert after is enabled


def test_a_graph_of_one_block_never_forks(cpus, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus(3)
    adjacency = SWEEP_GRAPHS["path of one block"]().neighbor_ids
    assert sweep_beside(adjacency, ())[0] == sweep_all_pairs_reference(adjacency)


# The planted partition has four blocks; a source in the first, second and
# third block fails, and the sweep names that block.
@pytest.mark.parametrize("source", [0, SWEEP_BLOCK, 3 * SWEEP_BLOCK - 1])
def test_a_failing_worker_makes_the_sweep_raise_and_write_nothing(cpus, monkeypatch, capfd, source):
    cpus(2)
    failing_at(monkeypatch, source, ValueError("kernel failed"))
    block = source // SWEEP_BLOCK
    with pytest.raises(RuntimeError, match=rf"^all-pairs sweep: block {block} of 4 did not arrive; its worker"):
        sweep_beside(SWEEP_GRAPHS["planted partition"]().neighbor_ids, ())
    assert capfd.readouterr() == ("", "")


# The worker of block 1 kills itself while computing the block, or after
# sending half of its pickle; either way this process finds the pipe ended.
@pytest.mark.parametrize("sending", [False, True], ids=["computing", "sending"])
def test_a_worker_killed_mid_sweep_makes_the_sweep_raise(cpus, monkeypatch, sending):
    kernel = graph_module.shortest_paths
    dump = pickle.dump
    doomed = []  # filled only in the process running block 1

    def kernel_of_doomed_worker(adjacency, s):
        if s == SWEEP_BLOCK + 1:
            doomed.append(s)
            if not sending:
                os.kill(os.getpid(), signal.SIGKILL)
        return kernel(adjacency, s)

    def dump_cut_short(passes, out):
        if doomed:
            data = pickle.dumps(passes)
            out.write(data[: len(data) // 2])
            out.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        dump(passes, out)

    monkeypatch.setattr(graph_module, "shortest_paths", kernel_of_doomed_worker)
    monkeypatch.setattr(pickle, "dump", dump_cut_short)
    cpus(2)
    with pytest.raises(RuntimeError, match=r"^all-pairs sweep: block 1 of 4 did not arrive"):
        sweep_beside(SWEEP_GRAPHS["planted partition"]().neighbor_ids, ())


def converging_but_block_2(adjacency, block):
    if block == 2:
        raise ConvergenceError("block 2 did not converge", 0.25)
    return block


@pytest.mark.parametrize("count", [1, 2])
def test_a_stage_error_in_a_later_block_crosses_the_pool_as_raised(cpus, monkeypatch, count):
    # an error that ended its worker would make the round raise RuntimeError instead
    adjacency = SWEEP_GRAPHS["planted partition"]().neighbor_ids  # four blocks: two workers on two CPUs
    forks = recording_forks(monkeypatch)
    cpus(count)
    got = []
    with pytest.raises(ConvergenceError) as exc:
        with graph_module.block_pool(adjacency, converging_but_block_2, "convergence probe") as run_round:
            got.extend(run_round(range(4)))
    assert (type(exc.value), str(exc.value), exc.value.residual) == (ConvergenceError, "block 2 did not converge", 0.25)
    assert got == [0, 1]
    assert len(forks) == (2 if count == 2 else 0)


@pytest.mark.parametrize("run", ["sweep", "Girvan-Newman", "raising kernel"])
def test_no_collection_starts_inside_a_block_run_in_this_process(cpus, monkeypatch, run):
    # a library caller that leaves the collector on; a low threshold makes every kernel's lists set it off
    pool = graph_module.block_pool
    inside = []
    collections = []  # per collection, whether it started while a kernel ran

    @contextlib.contextmanager
    def watched_pool(adjacency, kernel, task):
        def watched(adjacency, block):
            inside.append(block)
            try:
                return kernel(adjacency, block)
            finally:
                inside.pop()

        with pool(adjacency, watched, task) as run_round:
            yield run_round

    def hook(phase, info):
        if phase == "start":
            collections.append(bool(inside))

    monkeypatch.setattr(graph_module, "block_pool", watched_pool)
    monkeypatch.setattr(community_module, "block_pool", watched_pool)
    cpus(1)
    g = gen_planted_partition(2, 20, 0.3, 0.05, seed=2)[0] if run == "Girvan-Newman" else SWEEP_GRAPHS["planted partition"]()
    was, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(10)
    gc.callbacks.append(hook)
    try:
        if run == "sweep":
            sweep_beside(g.neighbor_ids, ())
        elif run == "Girvan-Newman":
            girvan_newman(g)  # 40 nodes: its first recompute and its tail are rounds of the pool
        else:
            with pytest.raises(ConvergenceError):
                with graph_module.block_pool(g.neighbor_ids, converging_but_block_2, "convergence probe") as run_round:
                    list(run_round(range(4)))
        after = gc.isenabled()
    finally:
        gc.callbacks.remove(hook)
        gc.set_threshold(*thresholds)
        (gc.enable if was else gc.disable)()
    assert True not in collections
    if run != "raising kernel":
        assert False in collections  # between blocks the caller's setting holds
    assert after is True


def test_a_failing_worker_makes_main_exit_2(cpus, monkeypatch, capsys):
    cpus(2)
    failing_at(monkeypatch, SWEEP_BLOCK + 1, ValueError("kernel failed"))
    assert main(["centrality", "--edges", str(SAMPLE_EDGES)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("commgraph: internal error: all-pairs sweep")


def test_an_interrupted_sweep_kills_and_reaps_its_workers(cpus, monkeypatch):
    kernel = graph_module.shortest_paths

    def stuck_at_second_block(adjacency, s):
        if s == SWEEP_BLOCK:
            time.sleep(600)  # only a kill ends this worker before the test's alarm
        return kernel(adjacency, s)

    load = pickle.load
    reads = []

    def interrupted_at_second_block(file):
        reads.append(file)
        if len(reads) == 2:
            raise KeyboardInterrupt  # as Ctrl-C would, while this process waits for block 1
        return load(file)

    fork, kill, waitpid = os.fork, os.kill, os.waitpid
    forked, killed, reaped = [], [], []

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def recording_kill(pid, signum):
        killed.append((pid, signum))
        kill(pid, signum)

    def recording_waitpid(pid, options):
        reaped.append(pid)
        return waitpid(pid, options)

    monkeypatch.setattr(graph_module, "shortest_paths", stuck_at_second_block)
    monkeypatch.setattr(pickle, "load", interrupted_at_second_block)
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "kill", recording_kill)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    cpus(3)
    with pytest.raises(KeyboardInterrupt):
        sweep_beside(SWEEP_GRAPHS["planted partition"]().neighbor_ids, ())
    assert len(reads) == 2 and len(forked) == 3
    assert killed == [(pid, signal.SIGKILL) for pid in forked]
    assert reaped == forked
