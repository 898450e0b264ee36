from __future__ import annotations

import contextlib
import math
import os
import pickle
import random
import signal
import time
from collections import Counter
from pathlib import Path

import pytest

import commgraph.community as community_module
import oracles
from commgraph.cli import main
from commgraph.community import (
    AggregateGraph,
    aggregate_graph,
    girvan_newman,
    gn_trace_to_csv,
    louvain,
    modularity,
    normalized_mutual_information,
    partition_to_csv,
    _modularity_kernel,
)
from commgraph.graph import SWEEP_BLOCK, Memo, NodeRecord, Partition, collapse_edges, components
from commgraph.ingest import load_dataset
from commgraph.synth import gen_planted_partition, gen_ring_of_cliques
from conftest import edge_betweenness, make_graph, recording_forks
from oracles import (
    edge_betweenness_by_enumeration,
    girvan_newman_full_recompute,
    louvain_reference,
    modularity_pairwise,
    random_graph,
)


def singletons(n):
    return Partition(tuple(range(n)), n)


def one_block(n):
    return Partition((0,) * n, 1)


# ------------------------------------------------------------ modularity


def test_modularity_two_triangles(two_triangles):
    p = Partition((0, 0, 0, 1, 1, 1), 2)
    assert modularity(two_triangles, p) == pytest.approx(0.5)


def test_modularity_single_community_zero(barbell):
    assert modularity(barbell, one_block(6)) == pytest.approx(0.0)


def test_modularity_k2_singletons():
    g = make_graph(2, [(0, 1)])
    assert modularity(g, singletons(2)) == pytest.approx(-0.5)


def test_modularity_matches_pairwise_double_sum():
    rng = random.Random(41)
    checked = 0
    while checked < 50:
        g = random_graph(rng)
        if g.edge_count == 0:
            continue
        checked += 1
        n = g.node_count
        assignment = [rng.randrange(1 + rng.randrange(n)) for _ in range(n)]
        p = Partition.from_assignment(assignment)
        assert modularity(g, p) == pytest.approx(modularity_pairwise(g, p.assignment), abs=1e-12)


# ------------------------------------------------------------- aggregate


def test_aggregate_two_triangles_with_bridge(barbell):
    p = Partition((0, 0, 0, 1, 1, 1), 2)
    agg = aggregate_graph(AggregateGraph.from_graph(barbell), p)
    assert agg.node_count == 2
    assert agg.self_loops == [3.0, 3.0]
    assert agg.adjacency[0] == ((1, 1.0),)
    assert agg.total_weight == pytest.approx(7.0)


def test_louvain_form_shares_the_graph_adjacency_unless_scaling_is_needed():
    g = _weighted_numbered_graph(3, [(0, 1), (1, 2)], [3.0, 0.25])
    agg = AggregateGraph.from_graph(g)
    assert agg.adjacency is g.adjacency
    assert agg.total_weight == 3.25 and agg.total_weight is agg.total_weight
    huge = _weighted_numbered_graph(3, [(0, 1), (1, 2)], [2.0**70, 2.0**66])
    assert AggregateGraph.from_graph(huge).adjacency == (((1, 1.0),), ((0, 1.0), (2, 0.0625)), ((1, 0.0625),))


def test_aggregate_singleton_partition_is_identity(barbell):
    agg = aggregate_graph(AggregateGraph.from_graph(barbell), singletons(6))
    assert agg.self_loops == [0.0] * 6
    assert agg.adjacency == barbell.adjacency


def test_aggregate_all_in_one(barbell):
    agg = aggregate_graph(AggregateGraph.from_graph(barbell), one_block(6))
    assert agg.node_count == 1
    assert agg.self_loops == [7.0]
    assert agg.total_weight == pytest.approx(7.0)


def test_aggregate_preserves_modularity(two_triangles):
    p = Partition((0, 0, 0, 1, 1, 1), 2)
    agg = aggregate_graph(AggregateGraph.from_graph(two_triangles), p)
    q_agg = _modularity_kernel(agg, list(range(agg.node_count)))
    assert q_agg == pytest.approx(modularity(two_triangles, p), abs=1e-12)


# --------------------------------------------------------------- louvain


def test_louvain_two_triangles(two_triangles):
    dend = louvain(two_triangles)
    assert dend.final_partition == Partition((0, 0, 0, 1, 1, 1), 2)
    assert dend.final_q == pytest.approx(0.5)


def test_louvain_single_edge_merges():
    g = make_graph(2, [(0, 1)])
    dend = louvain(g)
    assert dend.final_partition.community_count == 1
    assert dend.final_q == pytest.approx(0.0)


def test_louvain_ring_of_cliques_recovers_cliques():
    g, truth = gen_ring_of_cliques(4, 5)
    dend = louvain(g)
    assert dend.final_partition == truth
    # oracle: no single-node move and no clique merge improves Q
    q = dend.final_q
    assignment = list(dend.final_partition.assignment)
    for v in range(g.node_count):
        for target in {assignment[u] for u in g.neighbor_ids[v]} - {assignment[v]}:
            trial = assignment.copy()
            trial[v] = target
            assert modularity(g, Partition.from_assignment(trial)) < q
    for a in range(4):
        for b in range(a + 1, 4):
            trial = [b if c == a else c for c in assignment]
            assert modularity(g, Partition.from_assignment(trial)) < q


def test_louvain_q_matches_independent_recompute():
    rng = random.Random(43)
    checked = 0
    while checked < 40:
        g = random_graph(rng)
        if g.edge_count == 0:
            continue
        checked += 1
        dend = louvain(g)
        for level, q in zip(dend.levels, dend.q_per_level):
            assert q == pytest.approx(modularity(g, level), abs=1e-12)
        qs = list(dend.q_per_level)
        assert qs == sorted(qs)  # non-decreasing
        assert dend.final_q >= modularity(g, one_block(g.node_count)) - 1e-12


def test_louvain_levels_are_coarsenings():
    rng = random.Random(47)
    for _ in range(20):
        g = random_graph(rng)
        if g.edge_count == 0:
            continue
        dend = louvain(g)
        assert all(level == Partition.from_assignment(level.assignment) for level in dend.levels)
        for fine, coarse in zip(dend.levels, dend.levels[1:]):
            mapping = {}
            for node in range(g.node_count):
                f, c = fine.assignment[node], coarse.assignment[node]
                assert mapping.setdefault(f, c) == c


def test_louvain_deterministic(two_triangles):
    assert louvain(two_triangles) == louvain(two_triangles)


def test_louvain_relabeling_gives_isomorphic_partition():
    # Sweep order follows node ids, so invariance under relabeling is only
    # guaranteed where the optimum is unambiguous; greedy moves may land in
    # different local optima on graphs with competing near-ties.
    rng = random.Random(53)
    structured = [
        make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        make_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (5, 6)]),
        gen_ring_of_cliques(3, 4)[0],
    ]
    for g in structured:
        for _ in range(5):
            n = g.node_count
            perm = list(range(n))
            rng.shuffle(perm)
            records = [None] * n
            for old, new in enumerate(perm):
                records[new] = NodeRecord(label=f"n{old}")
            g2, _, _ = collapse_edges(records, [(perm[u], perm[v], w) for u, v, w in g.edges()])
            p1 = louvain(g).final_partition
            p2 = louvain(g2).final_partition
            pulled_back = Partition.from_assignment([p2.assignment[perm[v]] for v in range(n)])
            assert p1 == pulled_back


def test_louvain_recovers_planted_partition():
    g, truth = gen_planted_partition(4, 32, 0.3, 0.01, seed=42)
    dend = louvain(g)
    assert normalized_mutual_information(dend.final_partition, truth) >= 0.95


# ------------------------------------------------------ edge betweenness


def test_edge_betweenness_barbell_bridge(barbell):
    scores = edge_betweenness(barbell)
    assert scores[(2, 3)] == pytest.approx(9.0)


def test_edge_betweenness_triangle(triangle):
    assert all(s == pytest.approx(1.0) for s in edge_betweenness(triangle).values())


def test_edge_betweenness_path(path3):
    scores = edge_betweenness(path3)
    assert scores[(0, 1)] == pytest.approx(2.0)
    assert scores[(1, 2)] == pytest.approx(2.0)


def test_edge_betweenness_matches_enumeration():
    rng = random.Random(59)
    for _ in range(40):
        g = random_graph(rng)
        got = edge_betweenness(g)
        want = edge_betweenness_by_enumeration(g)
        assert got.keys() == want.keys()
        for e in got:
            assert got[e] == pytest.approx(want[e], abs=1e-9)


# --------------------------------------------------------- girvan-newman


def test_girvan_newman_barbell(barbell):
    trace = girvan_newman(barbell)
    assert trace.removals[0][0] == (2, 3)  # bridge goes first
    assert trace.best_q == pytest.approx(0.35714, abs=1e-5)
    assert trace.best_partition == Partition((0, 0, 0, 1, 1, 1), 2)
    assert len(trace.removals) == barbell.edge_count


def test_girvan_newman_two_triangles(two_triangles):
    trace = girvan_newman(two_triangles)
    assert trace.best_q == pytest.approx(0.5)
    assert trace.best_partition == Partition((0, 0, 0, 1, 1, 1), 2)


def test_girvan_newman_k2():
    g = make_graph(2, [(0, 1)])
    trace = girvan_newman(g)
    assert trace.best_q == pytest.approx(0.0)
    assert trace.best_partition.community_count == 1
    assert len(trace.removals) == 1


def test_girvan_newman_nonnegative_on_disconnected():
    g = make_graph(5, [(0, 1), (2, 3), (3, 4)])
    assert girvan_newman(g).best_q >= 0.0


def _numbered_graph(n, pairs):
    records = [NodeRecord(label=f"n{i}") for i in range(n)]
    g, _, _ = collapse_edges(records, [(u, v, None) for u, v in pairs])
    return g


def _cycle(n, base=0):
    return [(base + i, base + (i + 1) % n) for i in range(n)]


def _torus_beside_path():
    """A 6x6 torus (ids 0-35) beside a 32-node path (36-67): 68 nodes, 103 edges.

    The path's edges score highest, so GN's first three removals cut it
    while the 36-node torus still has more than SWEEP_BLOCK nodes. Each of
    them is rescored in this process, and the next pool round, the torus's
    first recompute, carries the path's three removed edges to the workers
    with the torus's own; the path's pieces then reach the tail's blocks.
    """
    torus = [(r * 6 + c, r * 6 + (c + 1) % 6) for r in range(6) for c in range(6)]
    torus += [(r * 6 + c, (r + 1) % 6 * 6 + c) for r in range(6) for c in range(6)]
    return _numbered_graph(68, torus + [(i, i + 1) for i in range(36, 67)])


def _gn_differential_graphs():
    """Tie-heavy shapes, disconnected unions with isolates, and random graphs.

    A ring of six 6-cliques, a planted partition of 40 nodes and a torus
    beside a path (`_torus_beside_path`) have more than one block of
    sources, so their recomputes add block sums.
    """
    graphs = [_numbered_graph(n, _cycle(n)) for n in (4, 6, 8, 10, 12)]
    graphs += [gen_ring_of_cliques(k, s)[0] for k, s in ((3, 3), (4, 4), (5, 3), (3, 5), (6, 6))]
    graphs.append(gen_planted_partition(2, 20, 0.3, 0.05, seed=2)[0])
    graphs.append(_numbered_graph(14, _cycle(6) + _cycle(4, base=6)))  # plus 4 isolates
    graphs.append(_numbered_graph(6, [(a, b) for a in range(3) for b in range(3, 6)]))  # K3,3
    graphs.append(_numbered_graph(8, [(a, a ^ bit) for a in range(8) for bit in (1, 2, 4) if a < a ^ bit]))  # 3-cube
    rng = random.Random(2002)
    while len(graphs) < 100:
        n = rng.randint(2, 22)
        p = rng.uniform(0.05, 0.5)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if pairs:
            graphs.append(_numbered_graph(n, pairs))
    graphs.append(_torus_beside_path())
    return graphs


def test_girvan_newman_matches_full_recompute():
    # the component-local recompute must give the full recompute's trace, ties and floats included
    # (the same tie rule on both sides), block sums included
    graphs = _gn_differential_graphs()
    assert sum(components(g.neighbor_ids).community_count > 1 for g in graphs) >= 20
    assert sum(g.node_count > SWEEP_BLOCK for g in graphs) >= 2
    for g in graphs:
        assert girvan_newman(g) == girvan_newman_full_recompute(g)


def _count_calls(monkeypatch, module, names):
    """Wrap `module.<name>` for each name; returns the live call counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _fn=getattr(module, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    return counts


def _component_of(adjacency, s):
    seen, stack = {s}, [s]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_girvan_newman_work_is_pinned(cpus):
    # on one CPU every BFS runs in this process. GN labels components once,
    # evaluates Q once plus once per split, and runs one BFS per recomputed
    # source. In a recompute of one block the reach BFS from u (and from v on
    # a split) is the first of them; a recompute of more blocks runs every
    # source afresh, after the reach BFS. The tail's components run through
    # the pool's one-process path with the same one-block recomputes. The
    # graphs have one and two blocks
    cpus(1)
    for planted in ((3, 10, 0.3, 0.02, 5), (2, 20, 0.3, 0.05, 2)):
        g, _ = gen_planted_partition(*planted[:4], seed=planted[4])
        oracle = girvan_newman_full_recompute(g)
        adjacency = [set(nbrs) for nbrs in g.neighbor_ids]
        splits, bfs, blocked = 0, g.node_count, 0
        for (u, v), _ in oracle.removals:
            adjacency[u].remove(v)
            adjacency[v].remove(u)
            side = _component_of(adjacency, u)
            if v in side:
                reach, sources = 1, len(side)
            else:
                splits += 1
                reach, sources = 2, len(side) + len(_component_of(adjacency, v))
            if sources > SWEEP_BLOCK:
                blocked += 1
                bfs += reach
            bfs += sources
        assert splits == g.node_count - 1  # the planted graph is connected
        assert (blocked > 0) == (g.node_count > SWEEP_BLOCK)

        with pytest.MonkeyPatch.context() as mp:
            counts = _count_calls(mp, community_module, ["components", "_modularity_kernel", "shortest_paths"])
            assert girvan_newman(g) == oracle
        assert counts == {"components": 1, "_modularity_kernel": 1 + splits, "shortest_paths": bfs}


# -------------------------------------------- girvan-newman process count

SAMPLE_EDGES = Path(__file__).resolve().parent.parent / "data" / "sample" / "edges.csv"


def _interleaved_components():
    """Two 40-node components on the even and the odd ids below 80, then a 10-cycle and 5 isolates.

    Each component's sources lie in all three blocks of ids, and every
    recompute of a whole component cuts them into two blocks of its own.
    """
    rng = random.Random(15)
    pairs = _cycle(10, base=80)
    for members in (list(range(0, 80, 2)), list(range(1, 80, 2))):
        pairs += [(members[i], members[(i + 1) % 40]) for i in range(40)]
        pairs += [tuple(rng.sample(members, 2)) for _ in range(30)]
    return _numbered_graph(95, pairs)


GN_GRAPHS = {
    "one block": lambda: gen_ring_of_cliques(4, SWEEP_BLOCK // 4)[0],
    "two blocks": lambda: gen_ring_of_cliques(5, 8)[0],
    "components straddling blocks": _interleaved_components,
    "data/sample": lambda: load_dataset(SAMPLE_EDGES)[0],
    "planted N = 120": lambda: gen_planted_partition(4, 30, 0.2, 0.01, seed=1)[0],
    # its tail is eight identical cliques, whose scores tie exactly across components
    "ring of 8 cliques of 6": lambda: gen_ring_of_cliques(8, 6)[0],
    # removals rescored in this process stay pending until the next pool round
    "torus beside a path": _torus_beside_path,
}


@pytest.fixture(scope="module")
def gn_on_one_cpu():
    """GN's trace of each graph in GN_GRAPHS, run in one process once per module."""

    def trace(name):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0})
            return girvan_newman(GN_GRAPHS[name]())

    return Memo(trace)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("name", list(GN_GRAPHS))
def test_girvan_newman_is_identical_with_any_process_count(cpus, monkeypatch, gn_on_one_cpu, name, count):
    want = gn_on_one_cpu[name]
    g = GN_GRAPHS[name]()
    forks = recording_forks(monkeypatch)
    cpus(count)
    assert girvan_newman(g) == want
    # one pool for the whole run, never one fork per removal
    blocks = -(-g.node_count // SWEEP_BLOCK)
    assert len(forks) == (min(count, blocks) if count > 1 and blocks > 1 else 0)


def _recording_rounds(monkeypatch) -> list:
    """Record in the returned list the blocks of each round of GN's `block_pool`."""
    pool = community_module.block_pool
    rounds = []

    @contextlib.contextmanager
    def recording_pool(adjacency, kernel, task):
        with pool(adjacency, kernel, task) as run_round:
            def recording_round(blocks, removed=()):
                rounds.append(blocks)
                return run_round(blocks, removed)

            yield recording_round

    monkeypatch.setattr(community_module, "block_pool", recording_pool)
    return rounds


def _components_at_handoff(g, trace):
    """The components with an edge once GN's removals leave none of more than SWEEP_BLOCK nodes, as edge sets."""
    adjacency = [list(nbrs) for nbrs in g.neighbor_ids]
    removals = iter(trace.removals)
    while max(Counter(components(adjacency).assignment).values()) > SWEEP_BLOCK:
        (u, v), _ = next(removals)
        adjacency[u].remove(v)
        adjacency[v].remove(u)
    label = components(adjacency).assignment
    edges = {}
    for u, v in sorted((u, v) for u, nbrs in enumerate(adjacency) for v in nbrs if u < v):
        edges.setdefault(label[u], set()).add((u, v))
    return list(edges.values())


@pytest.mark.parametrize("count", [1, 2])
def test_the_tail_of_girvan_newman_is_one_pool_round(cpus, monkeypatch, count):
    # whatever the number of components left, the tail is the pool's last round, one block per component
    triangles = _numbered_graph(60, [(t + a, t + b) for t in range(0, 60, 3) for a, b in ((0, 1), (0, 2), (1, 2))])
    rounds = _recording_rounds(monkeypatch)
    cpus(count)
    tail_blocks = []
    for g in (triangles, GN_GRAPHS["ring of 8 cliques of 6"](), GN_GRAPHS["planted N = 120"]()):
        rounds.clear()
        trace = girvan_newman(g)
        tail = [blocks for blocks in rounds if isinstance(blocks[0], dict)]
        assert len(tail) == 1 and tail[0] is rounds[-1]
        ends = [(u, v) for u, v, _ in g.edges()]  # edge numbers are `g.edges()` order
        assert [{ends[k] for k in block} for block in tail[0]] == _components_at_handoff(g, trace)
        tail_blocks.append(len(tail[0]))
    assert tail_blocks[0] == 20 and len(set(tail_blocks)) == 3


def test_girvan_newman_runs_the_tail_itself_when_a_near_tie_spans_components(cpus, monkeypatch):
    # widened to 5%, the tie band lets a component's top come near another's while its
    # logged edge falls below the band, so the merge gives up and this process runs the tail
    monkeypatch.setattr(community_module, "_GN_TIE_REL", 0.05)
    monkeypatch.setattr(oracles, "_GN_TIE_REL", 0.05)
    merge = community_module._merge_logs
    undecided = []

    def recording_merge(logs):
        merged = merge(logs)
        undecided.append(merged is None)
        return merged

    monkeypatch.setattr(community_module, "_merge_logs", recording_merge)
    graphs = [g for g in _gn_differential_graphs() if components(g.neighbor_ids).community_count > 1]
    # a 4-node tree beside an 8-node component whose tops come within 5% of each
    # other; 30 isolates make two blocks of nodes, so the tail runs in workers
    tree = [(0, 1), (1, 2), (1, 3)]
    other = [(4, 5), (4, 7), (4, 8), (5, 6), (5, 10), (6, 8), (6, 9), (8, 10), (8, 11), (9, 10), (9, 11)]
    graphs.append(_numbered_graph(42, tree + other))
    for count in (1, 2):
        cpus(count)
        undecided.clear()
        for g in graphs:
            assert girvan_newman(g) == girvan_newman_full_recompute(g)
        assert any(undecided)


def _failing_in_workers_after_a_removal(monkeypatch, g) -> None:
    """GN's kernel raises in a worker process once the worker has deleted an edge, so the first round succeeds."""
    kernel = community_module.shortest_paths
    parent, arcs = os.getpid(), 2 * g.edge_count

    def kernel_failing_later(adjacency, s):
        if os.getpid() != parent and sum(map(len, adjacency)) < arcs:
            raise ValueError("kernel failed")
        return kernel(adjacency, s)

    monkeypatch.setattr(community_module, "shortest_paths", kernel_failing_later)


def test_a_worker_failing_in_a_later_round_makes_girvan_newman_raise(cpus, monkeypatch):
    g = load_dataset(SAMPLE_EDGES)[0]
    _failing_in_workers_after_a_removal(monkeypatch, g)
    load = pickle.load
    arrived = []

    def counting_load(file):
        result = load(file)
        arrived.append(1)  # in this process, a block that arrived
        return result

    monkeypatch.setattr(pickle, "load", counting_load)
    cpus(2)
    with pytest.raises(RuntimeError, match=r"^Girvan-Newman: block 0 of 3 did not arrive; its worker process failed$"):
        girvan_newman(g)
    assert len(arrived) == 3  # the three 16-source blocks of the first round


def test_a_worker_failing_in_a_later_round_makes_main_exit_2(cpus, monkeypatch, capsys, tmp_path):
    _failing_in_workers_after_a_removal(monkeypatch, load_dataset(SAMPLE_EDGES)[0])
    cpus(2)
    argv = ["communities", "--edges", str(SAMPLE_EDGES), "--out", str(tmp_path / "p.csv")]
    assert main([*argv, "--gn-out", str(tmp_path / "gn.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("commgraph: internal error: Girvan-Newman: block 0 of 3 did not arrive")
    assert list(tmp_path.iterdir()) == []


def test_a_worker_gone_between_rounds_makes_girvan_newman_raise(cpus, monkeypatch):
    # as when Linux's out-of-memory killer ends an idle worker: the next
    # round's message finds its pipe closed
    dumps = pickle.dumps
    messages = []

    def killing_worker_0_before_round_2(obj):
        messages.append(obj)
        if len(messages) == 2:
            os.kill(forked[0], signal.SIGKILL)
            stat = Path(f"/proc/{forked[0]}/stat")
            while stat.read_text().rsplit(")", 1)[1].split()[0] != "Z":  # dead, its pipes closed, not yet reaped
                time.sleep(0.01)
        return dumps(obj)

    forked = recording_forks(monkeypatch)
    monkeypatch.setattr(pickle, "dumps", killing_worker_0_before_round_2)
    cpus(2)
    with pytest.raises(RuntimeError, match=r"^Girvan-Newman: worker process 0 ended between rounds$"):
        girvan_newman(load_dataset(SAMPLE_EDGES)[0])
    assert len(messages) == 2


def test_an_interrupted_girvan_newman_kills_and_reaps_its_workers(cpus, monkeypatch):
    load = pickle.load
    parent = os.getpid()
    reads = []

    def interrupted_in_second_round(file):
        if os.getpid() == parent:
            reads.append(file)
            if len(reads) == 3:
                raise KeyboardInterrupt  # as Ctrl-C would, while this process waits for round 2's first block
        return load(file)

    kill, waitpid = os.kill, os.waitpid
    killed, reaped = [], []

    def recording_kill(pid, signum):
        killed.append((pid, signum))
        kill(pid, signum)

    def recording_waitpid(pid, options):
        reaped.append(pid)
        return waitpid(pid, options)

    monkeypatch.setattr(pickle, "load", interrupted_in_second_round)
    forked = recording_forks(monkeypatch)
    monkeypatch.setattr(os, "kill", recording_kill)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    cpus(3)
    with pytest.raises(KeyboardInterrupt):
        girvan_newman(GN_GRAPHS["planted N = 120"]())
    assert len(reads) == 3 and len(forked) == 3
    assert killed == [(pid, signal.SIGKILL) for pid in forked]
    assert reaped == forked


def test_louvain_evaluates_no_q_for_a_level_that_moved_nothing(monkeypatch):

    counts = _count_calls(monkeypatch, community_module, ["_modularity_kernel"])
    for g in (gen_ring_of_cliques(6, 4)[0], gen_planted_partition(3, 10, 0.3, 0.02, seed=5)[0]):
        counts["_modularity_kernel"] = 0
        d = louvain(g)
        # one Q per kept level: the last sweep moved no node, so nothing was projected
        assert counts["_modularity_kernel"] == len(d.levels)
        assert d == louvain_reference(g)


def _weighted_numbered_graph(n, pairs, weights):
    records = [NodeRecord(label=f"n{i}") for i in range(n)]
    g, _, _ = collapse_edges(records, [(u, v, w) for (u, v), w in zip(pairs, weights)])
    return g


def _louvain_differential_graphs():
    """Regular graphs and rings of cliques (tie-heavy), disconnected unions with
    isolates, and random graphs, under integer, tenth and third weights."""
    def ring(k, s):
        return [(u, v) for u, v, _ in gen_ring_of_cliques(k, s)[0].edges()]

    rng = random.Random(2008)
    shapes = [(n, _cycle(n)) for n in (4, 6, 9, 16)]
    shapes += [(n, [(a, b) for a in range(n) for b in range(a + 1, n)]) for n in (4, 7)]  # complete
    shapes += [(n, [(a, (a + d) % n) for a in range(n) for d in offsets])  # circulant, 4-regular
               for n, offsets in ((10, (1, 2)), (12, (1, 3)), (15, (1, 5)))]
    shapes.append((6, [(a, b) for a in range(3) for b in range(3, 6)]))  # K3,3
    shapes += [(2 ** d, [(a, a ^ (1 << i)) for a in range(2 ** d) for i in range(d) if a < a ^ (1 << i)])
               for d in (3, 4)]  # hypercubes
    shapes += [(k * s, ring(k, s)) for k, s in ((3, 3), (4, 4), (6, 3), (5, 5))]
    shapes.append((20, _cycle(6) + [(6 + a, 6 + b) for a, b in ring(3, 3)]))  # plus 5 isolates
    shapes.append((14, _cycle(4) + _cycle(5, base=4)))  # plus 5 isolates
    schemes = (
        lambda: 1.0,
        lambda: 0.1,
        lambda: 1 / 3,
        lambda: rng.randint(1, 20) * 0.1,
        lambda: rng.randint(1, 9) / 3,
    )
    graphs = [_weighted_numbered_graph(n, pairs, [w() for _ in pairs]) for n, pairs in shapes for w in schemes]
    while len(graphs) < 130:
        n = rng.randint(3, 40)
        p = rng.uniform(0.05, 0.4)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        w = schemes[rng.randrange(3, 5)]
        if pairs:
            graphs.append(_weighted_numbered_graph(n, pairs, [w() for _ in pairs]))
    # one non-integer weight per graph: gains tie in exact arithmetic, and the
    # rounding of the community totals (each visit's leave-and-re-enter
    # included) decides the tie
    while len(graphs) < 330:
        n = rng.randint(4, 14)
        p = rng.uniform(0.15, 0.6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if pairs:
            graphs.append(_weighted_numbered_graph(n, pairs, [rng.choice((0.1, 0.3, 0.7, 1 / 3))] * len(pairs)))
    # found by random search: summing a node's link weights in any order but
    # its neighbor order changes these dendrograms
    for pairs, tenths in (
        ([(0, 2), (0, 3), (0, 4), (0, 5), (1, 5), (1, 6), (1, 7), (2, 3),
          (2, 4), (2, 5), (3, 5), (3, 6), (3, 7), (4, 5), (5, 6), (5, 7)], "3221232133221321"),
        ([(0, 2), (0, 3), (0, 5), (0, 6), (1, 4), (1, 7), (2, 3), (2, 6),
          (2, 7), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (4, 7), (5, 7)], "1233233331131232"),
    ):
        graphs.append(_weighted_numbered_graph(8, pairs, [int(t) / 10 for t in tenths]))
    return graphs


def test_louvain_matches_reference():
    # cached link sums and the explicit tie rule must give the reference's
    # dendrogram, partitions and every Q bit included
    graphs = _louvain_differential_graphs()
    assert sum(components(g.neighbor_ids).community_count > 1 for g in graphs) >= 20
    assert sum(any(w != round(w) for _, _, w in g.edges()) for g in graphs) >= 250
    for g in graphs:
        assert louvain(g) == louvain_reference(g)


@pytest.mark.parametrize("exponent", [-1000, -70, -1, 1, 70, 1000])
def test_scaling_every_weight_by_a_power_of_two_changes_nothing(exponent):
    # the scaling is exact and Q is scale-free, so every tie and Q bit holds;
    # at 2**-1000 Louvain's 2*m*m underflowed and at 2**1000 m*m overflowed.
    # From 2**±70 on, `AggregateGraph.from_graph` scales the weights back,
    # while the unscaled graph is used as it is
    for g in _louvain_differential_graphs()[::25]:
        scaled = _weighted_numbered_graph(
            g.node_count, [(u, v) for u, v, _ in g.edges()], [math.ldexp(w, exponent) for _, _, w in g.edges()]
        )
        assert louvain(scaled) == louvain(g)
        assert girvan_newman(scaled) == girvan_newman(g)


def _pieces_beyond_communities(g, p):
    """How many more connected pieces than communities `g` has once every edge between communities is cut.

    Each community is a union of pieces, so 0 means every community is connected.
    """
    inside = [[w for w in g.neighbor_ids[v] if p.assignment[w] == p.assignment[v]] for v in range(g.node_count)]
    return components(inside).community_count - p.community_count


def test_no_louvain_community_is_internally_disconnected():
    # Louvain can in principle leave a community whose members are joined only
    # through nodes that moved away (Traag, Waltman & van Eck 2019); pin that
    # it does not on these inputs, at every level
    from commgraph.ingest import load_dataset

    sample = Path(__file__).resolve().parent.parent / "data" / "sample"
    collab, _ = load_dataset(*(sample / "collab" / f for f in ("edges.csv", "nodes.csv", "aliases.csv")))
    graphs = [load_dataset(sample / "edges.csv")[0], collab, collab.unweighted()]
    rng = random.Random(2019)
    while len(graphs) < 3 + 100:
        n = rng.randint(30, 300)
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(int(n * rng.uniform(0.5, 3)))}
        graphs.append(_numbered_graph(n, sorted(pairs)))
    for g in graphs:
        for level in louvain(g).levels:
            assert _pieces_beyond_communities(g, level) == 0


# ---------------------------------------------------- partition compare


def test_compare_identical(two_triangles):
    p = louvain(two_triangles).final_partition
    assert normalized_mutual_information(p, p) == pytest.approx(1.0)


def test_compare_relabel_is_identical():
    a = Partition.from_assignment([0, 0, 1, 1])
    b = Partition.from_assignment([1, 1, 0, 0])  # canonicalizes to a
    assert a == b


def test_compare_independent_partitions_nmi_zero():
    a = Partition.from_assignment([0, 0, 1, 1])  # {AB|CD}
    b = Partition.from_assignment([0, 1, 0, 1])  # {AC|BD}
    assert a != b
    assert normalized_mutual_information(a, b) == pytest.approx(0.0, abs=1e-12)


def test_compare_single_community_pair_defined():
    a, b = one_block(4), one_block(4)
    assert a == b
    assert normalized_mutual_information(a, b) == 1.0


# ----------------------------------------------------------- csv output


def test_partition_csv(two_triangles):
    text = partition_to_csv(two_triangles, louvain(two_triangles).final_partition)
    lines = text.strip().split("\n")
    assert lines[0] == "label,community"
    assert lines[1] == "A,0"
    assert lines[4] == "D,1"


def test_gn_trace_csv(barbell):
    text = gn_trace_to_csv(barbell.labels, girvan_newman(barbell))
    lines = text.strip().split("\n")
    assert lines[0] == "step,removed_u,removed_v,modularity"
    assert lines[1].startswith("1,C,D,")
    assert len(lines) == 1 + barbell.edge_count


def test_gn_trace_csv_quotes_a_label_with_a_comma_a_quote_and_a_newline(barbell):
    labels = ["A", "B", 'C, "west"\nwing', "D", "E", "F"]
    text = gn_trace_to_csv(labels, girvan_newman(barbell))
    assert text.startswith('step,removed_u,removed_v,modularity\n1,"C, ""west""\nwing",D,')
