"""Immutable undirected weighted simple graph over dense integer node ids."""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import math
import os
import pickle
import signal
import threading
from array import array
from operator import add
from typing import NamedTuple

from .errors import CommGraphError

INF = math.inf


def left_sum(values):
    """Add `values` one by one from the left, starting at int 0.

    This is what `sum()` did before Python 3.12; from 3.12 `sum()` over
    floats compensates rounding error, so the same floats can sum to a
    different last digit. Every float sum that reaches report, trace or
    export bytes uses this instead, so the bytes match on every Python.
    """
    total = 0
    for x in values:
        total += x
    return total


class Memo(dict):
    """A dict that fills itself: `memo[key]` is `fn(key)`, computed once per key.

    If `fn` raises, nothing is stored and the exception propagates.
    """

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class NodeRecord(NamedTuple):
    """Institution attributes carried on a node.

    `external_score` is an opaque imported attribute; nothing in this package
    computes or interprets it.
    """

    label: str
    kind: str = "other"
    location: str | None = None
    external_score: float | None = None


class Graph:
    """Undirected weighted simple graph; immutable after construction.

    Node ids are dense 0..N-1 indices into `records`. `adjacency[u]` lists
    (neighbor, weight) pairs sorted by neighbor id; it is symmetric, holds no
    self-loops and at most one entry per neighbor. Two graphs are equal when
    their records, adjacency and edge counts are.
    """

    records: tuple[NodeRecord, ...]
    adjacency: tuple[tuple[tuple[int, float], ...], ...]
    edge_count: int

    def __init__(self, records, adjacency, edge_count):
        self.records = records
        self.adjacency = adjacency
        self.edge_count = edge_count

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.records, self.adjacency, self.edge_count) == (other.records, other.adjacency, other.edge_count)

    @property
    def node_count(self) -> int:
        return len(self.records)

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.records)

    @functools.cached_property
    def label_order(self) -> tuple[int, ...]:
        """Node ids by case-folded label, then by label: the row order of every per-node table."""
        labels = self.labels
        return tuple(sorted(range(self.node_count), key=lambda v: (labels[v].casefold(), labels[v])))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @functools.cached_property
    def neighbor_ids(self) -> tuple[tuple[int, ...], ...]:
        """Weight-free adjacency: `neighbor_ids[u]` lists u's neighbors by ascending id."""
        return tuple(tuple(n for n, _ in nbrs) for nbrs in self.adjacency)

    def edges(self):
        """Yield (u, v, weight) with u < v, ascending."""
        for u, nbrs in enumerate(self.adjacency):
            for v, w in nbrs:
                if u < v:
                    yield u, v, w

    def unweighted(self) -> Graph:
        """Skeleton copy with every edge weight reset to 1.0."""
        adjacency = tuple(tuple((n, 1.0) for n, _ in nbrs) for nbrs in self.adjacency)
        return Graph(self.records, adjacency, self.edge_count)


class _PartitionFields(NamedTuple):
    assignment: tuple[int, ...]
    community_count: int


class Partition(_PartitionFields):
    """Total assignment of node ids to contiguous community ids.

    Always in canonical form: community ids appear in order of their
    smallest member, so two partitions with the same blocks compare equal.
    """

    __slots__ = ()

    def __new__(cls, assignment: tuple[int, ...], community_count: int) -> Partition:
        # first appearances 0, 1, 2, ... imply contiguous ids in canonical order
        if list(dict.fromkeys(assignment)) != list(range(community_count)):
            raise ValueError("community ids must be 0..community_count-1 in order of first appearance")
        return super().__new__(cls, assignment, community_count)

    @classmethod
    def from_assignment(cls, labels) -> Partition:
        """Canonicalize arbitrary hashable labels into contiguous ids."""
        remap: dict = {}
        out = []
        for lab in labels:
            if lab not in remap:
                remap[lab] = len(remap)
            out.append(remap[lab])
        return cls(tuple(out), len(remap))


def collapse_edges(records, edges) -> tuple[Graph, int, int]:
    """Assemble a Graph from node records and (u, v, weight) node-id triples.

    Returns the graph, the number of parallel edges collapsed and the number
    of self-loops dropped. A weight of None counts as 1.0; weights are
    positive and finite (ingest rejects any other row). Parallel edges
    collapse by summing weights; a sum may overflow to inf, which ingest
    refuses, naming the row.
    """
    records = tuple(records)
    n = len(records)
    duplicates = self_loops = 0
    weights: dict[int, float] = {}  # keyed u * n + v with u < v: an int hashes faster than a pair
    for u, v, w in edges:
        if w is None:
            w = 1.0
        if u == v:
            self_loops += 1
            continue
        key = u * n + v if u < v else v * n + u
        if key in weights:
            weights[key] += w
            duplicates += 1
        else:
            weights[key] = w

    node = list(range(n))  # one int object per node id, shared by every pair that names it
    ends: list[list[int]] = [[] for _ in records]
    ends_weights: list[list[float]] = [[] for _ in records]
    # in ascending (u, v) order every list fills in ascending neighbor id
    for key in sorted(weights):
        u, v = divmod(key, n)
        w = weights[key]
        ends[u].append(node[v])
        ends_weights[u].append(w)
        ends[v].append(node[u])
        ends_weights[v].append(w)
    # A node's pairs, with a fresh float for each weight, are made together, so
    # they lie together in memory. Louvain reads them node by node; with the
    # weights left where the edge rows put them, its sweep ran about 15% slower.
    adjacency = tuple(tuple(zip(vs, [w * 1.0 for w in ws])) for vs, ws in zip(ends, ends_weights))
    return Graph(records, adjacency, len(weights)), duplicates, self_loops


def shortest_paths(adjacency, source: int) -> tuple[list[int], list[float], list[int], list]:
    """Single-source BFS over int neighbor lists: the one hop-distance kernel.

    Returns (order, dist, sigma, preds) as Brandes (2001) uses them: nodes in
    visit order, hop distances (math.inf when unreachable), shortest-path
    counts, and each node's shortest-path predecessors in discovery order.
    A node gets its own predecessor list when it is first reached; the
    source and the unreached nodes share one empty tuple, so a BFS makes one
    list per node it reaches rather than per node of the graph.
    """
    n = len(adjacency)
    dist = [INF] * n
    sigma = [0] * n
    preds: list = [()] * n
    dist[source] = 0
    sigma[source] = 1
    order = [source]
    for u in order:  # `order` is also the FIFO queue: the loop reaches what it appends
        step = dist[u] + 1
        paths = sigma[u]
        for v in adjacency[u]:
            if not sigma[v]:  # unvisited; an int test is cheaper than dist[v] == INF
                dist[v] = step
                sigma[v] = paths
                preds[v] = [u]
                order.append(v)
            elif dist[v] == step:
                sigma[v] += paths
                preds[v].append(u)
    return order, dist, sigma, preds


def components(adjacency) -> Partition:
    """Component labeling of int neighbor lists, ordered by smallest member."""
    label = [-1] * len(adjacency)
    current = 0
    for start in range(len(adjacency)):
        if label[start] == -1:
            for v in shortest_paths(adjacency, start)[0]:
                label[v] = current
            current += 1
    return Partition(tuple(label), current)


class PathSweep(NamedTuple):
    """What the hop-distance consumers read from one BFS per source.

    Per-node tuples are indexed by source: `reach` counts the nodes other
    than the source that it reaches, `distance_totals` sums their hop
    distances, and `harmonic` sums their reciprocal distances in node-id
    order. `dependency` is the Brandes (2001) sum of pair dependencies over
    ordered pairs, each source's added in ascending source order.
    """

    reach: tuple[int, ...]
    distance_totals: tuple[int, ...]
    harmonic: tuple[float, ...]
    dependency: tuple[float, ...]
    diameter: int
    component_count: int


# The all-pairs sweep runs its sources in blocks of this many consecutive
# ids. The calling process and each worker process hold one block's results
# at a time: 8 * SWEEP_BLOCK * N bytes of dependency vectors, about 5 MB at
# N = 20,000. Girvan-Newman runs a recompute of up to this many sources in
# the calling process and cuts a larger one into smaller blocks of its own.
SWEEP_BLOCK = 32


def _source_pass(adjacency, s: int):
    """One source's share of the sweep: a BFS, then Brandes back-propagation.

    Returns the source's (reach, distance total, harmonic sum, eccentricity,
    whether s is its component's smallest node) and its dependency vector
    as an array of doubles, with 0.0 at s itself.
    """
    order, dist, sigma, preds = shortest_paths(adjacency, s)
    # summed left to right in node-id order, not visit order: the float
    # sum order fixes report bytes (an inline `left_sum`, faster here)
    h = 0.0
    for d in dist:
        if 0 < d < INF:
            h += 1 / d
    total = 0
    delta = [0.0] * len(adjacency)
    for w in reversed(order):
        total += dist[w]
        coeff = (1 + delta[w]) / sigma[w]
        for v in preds[w]:
            delta[v] += sigma[v] * coeff
    delta[s] = 0.0  # a source is no dependency of its own paths
    # BFS visits the farthest node last
    return (len(order) - 1, total, h, dist[order[-1]], min(order) == s), array("d", delta)


def sweep_beside(adjacency, tasks) -> tuple[PathSweep, list]:
    """The all-pairs sweep, with each of `tasks` run beside it; returns the PathSweep and the tasks' results.

    The sources go through `block_pool` in one round, in blocks of
    SWEEP_BLOCK consecutive ids. Whether the blocks' `_source_pass`es run in
    forked workers or in this process, this process takes the blocks in
    order and adds each node's dependency terms one by one in ascending
    source order, in one loop, so the result is the same bit for bit.

    Each of `tasks`, a function of no arguments, is one more block of the
    same round, after the source blocks and in the order given, so a worker
    that has sent its last source block runs it while this process is still
    adding. A task's CommGraphError is raised from here, with its own type
    and text, when the round reaches its block (see `block_pool`).
    """
    n = len(adjacency)
    blocks = [range(lo, min(lo + SWEEP_BLOCK, n)) for lo in range(0, n, SWEEP_BLOCK)]

    def kernel(adjacency, block):
        if isinstance(block, range):
            return [_source_pass(adjacency, s) for s in block]
        return tasks[block]()

    rows = []
    dependency = [0.0] * n
    with block_pool(adjacency, kernel, "all-pairs sweep") as run_round:
        results = run_round(blocks + list(range(len(tasks))))
        for passes in itertools.islice(results, len(blocks)):
            for fields, delta in passes:
                rows.append(fields)
                dependency = list(map(add, dependency, delta))
        done = list(results)
    reach, totals, harmonic, eccentricity, roots = zip(*rows) if rows else ((),) * 5
    sweep = PathSweep(reach, totals, harmonic, tuple(dependency), max(eccentricity, default=0), sum(roots))
    return sweep, done


@contextlib.contextmanager
def block_pool(adjacency, kernel, task: str):
    """Yield `run_round(blocks, removed=())`: `kernel(adjacency, block)` for each of `blocks`, in rounds.

    The caller cuts the blocks, and its kernel tells them apart: runs of
    SWEEP_BLOCK sources and then the tasks run beside them for the sweep
    (`sweep_beside`), runs of 16 sources for Girvan-Newman's recomputes and
    whole components for its tail. A round returns an iterator over the
    blocks' results in block order; it must be read to its end before the
    next round starts. `removed` lists the edges (u, v) the caller has
    deleted from `adjacency` since the last round.

    Forked processes, one per usable CPU and never more than the blocks of
    all the nodes, live until the `with` ends. Each holds its own copy of
    `adjacency` and first deletes a round's `removed` edges from it. Worker
    k runs blocks k, k + workers, ... of each round and pickles each result
    to its own pipe, which the round reads block b from as pipe b % workers.
    A worker waits on a full pipe until this process reads, so no worker
    runs far ahead of the reader. A graph of one block of nodes, one CPU,
    another running thread (forking then is unsafe) or a platform without
    `os.fork` keep every round in this process, on `adjacency` itself.

    Workers run without the cyclic garbage collector. A kernel makes lists
    by the thousand per source, which would set the collector off about
    once per source, and none of them is part of a cycle: reference
    counting frees them all. A worker exits when the pool ends. This
    process keeps its collector as it was.

    A kernel's CommGraphError crosses the pipe: its worker sends the error
    as the block's result, and the round raises it, with its own type and
    text, when it reads that block, as it would from a kernel run in this
    process. Only worker k holds pipe k's write end, so a worker that dies
    ends its pipe early, and the round raises RuntimeError naming `task`
    and the block that did not arrive, or the worker when it died between
    rounds. Any other exception of a kernel in a worker ends the worker the
    same way; in this process it propagates from the round as it is.
    On any exception every worker is killed and reaped; otherwise each
    reads the end of its round pipe and exits.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, -(-len(adjacency) // SWEEP_BLOCK))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield lambda blocks, removed=(): (kernel(adjacency, block) for block in blocks)
        return
    readers = []
    rounds: list[int] = []  # this process's write ends of the workers' round pipes
    pids: list[int] = []
    finished = False
    try:
        for k in range(workers):
            r, w = os.pipe()
            readers.append(open(r, "rb"))
            r, rounds_w = os.pipe()
            rounds.append(rounds_w)
            # closes this process's ends once the worker holds its own
            with open(w, "wb") as out, open(r, "rb") as inbox:
                pid = os.fork()
                if pid == 0:  # the worker never returns from this branch
                    status = 1
                    try:
                        # else a dead parent could leave this worker blocked on a pipe forever
                        for reader in readers:
                            reader.close()
                        for fd in rounds:
                            os.close(fd)
                        gc.disable()  # see the docstring
                        _serve_rounds(adjacency, kernel, k, workers, inbox, out)
                        status = 0
                    finally:
                        os._exit(status)  # no traceback, no atexit, no flush of the parent's buffers
            pids.append(pid)

        def run_round(blocks, removed=()):
            message = memoryview(pickle.dumps((removed, blocks)))
            for k, fd in enumerate(rounds):
                try:
                    sent = 0
                    while sent < len(message):
                        sent += os.write(fd, message[sent:])
                except BrokenPipeError:
                    raise RuntimeError(f"{task}: worker process {k} ended between rounds") from None
            count = len(blocks)
            for b in range(count):
                try:
                    result = pickle.load(readers[b % workers])
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(
                        f"{task}: block {b} of {count} did not arrive; its worker process failed"
                    ) from None
                if isinstance(result, CommGraphError):
                    raise result
                yield result

        yield run_round
        finished = True
    finally:
        for reader in readers:
            reader.close()
        for fd in rounds:
            os.close(fd)
        if not finished:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _serve_rounds(adjacency, kernel, k: int, workers: int, inbox, out) -> None:
    """Worker k's loop: per round, delete the removed edges, then pickle blocks k, k + workers, ... to `out`.

    A kernel's CommGraphError is pickled as its block's result (see `block_pool`).
    """
    while True:
        try:
            removed, blocks = pickle.load(inbox)
        except EOFError:
            return
        for u, v in removed:
            adjacency[u].remove(v)
            adjacency[v].remove(u)
        for block in blocks[k::workers]:
            try:
                result = kernel(adjacency, block)
            except CommGraphError as exc:
                result = exc
            pickle.dump(result, out)
            out.flush()
