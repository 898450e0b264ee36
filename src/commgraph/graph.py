"""Immutable undirected weighted simple graph over dense integer node ids."""

from __future__ import annotations

import functools
import math
import mmap
import os
import signal
import threading
from array import array
from dataclasses import dataclass
from operator import add
from typing import NamedTuple

INF = math.inf


def canonical_label(label: str) -> str:
    """Trim, collapse internal whitespace, and case-fold a node label.

    Two labels denote the same node iff their canonical forms are equal.
    """
    return " ".join(label.split()).casefold()


def display_label(label: str) -> str:
    """Trim and collapse internal whitespace, keeping the original case."""
    return " ".join(label.split())


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


@dataclass(frozen=True)
class Graph:
    """Undirected weighted simple graph; immutable after construction.

    Node ids are dense 0..N-1 indices into `records`. `adjacency[u]` lists
    (neighbor, weight) pairs sorted by neighbor id; it is symmetric, holds no
    self-loops and at most one entry per neighbor.
    """

    records: tuple[NodeRecord, ...]
    adjacency: tuple[tuple[tuple[int, float], ...], ...]
    edge_count: int

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

    @functools.cached_property
    def path_sweep(self) -> PathSweep:
        """The all-pairs hop-distance sweep, run once per graph and shared."""
        return sweep_all_pairs(self.neighbor_ids)

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


@dataclass(frozen=True)
class Partition:
    """Total assignment of node ids to contiguous community ids.

    Always in canonical form: community ids appear in order of their
    smallest member, so two partitions with the same blocks compare equal.
    """

    assignment: tuple[int, ...]
    community_count: int

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

    def __post_init__(self):
        # first appearances 0, 1, 2, ... imply contiguous ids in canonical order
        if list(dict.fromkeys(self.assignment)) != list(range(self.community_count)):
            raise ValueError("community ids must be 0..community_count-1 in order of first appearance")


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


def shortest_paths(adjacency, source: int) -> tuple[list[int], list[float], list[int], list[list[int]]]:
    """Single-source BFS over int neighbor lists: the one hop-distance kernel.

    Returns (order, dist, sigma, preds) as Brandes (2001) uses them: nodes in
    visit order, hop distances (math.inf when unreachable), shortest-path
    counts, and each node's shortest-path predecessors in discovery order.
    """
    n = len(adjacency)
    dist = [INF] * n
    sigma = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
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
                preds[v].append(u)
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


@dataclass(frozen=True)
class PathSweep:
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


# Sources are swept in blocks of this many consecutive ids. A worker process
# holds one block's dependency vectors at a time: 8 * SWEEP_BLOCK * N bytes,
# about 5 MB at N = 20,000.
SWEEP_BLOCK = 32
# The worker processes' shared buffer holds one column of 8-byte items per
# field, each N long: the dependency prefix, then the per-source fields in the
# order `_source_pass` returns them.
_COLUMN_CODES = "dqqdqq"


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


def _path_sweep(columns, dependency) -> PathSweep:
    reach, totals, harmonic, eccentricity, roots = columns
    return PathSweep(
        tuple(reach), tuple(totals), tuple(harmonic), tuple(dependency), max(eccentricity, default=0), sum(roots)
    )


def sweep_all_pairs(adjacency) -> PathSweep:
    """Run `shortest_paths` from every source once and gather a PathSweep.

    The sources are cut into blocks of SWEEP_BLOCK consecutive ids, dealt
    round-robin to one forked process per usable CPU, never more processes
    than blocks. One block, one CPU, another running thread (forking then is
    unsafe) or a platform without `os.fork` keep the sweep in this process.
    Either way each source runs the same `_source_pass`, and each node's
    dependency adds the sources' terms one by one in ascending source
    order, so the result is the same bit for bit.
    """
    n = len(adjacency)
    blocks = [range(lo, min(lo + SWEEP_BLOCK, n)) for lo in range(0, n, SWEEP_BLOCK)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(blocks))
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        return _sweep_forked(adjacency, blocks, workers)
    rows = []
    dependency = [0.0] * n
    for s in range(n):
        fields, delta = _source_pass(adjacency, s)
        rows.append(fields)
        dependency = list(map(add, dependency, delta))
    return _path_sweep(tuple(zip(*rows)) or ((),) * 5, dependency)


def _sweep_forked(adjacency, blocks, workers: int) -> PathSweep:
    """`sweep_all_pairs` over `workers` forked processes.

    Worker k sweeps blocks k, k + workers, ... Before it adds a block's
    dependency vectors to the running prefix, it waits for a one-byte token
    from the worker that added the block before; then it passes a token on.
    The prefix and every source's fields live in an anonymous shared mmap:
    the prefix alone outgrows a pipe's buffer at N = 8,192. Only workers
    hold pipe ends, so a worker that dies closes its successor's pipe, which
    fails in turn. The parent reaps every worker, raises RuntimeError if one
    failed, and on any exception kills and reaps those still running.
    """
    n = len(adjacency)
    width = 8 * n
    fds: list[int] = []  # read and write end of pipe k at 2k and 2k + 1; worker k reads pipe k
    pids: list[int] = []
    with mmap.mmap(-1, width * len(_COLUMN_CODES)) as shared:
        try:
            for _ in range(workers):
                fds += os.pipe()
            for k in range(workers):
                pid = os.fork()
                if pid == 0:  # the worker never returns from this branch
                    status = 1
                    try:
                        wait_fd, pass_fd = fds[2 * k], fds[2 * ((k + 1) % workers) + 1]
                        for fd in fds:
                            if fd not in (wait_fd, pass_fd):
                                os.close(fd)
                        _sweep_worker(adjacency, blocks, k, workers, shared, wait_fd, pass_fd)
                        status = 0
                    finally:
                        os._exit(status)  # no traceback, no atexit, no flush of the parent's buffers
                pids.append(pid)
            while fds:
                os.close(fds.pop())
            failures = []
            while pids:
                _, status = os.waitpid(pids[0], 0)
                pids.pop(0)
                if status:
                    failures.append(os.waitstatus_to_exitcode(status))
            if failures:
                raise RuntimeError(f"all-pairs sweep: a worker process failed (exit codes {failures})")
            columns = [array(code, shared[i * width : (i + 1) * width]) for i, code in enumerate(_COLUMN_CODES)]
        finally:
            while fds:
                os.close(fds.pop())
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for pid in pids:
                os.waitpid(pid, 0)
    return _path_sweep(columns[1:], columns[0])


def _sweep_worker(adjacency, blocks, first: int, step: int, shared, wait_fd: int, pass_fd: int) -> None:
    """Sweep blocks first, first + step, ..., adding each to the shared dependency prefix in block order."""
    width = 8 * len(adjacency)
    for b in range(first, len(blocks), step):
        block = blocks[b]
        passes = [_source_pass(adjacency, s) for s in block]
        if b and not os.read(wait_fd, 1):
            raise RuntimeError("the worker adding the previous block failed")
        dependency = array("d", shared[:width])
        for _, delta in passes:
            dependency = map(add, dependency, delta)  # chained lazily, each node still adds in source order
        shared[:width] = array("d", dependency).tobytes()
        if b + 1 < len(blocks):
            os.write(pass_fd, b".")
        for i, code in enumerate(_COLUMN_CODES[1:]):
            lo = (i + 1) * width + 8 * block.start
            shared[lo : lo + 8 * len(block)] = array(code, [fields[i] for fields, _ in passes]).tobytes()
