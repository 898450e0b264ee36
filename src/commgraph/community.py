"""Community detection: modularity, Louvain optimization, Girvan-Newman.

Determinism contract: Louvain sweeps nodes in ascending id order, breaks
gain ties toward the lowest community id, and never randomizes, so a given
graph always yields the same dendrogram. Girvan-Newman breaks betweenness
ties toward the smallest (min-id, max-id) endpoint pair, and counts as tied
every score within 2e-12 of the maximum, relative to it (`_GN_TIE_REL`).
Equal betweenness can sum to different floats: at step 299 on
`gen_planted_partition(4, 30, 0.2, 0.01, seed=1)`, (77, 79) and (77, 87)
both have betweenness 14/3, but summation order rounds (77, 87)'s score one
unit in the last place higher, and an exact argmax removed it first. The
cost is that two distinct scores closer than the tolerance also count as
tied; exact rational scores would avoid that, at the price of GN's speed.
The rule also absorbs GN's block sums: a recompute of more than SWEEP_BLOCK
(32) sources, the most that runs in the calling process, sums the
dependencies of each block of 16 sources apart, then adds the block sums,
so its scores can differ in the last bits from a full recompute's. The
removals and Q match it. GN's tail runs each component on its own and
merges the components' logs under the same rule; a near-tie across
components that a log cannot settle sends the tail back to one process
(`girvan_newman`), so the removals stay those of the one global loop.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple

from .graph import SWEEP_BLOCK, Graph, Partition, block_pool, components, left_sum, shortest_paths
from .ingest import csv_text

_GAIN_EPS = 1e-7  # level-to-level modularity improvement below this stops Louvain
_UNSCALED = (2.0**-64, 2.0**64)  # weights in this range need no scaling (`AggregateGraph.from_graph`)
_GN_TIE_REL = 2e-12  # betweenness this close to the maximum, relative to it, ties with it (module docstring)
_GN_BLOCK = 16  # sources per pool block of a recompute of more than SWEEP_BLOCK sources (`girvan_newman`)


class AggregateGraph:
    """Weighted graph that admits self-loops; the internal Louvain form.

    `adjacency[v]` lists (neighbor, weight) pairs. A self-loop of weight w
    counts once toward intra-community weight and twice toward its node's
    degree, which keeps modularity invariant across aggregation levels. It
    is not changed after construction, so its degree list and total weight
    are computed once.
    """

    adjacency: Sequence[Sequence[tuple[int, float]]]
    self_loops: list[float]

    def __init__(self, adjacency, self_loops):
        self.adjacency = adjacency
        self.self_loops = self_loops

    @classmethod
    def from_graph(cls, g: Graph) -> AggregateGraph:
        """`g`, its weights scaled by a power of two where that is needed to keep them in range.

        Sums such as `m` and products such as `2*m*m` and `tot[c] * k_v`
        must neither underflow nor overflow. Weights beyond [2**-64, 2**64]
        are scaled by the one power of two that puts the largest in [1, 2).
        Within that range every such sum and product stays a normal float,
        with or without the scaling, so it changes no bit and `g.adjacency`
        is used as it is. Either way modularity is scale-free and the
        scaling exact, so every gain and Q keeps its bits.
        """
        weights = [w for nbrs in g.adjacency for _, w in nbrs]
        adjacency = g.adjacency
        if weights and not _UNSCALED[0] <= min(weights) <= max(weights) <= _UNSCALED[1]:
            shift = 1 - math.frexp(max(weights))[1]
            adjacency = tuple(tuple((v, math.ldexp(w, shift)) for v, w in nbrs) for nbrs in adjacency)
        return cls(adjacency, [0.0] * g.node_count)

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @functools.cached_property
    def degrees(self) -> list[float]:
        """Weighted degree of every node, a self-loop counting twice."""
        return [left_sum(w for _, w in nbrs) + 2 * loop for nbrs, loop in zip(self.adjacency, self.self_loops)]

    @functools.cached_property
    def total_weight(self) -> float:
        """Total edge weight m, a self-loop counting once."""
        return left_sum(left_sum(w for _, w in nbrs) for nbrs in self.adjacency) / 2 + left_sum(self.self_loops)


def _modularity_kernel(agg: AggregateGraph, assignment) -> float:
    """Q = sum_c [ e_c/m - (d_c/2m)^2 ] over the given community assignment, added in community id order.

    `agg` has at least one edge, so m > 0, and `assignment` covers every node of `agg`.
    """
    m = agg.total_weight
    count = max(assignment) + 1 if assignment else 0
    intra = [0.0] * count
    degree = [0.0] * count
    for v, k in enumerate(agg.degrees):
        c = assignment[v]
        degree[c] += k
        intra[c] += agg.self_loops[v]
        for u, w in agg.adjacency[v]:
            if assignment[u] == c and u < v:
                intra[c] += w
    return left_sum(e / m - (d / (2 * m)) ** 2 for e, d in zip(intra, degree))


def modularity(g: Graph, p: Partition) -> float:
    """Partition quality on [-1, 1]; `g` has at least one edge and `p` covers every node of `g`."""
    return _modularity_kernel(AggregateGraph.from_graph(g), p.assignment)


def aggregate_graph(agg: AggregateGraph, p: Partition) -> AggregateGraph:
    """Collapse each community to one super-node, conserving total weight.

    Inter-community edges sum into single edges; intra-community weight
    (including existing self-loops) becomes the super-node's self-loop.
    `p` covers every node of `agg`.
    """
    n = p.community_count
    adjacency: list[dict[int, float]] = [{} for _ in range(n)]
    self_loops = [0.0] * n
    for v in range(agg.node_count):
        c = p.assignment[v]
        self_loops[c] += agg.self_loops[v]
        for u, w in agg.adjacency[v]:
            cu = p.assignment[u]
            if cu == c:
                if u < v:
                    self_loops[c] += w
            else:
                adjacency[c][cu] = adjacency[c].get(cu, 0.0) + w
    return AggregateGraph(tuple(tuple(nbrs.items()) for nbrs in adjacency), self_loops)


class Dendrogram(NamedTuple):
    """Louvain levels, finest first, all expressed over original node ids."""

    levels: tuple[Partition, ...]
    q_per_level: tuple[float, ...]

    @property
    def final_partition(self) -> Partition:
        return self.levels[-1]

    @property
    def final_q(self) -> float:
        return self.q_per_level[-1]


def _local_sweep(agg: AggregateGraph, m: float) -> tuple[list[int], bool]:
    """Phase 1: greedy node moves until a full pass changes nothing.

    Returns (community assignment, whether any move happened). Nodes are
    visited in ascending id order; a node moves to the neighboring community
    with the largest strictly positive gain, lowest community id on ties.
    """
    n = agg.node_count
    community = list(range(n))
    degree = agg.degrees
    tot = degree[:]  # total weighted degree per community label
    two_m2 = 2 * m * m
    # links[v]: weight from v to each adjacent community (self-loops excluded),
    # summed in neighbor order; kept until a neighbor of v moves
    links: list[dict[int, float] | None] = [None] * n
    nodes = list(zip(range(n), degree, agg.adjacency))
    moved_any = False
    improved = True
    while improved:
        improved = False
        for v, k_v, nbrs in nodes:
            old = community[v]
            link = links[v]
            if link is None:
                link = links[v] = {}
                for u, w in nbrs:
                    c = community[u]
                    if c in link:
                        link[c] += w
                    else:
                        link[c] = w
            # v leaves and re-enters even when it stays: with non-integer
            # weights this round trip can change tot[old] in the last bit
            tot[old] -= k_v
            stay_gain = link.get(old, 0.0) / m - tot[old] * k_v / two_m2
            best_c, best_gain = old, 0.0
            for c, weight in link.items():
                if c == old:
                    continue
                gain = weight / m - tot[c] * k_v / two_m2 - stay_gain
                # strictly positive gains only; the lowest id wins a tie
                if gain > best_gain or (gain == best_gain and c < best_c and best_c != old):
                    best_c, best_gain = c, gain
            tot[best_c] += k_v
            if best_c != old:
                community[v] = best_c
                for u, _ in nbrs:
                    links[u] = None
                improved = True
                moved_any = True
    return community, moved_any


def louvain(g: Graph) -> Dendrogram:
    """Two-phase modularity optimization over successive aggregation levels; `g` needs at least one edge."""
    agg = AggregateGraph.from_graph(g)
    m = agg.total_weight
    original = agg
    node_map = list(range(g.node_count))  # original node -> current super-node

    levels: list[Partition] = []
    qs: list[float] = []
    while True:
        assignment, moved = _local_sweep(agg, m)
        if levels and not moved:  # the level would repeat the last one
            break
        local = Partition.from_assignment(assignment)
        projected = Partition.from_assignment([local.assignment[node_map[v]] for v in range(g.node_count)])
        q = _modularity_kernel(original, projected.assignment)
        if levels and q - qs[-1] < _GAIN_EPS:
            break
        levels.append(projected)
        qs.append(q)
        if not moved:
            break
        agg = aggregate_graph(agg, local)
        node_map = [local.assignment[s] for s in node_map]
    return Dendrogram(tuple(levels), tuple(qs))


def _edge_index(g: Graph) -> tuple[list[tuple[int, int]], list[dict[int, int]]]:
    """Number the edges in `g.edges()` order, which is (min-id, max-id) order.

    Returns (ends, index): `ends[k]` is edge k as (u, v) with u < v, and
    `index[u][v] == index[v][u] == k`. A lower number means a smaller pair.
    """
    ends = [(u, v) for u, v, _ in g.edges()]
    index: list[dict[int, int]] = [{} for _ in range(g.node_count)]
    for k, (u, v) in enumerate(ends):
        index[u][v] = index[v][u] = k
    return ends, index


def _edge_dependencies(adjacency, index, sources, scores, traversals=None) -> None:
    """Zero the edges of `sources`, then add their Brandes dependencies into `scores`, one source after another.

    `scores` is indexed by edge number (`_edge_index`). An edge only gains
    dependency from sources in its own component, so when `sources` are
    whole components their edges get their scores afresh. `traversals` maps
    a source to the `shortest_paths` result the caller already has for it
    on this adjacency; it is only read, walking `order` backwards as the
    sweep's `_source_pass` does.
    """
    n = len(adjacency)
    for u in sources:
        for v in adjacency[u]:
            if u < v:
                scores[index[u][v]] = 0.0
    traversals = traversals or {}
    for s in sources:
        order, _, sigma, preds = traversals.get(s) or shortest_paths(adjacency, s)
        delta = [0.0] * n
        for w in reversed(order):
            coeff = (1 + delta[w]) / sigma[w]
            edge = index[w]
            for v in preds[w]:
                contribution = sigma[v] * coeff
                scores[edge[v]] += contribution
                delta[v] += contribution


def _gn_steps(adjacency, ends, scores):
    """Girvan-Newman's step loop: remove the edge of greatest score until every score is -inf.

    Each step removes the greatest-scoring edge, the smallest pair among the
    tied (module docstring), and marks it -inf. It yields its record (top
    score, edge number, the edge's score, v's side if u's component split,
    else None), the sorted sources to rescore, and the reach traversals of
    u (and v). The consumer rescores the sources before the next step.
    """
    while True:
        top = max(scores)
        if top == -math.inf:
            return
        tied = top - top * _GN_TIE_REL
        # edges are numbered in (u, v) order: the first score tied with the maximum has the smallest pair
        k = scores.index(next(filter(tied.__le__, scores)))
        u, v = ends[k]
        adjacency[u].remove(v)
        adjacency[v].remove(u)
        score, scores[k] = scores[k], -math.inf
        traversals = {u: shortest_paths(adjacency, u)}
        reach, dist = traversals[u][:2]
        split = None
        if dist[v] == math.inf:
            traversals[v] = shortest_paths(adjacency, v)
            split = traversals[v][0]
            reach = reach + split  # a new list: u's traversal keeps its own order
        yield (top, k, score, split), sorted(reach), traversals


def _gn_finish(adjacency, index, ends, scores) -> list:
    """Run `_gn_steps` to its end, rescoring each step's sources in this process; return the records.

    Every component with an edge must have at most SWEEP_BLOCK nodes, so
    each recompute is one block, as `girvan_newman` runs it.
    """
    records = []
    for record, sources, traversals in _gn_steps(adjacency, ends, scores):
        _edge_dependencies(adjacency, index, sources, scores, traversals)
        records.append(record)
    return records


def _merge_logs(logs) -> list | None:
    """Merge the components' removal logs into the one global order, or None where a log cannot decide a step.

    At each step the largest next top score T sets `tied` = T - T * _GN_TIE_REL,
    as `_gn_steps` does. A log whose next top is below `tied` offers nothing.
    Any other logged its smallest edge at or above its own threshold, which is
    no higher than `tied`; when that edge's score reaches `tied` it is also the
    smallest at or above `tied`, and the smallest offered edge goes. Otherwise
    the component's edge is not in its log, and the merge gives None.
    """
    logs = [iter(log) for log in logs]
    heads = [next(log) for log in logs]
    merged = []
    while heads:
        top = max(head[0] for head in heads)
        tied = top - top * _GN_TIE_REL
        pick = None
        for i, (head_top, k, score, _) in enumerate(heads):
            if head_top >= tied:
                if score < tied:
                    return None
                if pick is None or k < heads[pick][1]:
                    pick = i
        merged.append(heads[pick])
        head = next(logs[pick], None)
        if head is None:
            del heads[pick], logs[pick]
        else:
            heads[pick] = head
    return merged


class GNTrace(NamedTuple):
    """Full divisive run: every removal with the modularity it produced."""

    removals: tuple[tuple[tuple[int, int], float], ...]
    best_partition: Partition
    best_q: float


def girvan_newman(g: Graph) -> GNTrace:
    """Remove max-betweenness edges one at a time, recomputing after each.

    Each step removes the edge of greatest betweenness; the module
    docstring says how ties go to the smallest pair. After a removal only
    the component(s) holding its endpoints are recomputed (Girvan & Newman
    2002); every other edge keeps its score. A recompute gives the edges of
    its sources, whole components in ascending id, new scores. Up to
    SWEEP_BLOCK sources run in this process, straight into the scores,
    reusing the reach traversals. More are cut into blocks of _GN_BLOCK
    (16), fixed by the sources and not by the process count, and
    `block_pool` sums each block into one vector over edge numbers, in
    forked workers or, on one CPU, in this process; this process adds the
    vectors in block order. Each edge's score has a full recompute's terms,
    summed per block, which the tie rule absorbs (module docstring). Blocks
    of half the in-process limit deal a recompute more evenly: 90 sources
    go 48/42 to two workers, and would go 58/32 in blocks of 32.

    Once no component has more than SWEEP_BLOCK nodes, a removal changes
    only its own component's scores, so each component's removals depend
    on nothing outside it. This process then sends every component with an
    edge, with its edges' scores, as one block of one `block_pool` round;
    the block runs the same step loop to the component's end and returns
    its log. `_merge_logs` merges the logs into the order these steps would
    take here. When a near-tie across components, within `_GN_TIE_REL`,
    leaves that order open, this process runs the remaining steps itself
    from the state it sent. The trace does not depend on the process count.

    Candidate partitions are the connected components of the pruned graph;
    their modularity is always evaluated on the original graph. The earliest
    maximum wins. A removal that splits nothing keeps the partition, so its
    Q is the previous Q: components are labelled once, and Q is evaluated
    once plus once per split. `g` needs at least one edge.
    """
    original = AggregateGraph.from_graph(g)
    adjacency = [list(nbrs) for nbrs in g.neighbor_ids]
    ends, index = _edge_index(g)

    def run_block(adjacency, block):
        if isinstance(block, dict):  # a component of the tail, {edge number: score}: its log
            local = list(adjacency)  # in this process `adjacency` is the caller's: copy the component's lists
            scores = [-math.inf] * len(ends)
            for k, score in block.items():
                scores[k] = score
                for w in ends[k]:
                    local[w] = adjacency[w][:]
            return _gn_finish(local, index, ends, scores)
        vector = [0.0] * len(ends)
        _edge_dependencies(adjacency, index, block, vector)
        return vector

    # unhalved edge betweenness by edge number; halving is exact, so the argmax is the same
    scores = [0.0] * len(ends)
    removed: list[tuple[int, int]] = []  # since the pool's last round

    def recompute(sources, traversals=None):
        if len(sources) <= SWEEP_BLOCK:
            _edge_dependencies(adjacency, index, sources, scores, traversals)
            return
        edges = [index[u][v] for u in sources for v in adjacency[u] if u < v]
        for k in edges:
            scores[k] = 0.0
        # block sums, added in block order
        blocks = [sources[lo : lo + _GN_BLOCK] for lo in range(0, len(sources), _GN_BLOCK)]
        for vector in run_round(blocks, tuple(removed)):
            for k in edges:
                scores[k] += vector[k]
        removed.clear()

    part = components(adjacency)
    q = _modularity_kernel(original, part.assignment)
    best_partition, best_q = part, q
    removals: list[tuple[tuple[int, int], float]] = []

    def record(k, split):
        nonlocal part, q, best_partition, best_q
        if split:  # v's side becomes a new community
            label = list(part.assignment)
            for w in split:
                label[w] = part.community_count
            part = Partition.from_assignment(label)
            q = _modularity_kernel(original, part.assignment)
            if q > best_q:
                best_partition, best_q = part, q
        removals.append((ends[k], q))

    with block_pool(adjacency, run_block, "Girvan-Newman") as run_round:
        recompute(range(g.node_count))
        steps = _gn_steps(adjacency, ends, scores)
        while max(Counter(part.assignment).values()) > SWEEP_BLOCK:
            (_, k, _, split), sources, traversals = next(steps)
            removed.append(ends[k])
            recompute(sources, traversals)
            record(k, split)
        tail: dict[int, dict[int, float]] = {}  # component -> its edges' scores
        for k, score in enumerate(scores):
            if score != -math.inf:
                tail.setdefault(part.assignment[ends[k][0]], {})[k] = score
        logs = list(run_round(list(tail.values()), tuple(removed)))
    merged = _merge_logs(logs)
    for _, k, _, split in _gn_finish(adjacency, index, ends, scores) if merged is None else merged:
        record(k, split)
    return GNTrace(tuple(removals), best_partition, best_q)


def normalized_mutual_information(a: Partition, b: Partition) -> float:
    """NMI of two partitions of the same nodes, on [0, 1].

    It uses natural logarithms; when both partitions carry zero entropy
    (single community each) the 0/0 case is defined as 1.0.
    """
    n = len(a.assignment)
    joint: dict[tuple[int, int], int] = {}
    for ca, cb in zip(a.assignment, b.assignment):
        joint[(ca, cb)] = joint.get((ca, cb), 0) + 1
    size_a = [0] * a.community_count
    size_b = [0] * b.community_count
    for (ca, cb), cnt in joint.items():
        size_a[ca] += cnt
        size_b[cb] += cnt

    h_a = -left_sum(s / n * math.log(s / n) for s in size_a if s)
    h_b = -left_sum(s / n * math.log(s / n) for s in size_b if s)
    if h_a + h_b == 0:
        return 1.0
    info = left_sum(cnt / n * math.log(cnt * n / (size_a[ca] * size_b[cb])) for (ca, cb), cnt in joint.items())
    return min(max(2 * info / (h_a + h_b), 0.0), 1.0)  # clamp float noise at the boundaries


def partition_to_csv(g: Graph, p: Partition) -> str:
    """`label,community` rows in canonical community ids, in `g.label_order`."""
    return csv_text(["label", "community"], ([g.labels[v], p.assignment[v]] for v in g.label_order))


def gn_trace_to_csv(labels, trace: GNTrace) -> str:
    """`step,removed_u,removed_v,modularity` rows in removal order."""
    return csv_text(
        ["step", "removed_u", "removed_v", "modularity"],
        ([step, labels[u], labels[v], repr(q)] for step, ((u, v), q) in enumerate(trace.removals, start=1)),
    )
