"""Deterministic synthetic graphs with ground-truth communities.

All randomness comes from `random.Random(seed)` (Mersenne Twister) through
`random()` calls only, drawn in a fixed pair order, so the same parameters
yield byte-identical edge lists on every platform and Python version.
"""

from __future__ import annotations

import random

from .graph import Graph, NodeRecord, Partition, collapse_edges


def _labels(n: int) -> list[str]:
    width = len(str(n - 1)) if n > 1 else 1
    return [f"v{idx:0{width}d}" for idx in range(n)]


def gen_ring_of_cliques(cliques: int, clique_size: int) -> tuple[Graph, Partition]:
    """k cliques of size s on a ring, consecutive cliques joined by one bridge.

    N = k*s and E = k*s*(s-1)/2 + k; ground truth assigns one community per
    clique. Bridges run from the last member of a clique to the first member
    of the next.
    """
    if cliques < 2:
        raise ValueError("need at least 2 cliques")
    if clique_size < 3:
        raise ValueError("clique size must be at least 3")
    n = cliques * clique_size
    triples = []
    for c in range(cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                triples.append((base + i, base + j, None))
        triples.append((base + clique_size - 1, ((c + 1) % cliques) * clique_size, None))
    g, _, _ = collapse_edges([NodeRecord(label=lab) for lab in _labels(n)], triples)
    truth = Partition.from_assignment([v // clique_size for v in range(n)])
    return g, truth


def gen_planted_partition(
    blocks: int, block_size: int, p_in: float, p_out: float, seed: int
) -> tuple[Graph, Partition]:
    """Stochastic block model with equal blocks; isolates are retained.

    Every unordered pair (u, v), u < v in ascending order, draws one uniform
    variate; the pair is an edge when the draw falls below p_in (same block)
    or p_out (different blocks).
    """
    if blocks < 1 or block_size < 1:
        raise ValueError("blocks and block_size must be positive")
    if not 0 <= p_out < p_in <= 1 and not (p_in == p_out == 0):
        raise ValueError("need 0 <= p_out < p_in <= 1")
    n = blocks * block_size
    rng = random.Random(seed)
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if u // block_size == v // block_size else p_out
            if rng.random() < p:
                triples.append((u, v, None))
    g, _, _ = collapse_edges([NodeRecord(label=lab) for lab in _labels(n)], triples)
    truth = Partition.from_assignment([v // block_size for v in range(n)])
    return g, truth

