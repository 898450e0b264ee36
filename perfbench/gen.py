"""Seeded input generators for the benchmark workloads.

These generators are the benchmark's own and deliberately do not import
`commgraph.synth`: a later change to the program's generators must not be
able to change a workload silently. Every draw comes from one
`random.Random(seed)`, so a seed fixes the input bytes.

Each generator writes its CSV files and returns a `Truth` describing what
the program must find in them: node labels, unique undirected edges with
their summed weights, and the number of data rows in the edge file.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Truth:
    """What a correct ingest of the generated files yields."""

    labels: list[str]  # display labels, indexed by generator node id
    edges: dict[tuple[int, int], float]  # (u, v) with u < v -> summed weight
    edge_rows: int  # data rows in the edge CSV, malformed ones included
    rejected_rows: int = 0
    files: dict[str, Path] = field(default_factory=dict)  # "edges"/"nodes"/"aliases" -> path

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _sample_pairs(rng: random.Random, count: int, draw) -> list[tuple[int, int]]:
    """`count` distinct unordered pairs from `draw()`, in first-drawn order."""
    seen: set[tuple[int, int]] = set()
    out = []
    while len(out) < count:
        u, v = draw()
        pair = (u, v) if u < v else (v, u)
        if u != v and pair not in seen:
            seen.add(pair)
            out.append(pair)
    return out


def planted_partition(out_dir, seed: int, blocks: int, block_size: int, p_in: float, p_out: float) -> Truth:
    """Planted partition with its edge counts fixed at their expectations.

    Exactly round(p_in * intra pairs) intra-block and round(p_out * inter
    pairs) inter-block edges are drawn uniformly without replacement, so
    every seed gives the same E and run-time differences between seeds come
    from structure, not from edge-count noise. Clean unweighted input.
    Nodes that draw no edge do not appear in the edge file, so `labels`
    holds only nodes that have at least one edge.
    """
    if blocks < 2 or block_size < 2:
        raise ValueError("planted partition needs at least 2 blocks of 2 nodes")
    rng = random.Random(seed)
    intra_pairs = blocks * block_size * (block_size - 1) // 2
    inter_pairs = block_size * block_size * blocks * (blocks - 1) // 2
    m_in = round(p_in * intra_pairs)
    m_out = round(p_out * inter_pairs)

    def intra():
        base = rng.randrange(blocks) * block_size
        return base + rng.randrange(block_size), base + rng.randrange(block_size)

    def inter():
        a = rng.randrange(blocks)
        b = (a + 1 + rng.randrange(blocks - 1)) % blocks
        return a * block_size + rng.randrange(block_size), b * block_size + rng.randrange(block_size)

    pairs = _sample_pairs(rng, m_in, intra) + _sample_pairs(rng, m_out, inter)
    rng.shuffle(pairs)
    used = sorted({v for pair in pairs for v in pair})
    new_id = {v: i for i, v in enumerate(used)}
    width = len(str(blocks * block_size - 1))
    labels = [f"b{v // block_size}n{v:0{width}d}" for v in used]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    edge_path = out / "edges.csv"
    _write_csv(edge_path, ["source", "target"], [(labels[new_id[u]], labels[new_id[v]]) for u, v in pairs])
    edges = {}
    for u, v in pairs:
        a, b = new_id[u], new_id[v]
        edges[(a, b) if a < b else (b, a)] = 1.0
    return Truth(labels, edges, len(pairs), files={"edges": edge_path})


_KIND_WORD = {"public": "Agency", "medical": "Clinic", "technical": "Institute", "other": "Trust"}
_CITIES = ("Lyon", "Porto", "Graz", "Turku", "Ghent", "Bergen", "Parma", "Brno", "Cork", "Lund", "Pisa", "Riga")
AVG_DEGREE = 8.0  # mean degree: the edge file has AVG_DEGREE * nodes / 2 rows
INTRA = 0.9  # share of edge rows drawn inside the first endpoint's block
VARIANT_RATE = 0.1  # share of endpoint labels written as case/whitespace variants
ALIAS_RATE = 0.02  # share of nodes given an acronym alias


def _variant(rng: random.Random, label: str) -> str:
    """A case or whitespace spelling that canonicalizes back to `label`."""
    pick = rng.randrange(4)
    if pick == 0:
        return label.upper()
    if pick == 1:
        return label.lower()
    if pick == 2:
        return "  " + label.replace(" ", "   ") + " "
    return label.swapcase()


def collab(out_dir, seed: int, nodes: int, block_size: int = 100) -> Truth:
    """Dirty weighted collaboration data: edge, node and alias CSVs.

    - Edge rows: AVG_DEGREE * nodes / 2 of them. Each picks a uniform
      endpoint u, then v inside u's block with probability INTRA, else
      anywhere. Weights are integers 1-5. Duplicate pairs and self-loops
      occur naturally from this sampling.
    - About VARIANT_RATE of endpoint labels are written as case or
      whitespace variants; aliased nodes are sometimes written by alias.
    - A few malformed rows (wrong field count, empty source, non-numeric,
      zero or negative weight) are scattered through the file.
    - The node CSV lists every node with kind, location and score (some
      blank), so node count is exactly `nodes`.
    - The alias CSV maps ALIAS_RATE of nodes from an acronym to the node
      label. Aliases never chain and never start with a UTF-8 BOM: both are
      known ingest defects, tested elsewhere, not measured here.
    """
    if nodes < 2 or block_size < 2:
        raise ValueError("collab needs at least 2 nodes and blocks of at least 2")
    rng = random.Random(seed)
    kinds = list(_KIND_WORD)
    node_kind = [kinds[rng.randrange(4)] for _ in range(nodes)]
    node_city = [_CITIES[rng.randrange(len(_CITIES))] for _ in range(nodes)]
    labels = [f"{_KIND_WORD[k]} {i}" for i, k in enumerate(node_kind)]
    aliases = {
        i: f"{_KIND_WORD[node_kind[i]][:3].upper()}-{node_city[i][:3].upper()}-{i}"
        for i in sorted(rng.sample(range(nodes), max(1, int(ALIAS_RATE * nodes))))
    }

    def spell(v: int) -> str:
        if v in aliases and rng.random() < 0.3:
            return aliases[v]
        return _variant(rng, labels[v]) if rng.random() < VARIANT_RATE else labels[v]

    rows = []
    edges: dict[tuple[int, int], float] = {}
    for _ in range(round(AVG_DEGREE * nodes / 2)):
        u = rng.randrange(nodes)
        if rng.random() < INTRA:
            base = u - u % block_size
            v = base + rng.randrange(min(block_size, nodes - base))
        else:
            v = rng.randrange(nodes)
        w = rng.randint(1, 5)
        rows.append([spell(u), spell(v), str(w)])
        if u != v:
            pair = (u, v) if u < v else (v, u)
            edges[pair] = edges.get(pair, 0.0) + w

    bad_kinds = (
        lambda a, b: [a, b],
        lambda a, b: ["", b, "2"],
        lambda a, b: [a, b, "two"],
        lambda a, b: [a, b, "0"],
        lambda a, b: [a, b, "-3"],
    )
    bad = max(len(bad_kinds), len(rows) // 1000)
    for i in range(bad):
        row = bad_kinds[i % len(bad_kinds)](labels[rng.randrange(nodes)], labels[rng.randrange(nodes)])
        rows.insert(rng.randrange(len(rows) + 1), row)

    node_rows = []
    for i in range(nodes):
        score = "" if rng.random() < 0.1 else f"{rng.uniform(0, 100):.2f}"
        kind = node_kind[i].capitalize() if rng.random() < 0.1 else node_kind[i]
        node_rows.append([labels[i], kind, node_city[i], score])
    rng.shuffle(node_rows)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"edges": out / "edges.csv", "nodes": out / "nodes.csv", "aliases": out / "aliases.csv"}
    _write_csv(files["edges"], ["source", "target", "weight"], rows)
    _write_csv(files["nodes"], ["label", "kind", "location", "score"], node_rows)
    _write_csv(files["aliases"], ["variant", "canonical"], [(a, labels[i]) for i, a in aliases.items()])
    return Truth(labels, edges, len(rows), rejected_rows=bad, files=files)
