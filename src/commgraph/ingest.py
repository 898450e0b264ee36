"""CSV ingestion: parse, validate, and clean collaboration data into a Graph.

File formats (all comma-separated, RFC-4180 quoting, UTF-8 with or without a
byte-order mark, LF, CRLF or CR line endings):
    edge CSV   header `source,target` or `source,target,weight`
    node CSV   header with `label` plus any of `kind`, `location`, `score`
    alias CSV  header `variant,canonical`

Rows that cannot be interpreted are rejected individually and logged by
logical CSV row number, never silently dropped; a row holding a byte that
is not UTF-8, a NUL byte, or a character that XML 1.0 cannot carry
(U+0001-U+0008, U+000E-U+001B, U+FFFE, U+FFFF; the other C0 controls are
whitespace, which labels collapse) is such a row. In the node and alias
CSVs every bad row is fatal. A missing or unexpected header, a field longer
than 131072 characters, a node label that is an alias variant, duplicate
rows whose weights sum to inf, and collapsed weights whose largest is more
than MAX_WEIGHT_RATIO times their smallest are fatal.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

from .errors import IngestError
from .graph import Graph, Memo, NodeRecord, collapse_edges

INSTITUTION_KINDS = ("public", "medical", "technical", "other")
# Louvain scales the largest weight into [1, 2); within this ratio the product
# of any two scaled weights is still a normal float, so no weight flushes to 0
MAX_WEIGHT_RATIO = 2.0**500


def canonical_label(label: str) -> str:
    """Trim, collapse internal whitespace, and case-fold a node label.

    Two labels denote the same node iff their canonical forms are equal.
    """
    return " ".join(label.split()).casefold()


def display_label(label: str) -> str:
    """Trim and collapse internal whitespace, keeping the original case."""
    return " ".join(label.split())


class RawEdgeRow(NamedTuple):
    """One accepted edge row: display labels as written, weight None when blank."""

    source_label: str
    target_label: str
    weight: float | None
    line_no: int


class CleaningLog:
    """Every cleaning event observed between raw bytes and the finished graph.

    Built empty and filled in place by ingest; its attributes are exactly
    the report's `cleaning` fields, and two logs are equal when they hold
    the same events.
    """

    def __init__(self):
        self.duplicates_collapsed = 0
        self.self_loops_dropped = 0
        self.labels_merged: list[tuple[str, str]] = []
        self.rows_rejected: list[tuple[int, str]] = []
        self.warnings: list[str] = []

    def __eq__(self, other):
        return vars(self) == vars(other) if isinstance(other, CleaningLog) else NotImplemented


# header specs: (the header as documented, a test of the stripped, case-folded header)
_EDGE = ("source,target[,weight]", lambda h: h in (["source", "target"], ["source", "target", "weight"]))
_NODE = (
    "label[,kind][,location][,score]",
    lambda h: "label" in h and len(set(h)) == len(h) and set(h) <= {"label", "kind", "location", "score"},
)
_ALIAS = ("variant,canonical", lambda h: h == ["variant", "canonical"])

# NUL becomes a lone surrogate that no decode yields (surrogateescape makes
# U+DC80-U+DCFF): csv raises on NUL before Python 3.11 and keeps it after.
_NUL = "\udc00"
# characters XML 1.0 cannot carry that `display_label` does not turn into spaces
_CONTROL = "".join(map(chr, [*range(0x01, 0x09), *range(0x0E, 0x1C), 0xFFFE, 0xFFFF]))
_MARK = re.compile(f"[{_NUL}\udc80-\udcff{_CONTROL}]")


def _row_error(mark: str) -> str:
    if mark == _NUL:
        return "NUL byte"
    if "\udc80" <= mark <= "\udcff":
        return "invalid UTF-8"
    return f"control character U+{ord(mark):04X}"


def _read_table(path, spec) -> tuple[list[str], Iterator[tuple[int, list[str], str | None]]]:
    """Decode a CSV file into its stripped, case-folded header and an iterator over its rows.

    The file is decoded once and parsed lazily: the iterator yields
    (row_no, fields, error), with logical CSV row numbers (header = 1), and
    skips blank rows. Rows holding a byte that is not UTF-8, NUL, or a
    control character carry the error and do not stop the rest of the file
    from parsing. A missing, undecodable or unexpected header is fatal here;
    a csv error such as an over-long field is fatal when the iterator reaches it.
    """
    form, accepts = spec
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8-sig")
        escaped = False
    except UnicodeDecodeError:
        text = raw.decode("utf-8-sig", errors="surrogateescape")
        escaped = True
    text = text.replace("\x00", _NUL)
    # one substring test per character costs far less than a regex search over the whole text
    marked = escaped or any(c in text for c in _NUL + _CONTROL)
    rows = _rows(path, text, marked)
    first = next(rows, None)
    if first is None:
        raise IngestError(f"{path}: empty file, expected a {form} header")
    header_no, header, error = first
    if error is not None:
        raise IngestError(f"{path}: line {header_no}: {error} in the header")
    header = [h.strip().casefold() for h in header]
    if not accepts(header):
        raise IngestError(f"{path}: expected header {form}, got {','.join(header)!r}")
    return header, rows


def _rows(path, text: str, marked: bool) -> Iterator[tuple[int, list[str], str | None]]:
    row_no = 0
    try:
        for row_no, fields in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            # blank row: most rows fail the first test, so the scan over all fields is rare
            if not fields or (not fields[0].strip() and all(f.strip() == "" for f in fields)):
                continue
            error = None
            if marked and (mark := _MARK.search("".join(fields))):
                error = _row_error(mark[0])
            yield row_no, fields, error
    except csv.Error as exc:
        raise IngestError(f"{path}: line {row_no + 1}: {exc}") from None


def parse_edge_csv(path) -> tuple[list[RawEdgeRow], CleaningLog]:
    """Read an edge list; every data row becomes a RawEdgeRow or a rejection."""
    header, rows = _read_table(path, _EDGE)
    width = len(header)
    has_weight = width == 3

    log = CleaningLog()
    out: list[RawEdgeRow] = []
    labels = Memo(display_label)  # endpoints repeat: normalize each distinct string once
    for line_no, fields, err in rows:
        if err is not None:
            log.rows_rejected.append((line_no, err))
            continue
        if len(fields) != width:
            log.rows_rejected.append((line_no, f"expected {width} fields, got {len(fields)}"))
            continue
        source = labels[fields[0]]
        target = labels[fields[1]]
        if not source:
            log.rows_rejected.append((line_no, "empty source"))
            continue
        if not target:
            log.rows_rejected.append((line_no, "empty target"))
            continue
        weight = None
        if has_weight and fields[2].strip():
            try:
                weight = float(fields[2])
            except ValueError:
                log.rows_rejected.append((line_no, f"non-numeric weight {fields[2].strip()!r}"))
                continue
            if not math.isfinite(weight) or weight <= 0:
                log.rows_rejected.append((line_no, f"weight must be positive, got {fields[2].strip()!r}"))
                continue
        out.append(RawEdgeRow(source, target, weight, line_no))
    return out, log


def parse_node_csv(path, log: CleaningLog) -> dict[str, NodeRecord]:
    """Read node records, keyed by canonical label in file order.

    Unknown kinds fall back to `other` with a warning on `log`.
    """
    header, rows = _read_table(path, _NODE)
    col = {name: header.index(name) for name in header}

    records: dict[str, NodeRecord] = {}
    seen: dict[str, int] = {}  # canonical label -> line_no
    for line_no, fields, err in rows:
        if err is not None:
            raise IngestError(f"{path}: line {line_no}: {err}")
        if len(fields) != len(header):
            raise IngestError(f"{path}: line {line_no}: expected {len(header)} fields, got {len(fields)}")

        label = display_label(fields[col["label"]])
        if not label:
            raise IngestError(f"{path}: line {line_no}: empty label")
        key = canonical_label(label)
        if key in seen:
            raise IngestError(
                f"{path}: duplicate label {label!r} at lines {seen[key]} and {line_no}"
            )
        seen[key] = line_no

        kind = "other"
        if "kind" in col and fields[col["kind"]].strip():
            raw_kind = fields[col["kind"]].strip().casefold()
            if raw_kind in INSTITUTION_KINDS:
                kind = raw_kind
            else:
                log.warnings.append(f"line {line_no}: unknown kind {fields[col['kind']].strip()!r} mapped to 'other'")

        location = None
        if "location" in col and fields[col["location"]].strip():
            location = display_label(fields[col["location"]])

        score = None
        if "score" in col and fields[col["score"]].strip():
            try:
                score = float(fields[col["score"]])
            except ValueError:
                raise IngestError(f"{path}: line {line_no}: non-numeric score {fields[col['score']].strip()!r}") from None
            if not math.isfinite(score) or score < 0:
                raise IngestError(f"{path}: line {line_no}: score must be non-negative")

        records[key] = NodeRecord(label=label, kind=kind, location=location, external_score=score)
    return records


def parse_alias_csv(path) -> dict[str, str]:
    """Read variant -> canonical label mappings, keyed by canonical form.

    Chains resolve transitively: with `A,B` and `B,C` both A and B map to C.
    A cycle (`A,B` and `B,A`) is rejected. An alias whose canonical label
    differs from its variant only in case or spacing ends a chain: it sets
    the node's spelling. Each key is walked once: a walk stops at the first
    key already resolved, so the whole file costs time linear in its keys.
    """
    _, rows = _read_table(path, _ALIAS)
    aliases: dict[str, str] = {}
    variants: dict[str, str] = {}  # canonical form -> the variant as first written
    for line_no, fields, err in rows:
        if err is not None:
            raise IngestError(f"{path}: line {line_no}: {err}")
        if len(fields) != 2 or not display_label(fields[0]) or not display_label(fields[1]):
            raise IngestError(f"{path}: line {line_no}: expected variant,canonical")
        key = canonical_label(fields[0])
        target = display_label(fields[1])
        if key in aliases and canonical_label(aliases[key]) != canonical_label(target):
            raise IngestError(f"{path}: line {line_no}: conflicting alias for {fields[0].strip()!r}")
        aliases[key] = target
        variants.setdefault(key, display_label(fields[0]))

    resolved: dict[str, str] = {}
    for start in aliases:  # in file order: a resolved key leads to no cycle, so the first cycle found stays the same
        key = start
        walk: dict[str, int] = {}  # each key walked from `start` -> its position on the walk
        while key not in resolved:
            walk[key] = len(walk)
            nxt = canonical_label(aliases[key])
            if nxt not in aliases or nxt == key:  # aliases[key] ends the chain
                resolved[key] = aliases[key]
                break
            if nxt in walk:
                cycle = [*walk][walk[nxt]:] + [nxt]
                raise IngestError(f"{path}: alias cycle {' -> '.join(variants[k] for k in cycle)}")
            key = nxt
        resolved.update(dict.fromkeys(walk, resolved[key]))  # every key on the walk ends where `key` does
    return resolved


def load_dataset(edge_path, node_path=None, alias_path=None) -> tuple[Graph, CleaningLog]:
    """Full ingestion: edge CSV plus optional node and alias CSVs into a Graph.

    Nodes appearing only in the edge file are synthesized with kind `other`,
    named by their first spelling in row order. Node ids are assigned in
    canonical-label order, so identical input bytes always produce the
    identical graph. The collapsed weights are checked here and nowhere
    downstream: a pair whose weights sum to inf is fatal, naming the first
    row, in row order, whose weight makes its pair's sum overflow (self-loops
    are dropped first), and so are collapsed weights whose largest is more
    than MAX_WEIGHT_RATIO times their smallest.
    """
    edge_rows, log = parse_edge_csv(edge_path)
    registry = parse_node_csv(node_path, log) if node_path is not None else {}  # canonical label -> record
    aliases = parse_alias_csv(alias_path) if alias_path is not None else {}

    for key, r in registry.items():
        if key in aliases and canonical_label(aliases[key]) != key:  # it would stay an isolated ghost
            raise IngestError(f"{node_path}: label {r.label!r} is an alias of {aliases[key]!r} in {alias_path}")
    merged: set[tuple[str, str]] = set()

    @Memo  # the result for a string never changes once its node is registered
    def node_key(name: str) -> str:  # `name` is a display label (parse_edge_csv)
        key = canonical_label(name)
        if key in aliases:
            target = aliases[key]
            merged.add((name, target))
            name, key = display_label(target), canonical_label(target)
        if key not in registry:
            registry[key] = NodeRecord(label=name, kind="other")
        stored = registry[key].label
        if stored != name:
            merged.add((name, stored))
        return key

    for source, target, _, _ in edge_rows:  # register endpoints in row order
        node_key[source]
        node_key[target]
    keys = sorted(registry)  # the canonical labels
    position = {key: i for i, key in enumerate(keys)}
    ids = {name: position[key] for name, key in node_key.items()}
    graph, log.duplicates_collapsed, log.self_loops_dropped = collapse_edges(
        [registry[key] for key in keys],
        ((ids[source], ids[target], weight) for source, target, weight, _ in edge_rows),
    )
    weights = [w for nbrs in graph.adjacency for _, w in nbrs]
    heaviest = max(weights, default=0.0)
    if heaviest == math.inf:  # some pair's sum overflowed: add the rows up again to find the one that tipped it
        totals: dict[frozenset[int], float] = {}
        for row in edge_rows:
            pair = frozenset((ids[row.source_label], ids[row.target_label]))
            if len(pair) == 2:
                totals[pair] = totals.get(pair, 0.0) + (1.0 if row.weight is None else row.weight)
                if totals[pair] == math.inf:
                    raise IngestError(
                        f"{edge_path}: line {row.line_no}: weight {row.weight!r} makes the collapsed weight of "
                        f"{row.source_label!r} and {row.target_label!r} overflow"
                    )
    if weights and heaviest / min(weights) > MAX_WEIGHT_RATIO:
        u, v, lightest = min(graph.edges(), key=lambda edge: edge[2])
        row = next(r for r in edge_rows if {ids[r.source_label], ids[r.target_label]} == {u, v})
        raise IngestError(
            f"{edge_path}: line {row.line_no}: the collapsed weight {lightest!r} of {row.source_label!r} and "
            f"{row.target_label!r} is more than 2**500 times smaller than the largest, {heaviest!r}"
        )
    log.labels_merged = sorted(merged)
    return graph, log


def weight_text(w: float) -> str:
    """An edge weight as the edge CSV, GEXF and DOT write it: `format(w, "g")` if it reads back as `w`, else `repr(w)`."""
    text = format(w, "g")
    return text if float(text) == w else repr(w)


def csv_text(header, rows) -> str:
    """`header`, then `rows`, as CSV text in the one dialect of every CSV output: minimal quoting, LF line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def edges_to_csv(g: Graph) -> str:
    """Standard edge CSV for a graph (sorted, weight column always present)."""
    labels = g.labels
    return csv_text(["source", "target", "weight"], ([labels[u], labels[v], weight_text(w)] for u, v, w in g.edges()))
