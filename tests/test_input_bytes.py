"""Property test: whatever bytes the input CSVs hold, the CLI exits 0 or 1.

Exit 2 means an internal error escaped, so malformed input must never reach
it, and exit 0 must mean every output parses: the GEXF as XML, the JSON
export and the `analyze` report as JSON, and the partition CSV back into the
labels it was written from. In one draw of six a file is built from pieces
biased toward what CSV parsing, UTF-8 decoding and XML treat specially
(quotes, CR and LF, NUL, control characters, U+FFFF, stray high bytes, a
byte-order mark); otherwise it is well formed, with quoted labels, aliased
spellings, unknown kinds and weights that are sometimes extreme numerals
(subnormal, huge, signed zero, nan, inf). So a derandomized run finds the
interesting files in a few hundred examples, and most of them exit 0 and
have their outputs parsed.
Hypothesis is in the `test` extra only; without it this module skips.
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET

import pytest

from commgraph.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

HEADERS = {
    "edges": [b"source,target", b"source,target,weight"],
    "nodes": [b"label", b"label,kind,location,score"],
    "aliases": [b"variant,canonical"],
}
PIECES = [
    b"A", b"b", b"NU", b" ", b",", b'"', b"\n", b"\r", b"\r\n", b"\x00", b"\x01", b"\x1b",
    b"\xef\xbf\xbf", b"\xff", b"\xc3\xa9", b"\xef\xbb\xbf", b"1", b"-2", b"2.5", b"nan", b"public",
]


LABELS = [b"A", b"b", b"NU", b"\xc3\xa9", b'"q,r"']
# spellings that no node file names: an alias file maps them onto LABELS
VARIANTS = [b"Ay ", b"Nu  X", b"\xc3\x89t\xc3\xa9", b'"b ""2"""']
ORDINARY_WEIGHTS = [b"1", b"2.5", b"0.125", b""]
WEIGHTS = ORDINARY_WEIGHTS + [b"1e-320", b"1e308", b"5e-324", b"-0", b"nan", b"inf"]
KINDS = [b"public", b"Medical", b"technical", b"other", b"", b"spaceship"]
LOCATIONS = [b"", b"Tehran", b'"Rasht, Gilan"', b"\xc3\xa9"]
SCORES = [b"", b"0", b"3.5", b"1e300"]


def rows_bytes(header: bytes, row, unique_by=None, min_size=0):
    """A header and up to 8 rows, each row a tuple of CSV fields."""
    rows = st.lists(row, min_size=min_size, max_size=8, unique_by=unique_by)
    return rows.map(lambda rs: header + b"\n" + b"".join(b",".join(r) + b"\n" for r in rs))


def weighted_edge_bytes(weights):
    """Well-formed weighted edge rows, so every weight numeral reaches the weight field."""
    label = st.sampled_from(LABELS + VARIANTS)
    return rows_bytes(b"source,target,weight", st.tuples(label, label, st.sampled_from(weights)), min_size=1)


def node_bytes():
    """Well-formed node rows: distinct labels, kinds known or not, CSV-quoted locations."""
    row = st.tuples(*(st.sampled_from(v) for v in (LABELS, KINDS, LOCATIONS, SCORES)))
    return rows_bytes(b"label,kind,location,score", row, unique_by=lambda r: r[0])


def alias_bytes():
    """Well-formed alias rows: each variant maps once, onto a label no variant spells."""
    row = st.tuples(st.sampled_from(VARIANTS), st.sampled_from(LABELS))
    return rows_bytes(b"variant,canonical", row, unique_by=lambda r: r[0])


def check_partition_csv(text: str) -> None:
    """A `label,community` CSV parses into distinct labels that write back to the same text."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["label", "community"]
    labels = [label for label, _ in rows[1:]]
    assert len(set(labels)) == len(labels) and all(labels)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == text


def csv_bytes(headers):
    body = st.lists(st.sampled_from(PIECES), max_size=40).map(b"".join)
    return st.one_of(
        st.builds(lambda h, b: h + b, st.sampled_from(headers + [b""]), body),
        st.binary(max_size=60),
    )


def mostly(well_formed, name: str):
    """`well_formed` in five draws of six, else the biased pieces: most runs reach exit 0 and the output checks."""
    return st.integers(0, 5).flatmap(lambda k: well_formed if k else csv_bytes(HEADERS[name]))


@hypothesis.settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(
    command=st.sampled_from(["communities", "analyze", "gexf", "json"]),
    edges=mostly(weighted_edge_bytes(ORDINARY_WEIGHTS) | weighted_edge_bytes(WEIGHTS), "edges"),
    nodes=st.none() | mostly(node_bytes(), "nodes"),
    aliases=st.none() | mostly(alias_bytes(), "aliases"),
)
def test_any_input_bytes_exit_0_or_1(tmp_path, capsys, command, edges, nodes, aliases):
    graph = tmp_path / f"graph.{command}"
    graph.unlink(missing_ok=True)
    argv = ["export", "--format", command, "--out", str(graph)] if command in ("gexf", "json") else [command]
    for name, data in (("edges", edges), ("nodes", nodes), ("aliases", aliases)):
        if data is not None:
            path = tmp_path / f"{name}.csv"
            path.write_bytes(data)
            argv += [f"--{name}", str(path)]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc in (0, 1), err
    if rc == 1:
        return
    if command == "gexf":
        ET.parse(graph)  # raises on XML that is not well-formed
    elif command == "json":
        json.loads(graph.read_text(encoding="utf-8"))
    elif command == "analyze":
        json.loads(out)
    else:
        check_partition_csv(out)


@hypothesis.settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(
    labels=st.lists(st.text(max_size=4), min_size=2, max_size=6),
    locations=st.lists(st.text(max_size=4), max_size=6),
)
def test_any_label_text_gives_well_formed_gexf_or_exit_1(tmp_path, capsys, labels, locations):
    edges = tmp_path / "edges.csv"
    nodes = tmp_path / "nodes.csv"
    gexf = tmp_path / "graph.gexf"
    gexf.unlink(missing_ok=True)
    with edges.open("w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([["source", "target"], *zip(labels, labels[1:])])
    with nodes.open("w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([["label", "location"], *zip(labels, locations)])
    rc = main(["export", "--edges", str(edges), "--nodes", str(nodes), "--format", "gexf", "--out", str(gexf)])
    err = capsys.readouterr().err
    assert rc in (0, 1), err
    if rc == 0:
        ET.parse(gexf)  # raises on XML that is not well-formed
