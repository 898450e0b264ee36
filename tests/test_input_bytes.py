"""Property test: whatever bytes the input CSVs hold, the CLI exits 0 or 1.

Exit 2 means an internal error escaped, so malformed input must never reach
it, and exit 0 must mean every output parses: the GEXF as XML, the JSON
export and the `analyze` report as JSON, and the partition CSV back into the
labels it was written from. The pieces are biased toward what CSV parsing,
UTF-8 decoding and XML treat specially (quotes, CR and LF, NUL, control
characters, U+FFFF, stray high bytes, a byte-order mark), and weights are
also drawn from extreme numerals (subnormal, huge, signed zero, nan, inf),
so a derandomized run finds the interesting files in a few hundred examples.
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
WEIGHTS = [b"1", b"2.5", b"1e-320", b"1e308", b"5e-324", b"-0", b"nan", b"inf", b""]


def weighted_edge_bytes():
    """Well-formed weighted edge rows, so every weight numeral reaches the weight field."""
    row = st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS), st.sampled_from(WEIGHTS))
    return st.lists(row.map(lambda r: b",".join(r) + b"\n"), min_size=1, max_size=8).map(
        lambda rows: b"source,target,weight\n" + b"".join(rows)
    )


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


@hypothesis.settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(
    command=st.sampled_from(["communities", "analyze", "gexf", "json"]),
    edges=csv_bytes(HEADERS["edges"]) | weighted_edge_bytes(),
    nodes=st.none() | csv_bytes(HEADERS["nodes"]),
    aliases=st.none() | csv_bytes(HEADERS["aliases"]),
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
