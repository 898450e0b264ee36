"""Property test: whatever bytes the input CSVs hold, the CLI exits 0 or 1.

Exit 2 means an internal error escaped, so malformed input must never reach
it. The pieces are biased toward what CSV parsing and UTF-8 decoding treat
specially (quotes, CR and LF, NUL, stray high bytes, a byte-order mark), so
a derandomized run finds the interesting files in a few hundred examples.
Hypothesis is in the `test` extra only; without it this module skips.
"""

from __future__ import annotations

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
    b"A", b"b", b"NU", b" ", b",", b'"', b"\n", b"\r", b"\r\n", b"\x00", b"\xff", b"\xc3\xa9",
    b"\xef\xbb\xbf", b"1", b"-2", b"2.5", b"nan", b"public",
]


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
    command=st.sampled_from([["communities"], ["analyze"], ["export", "--format", "gexf"]]),
    edges=csv_bytes(HEADERS["edges"]),
    nodes=st.none() | csv_bytes(HEADERS["nodes"]),
    aliases=st.none() | csv_bytes(HEADERS["aliases"]),
)
def test_any_input_bytes_exit_0_or_1(tmp_path, capsys, command, edges, nodes, aliases):
    argv = [*command]
    for name, data in (("edges", edges), ("nodes", nodes), ("aliases", aliases)):
        if data is not None:
            path = tmp_path / f"{name}.csv"
            path.write_bytes(data)
            argv += [f"--{name}", str(path)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1), err
