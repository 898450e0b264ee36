"""Property test: the line-by-line GEXF writer gives ElementTree's bytes.

`commgraph.report.export_gexf` writes its text directly; the reference,
`oracles.export_gexf_reference`, builds the same document as an ElementTree
and serializes it. Drawn node records put in their labels, kinds and
locations the characters that attribute escaping treats specially (& < > "
and CR, LF, tab), quotes it leaves alone, and non-ASCII text; kinds,
locations and external scores are sometimes None. Graphs have 0 to 6
nodes, with and without a partition and the five measures' scores.
Hypothesis is in the `test` extra only; without it this module skips.
"""

from __future__ import annotations

import pytest

from commgraph.centrality import MEASURES
from commgraph.graph import NodeRecord, Partition, collapse_edges
from commgraph.report import export_gexf
from oracles import export_gexf_reference

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

PIECES = list("&<>\"'\t\r\n ") + ["\r\n", "&amp;", "\u00e9", "\u00df", "\u5317\u4eac", "\u00a0", "\u2028", "\U0001f600", "A", "b"]
TEXT = st.lists(st.sampled_from(PIECES) | st.characters(blacklist_categories=("Cs",)), max_size=6).map("".join)
RECORDS = st.builds(
    NodeRecord,
    label=TEXT,
    kind=st.none() | TEXT,
    location=st.none() | TEXT,
    external_score=st.none() | st.floats(),
)
WEIGHTS = st.none() | st.sampled_from([1.0, 2.0, 0.5, 1.833333333333, 1e-300, 1e300]) | st.floats(1e-9, 1e9)


@st.composite
def gexf_inputs(draw):
    records = draw(st.lists(RECORDS, max_size=6))
    n = len(records)
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), WEIGHTS), max_size=12)) if n else []
    g = collapse_edges(records, edges)[0]
    partition = draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n).map(Partition.from_assignment))
    scores = draw(
        st.none()
        | st.tuples(*(st.lists(st.floats(), min_size=n, max_size=n) for _ in MEASURES)).map(
            lambda columns: {m: tuple(c) for m, c in zip(MEASURES, columns)}
        )
    )
    return g, partition, scores


@hypothesis.settings(max_examples=400, derandomize=True, deadline=None)
@hypothesis.given(gexf_inputs())
def test_gexf_writer_matches_the_element_tree_reference(drawn):
    g, partition, scores = drawn
    assert export_gexf(g, partition, scores) == export_gexf_reference(g, partition, scores)
