from __future__ import annotations

import csv
import io
import random
import re
import time

import hypothesis
import hypothesis.strategies as st
import pytest

from commgraph.centrality import all_centralities, centrality_table_csv, pagerank
from commgraph.community import louvain, partition_to_csv
from commgraph.errors import IngestError
from commgraph.ingest import (
    CleaningLog,
    canonical_label,
    edges_to_csv,
    load_dataset,
    parse_alias_csv,
    parse_edge_csv,
    parse_node_csv,
)
from conftest import sweep_of
from oracles import load_dataset_reference, parse_alias_csv_reference


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_parse_edge_csv_plain(tmp_path):
    p = write(tmp_path, "e.csv", "source,target\nA,B\nB,C\n")
    rows, log = parse_edge_csv(p)
    assert [(r.source_label, r.target_label, r.weight) for r in rows] == [("A", "B", None), ("B", "C", None)]
    assert log.rows_rejected == []


def test_parse_edge_csv_rejects_empty_target(tmp_path):
    p = write(tmp_path, "e.csv", "source,target,weight\nA,,1.0\n")
    rows, log = parse_edge_csv(p)
    assert rows == []
    assert log.rows_rejected == [(2, "empty target")]


def test_parse_edge_csv_rejects_bad_weights(tmp_path):
    p = write(tmp_path, "e.csv", "source,target,weight\nA,B,-1\nA,C,abc\nA,D,2.5\n")
    rows, log = parse_edge_csv(p)
    assert [(r.source_label, r.weight) for r in rows] == [("A", 2.5)]
    assert [ln for ln, _ in log.rows_rejected] == [2, 3]


def test_parse_edge_csv_missing_header_is_fatal(tmp_path):
    p = write(tmp_path, "e.csv", "from,to\nA,B\n")
    with pytest.raises(IngestError, match="header"):
        parse_edge_csv(p)


def test_parse_edge_csv_unreadable_file_is_fatal(tmp_path):
    with pytest.raises(OSError):
        parse_edge_csv(tmp_path / "missing.csv")


def test_parse_edge_csv_rejects_non_utf8_rows(tmp_path):
    p = tmp_path / "e.csv"
    p.write_bytes(b"source,target\nA,B\n\xff\xfe,bad\nC,D\n")
    rows, log = parse_edge_csv(p)
    assert len(rows) == 2
    assert log.rows_rejected == [(3, "invalid UTF-8")]


def test_byte_order_mark_accepted_in_every_csv(tmp_path):
    e = write(tmp_path, "e.csv", "\ufeffsource,target\nNU,City Medical\n")
    n = write(tmp_path, "n.csv", "\ufefflabel,kind\nNorthside University,public\nCity Medical,medical\n")
    a = write(tmp_path, "a.csv", "\ufeffvariant,canonical\nNU,Northside University\n")
    g, log = load_dataset(e, n, a)
    assert {r.label: r.kind for r in g.records} == {"Northside University": "public", "City Medical": "medical"}
    assert g.edge_count == 1
    assert log.labels_merged == [("NU", "Northside University")]


def test_byte_order_mark_accepted_with_invalid_utf8_rows(tmp_path):
    p = tmp_path / "e.csv"
    p.write_bytes(b"\xef\xbb\xbfsource,target\nA,B\n\xff\xfe,bad\n")
    rows, log = parse_edge_csv(p)
    assert [(r.source_label, r.target_label) for r in rows] == [("A", "B")]
    assert log.rows_rejected == [(3, "invalid UTF-8")]


def test_case_variants_collapse_downstream(tmp_path):
    p = write(tmp_path, "e.csv", "source,target\nA,B\nb , a\n")
    g, log = load_dataset(p)
    assert g.edge_count == 1
    assert log.duplicates_collapsed == 1


def test_parse_node_csv_basic(tmp_path):
    p = write(tmp_path, "n.csv", "label,kind\nNorthside U,public\n")
    assert list(parse_node_csv(p, CleaningLog())) == ["northside u"]  # keyed by canonical label
    recs = list(parse_node_csv(p, CleaningLog()).values())
    assert len(recs) == 1
    assert recs[0].label == "Northside U"
    assert recs[0].kind == "public"


def test_parse_node_csv_unknown_kind_falls_back(tmp_path):
    p = write(tmp_path, "n.csv", "label,kind\nX,Medical University\n")
    log = CleaningLog()
    recs = list(parse_node_csv(p, log).values())
    assert recs[0].kind == "other"
    assert any("Medical University" in w for w in log.warnings)


def test_parse_node_csv_duplicate_labels_fatal(tmp_path):
    p = write(tmp_path, "n.csv", "label\nNorthside U\nnorthside  u \n")
    with pytest.raises(IngestError, match=r"lines 2 and 3"):
        parse_node_csv(p, CleaningLog())


def test_parse_node_csv_score_and_location(tmp_path):
    p = write(tmp_path, "n.csv", "label,kind,location,score\nNorthside U,public,Springfield,41.5\nX,,,\n")
    recs = list(parse_node_csv(p, CleaningLog()).values())
    assert recs[0].location == "Springfield"
    assert recs[0].external_score == 41.5
    assert recs[1].kind == "other"
    assert recs[1].external_score is None


def test_parse_node_csv_negative_score_fatal(tmp_path):
    p = write(tmp_path, "n.csv", "label,score\nNorthside U,-2\n")
    with pytest.raises(IngestError, match="non-negative"):
        parse_node_csv(p, CleaningLog())


def test_alias_csv_merges_variants(tmp_path):
    e = write(tmp_path, "e.csv", "source,target\nNU,City College\nNorthside University,Tech Institute\n")
    a = write(tmp_path, "a.csv", "variant,canonical\nNU,Northside University\n")
    g, log = load_dataset(e, alias_path=a)
    assert g.node_count == 3
    assert ("NU", "Northside University") in log.labels_merged


def test_load_dataset_synthesizes_missing_nodes(tmp_path):
    e = write(tmp_path, "e.csv", "source,target\nA,B\nB,C\nC,A\n")
    g, _ = load_dataset(e)
    assert g.node_count == 3
    assert g.edge_count == 3
    assert all(r.kind == "other" for r in g.records)


def test_load_dataset_counts_duplicates_and_self_loops(tmp_path):
    e = write(tmp_path, "e.csv", "source,target\nA,B\nB,A\nC,C\nA,C\n")
    g, log = load_dataset(e)
    assert g.edge_count == 2
    assert log.duplicates_collapsed == 1
    assert log.self_loops_dropped == 1


def test_load_dataset_node_file_kinds_apply(tmp_path):
    e = write(tmp_path, "e.csv", "source,target\nNorthside U,City Medical\n")
    n = write(tmp_path, "n.csv", "label,kind\nNorthside U,public\nCity Medical,medical\nValley Medical,medical\n")
    g, _ = load_dataset(e, n)
    assert g.node_count == 3  # Valley Medical kept as isolate
    by_label = {r.label: r.kind for r in g.records}
    assert by_label == {"Northside U": "public", "City Medical": "medical", "Valley Medical": "medical"}


def test_conservation_identity(tmp_path):
    # 5 good unique rows, 3 duplicates, 2 self-loops, 1 malformed
    e = write(
        tmp_path,
        "e.csv",
        "source,target\n"
        "A,B\nB,C\nC,D\nD,E\nE,A\n"
        "B,A\na, b\nC,B\n"
        "F,F\ng,G\n"
        "H,\n",
    )
    g, log = load_dataset(e)
    data_rows = 11
    assert g.edge_count == 5
    assert log.duplicates_collapsed == 3
    assert log.self_loops_dropped == 2
    assert len(log.rows_rejected) == 1
    assert data_rows == g.edge_count + log.duplicates_collapsed + log.self_loops_dropped + len(log.rows_rejected)


def test_ingestion_is_deterministic(tmp_path):
    e = write(tmp_path, "e.csv", "source,target\nZeta,Alpha\nMid,Zeta\nAlpha,Mid\n")
    g1, log1 = load_dataset(e)
    g2, log2 = load_dataset(e)
    assert g1 == g2
    assert log1 == log2
    assert g1.labels == ("Alpha", "Mid", "Zeta")  # canonical-label order


def test_edges_to_csv_round_trip(tmp_path):
    e = write(tmp_path, "e.csv", "source,target,weight\nB,A,2\nC,A,0.5\n")
    g, _ = load_dataset(e)
    text = edges_to_csv(g)
    p2 = write(tmp_path, "e2.csv", text)
    g2, _ = load_dataset(p2)
    assert g2 == g


def test_alias_conflicting_targets_fatal(tmp_path):
    a = write(tmp_path, "a.csv", "variant,canonical\nNU,Northside University\nnu,North Uni\n")
    with pytest.raises(IngestError, match="conflicting"):
        parse_alias_csv(a)


def test_alias_chain_resolves_transitively(tmp_path):
    # A -> B and B -> C: all three spellings are one node, named C
    a = write(tmp_path, "a.csv", "variant,canonical\nNU,Northside Univ\nNorthside Univ,Northside University\n")
    assert parse_alias_csv(a) == {"nu": "Northside University", "northside univ": "Northside University"}
    e = write(tmp_path, "e.csv", "source,target\nNU,City College\nNorthside Univ,Tech Institute\nNorthside University,City College\n")
    g, log = load_dataset(e, alias_path=a)
    assert sorted(g.labels) == ["City College", "Northside University", "Tech Institute"]
    assert g.edge_count == 2
    assert log.duplicates_collapsed == 1
    assert ("NU", "Northside University") in log.labels_merged
    assert ("Northside Univ", "Northside University") in log.labels_merged


def test_alias_chain_ends_at_a_respelling(tmp_path):
    # a variant that only re-cases its own label ends the chain and sets the spelling
    a = write(tmp_path, "a.csv", "variant,canonical\nNU,northside university\nNorthside University,NORTHSIDE University\n")
    assert parse_alias_csv(a) == {"nu": "NORTHSIDE University", "northside university": "NORTHSIDE University"}


def test_alias_two_cycle_is_fatal(tmp_path):
    # before chains were followed, A -> B and B -> A silently swapped the labels
    a = write(tmp_path, "a.csv", "variant,canonical\nNU,Northside University\nnorthside  university,nu\n")
    with pytest.raises(IngestError, match="alias cycle NU -> northside university -> NU"):
        parse_alias_csv(a)


def test_alias_longer_cycle_names_only_its_labels(tmp_path):
    a = write(tmp_path, "a.csv", "variant,canonical\nA,B\nB,C\nC,D\nD,B\n")
    with pytest.raises(IngestError, match=r"alias cycle B -> C -> D -> B$"):
        parse_alias_csv(a)


# four names, each in two spellings that differ only in case or spacing
ALIAS_NAMES = ["ann", "Ann", "bo", " BO", "cy lu", "cy  lu", "dee", "DEE"]


@hypothesis.settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(
    rows=st.lists(
        st.tuples(st.sampled_from(ALIAS_NAMES), st.sampled_from(ALIAS_NAMES)),
        max_size=8,
        unique_by=lambda row: canonical_label(row[0]),
    )
)
def test_alias_resolution_matches_the_chain_walking_reference(tmp_path, rows):
    # each variant maps once: chains, cycles, chains that run into a cycle, and respellings
    a = write(tmp_path, "a.csv", "variant,canonical\n" + "".join(f"{v},{c}\n" for v, c in rows))

    def outcome(parse):
        try:
            return parse(a)
        except IngestError as exc:
            return str(exc)

    assert outcome(parse_alias_csv) == outcome(parse_alias_csv_reference)


# letters whose case-folded order differs from their code-point order: ß/ẞ fold to "ss", İ to "i̇", ı stays,
# Σ/σ/ς fold to σ, the Kelvin sign to "k", ﬃ to "ffi", and a combining acute sorts after every ASCII letter;
# tab, no-break and ideographic spaces collapse to one space
LABEL_TEXT = st.text("aAbsSßẞiIİıΣσςkK\u212aﬃf\u0301é \t\xa0\u3000", min_size=1, max_size=5)


@hypothesis.settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(
    edges=st.lists(st.tuples(LABEL_TEXT, LABEL_TEXT), min_size=1, max_size=12),
    nodes=st.lists(LABEL_TEXT, max_size=6, unique_by=canonical_label),
    aliases=st.lists(st.tuples(LABEL_TEXT, LABEL_TEXT), max_size=4, unique_by=lambda row: canonical_label(row[0])),
)
def test_node_ids_and_table_rows_are_in_label_order(tmp_path, edges, nodes, aliases):
    e = write(tmp_path, "e.csv", "source,target\n" + "".join(f"{a},{b}\n" for a, b in edges))
    n = write(tmp_path, "n.csv", "label\n" + "".join(f"{label}\n" for label in nodes))
    a = write(tmp_path, "a.csv", "variant,canonical\n" + "".join(f"{v},{c}\n" for v, c in aliases))
    try:
        g, _ = load_dataset(e, n, a)
    except IngestError:  # a blank node or alias label, an alias cycle, or a node label that is an alias
        return
    order = sorted(g.labels, key=lambda label: (label.casefold(), label))
    assert list(g.labels) == order  # the per-node tables iterate ids, so this is their row order

    def first_column(text):
        return [row[0] for row in csv.reader(io.StringIO(text))][1:]

    if g.node_count >= 2:
        vectors = all_centralities(g, sweep_of(g), pagerank(g))
        assert first_column(centrality_table_csv(g, vectors)) == order
    if g.edge_count:
        assert first_column(partition_to_csv(g, louvain(g).final_partition)) == order


def test_a_20000_link_alias_chain_resolves_in_linear_time(tmp_path):
    n = 20_000
    a = write(tmp_path, "a.csv", "variant,canonical\n" + "".join(f"n{i},n{i + 1}\n" for i in range(n)))
    start = time.perf_counter()
    aliases = parse_alias_csv(a)
    assert time.perf_counter() - start < 2.0  # walking every key's whole chain would take hours
    assert len(aliases) == n and set(aliases.values()) == {f"n{n}"}


def timed(fn):
    """`fn()` and the seconds it took; an IngestError it raises is returned as its text."""
    start = time.perf_counter()
    try:
        result = fn()
    except IngestError as exc:
        result = str(exc)
    return result, time.perf_counter() - start


# Ingest's worst cases, each about 0.2 s or less on a 2-CPU host: work
# quadratic in the field length, rows or labels would take minutes to hours


def test_labels_of_131072_characters_load_in_linear_time(tmp_path):
    # the longest field csv accepts, as tabs and spaces to collapse, in a file whose control character makes
    # ingest search every row for marks
    long = ["".join(f"L{v}{' ' if k % 2 else chr(9)}" for k in range(65536))[:131072] for v in range(4)]
    rows = "".join(f'"{label}",B{v}\n' for v, label in enumerate(long))
    e = write(tmp_path, "e.csv", f"source,target\n{rows}C\x01,D\n")
    (g, log), seconds = timed(lambda: load_dataset(e))
    assert seconds < 2.0
    assert log.rows_rejected == [(6, "control character U+0001")]
    assert {label for label in g.labels if len(label) > 2} == {" ".join(label.split()) for label in long}


def test_80000_rejected_rows_load_in_linear_time(tmp_path):
    reasons = ["A", ",B", "A,", "A,B,x", "A\x02,B"]
    e = write(tmp_path, "e.csv", "source,target,weight\n" + "".join(f"{reasons[i % 5]}\n" for i in range(80_000)))
    (g, log), seconds = timed(lambda: load_dataset(e))
    assert seconds < 2.0
    assert g.node_count == 0 and len(log.rows_rejected) == 80_000


def test_10000_case_and_space_variants_of_one_label_load_in_linear_time(tmp_path):
    base = "tehran university of medical sciences"
    letters = [pos for pos, c in enumerate(base) if c != " "][:14]

    def variant(i):
        chars = [c.upper() if pos in letters and i >> letters.index(pos) & 1 else c for pos, c in enumerate(base)]
        return " " * (i % 3) + "".join(chars).replace(" ", " " * (1 + i % 2))

    e = write(tmp_path, "e.csv", "source,target\n" + "".join(f"{variant(i)},n{i}\n" for i in range(10_000)))
    (g, log), seconds = timed(lambda: load_dataset(e))
    assert seconds < 2.0
    assert g.node_count == 10_001 and len(log.labels_merged) == 9_999


# 80,000 rows over 2,000 pairs of 2,000 nodes, then the row that fails: the error paths re-read every row
RING_ROWS = "".join(f"n{i % 2000},n{(7 * i + 1) % 2000},1\n" for i in range(80_000))


def test_the_weight_ratio_error_after_80000_rows_comes_in_linear_time(tmp_path):
    e = write(tmp_path, "e.csv", f"source,target,weight\nh0,h1,1e300\n{RING_ROWS}z0,z1,1e-200\n")
    message, seconds = timed(lambda: load_dataset(e))
    assert seconds < 2.0
    assert message.startswith(f"{e}: line 80003: the collapsed weight 1e-200 of 'z0' and 'z1' is more than 2**500")


def test_the_overflow_error_after_80000_rows_comes_in_linear_time(tmp_path):
    e = write(tmp_path, "e.csv", f"source,target,weight\n{RING_ROWS}z0,z1,1e308\nz1,z0,1e308\n")
    message, seconds = timed(lambda: load_dataset(e))
    assert seconds < 2.0
    assert message == f"{e}: line 80003: weight 1e+308 makes the collapsed weight of 'z1' and 'z0' overflow"


PARSERS = {"edge": parse_edge_csv, "node": lambda p: parse_node_csv(p, CleaningLog()), "alias": parse_alias_csv}


@pytest.mark.parametrize("kind", PARSERS)
@pytest.mark.parametrize(
    "data, message",
    [
        (b"", "empty file, expected a"),
        (b"\n \n,\n", "empty file, expected a"),
        (b"sou\xffrce,target\nA,B\n", "line 1: invalid UTF-8 in the header"),
        (b"\nlabel\x00\nA\n", "line 2: NUL byte in the header"),
        (b"from,to,weight,extra\nA,B,1,2\n", "expected header .*, got 'from,to,weight,extra'"),
    ],
    ids=["empty", "blank", "undecodable", "nul", "unexpected"],
)
def test_unusable_header_is_fatal_in_every_csv(tmp_path, kind, data, message):
    p = tmp_path / f"{kind}.csv"
    p.write_bytes(data)
    with pytest.raises(IngestError, match=f"^{re.escape(str(p))}: {message}"):
        PARSERS[kind](p)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_every_line_ending_is_accepted(tmp_path, eol):
    # CR-only endings used to escape as a csv error, exit 2
    p = tmp_path / "e.csv"
    p.write_bytes(eol.join(["source,target", "A,B", '"C', 'D",E', ""]).encode())
    rows, log = parse_edge_csv(p)
    assert [(r.source_label, r.target_label, r.line_no) for r in rows] == [("A", "B", 2), ("C D", "E", 3)]
    assert log.rows_rejected == []


def test_field_over_csv_limit_is_fatal_naming_the_row(tmp_path):
    # used to escape as a csv error, exit 2
    p = tmp_path / "e.csv"
    p.write_text("source,target\nA,B\nA," + "x" * 131073 + "\n", encoding="utf-8")
    with pytest.raises(IngestError, match=rf"^{re.escape(str(p))}: line 3: field larger than field limit \(131072\)$"):
        parse_edge_csv(p)


def test_nul_row_is_rejected_on_every_python(tmp_path):
    # Python 3.10's csv raised on NUL (exit 2); 3.11+ kept it inside the label
    p = tmp_path / "e.csv"
    p.write_bytes(b'source,target\nA,B\x00\n"B\nC",D\nC,E\n')
    rows, log = parse_edge_csv(p)
    assert [(r.source_label, r.target_label) for r in rows] == [("B C", "D"), ("C", "E")]
    assert log.rows_rejected == [(2, "NUL byte")]


def test_invalid_utf8_row_leaves_quoted_newlines_intact(tmp_path):
    # the old per-line fallback for such files cut `"C<LF>D"` in two and made a node `D"`
    p = tmp_path / "e.csv"
    p.write_bytes(b'source,target\nA,B\n"C\nD",E\n\xff,x\n"F\xff\nG",H\n')
    rows, log = parse_edge_csv(p)
    assert [(r.source_label, r.target_label, r.line_no) for r in rows] == [("A", "B", 2), ("C D", "E", 3)]
    assert log.rows_rejected == [(4, "invalid UTF-8"), (5, "invalid UTF-8")]


@pytest.mark.parametrize("kind, header", [("node", b"label,kind"), ("alias", b"variant,canonical")], ids=["node", "alias"])
@pytest.mark.parametrize("bad, reason", [(b"\xff", "invalid UTF-8"), (b"\x00", "NUL byte")], ids=["undecodable", "nul"])
def test_undecodable_row_is_fatal_in_node_and_alias_csv(tmp_path, kind, header, bad, reason):
    p = tmp_path / f"{kind}.csv"
    p.write_bytes(header + b'\nA,B\n"C\nD",E\nF' + bad + b",G\n")
    with pytest.raises(IngestError, match=f"^{re.escape(str(p))}: line 4: {reason}$"):
        PARSERS[kind](p)


def test_node_label_that_is_an_alias_variant_is_fatal(tmp_path):
    # it used to stay in the graph as an isolated node while its edges went to the target
    e = write(tmp_path, "e.csv", "source,target\nNU,City College\n")
    n = write(tmp_path, "n.csv", "label\nNU\nNorthside University\nCity College\n")
    a = write(tmp_path, "a.csv", "variant,canonical\nnu,Northside University\n")
    with pytest.raises(IngestError, match=r"label 'NU' is an alias of 'Northside University'"):
        load_dataset(e, n, a)
    # an alias that only re-spells a node's own label is not a conflict
    a.write_text("variant,canonical\nnorthside university,NORTHSIDE University\n", encoding="utf-8")
    g, _ = load_dataset(e, n, a)
    assert g.labels == ("City College", "Northside University", "NU")


@pytest.mark.parametrize("char", ["\x01", "\x08", "\x0e", "\x1b", "￾", "￿"], ids=repr)
def test_row_with_a_character_xml_cannot_carry_is_rejected(tmp_path, char):
    # such a label used to reach the GEXF export, which wrote XML no parser accepts
    p = tmp_path / "e.csv"
    p.write_bytes(f'source,target\nA{char}x,B\n"C\nD",E\nF,G\x1c\tH\n'.encode())
    rows, log = parse_edge_csv(p)
    assert [(r.source_label, r.target_label, r.line_no) for r in rows] == [("C D", "E", 3), ("F", "G H", 4)]
    assert log.rows_rejected == [(2, f"control character U+{ord(char):04X}")]


@pytest.mark.parametrize("kind, header", [("node", b"label,location"), ("alias", b"variant,canonical")], ids=["node", "alias"])
def test_control_character_is_fatal_in_node_and_alias_csv(tmp_path, kind, header):
    p = tmp_path / f"{kind}.csv"
    p.write_bytes(header + b"\nA,B\nC,D\x01\n")
    with pytest.raises(IngestError, match=f"^{re.escape(str(p))}: line 3: control character U\\+0001$"):
        PARSERS[kind](p)


def test_collapsed_weight_overflow_is_fatal_naming_the_row(tmp_path):
    # the pair used to collapse to an inf weight, which only the JSON export refused
    e = write(tmp_path, "e.csv", "source,target,weight\nA,B,1e308\nC,D,1\nb,a,1e308\n")
    with pytest.raises(IngestError, match=rf"^{re.escape(str(e))}: line 4: weight 1e\+308 makes the collapsed weight of 'b' and 'a' overflow$"):
        load_dataset(e)
    e.write_text("source,target,weight\nA,B,1e308\nb,a,7e307\n", encoding="utf-8")
    g, log = load_dataset(e)
    assert list(g.edges()) == [(0, 1, 1.7e308)]
    assert log.duplicates_collapsed == 1
    # self-loops are dropped before any sum, so theirs cannot overflow
    e.write_text("source,target,weight\nA,A,1e308\na,a,1e308\nA,B,1\n", encoding="utf-8")
    g, log = load_dataset(e)
    assert list(g.edges()) == [(0, 1, 1.0)]
    assert log.self_loops_dropped == 2
    # two pairs overflow, after self-loops that would: the row named is the
    # first to overflow a pair in row order, not a row of the smaller pair
    e.write_text("source,target,weight\nA,A,1e308\na,a,1e308\nA,B,1e308\nC,D,1e308\nd,c,1e308\nb,a,1e308\n", encoding="utf-8")
    with pytest.raises(IngestError, match=rf"^{re.escape(str(e))}: line 6: weight 1e\+308 makes the collapsed weight of 'd' and 'c' overflow$"):
        load_dataset(e)


_NAMES = ["Northside University", "City College", "Tech Institute", "Valley Medical", "Omicron Works", "Harbor Clinic"]
# acronyms, one of them a chain: NU -> Northside Univ -> Northside University
_ALIASES = [("NU", "Northside Univ"), ("Northside Univ", "Northside University"), ("CC", "City College"),
            ("harbor  clinic", "HARBOR Clinic")]


def _spell(rng, label):
    """`label` as written in dirty records: case and whitespace variants, or an alias that names it."""
    if rng.random() < 0.2:
        return rng.choice([variant for variant, target in _ALIASES if target == label] or [label])
    return rng.choice([label, label.upper(), label.lower(), label.swapcase(), f"  {label.replace(' ', '   ')}\t"])


def _dirty_edge_bytes(rng) -> bytes:
    """A weighted or unweighted edge CSV with every kind of row ingest cleans or rejects."""
    weighted = rng.random() < 0.7
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=rng.choice(["\n", "\r\n"]))
    writer.writerow(["source", "target", "weight"][: 2 + weighted])
    names = _NAMES + ["Tech Institute\nAnnex", "Valley  Medical ", "St. Mary's"]
    for _ in range(rng.randrange(1, 40)):
        a, b = rng.choice(names), rng.choice(names)
        if rng.random() < 0.1:
            b = a  # a self-loop, spelled alike or not
        row = [_spell(rng, a), _spell(rng, b)]
        if weighted:
            row.append(rng.choice(["1", "2", "0.1", "1/3", "2.5e0", "", " ", "abc", "0", "-1", "nan", "inf", "1e308"]))
        pick = rng.random()
        if pick < 0.04:
            row = row[:1]
        elif pick < 0.08:
            row.append("extra")
        elif pick < 0.12:
            row[rng.randrange(2)] = rng.choice(["", "  ", "\t"])
        elif pick < 0.16:
            row[rng.randrange(2)] += rng.choice(["\x01", "\x1b", "\ufffe", "\x00"])
        elif pick < 0.2:
            row = [""] * len(row)  # a blank row
        writer.writerow(row)
    if weighted and rng.random() < 0.1:  # a pair whose collapsed weight overflows
        writer.writerow(["Omicron Works", "City College", "1e308"])
        writer.writerow([_spell(rng, "City College"), _spell(rng, "Omicron Works"), "1e308"])
    data = buf.getvalue().encode()
    if rng.random() < 0.1:  # a row that is not UTF-8
        data += b"\xff\xfeA,B" + b",1" * weighted + b"\n"
    return data


def _outcome(load, *paths):
    try:
        return load(*paths)
    except IngestError as exc:
        return str(exc)


def test_load_dataset_matches_the_two_stage_reference_on_dirty_inputs(tmp_path):
    edges, nodes, aliases = tmp_path / "edges.csv", tmp_path / "nodes.csv", tmp_path / "aliases.csv"
    rng = random.Random(2024)
    seen = {"graph": 0, "overflow": 0, "other error": 0}
    for _ in range(300):
        edges.write_bytes(_dirty_edge_bytes(rng))
        node_rows = [["label", "kind", "location", "score"]]
        node_rows += [[_spell(rng, n) if rng.random() < 0.3 else n, rng.choice(["public", "Medical", "lab", ""]),
                       rng.choice(["Graz", " Lund ", ""]), rng.choice(["1.5", "", "0"])]
                      for n in rng.sample(_NAMES, rng.randrange(len(_NAMES)))]
        if rng.random() < 0.1:
            node_rows += [["Omicron Works", "", "", ""], ["Omicron  works", "", "", ""]]  # a duplicate label: fatal
        with open(nodes, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(node_rows)
        with open(aliases, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["variant", "canonical"], *rng.sample(_ALIASES, rng.randrange(len(_ALIASES) + 1))])
        files = [edges, nodes, aliases][: rng.randrange(1, 4)]
        got = _outcome(load_dataset, *files)
        assert got == _outcome(load_dataset_reference, *files)
        seen["graph" if isinstance(got, tuple) else "overflow" if "overflow" in got else "other error"] += 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize(
    "edge_bytes",
    [b"from,to\nA,B\n", b"source,target\nA,B\nA," + b"x" * 131073 + b"\n"],
    ids=["header", "field-limit"],
)
def test_edge_file_error_is_reported_before_node_and_alias_errors(tmp_path, edge_bytes):
    # the edge rows are read lazily, but to the end before the node file is opened
    e, n, a = tmp_path / "e.csv", tmp_path / "n.csv", tmp_path / "a.csv"
    e.write_bytes(edge_bytes)
    n.write_bytes(b"label\nA\na\n")  # a duplicate label
    a.write_bytes(b"from,to\n")
    got = _outcome(load_dataset, e, n, a)
    assert got.startswith(f"{e}: ")
    assert got == _outcome(load_dataset_reference, e, n, a)
