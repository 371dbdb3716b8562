import re

import pytest

from tgr import GraphError, RelabelOp, TemporalGraph
from tgr.formats import (
    ParseError,
    format_sequence,
    format_temporal_graph,
    format_vc,
    parse_edge_list,
    parse_sequence,
    parse_temporal_graph,
    parse_vc,
    read_text,
    save_sequence,
    save_temporal_graph,
)

import helpers

TRI_TEXT = """\
# start graph
tg 1
t 2
v a
v b
v c
e a b 1
e b c 1
e a c 1
e a b 2
e b c 2
"""


def test_parse_tri():
    g = parse_temporal_graph(TRI_TEXT)
    g1, _ = helpers.tri_pair()
    assert g == g1


def test_round_trip_all_fixtures():
    for g in (*helpers.tri_pair(), *helpers.infeas_pair(), helpers.chain2()):
        assert parse_temporal_graph(format_temporal_graph(g)) == g


def test_write_is_deterministic():
    g = helpers.chain2()
    assert format_temporal_graph(g) == format_temporal_graph(g)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("t 2\n", 1, "header"),
        ("tg 2\n", 1, "header"),
        ("tg 1\nt 2\nx foo\n", 3, "unknown directive"),
        ("tg 1\nt 2\nv a\nv a\n", 4, "duplicate vertex"),
        ("tg 1\nt 2\nv a\nv b\ne a b 3\n", 5, "outside"),
        ("tg 1\nt 2\nv a\ne a b 1\n", 4, "undeclared"),
        ("tg 1\nt 2\nv a\nv b\ne a b 1\ne b a 1\n", 6, "duplicate temporal edge"),
        ("tg 1\nt 2\nv a\nv b\ne a a 1\n", 5, "self-loop"),
        ("tg 1\nv a\nv b\ne a b 1\n", 4, "before 't'"),
        ("tg 1\nt 2\nt 2\n", 3, "duplicate 't'"),
        ("tg 1\nt 2 3\n", 2, "expected 't <lifetime>'"),
        ("tg 1\nt 0\n", 2, "at least 1"),
        ("tg 1\nt two\n", 2, "integer"),
        ("tg 1\nt \u0663\n", 2, "integer"),
        ("tg 1\nt 1_0\n", 2, "integer"),
        ("tg 1\nt 2\nv a\nv b\ne a b +1\n", 5, "integer"),
        pytest.param("tg 1\nt " + "9" * 5000 + "\n", 2, "integer", id="5000-digits"),
        pytest.param("tg 1\nt 2\nv a\nv b\ne a b " + "9" * 5000 + "\n", 5, "integer", id="5000-digit-time"),
        ("tg 1\nt 2\nv a,b\n", 3, "comma"),
        ("tg 1\n", 1, "missing 't'"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_temporal_graph(text, "in.tg")
    assert exc.value.line == line
    assert fragment in str(exc.value)


@pytest.mark.parametrize("bad", ["a b", "a,b", ""])
def test_writers_refuse_names_their_readers_reject(tmp_path, bad):
    g = TemporalGraph.build([bad, "c"], 2, [(bad, "c", 1)])
    ops = [RelabelOp(0, 1, 1, 2)]
    writes = (
        lambda: format_temporal_graph(g),
        lambda: format_sequence(ops, g),
        lambda: format_vc([bad, "c"], [], 1),
        lambda: save_temporal_graph(g, tmp_path / "g.tg"),
        lambda: save_sequence(ops, g, tmp_path / "s.tgs"),
    )
    for write in writes:
        with pytest.raises(GraphError, match=re.escape(repr(bad))):
            write()
    assert list(tmp_path.iterdir()) == []  # a refused save writes no file


def test_sequence_round_trip():
    g1, _ = helpers.tri_pair()
    ops = [helpers.op(g1, "a", "c", 1, 2), helpers.op(g1, "a", "c", 2, 1)]
    text = format_sequence(ops, g1)
    assert text.startswith("tgs 1\n")
    assert parse_sequence(text, g1) == ops


def test_sequence_empty():
    g1, _ = helpers.tri_pair()
    assert parse_sequence("tgs 1\n", g1) == []


@pytest.mark.parametrize(
    "text,line",
    [
        ("r a c 1 2\n", 1),
        ("tgs 1\nr a x 1 2\n", 2),
        ("tgs 1\nr a c 1 1\n", 2),
        ("tgs 1\nr a c 0 2\n", 2),
        ("tgs 1\nr a a 1 2\n", 2),
        ("tgs 1\nr a c 1\n", 2),
        ("tgs 1\nr a c 1 \u0662\n", 2),
    ],
)
def test_sequence_parse_errors(text, line):
    g1, _ = helpers.tri_pair()
    with pytest.raises(ParseError) as exc:
        parse_sequence(text, g1, "in.tgs")
    assert exc.value.line == line


def test_sequence_canonicalizes_endpoint_order():
    g1, _ = helpers.tri_pair()
    ops = parse_sequence("tgs 1\nr c a 1 2\n", g1)
    assert ops == [RelabelOp(0, 2, 1, 2)]


def test_edge_list():
    assert parse_edge_list("# comment\nb a\na c\n") == [("a", "b"), ("a", "c")]
    with pytest.raises(ParseError):
        parse_edge_list("a a\n")
    with pytest.raises(ParseError):
        parse_edge_list("a b\nb a\n")
    with pytest.raises(ParseError):
        parse_edge_list("a b c\n")


def test_vc_round_trip():
    text = format_vc(["a", "b", "c"], [("a", "b"), ("b", "c")], 1)
    names, edges, k = parse_vc(text)
    assert names == ["a", "b", "c"]
    assert edges == [("a", "b"), ("b", "c")]
    assert k == 1


@pytest.mark.parametrize(
    "text",
    [
        "k 1\n",
        "vc 1\nv a\n",
        "vc 1\nk -1\n",
        "vc 1\nk 1\ne a b\n",
        "vc 1\nk 1\nv a\nv a\n",
        "vc 1\nk 1\nv a\nv b\ne a b\ne b a\n",
    ],
)
def test_vc_parse_errors(text):
    with pytest.raises(ParseError):
        parse_vc(text)


def test_vc_budget_must_be_ascii_decimal():
    with pytest.raises(ParseError) as exc:
        parse_vc("vc 1\n# budget\nk \u0661\n", "in.vc")
    assert exc.value.line == 3
    assert "cover budget must be an integer" in str(exc.value)


def test_comments_and_blank_lines_ignored():
    text = "\n# hi\ntg 1\n\nt 1\nv a\n  # indented comment\nv b\ne a b 1\n"
    g = parse_temporal_graph(text)
    assert g == TemporalGraph.build("ab", 1, [("a", "b", 1)])


@pytest.mark.parametrize(
    "data,line",
    [
        (b"\xfftg 1\n", 1),
        (b"tg 1\r\nt 2\r\nv \xc3\xa9 \xc3(\n", 3),
        (b"# \xe2\x82\xac\n\n# \xe2\x82\n", 3),
    ],
)
def test_read_text_reports_line_of_first_bad_byte(tmp_path, data, line):
    path = tmp_path / "in.tg"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        read_text(path)
    assert exc.value.line == line
    assert str(exc.value) == f"{path}:{line}: not UTF-8 text"


def test_read_text_decodes_utf8(tmp_path):
    path = tmp_path / "in.tg"
    path.write_bytes("tg 1\r\nv \u00e9\n".encode("utf-8"))
    assert read_text(path) == "tg 1\r\nv \u00e9\n"
