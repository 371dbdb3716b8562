"""Hypothesis fuzzing of the text readers: malformed input is only ever a
ParseError, what each writer emits reads back to the same value, and the
one-pass .tg reader agrees with the slow reference in ``helpers``."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tgr import RelabelOp, generate_random_instance
from tgr.formats import (
    ParseError,
    format_sequence,
    format_temporal_graph,
    format_vc,
    parse_edge_list,
    parse_sequence,
    parse_temporal_graph,
    parse_vc,
)

import helpers

TRI, _ = helpers.tri_pair()
# each reader with a valid opening, so fuzzed lines reach its directives
READERS = (
    (parse_temporal_graph, "tg 1\nt 2\nv a\nv b\n"),
    (lambda text: parse_sequence(text, TRI), "tgs 1\n"),
    (parse_vc, "vc 1\nk 1\nv a\nv b\n"),
    (parse_edge_list, ""),
)
# a line is a directive-like token and up to four argument-like ones
DIRECTIVE = st.sampled_from(["e", "e", "r", "r", "v", "t", "k", "tg", "x", "#"])
ARGUMENT = st.sampled_from(["a", "b", "c", "a,b", "1", "2", "0", "-1", "two", "9" * 5000])
LINE = st.builds(lambda d, args: " ".join([d, *args]), DIRECTIVE, st.lists(ARGUMENT, min_size=1, max_size=4))


def _read_tg(read, text):
    """The graph ``read`` makes of ``text`` with its per-snapshot edge sets
    and the types of its edges, or the line and text of its ParseError."""
    try:
        g = read(text)
    except ParseError as exc:
        return exc.line, str(exc)
    return g, {t: set(at) for t, at in g._edges_at.items()}, {type(e) for e in g.edges}


@given(st.text(max_size=200), st.lists(LINE, max_size=20).map("\n".join))
@settings(max_examples=300, deadline=None)
def test_tg_reader_matches_reference(text, soup):
    for candidate in (text, soup, READERS[0][1] + soup):
        assert _read_tg(parse_temporal_graph, candidate) == _read_tg(helpers.reference_parse_temporal_graph, candidate)


def test_tg_reader_matches_reference_on_each_edge_line():
    """Lines that break several rules at once pin the order of the checks."""
    opening = READERS[0][1]
    names = ("a", "b", "z", "a,b")
    # tokens with equal values, or that int() alone would take, each read by the integer rule
    times = ("1", "2", "3", "0", "-1", "+1", "x", "9" * 20, "9" * 5000, "01", "001", "1_0", "\u0661")
    for u, v, t in itertools.product(names, names, times):
        line = f"e {u} {v} {t}\n"
        for text in (opening + line, opening + "e a b 1\n" + line, "tg 1\nv a\n" + line):
            assert _read_tg(parse_temporal_graph, text) == _read_tg(helpers.reference_parse_temporal_graph, text)
    assert _read_tg(parse_temporal_graph, opening + "e a b 1\ne a b 01\n") == (6, "<string>:6: duplicate temporal edge a b 1")


def test_tg_reader_keeps_no_time_token_between_reads():
    assert parse_temporal_graph("tg 1\nt 2\nv a\nv b\ne a b 2\n").m == 1
    with pytest.raises(ParseError, match=r"^<string>:5: edge time 2 outside 1\.\.1$"):
        parse_temporal_graph("tg 1\nt 1\nv a\nv b\ne a b 2\n")


@given(st.text(max_size=200), st.lists(LINE, max_size=20).map("\n".join))
@settings(max_examples=200, deadline=None)
def test_readers_raise_only_parse_error(text, soup):
    for read, opening in READERS:
        for candidate in (text, soup, opening + soup):
            try:
                read(candidate)
            except ParseError:
                pass


GRAPHS = st.builds(generate_random_instance, st.integers(1, 7), st.integers(1, 4), st.just(0), st.integers(0, 10_000))


@given(GRAPHS)
@settings(max_examples=60, deadline=None)
def test_tg_reader_matches_reference_on_generated_graphs(g):
    text = format_temporal_graph(g)
    last = text.splitlines()[-1]
    for candidate in (text, text + last + "\n", "  # a comment\n" + text.replace(" ", " \t ")):
        assert _read_tg(parse_temporal_graph, candidate) == _read_tg(helpers.reference_parse_temporal_graph, candidate)


@given(GRAPHS, st.data())
@settings(max_examples=60, deadline=None)
def test_tg_and_tgs_round_trip(g, data):
    assert parse_temporal_graph(format_temporal_graph(g)) == g
    if g.n < 2 or g.lifetime < 2:
        return
    vertex = st.integers(0, g.n - 1)
    time = st.integers(1, g.lifetime)
    ops = data.draw(st.lists(st.tuples(vertex, vertex, time, time), max_size=8))
    ops = [RelabelOp(min(u, v), max(u, v), a, b) for u, v, a, b in ops if u != v and a != b]
    assert parse_sequence(format_sequence(ops, g), g) == ops


NAME = st.text("abcxyz019._'", min_size=1, max_size=4)


@given(st.lists(NAME, min_size=1, max_size=8, unique=True), st.integers(0, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_vc_and_edge_list_round_trip(names, k, data):
    pairs = [(u, v) for u in names for v in names if u < v]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    assert parse_vc(format_vc(names, edges, k)) == (names, edges, k)
    assert parse_edge_list("".join(f"{v} {u}\n" for u, v in edges)) == edges
