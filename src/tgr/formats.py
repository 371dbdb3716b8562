"""Line-based text formats for graphs (.tg), relabeling sequences (.tgs)
and vertex-cover instances (.vc).  Parsing is strict: every violation is a
ParseError carrying the offending line number.  The .tg reader builds the
graph in one pass over its own line loop, at one split, two name lookups,
one time-token lookup, one edge construction and one set add per valid edge
line; the .tgs, .vc and edge-list readers share the line rule of ``_lines``
and ``_body``.  Writers refuse a vertex name that would not read back.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import filterfalse
from pathlib import Path

from .core import GraphError, RelabelOp, TemporalEdge, TemporalGraph, _checked_graph

TG_VERSION = 1
TGS_VERSION = 1
VC_VERSION = 1
_NAME = re.compile(r"[^\s,]+")  # a vertex name that reads back: no whitespace or comma, not empty


class ParseError(ValueError):
    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


def _lines(text: str):
    """(line number, tokens) of each line that is neither blank nor a '#'
    comment: the line rule of the .tgs, .vc and edge-list readers, which the
    .tg reader repeats inline."""
    for no, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split()
        if tokens and tokens[0][0] != "#":
            yield no, tokens


def _check_name(source: str, no: int, token: str) -> str:
    if "," in token:
        raise ParseError(source, no, f"vertex name may not contain a comma: {token!r}")
    return token


def _writable(names) -> None:
    """Raise GraphError on the first name that is not one ``_NAME`` token."""
    for name in filterfalse(_NAME.fullmatch, names):
        raise GraphError(f"vertex name {name!r} cannot be written: it must be one token without a comma")


def _int(source: str, no: int, token: str, what: str) -> int:
    """An ASCII decimal integer, ``-?[0-9]+``; ``int`` alone would also take
    ``+1``, ``1_0`` and non-ASCII digits."""
    if token.isascii() and token.removeprefix("-").isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(source, no, f"{what} must be an integer, got {token!r}")


def _body(text: str, source: str, kind: str, version: int):
    """The lines after the '<kind> <version>' header, which must come first."""
    lines = _lines(text)
    for no, tokens in lines:
        if tokens != [kind, str(version)]:
            raise ParseError(source, no, f"expected header '{kind} {version}'")
        return lines
    raise ParseError(source, 1, f"missing header '{kind} {version}'")


def _once_int(source: str, no: int, tokens, current, usage: str, what: str, least: int) -> int:
    """The value of a '<letter> <integer>' directive that may appear once;
    ``current`` is its earlier value, or None."""
    if current is not None:
        raise ParseError(source, no, f"duplicate {tokens[0]!r} directive")
    if len(tokens) != 2:
        raise ParseError(source, no, f"expected {usage!r}")
    value = _int(source, no, tokens[1], what)
    if value < least:
        bound = f"at least {least}" if least else "non-negative"
        raise ParseError(source, no, f"{what} must be {bound}")
    return value


def _declare(source: str, no: int, tokens, index: dict[str, int]) -> None:
    """A 'v <name>' line: give the new name the next index."""
    if len(tokens) != 2:
        raise ParseError(source, no, "expected 'v <name>'")
    name = _check_name(source, no, tokens[1])
    if name in index:
        raise ParseError(source, no, f"duplicate vertex name {name!r}")
    index[name] = len(index)


def _lookup(source: str, no: int, index: dict[str, int], name: str) -> int:
    try:
        return index[name]
    except KeyError:
        raise ParseError(source, no, f"undeclared vertex name {name!r}") from None


def _add_edge(source: str, no: int, u: str, v: str, edges: dict[tuple[str, str], None]) -> None:
    """An unordered edge: no self-loop, no repeat; ``edges`` keeps line order."""
    u, v = _check_name(source, no, u), _check_name(source, no, v)
    if u == v:
        raise ParseError(source, no, f"self-loop on {u!r}")
    key = (min(u, v), max(u, v))
    if key in edges:
        raise ParseError(source, no, f"duplicate edge {u} {v}")
    edges[key] = None


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file; undecodable bytes are a ParseError
    on the line of the first bad byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # number lines as _lines does: the bad byte starts the last line
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(str(path), line, "not UTF-8 text") from None


def parse_temporal_graph(text: str, source: str = "<string>") -> TemporalGraph:
    """One pass over the lines, tokenised here rather than by ``_lines``: a
    valid edge line costs one ``split``, two name lookups, one lookup of its
    time token, one C-level edge construction and one set add."""
    lifetime: int | None = None
    index: dict[str, int] = {}
    edges: set[TemporalEdge] = set()
    times: dict[str, int] = {}  # each distinct time token passes _int, the one integer rule, once
    new_edge = partial(tuple.__new__, TemporalEdge)  # skips the NamedTuple's Python-level __new__
    header = False
    for no, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == "e" and header:
            if len(tokens) != 4:
                raise ParseError(source, no, "expected 'e <u> <v> <t>'")
            if lifetime is None:
                raise ParseError(source, no, "edge before 't' directive")
            _, uname, vname, time = tokens
            t = times.get(time)
            if t is None:
                t = times[time] = _int(source, no, time, "edge time")
            try:
                u, v = index[uname], index[vname]
            except KeyError:  # raises on the first undeclared name
                _lookup(source, no, index, uname)
                _lookup(source, no, index, vname)
            if u > v:
                u, v = v, u
            elif u == v:
                raise ParseError(source, no, f"self-loop on {uname!r}")
            if not 1 <= t <= lifetime:
                raise ParseError(source, no, f"edge time {t} outside 1..{lifetime}")
            size = len(edges)
            edges.add(new_edge((u, v, t)))
            if len(edges) == size:
                raise ParseError(source, no, f"duplicate temporal edge {uname} {vname} {t}")
        elif directive[0] == "#":
            continue
        elif not header:
            if tokens != ["tg", str(TG_VERSION)]:
                raise ParseError(source, no, f"expected header 'tg {TG_VERSION}'")
            header = True
        elif directive == "t":
            lifetime = _once_int(source, no, tokens, lifetime, "t <lifetime>", "lifetime", 1)
        elif directive == "v":
            _declare(source, no, tokens, index)
        else:
            raise ParseError(source, no, f"unknown directive {directive!r}")
    if not header:
        raise ParseError(source, 1, f"missing header 'tg {TG_VERSION}'")
    if lifetime is None:
        raise ParseError(source, 1, "missing 't' directive")
    return _checked_graph(tuple(index), lifetime, frozenset(edges))


def format_temporal_graph(g: TemporalGraph) -> str:
    _writable(g.names)
    lines = [f"tg {TG_VERSION}", f"t {g.lifetime}"]
    lines.extend(f"v {name}" for name in g.names)
    lines.extend(
        f"e {g.name(e.u)} {g.name(e.v)} {e.t}" for e in g.sorted_edges()
    )
    return "\n".join(lines) + "\n"


def load_temporal_graph(path: str | Path) -> TemporalGraph:
    path = Path(path)
    return parse_temporal_graph(read_text(path), str(path))


def save_temporal_graph(g: TemporalGraph, path: str | Path) -> None:
    Path(path).write_text(format_temporal_graph(g), encoding="utf-8")


def parse_sequence(text: str, g: TemporalGraph, source: str = "<string>") -> list[RelabelOp]:
    """Parse a .tgs file; vertex names are resolved against ``g``."""
    ops: list[RelabelOp] = []
    for no, tokens in _body(text, source, "tgs", TGS_VERSION):
        if tokens[0] != "r" or len(tokens) != 5:
            raise ParseError(source, no, "expected 'r <u> <v> <t_from> <t_to>'")
        uname, vname = tokens[1], tokens[2]
        t_from = _int(source, no, tokens[3], "from-time")
        t_to = _int(source, no, tokens[4], "to-time")
        try:
            u, v = g.index(uname), g.index(vname)
        except GraphError as exc:
            raise ParseError(source, no, str(exc)) from None
        if u == v:
            raise ParseError(source, no, f"self-loop on {uname!r}")
        if t_from == t_to:
            raise ParseError(source, no, "from-time equals to-time")
        for t in (t_from, t_to):
            if not 1 <= t <= g.lifetime:
                raise ParseError(source, no, f"time {t} outside 1..{g.lifetime}")
        if u > v:
            u, v = v, u
        ops.append(RelabelOp(u, v, t_from, t_to))
    return ops


def format_sequence(ops, g: TemporalGraph) -> str:
    _writable(g.name(x) for op in ops for x in (op.u, op.v))
    lines = [f"tgs {TGS_VERSION}"]
    lines.extend(
        f"r {g.name(op.u)} {g.name(op.v)} {op.from_time} {op.to_time}" for op in ops
    )
    return "\n".join(lines) + "\n"


def load_sequence(path: str | Path, g: TemporalGraph) -> list[RelabelOp]:
    path = Path(path)
    return parse_sequence(read_text(path), g, str(path))


def save_sequence(ops, g: TemporalGraph, path: str | Path) -> None:
    Path(path).write_text(format_sequence(ops, g), encoding="utf-8")


def parse_edge_list(text: str, source: str = "<string>") -> list[tuple[str, str]]:
    """Bare edge list: one 'u v' pair per line, '#' comments."""
    edges: dict[tuple[str, str], None] = {}
    for no, tokens in _lines(text):
        if len(tokens) != 2:
            raise ParseError(source, no, "expected '<u> <v>'")
        _add_edge(source, no, tokens[0], tokens[1], edges)
    return list(edges)


def parse_vc(text: str, source: str = "<string>"):
    """Parse a .vc sidecar: cover budget plus the instance's vertices/edges.

    Returns ``(vertices, edges, k)``.
    """
    k: int | None = None
    index: dict[str, int] = {}
    edges: dict[tuple[str, str], None] = {}
    for no, tokens in _body(text, source, "vc", VC_VERSION):
        directive = tokens[0]
        if directive == "k":
            k = _once_int(source, no, tokens, k, "k <budget>", "cover budget", 0)
        elif directive == "v":
            _declare(source, no, tokens, index)
        elif directive == "e":
            if len(tokens) != 3:
                raise ParseError(source, no, "expected 'e <u> <v>'")
            u, v = tokens[1], tokens[2]
            for nm in (u, v):
                _lookup(source, no, index, nm)
            _add_edge(source, no, u, v, edges)
        else:
            raise ParseError(source, no, f"unknown directive {directive!r}")
    if k is None:
        raise ParseError(source, 1, "missing 'k' directive")
    return list(index), list(edges), k


def format_vc(vertices, edges, k: int) -> str:
    _writable(vertices)
    lines = [f"vc {VC_VERSION}", f"k {k}"]
    lines.extend(f"v {name}" for name in vertices)
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
