"""Plain-text edge-list format.

Layout: an optional run of comment lines (starting with '#') or blank
lines anywhere, a header ``n m`` optionally followed by the word
``reflexive``, then exactly m lines ``u v`` of 0-based arc endpoints.
Counts and endpoints are ASCII decimal digits, leading zeros allowed.
The same layout doubles for undirected graphs, where each line is an
edge and the reflexive token is not allowed.

A text in the strict layout, the one format_edge_list writes, is
checked in a few passes at C speed, with no split per line: lines that
start with '#', a header of two decimal counts and maybe 'reflexive',
one space before each token after the first, then exactly m lines
'u v' of ASCII digits, one space between them and each line ended by a
newline (the last may lack it).  str.find skips the comment lines; one
str.translate that deletes the digits must leave m copies of ' \n'; one
json.loads reads all 2m integers (it rejects an empty token and a
leading zero); max and set operations check range, loops, repeats and
opposite arcs.  Every other text, such as one with tabs, CRLF, blank
lines, comments among the arcs, extra spaces, leading zeros or an error,
is read by the line loop, which alone reports errors and their line
numbers; so is a text whose header asks for more than MAX_VERTICES
vertices.  The parsed graph is built from the checked arcs without the
constructor's own check, so each file is checked once.
"""

from __future__ import annotations

import json
from typing import Iterable

from .graphs import MAX_VERTICES, OrientedGraph


class EdgeListError(ValueError):
    """Parse failure, carrying the 1-based offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def read_decimal(text: str) -> int:
    """The number text spells in ASCII digits, leading zeros allowed; a
    sign, '_', spaces or other scripts' digits, which int() reads, raise
    ValueError.  Every number from outside the program is read here."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected decimal digits, got {text!r}")
    return int(text)


def _data_lines(lines):
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_header(lineno: int, line: str, directed: bool):
    parts = line.split()
    if len(parts) == 3 and parts[2] == "reflexive":
        if not directed:
            raise EdgeListError(lineno, "reflexive flag not allowed here")
        reflexive = True
        parts = parts[:2]
    elif len(parts) == 2:
        reflexive = False
    else:
        raise EdgeListError(lineno, f"expected header 'n m [reflexive]', got {line!r}")
    try:
        n, m = read_decimal(parts[0]), read_decimal(parts[1])
    except ValueError:
        raise EdgeListError(lineno, f"header counts must be decimal digits, got {line!r}") from None
    if n > MAX_VERTICES:
        raise EdgeListError(lineno, f"at most {MAX_VERTICES} vertices allowed, header asks for {n}")
    return n, m, reflexive


_DROP_DIGITS = dict.fromkeys(range(ord("0"), ord("9") + 1))
_COMMAS = {ord(" "): ord(","), ord("\n"): ord(",")}


def _strict_parse(text: str, directed: bool):
    """(n, arcs, reflexive) of a text in the strict layout, checked in a
    few passes at C speed; None for any other text, which the line loop
    then reads."""
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1
        if not start:
            return None
    # a '#' line must not hold a line break of its own, such as '\r' or '\f'
    if start and not all(c.startswith("#") for c in text[:start].splitlines()):
        return None
    line, _, body = text[start:].partition("\n")
    header = line.split(" ")
    reflexive = len(header) == 3 and header[2] == "reflexive"
    if reflexive and directed:
        del header[2]
    if len(header) != 2:
        return None
    if body and not body.endswith("\n"):
        body += "\n"
    try:
        n, m = map(read_decimal, header)
        if n > MAX_VERTICES:
            return None  # the line loop reports it
        # only digits, ' ' and '\n' in the layout of m lines 'digits digits'
        if len(body) < 4 * m or body.translate(_DROP_DIGITS) != " \n" * m:
            return None
        # no token is empty or has a leading zero, or json rejects it
        tokens = json.loads("[" + body[:-1].translate(_COMMAS) + "]")
    except ValueError:  # also a count past int's digit limit
        return None
    us, vs = tokens[0::2], tokens[1::2]
    arcs = frozenset(zip(us, vs))
    # a loop (u, u) is its own opposite arc, so isdisjoint rejects it too
    if (tokens and max(tokens) >= n) or len(arcs) != m or not arcs.isdisjoint(zip(vs, us)):
        return None
    return n, arcs, reflexive


def _parse_body(lines, n: int, m: int, directed: bool):
    """The line-by-line check: raises EdgeListError at the first bad line
    of lines, a stream of (lineno, stripped line); returns the arcs."""
    pairs = []
    seen = set()
    for lineno, line in lines:
        if len(pairs) == m:
            raise EdgeListError(lineno, f"expected {m} arcs but found more data")
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = read_decimal(parts[0]), read_decimal(parts[1])
        except ValueError:
            raise EdgeListError(lineno, f"endpoints must be decimal digits, got {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(lineno, f"endpoint out of range 0..{n - 1}: {line!r}")
        if u == v:
            raise EdgeListError(lineno, f"loop at {u} is not allowed")
        if (u, v) in seen:
            raise EdgeListError(lineno, f"duplicate arc {u} {v}")
        if (v, u) in seen:
            kind = "opposite arc" if directed else "duplicate edge"
            raise EdgeListError(lineno, f"{kind} {v} {u} already given")
        seen.add((u, v))
        pairs.append((u, v))
    if len(pairs) != m:
        raise EdgeListError(0, f"expected {m} arcs but file has {len(pairs)}")
    return frozenset(pairs)


def _parse(text: str, directed: bool):
    """(n, arcs, reflexive) of an edge-list text: the strict check, and
    the line loop for any text that it does not accept.  Only a directed
    text may be reflexive."""
    parsed = _strict_parse(text, directed)
    if parsed is not None:
        return parsed
    lines = _data_lines(text.splitlines())
    for lineno, line in lines:
        n, m, reflexive = _parse_header(lineno, line, directed)
        break
    else:
        raise EdgeListError(0, "empty input: missing header")
    return n, _parse_body(lines, n, m, directed), reflexive


def parse_edge_list(text: str) -> OrientedGraph:
    """Parse an oriented graph; raises EdgeListError with a line number."""
    n, arcs, reflexive = _parse(text, directed=True)
    return OrientedGraph._checked(n, arcs, reflexive)


def parse_undirected_edge_list(text: str):
    """Parse an undirected graph; returns (n, edges) with edges as
    normalized (min, max) tuples."""
    n, arcs, _ = _parse(text, directed=False)
    return n, frozenset((min(u, v), max(u, v)) for u, v in arcs)


def _format(header: str, pairs, comments: Iterable) -> str:
    """The edge-list text: each line of each comment as a '#' line (the
    line breaks the parser splits on, so no comment can end its line
    early), the header, then one 'u v' line per pair."""
    out = [f"# {line}".rstrip() for c in comments for line in str(c).splitlines() or [""]]
    out.append(header)
    out.extend(f"{u} {v}" for u, v in pairs)
    return "\n".join(out) + "\n"


def format_edge_list(g: OrientedGraph, comments: Iterable = ()) -> str:
    """Render a graph in the edge-list format; comments go on top."""
    header = f"{g.n} {g.num_arcs}" + (" reflexive" if g.reflexive else "")
    return _format(header, sorted(g.arcs), comments)


def format_undirected_edge_list(n: int, edges, comments: Iterable = ()) -> str:
    norm = sorted((min(u, v), max(u, v)) for u, v in edges)
    return _format(f"{n} {len(norm)}", norm, comments)
