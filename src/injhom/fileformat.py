"""Plain-text edge-list format.

Layout: an optional run of comment lines (starting with '#') or blank
lines anywhere, a header ``n m`` optionally followed by the word
``reflexive``, then exactly m lines ``u v`` of 0-based arc endpoints.
The same layout doubles for undirected graphs, where each line is an
edge and the reflexive token is not allowed.

The body is checked in bulk, as one token list: the m lines must each
split into two tokens, one int map converts all of them, and min/max
and set operations check range, loops, repeats and opposite arcs.
Blank and comment lines are dropped first, and only from a body longer
than m lines.  A body that fails the bulk check is read again line by
line; that loop reports the first bad line.  The parsed
graph is built from the checked arcs without the constructor's own
check, so each file is checked once.
"""

from __future__ import annotations

import operator
from typing import Iterable

from .graphs import OrientedGraph


class EdgeListError(ValueError):
    """Parse failure, carrying the 1-based offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _data_lines(lines, start: int = 1):
    for lineno, raw in enumerate(lines, start=start):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_header(lineno: int, line: str, allow_reflexive: bool):
    parts = line.split()
    if len(parts) == 3 and parts[2] == "reflexive":
        if not allow_reflexive:
            raise EdgeListError(lineno, "reflexive flag not allowed here")
        reflexive = True
        parts = parts[:2]
    elif len(parts) == 2:
        reflexive = False
    else:
        raise EdgeListError(lineno, f"expected header 'n m [reflexive]', got {line!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListError(lineno, f"header counts must be integers, got {line!r}") from None
    if n < 0 or m < 0:
        raise EdgeListError(lineno, "header counts must be nonnegative")
    return n, m, reflexive


def _bulk_arcs(body, n: int, m: int):
    """The body's arcs as a frozenset of (u, v), checked as one token
    list; None when any check fails, and then _parse_body names the line.
    Blank and comment lines are dropped only from a body longer than m
    lines, so the usual file of exactly m arc lines is not copied."""
    if len(body) > m:
        body = [line for line in body if line.strip()[:1] not in ("", "#")]
    if len(body) != m:
        return None
    if not m:
        return frozenset()
    if set(map(len, map(str.split, body))) != {2}:
        return None
    try:
        tokens = list(map(int, " ".join(body).split()))
    except ValueError:  # a non-integer token, or a comment line of two tokens
        return None
    us = tokens[0::2]
    vs = tokens[1::2]
    arcs = frozenset(zip(us, vs))
    if (min(tokens) < 0 or max(tokens) >= n
            or any(map(operator.eq, us, vs)) or len(arcs) != m
            or not arcs.isdisjoint(zip(vs, us))):
        return None
    return arcs


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
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(lineno, f"endpoints must be integers, got {line!r}") from None
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


def _parse(text: str, allow_reflexive: bool, directed: bool):
    """(n, arcs, reflexive) of an edge-list text.  The body is checked in
    bulk; the line loop runs only on a body that the bulk check rejects."""
    lines = text.splitlines()
    for lineno, line in _data_lines(lines):
        n, m, reflexive = _parse_header(lineno, line, allow_reflexive)
        break
    else:
        raise EdgeListError(0, "empty input: missing header")
    body = lines[lineno:]
    arcs = _bulk_arcs(body, n, m)
    if arcs is None:
        arcs = _parse_body(_data_lines(body, lineno + 1), n, m, directed)
    return n, arcs, reflexive


def parse_edge_list(text: str) -> OrientedGraph:
    """Parse an oriented graph; raises EdgeListError with a line number."""
    n, arcs, reflexive = _parse(text, allow_reflexive=True, directed=True)
    return OrientedGraph._checked(n, arcs, reflexive)


def parse_undirected_edge_list(text: str):
    """Parse an undirected graph; returns (n, edges) with edges as
    normalized (min, max) tuples."""
    n, arcs, _ = _parse(text, allow_reflexive=False, directed=False)
    return n, frozenset((min(u, v), max(u, v)) for u, v in arcs)


def format_edge_list(g: OrientedGraph, comments: Iterable = ()) -> str:
    """Render a graph in the edge-list format; comments go on top."""
    out = [f"# {c}".rstrip() for c in comments]
    header = f"{g.n} {g.num_arcs}"
    if g.reflexive:
        header += " reflexive"
    out.append(header)
    out.extend(f"{u} {v}" for u, v in sorted(g.arcs))
    return "\n".join(out) + "\n"


def format_undirected_edge_list(n: int, edges, comments: Iterable = ()) -> str:
    out = [f"# {c}".rstrip() for c in comments]
    norm = sorted((min(u, v), max(u, v)) for u, v in edges)
    out.append(f"{n} {len(norm)}")
    out.extend(f"{u} {v}" for u, v in norm)
    return "\n".join(out) + "\n"
