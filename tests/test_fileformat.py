import random

import pytest

from injhom.fileformat import (
    EdgeListError,
    format_edge_list,
    format_undirected_edge_list,
    parse_edge_list,
    parse_undirected_edge_list,
)
from injhom.graphs import OrientedGraph, directed_cycle, random_oriented_graph


def test_roundtrip_plain():
    g = directed_cycle(5)
    again = parse_edge_list(format_edge_list(g))
    assert again.n == g.n and again.arcs == g.arcs and not again.reflexive


def test_roundtrip_reflexive():
    g = OrientedGraph(3, [(0, 1), (1, 2)], reflexive=True)
    text = format_edge_list(g)
    assert "3 2 reflexive" in text
    again = parse_edge_list(text)
    assert again.reflexive and again.arcs == g.arcs


def test_comments_and_blanks_ignored():
    text = """
# a description
# another line

3 2

0 1
# interleaved comment
1 2
"""
    g = parse_edge_list(text)
    assert g.n == 3 and g.arcs == frozenset({(0, 1), (1, 2)})


def test_format_includes_comments():
    text = format_edge_list(directed_cycle(3), comments=["hello", ""])
    lines = text.splitlines()
    assert lines[0] == "# hello"
    assert lines[1] == "#"


def test_error_line_numbers():
    with pytest.raises(EdgeListError) as exc:
        parse_edge_list("2 1\n0 2\n")
    assert exc.value.lineno == 2
    assert "line 2" in str(exc.value)

    with pytest.raises(EdgeListError) as exc:
        parse_edge_list("# comment\nnot a header\n")
    assert exc.value.lineno == 2


def test_error_kinds():
    with pytest.raises(EdgeListError):
        parse_edge_list("")
    with pytest.raises(EdgeListError):
        parse_edge_list("2 1\n0 0\n")  # loop
    with pytest.raises(EdgeListError):
        parse_edge_list("2 2\n0 1\n1 0\n")  # digon
    with pytest.raises(EdgeListError):
        parse_edge_list("2 2\n0 1\n0 1\n")  # duplicate
    with pytest.raises(EdgeListError):
        parse_edge_list("2 2\n0 1\n")  # missing arcs
    with pytest.raises(EdgeListError):
        parse_edge_list("2 1\n0 1\n1 0\n")  # extra data
    with pytest.raises(EdgeListError):
        parse_edge_list("2 x\n")  # bad counts
    with pytest.raises(EdgeListError):
        parse_edge_list("-1 0\n")


def test_undirected_roundtrip():
    edges = {(0, 1), (1, 2), (0, 2)}
    text = format_undirected_edge_list(3, edges)
    n, got = parse_undirected_edge_list(text)
    assert n == 3 and got == frozenset(edges)


def test_undirected_rejects_reflexive_flag():
    with pytest.raises(EdgeListError):
        parse_undirected_edge_list("2 1 reflexive\n0 1\n")


def test_undirected_normalizes_orientation():
    n, edges = parse_undirected_edge_list("3 2\n2 0\n1 0\n")
    assert edges == frozenset({(0, 2), (0, 1)})
    with pytest.raises(EdgeListError):
        parse_undirected_edge_list("3 2\n0 1\n1 0\n")  # same edge twice


# --- the bulk parser against the line-by-line one it replaced ---


def _ref_data_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _ref_parse_header(lineno, line, allow_reflexive):
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


def _ref_parse_body(lines, n, m, directed):
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
        pairs.append((u, v, lineno))
    if len(pairs) != m:
        raise EdgeListError(0, f"expected {m} arcs but file has {len(pairs)}")
    return pairs


def _ref_parse(text, directed):
    lines = _ref_data_lines(text)
    for lineno, line in lines:
        n, m, reflexive = _ref_parse_header(lineno, line, allow_reflexive=directed)
        break
    else:
        raise EdgeListError(0, "empty input: missing header")
    pairs = _ref_parse_body(lines, n, m, directed)
    if directed:
        return OrientedGraph(n, ((u, v) for u, v, _ in pairs), reflexive)
    return n, frozenset((min(u, v), max(u, v)) for u, v, _ in pairs)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except EdgeListError as exc:
        return "error", exc.lineno, str(exc)


def _mutate(text, n, rng):
    """Apply one to three seeded edits to the edge-list text of a graph on
    n vertices."""
    lines = text.split("\n")[:-1]
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    for _ in range(rng.randint(1, 3)):
        body = range(head + 1, len(lines))
        i = rng.choice(body) if body else None
        kind = rng.randrange(12)
        if kind == 0:
            lines.insert(rng.randint(head + 1, len(lines)), rng.choice(["# note", "", "  ", "\t#x 1"]))
        elif kind == 1 and i is not None:
            u, v = lines[i].split()[:2] if len(lines[i].split()) >= 2 else ("0", "1")
            lines[i] = rng.choice([f"+{u} {v}", f"0{u}\t{v}", f" {u}\t\t{v} ", f"{u} -{v}", f"{u} x"])
        elif kind == 2 and i is not None:
            parts = lines[i].split()
            lines[i] = " ".join(parts[:1]) if rng.random() < 0.5 else " ".join(parts + ["7"])
        elif kind == 3 and i is not None:
            u = lines[i].split()[0] if lines[i].split() else "0"
            lines[i] = f"{u} {u}"
        elif kind == 4 and i is not None:
            lines.insert(rng.randint(head + 1, len(lines)), lines[i])
        elif kind == 5 and i is not None:
            parts = lines[i].split()
            if len(parts) == 2:
                lines.insert(rng.randint(head + 1, len(lines)), f"{parts[1]} {parts[0]}")
        elif kind == 6 and i is not None:
            lines[i] = rng.choice([f"{n} 0", f"0 {n + 3}", "-1 0"])
        elif kind == 7 and i is not None:
            del lines[i]
        elif kind == 8:
            lines.append(f"{rng.randrange(max(n, 1))} {rng.randrange(max(n, 1))}")
        elif kind == 9:
            parts = lines[head].split()
            lines[head] = " ".join(parts[:2]) if len(parts) == 3 else " ".join(parts + ["reflexive"])
        elif kind == 10 and lines[head].split()[1:2] and lines[head].split()[1].isdigit():
            parts = lines[head].split()
            parts[1] = str(max(0, int(parts[1]) + rng.choice([-1, 1])))
            lines[head] = " ".join(parts)
        else:  # kind 11, or an edit above that found nothing to act on
            lines[head] = rng.choice(["3", "x 1", "-1 0", "2 1 refl", "# 2 1"])
    sep = rng.choice(["\n", "\n", "\r\n", "\f", "\n\n"])
    return sep.join(lines) + rng.choice(["", sep])


def _layout_cases(text, rng):
    """Edge cases of the bulk check's layout, from the edge-list text of
    a graph: the exact layout with CRLF or tab separators, a two-token
    comment line standing in for an arc line or added to the body,
    trailing blank lines, and blank and comment lines among the arcs."""
    head, *body = text.split("\n")[:-1]
    tabbed = [line.replace(" ", "\t") for line in body]
    yield text.replace("\n", "\r\n")
    yield "\n".join([head] + tabbed) + "\n"
    yield "\r\n".join([head] + tabbed)
    yield text + rng.choice(["\n", "\n\n", "  \n\t\n", "\r\n\r\n"])
    for extra in ("\t#x 1", "# 0 1", ""):
        spliced = list(body)
        at = rng.randint(0, len(body))
        if body and rng.random() < 0.5:
            spliced[min(at, len(body) - 1)] = extra  # still m lines
        else:
            spliced.insert(at, extra)
        yield "\n".join([head] + spliced) + "\n"
    mixed = list(body)
    for extra in rng.sample(["", "  ", "# note", "\t#x 1", "#"], 3):
        mixed.insert(rng.randint(0, len(mixed)), extra)
    yield "\n".join([head] + mixed) + rng.choice(["", "\n", "\n\n"])


def _mutated_corpus():
    """600 seeded edge-list texts, each with one to three edits, then the
    layout edge cases of 40 more graphs and bodies of m = 0."""
    rng = random.Random(808)
    for trial in range(600):
        n = rng.randrange(0, 9)
        g = random_oriented_graph(n, rng, arc_chance=rng.random())
        comments = ["a comment"] if rng.random() < 0.3 else ()
        yield trial, _mutate(format_edge_list(g, comments=comments), n, rng)
    rng = random.Random(810)
    trial = 600
    for _ in range(40):
        n = rng.randrange(2, 9)
        g = random_oriented_graph(n, rng, arc_chance=rng.random())
        for text in _layout_cases(format_edge_list(g), rng):
            yield trial, text
            trial += 1
    for text in ("3 0\n", "3 0", "3 0\n\n", "3 0\n \n\t\n", "3 0\r\n\r\n", "# c\n3 0\n# x\n\n",
                 "3 0\n\t#x 1\n", "0 0\n\n", "3 0\n0 1\n", "3 0\n\n0 1\n\n", "2 0 reflexive\n\n"):
        yield trial, text
        trial += 1


def test_bulk_parser_matches_line_by_line_reference():
    for trial, text in _mutated_corpus():
        assert _outcome(parse_edge_list, text) == _outcome(
            lambda t: _ref_parse(t, directed=True), text), (trial, text)
        assert _outcome(parse_undirected_edge_list, text) == _outcome(
            lambda t: _ref_parse(t, directed=False), text), (trial, text)


def test_parsed_graphs_are_valid():
    # the parser's own checks are the only ones a file gets, so every
    # graph it accepts must pass the constructor's
    graphs = []
    for _, text in _mutated_corpus():
        try:
            graphs.append(parse_edge_list(text))
        except EdgeListError:
            pass
    assert len(graphs) >= 50
    rng = random.Random(809)
    for n in (200, 350, 500):
        g = random_oriented_graph(n, rng, arc_chance=4 / n)
        text = format_edge_list(OrientedGraph(n, g.arcs, reflexive=n == 350))
        graphs.append(parse_edge_list(text))
        graphs.append(parse_edge_list(text.replace("\n", "\n  \n# note\n")))
    for g in graphs:
        g._validate()
        built = OrientedGraph(g.n, g.arcs, g.reflexive)
        assert g == built
        for name in ("out_nbrs", "in_nbrs", "underlying_nbrs"):
            assert getattr(g, name) == getattr(built, name), (g, name)


def test_roundtrip_random_graphs():
    rng = random.Random(5)
    graphs = [OrientedGraph(0), OrientedGraph(0, reflexive=True), OrientedGraph(4)]
    for _ in range(200):
        n = rng.randrange(1, 12)
        g = random_oriented_graph(n, rng, arc_chance=rng.random() * 0.6)
        g = OrientedGraph(n + rng.randrange(3), g.arcs, reflexive=rng.random() < 0.3)  # isolated tail
        graphs.append(g)
    for g in graphs:
        assert parse_edge_list(format_edge_list(g)) == g
