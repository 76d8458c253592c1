import random

import pytest

from injhom import fileformat
from injhom.cli import main
from injhom.fileformat import (
    read_decimal,
    EdgeListError,
    format_edge_list,
    format_undirected_edge_list,
    parse_edge_list,
    parse_undirected_edge_list,
)
from injhom.graphs import MAX_VERTICES, OrientedGraph, directed_cycle, directed_path, random_oriented_graph


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


# every line break str.splitlines splits on, and so the parser too
_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_comments_with_line_breaks_round_trip():
    # a comment's line break starts a new '#' line, never a data line
    comments = [f"before{b}after" for b in _BREAKS] + [f"{b}x.txt{b}" for b in _BREAKS] + ["trailing\n"]
    g = OrientedGraph(4, [(0, 1), (2, 1), (3, 0)], reflexive=True)
    text = format_edge_list(g, comments=comments)
    assert parse_edge_list(text) == g
    body = text.splitlines()
    assert all(line.startswith("#") for line in body[:-4]) and body[-4] == "4 3 reflexive"
    assert fileformat._strict_parse(text, True) is not None
    edges = {(0, 1), (1, 2)}
    text = format_undirected_edge_list(3, edges, comments=comments)
    assert parse_undirected_edge_list(text) == (3, frozenset(edges))
    assert fileformat._strict_parse(text, False) is not None


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


def test_read_decimal_takes_ascii_digits_only():
    # int() reads a sign, underscores, spaces and other scripts' digits
    for text in ("", " 1", "1 ", "+1", "-1", "1_0", "\u0661", "\uff11", "\u00b2", "1.0"):
        with pytest.raises(ValueError):
            read_decimal(text)
    assert read_decimal("007") == 7
    # the line loop keeps its leading zeros
    assert parse_edge_list("02 1\n00 01\n") == OrientedGraph(2, [(0, 1)])


# a bad spelling is an error on its own line, never another arc or count
@pytest.mark.parametrize("text, lineno", [
    ("11 1\n0 1_0\n", 2), ("2 1\n\u0660 \u0661\n", 2), ("2 1\n+0 1\n", 2),
    ("1_1 1\n0 1\n", 1), ("# c\n\u0662 1\n0 1\n", 2),
])
def test_edge_list_numbers_are_ascii_decimal_digits(text, lineno):
    for parse in (parse_edge_list, parse_undirected_edge_list):
        with pytest.raises(EdgeListError, match="decimal digits") as exc:
            parse(text)
        assert exc.value.lineno == lineno, parse


def test_vertex_count_bound():
    assert parse_edge_list(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES
    assert parse_undirected_edge_list(f"{MAX_VERTICES} 1\n0 1\n")[0] == MAX_VERTICES
    for text, lineno in ((f"{MAX_VERTICES + 1} 0\n", 1), ("# big\n10000000000 1\n0 1\n", 2)):
        for parse in (parse_edge_list, parse_undirected_edge_list):
            with pytest.raises(EdgeListError, match=f"at most {MAX_VERTICES} vertices") as exc:
                parse(text)
            assert exc.value.lineno == lineno, (text, parse)
    with pytest.raises(EdgeListError, match="at most"):
        parse_edge_list("10000000000 0 reflexive\n")


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


# --- the strict check and the line loop against a line-by-line reference ---


def _ref_data_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _ref_decimal(token):
    """int() restricted to the ten ASCII digits."""
    if not token or token.strip("0123456789"):
        raise ValueError(token)
    return int(token)


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
        n, m = _ref_decimal(parts[0]), _ref_decimal(parts[1])
    except ValueError:
        raise EdgeListError(lineno, f"header counts must be decimal digits, got {line!r}") from None
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
            u, v = _ref_decimal(parts[0]), _ref_decimal(parts[1])
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
    """Edge cases of the strict check's layout, from the edge-list text of
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


def _boundary_cases():
    """Texts at the edge of the strict layout, each next to the plain
    text it varies: every one must parse as the line loop says."""
    plain = "4 3\n0 1\n2 1\n3 2\n"
    yield plain
    # numerals: leading zeros, signs, underscores, non-ASCII digits
    for arc in ("00 1", "0 01", "+0 1", "0 +1", "-0 1", "0 1_0", "1_0 1", "٠ 1", "0 １", "0 ²", "0 1.0"):
        yield plain.replace("0 1", arc)
    yield "04 3\n0 1\n2 1\n3 2\n"
    yield "+4 3\n0 1\n2 1\n3 2\n"
    yield "4 ٣\n0 1\n2 1\n3 2\n"
    yield "4 3\n0 " + "9" * 5000 + "\n2 1\n3 2\n"  # past int's digit limit
    yield "4 " + "9" * 5000 + "\n0 1\n"
    yield "4 99999999999999\n0 1\n"
    # separators: tabs, double, leading and trailing spaces, CRLF, other breaks
    for old, new in (("0 1", "0\t1"), ("0 1", "0  1"), ("0 1", " 0 1"), ("0 1", "0 1 "),
                     ("4 3", "4\t3"), ("4 3", "4  3"), ("4 3", " 4 3"), ("4 3", "4 3 "),
                     ("\n", "\r\n"), ("\n", "\r"), ("\n", "\f"), ("\n", "\x85"),
                     ("\n", " "), ("\n2 1", "\r2 1"), ("\n2 1", "\v2 1")):
        yield plain.replace(old, new, 1)
    yield plain.replace("\n", "\r\n")
    # a missing final newline, extra lines after the arcs
    yield plain[:-1]
    yield plain[:-1] + "\r"
    for tail in ("\n", " \n", "\t\n", "#\n", "# end", "# end\n", "\n# end\n", "3 0\n", "3"):
        yield plain + tail
    # comments: between arcs, on top, with a line break of their own
    yield "4 3\n0 1\n# c\n2 1\n3 2\n"
    yield "4 3\n0 1\n  # c\n2 1\n3 2\n"
    for top in ("#\n", "# c\n# d\n", "#c\r\n", "# c\rd\n", "# c\r4 3\n", "# c\f0 1\n",
                "# c\x85d\n", " # c\n", "\n", "\n\n# c\n", "\t\n", "# only"):
        yield top + plain
    yield "# only"
    yield "#"
    yield ""
    yield "\n"
    # m = 0, with and without a body
    for text in ("3 0", "3 0\n", "0 0\n", "3 0\n\n", "3 0\n0 1\n", "3 0\n# c\n", "3 0 reflexive",
                 "3 0 reflexive\n", "# c\n3 0\n"):
        yield text
    # the header: reflexive, extra tokens, counts that do not match
    for head in ("4 3 reflexive", "4 3 reflexive ", "4 3 Reflexive", "4 3 reflexive x", "4 3 x",
                 "4 3 3", "4", "4 3 reflexive reflexive", "4 2", "4 4", "3 3"):
        yield plain.replace("4 3", head, 1)
    # arcs the strict check must send on: range, loop, repeat, opposite
    for arc in ("0 4", "4 0", "1 1", "2 1", "1 0", "3 2"):
        yield plain.replace("0 1", arc)


def test_boundary_cases_match_line_by_line_reference():
    for text in _boundary_cases():
        assert _outcome(parse_edge_list, text) == _outcome(
            lambda t: _ref_parse(t, directed=True), text), text
        assert _outcome(parse_undirected_edge_list, text) == _outcome(
            lambda t: _ref_parse(t, directed=False), text), text


def test_well_formed_files_never_reach_the_line_loop(tmp_path, monkeypatch, capsys):
    # with the line loop out of action, every file the package itself
    # writes, and the plain layout, must still parse
    def no_line_loop(*args):
        raise AssertionError("the line loop read a well-formed file")

    g = directed_cycle(5)
    src = tmp_path / "k4.txt"
    src.write_text(format_undirected_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    out = tmp_path / "k4-t3r.txt"
    assert main(["reduce", "3edge-to-t3r", str(src), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"wrote 244 vertices / 300 arcs to {out}",
        f"provenance: {out}.prov",
        "target: T3r  mode: ios",
    ]
    monkeypatch.setattr(fileformat, "_parse_body", no_line_loop)
    assert parse_edge_list(format_edge_list(g, comments=["a directed 5-cycle", "", "k = 3"])) == g
    assert parse_edge_list(format_edge_list(g)) == g
    assert parse_edge_list(out.read_text()).n == 4 * 4 + 6 * 38
    assert parse_undirected_edge_list(src.read_text())[0] == 4
    assert parse_edge_list("3 2\n0 1\n2 1\n").arcs == {(0, 1), (2, 1)}
    assert parse_edge_list("3 2\n0 1\n2 1").arcs == {(0, 1), (2, 1)}
    refl = OrientedGraph(3, [(0, 1)], reflexive=True)
    assert parse_edge_list(format_edge_list(refl, comments=["x"])) == refl
    assert parse_edge_list("2 1 reflexive\n1 0\n") == OrientedGraph(2, [(1, 0)], reflexive=True)
    for text in ("3 0\n", "3 0", "# c\n3 0\n", format_edge_list(OrientedGraph(0)),
                 format_edge_list(directed_path(1), comments=["one vertex"])):
        assert parse_edge_list(text).num_arcs == 0
    assert parse_undirected_edge_list("3 0\n") == (3, frozenset())
