import dataclasses
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from injhom import cli, poly, reductions, targets, verify
from injhom.cli import main
from injhom.fileformat import format_edge_list, format_undirected_edge_list, parse_edge_list
from injhom.graphs import OrientedGraph, directed_cycle, directed_path, random_oriented_graph, transitive_tournament
from injhom.reductions import SimpleGraph, complete_graph, reduce_3edge_to_t3r
from injhom.solver import Homomorphism
from injhom.verify import SUITES


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_yes_with_witness(write, capsys):
    path = write("c6.txt", format_edge_list(directed_cycle(6)))
    code, out, _ = run(capsys, "decide", path, "C3", "ios")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "YES"
    assert lines[1] == "algorithm: path-cycle-mod3"
    assert lines[2] == "0 -> c1"
    assert len(lines) == 8  # YES, algorithm, six vertex lines


def test_module_runs_as_a_command(write):
    # python -m injhom.cli reaches main through the __main__ guard, and
    # its exit code through sys.exit
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = write("p3.txt", format_edge_list(directed_path(3)))
    for argv, code, out in ((["decide", path, "T3", "ios"], 0, "YES"), ([], 2, "")):
        proc = subprocess.run([sys.executable, "-m", "injhom.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, (argv, proc.stderr)
        assert proc.stdout.splitlines()[:1] == ([out] if out else []), (argv, proc.stdout)
    assert "usage: injhom" in proc.stderr


def test_decide_no(write, capsys):
    path = write("c5.txt", format_edge_list(directed_cycle(5)))
    code, out, _ = run(capsys, "decide", path, "C3", "ios")
    assert code == 1
    assert out.splitlines()[0] == "NO"


def test_decide_falls_back_to_search(write, capsys):
    # a vertex of underlying degree 3 takes the reflexive triangle past
    # the transfer DP
    path = write("claw.txt", format_edge_list(OrientedGraph(4, [(0, 1), (0, 2), (3, 0)])))
    code, out, _ = run(capsys, "decide", path, "C3r", "ios")
    assert code == 0
    assert "algorithm: backtracking" in out


def test_decide_long_path_by_search(write, capsys):
    # the plain path is the transfer DP's
    path = write("p3000.txt", format_edge_list(directed_path(3000)))
    code, out, _ = run(capsys, "decide", path, "T3r", "ios")
    assert code == 0
    assert out.splitlines()[:2] == ["YES", "algorithm: degree2-dp"]
    # one pendant arc at the middle leaves it to the search: 3000 search
    # levels, past the interpreter's default recursion limit
    arcs = [(v, v + 1) for v in range(2999)] + [(1500, 3000)]
    path = write("p3000-pendant.txt", format_edge_list(OrientedGraph(3001, arcs)))
    code, out, _ = run(capsys, "decide", path, "T3r", "ios")
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["YES", "algorithm: backtracking"]
    assert len(lines) == 2 + 3001
    assert lines[2].startswith("0 -> ") and lines[-1].startswith("3000 -> ")


def test_decide_petersen_t3r_no(write, capsys):
    # the Petersen graph has no 3-edge-colouring; its 610-vertex T3r
    # instance is answered by a search that fails independent parts alone
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    inst = reduce_3edge_to_t3r(SimpleGraph(10, outer + spokes + inner))
    path = write("petersen-t3r.txt", format_edge_list(inst.graph))
    code, out, _ = run(capsys, "decide", path, "T3r", "ios")
    assert code == 1
    assert out.splitlines()[:2] == ["NO", "algorithm: backtracking"]


def test_decide_custom_target_via_at_file(write, capsys):
    target = write("t2r.txt", format_edge_list(OrientedGraph(2, [(0, 1)], reflexive=True)))
    g = write("p2.txt", format_edge_list(directed_path(2)))
    code, out, _ = run(capsys, "decide", g, "@" + target, "ios")
    assert code == 0
    # custom targets print v-prefixed labels
    assert "0 -> v0" in out and "1 -> v" in out


def test_decide_refuses_a_custom_target_past_u_max(write, capsys, monkeypatch):
    g = write("path.txt", format_edge_list(directed_path(3)))
    big = write("t101.txt", format_edge_list(transitive_tournament(targets.U_MAX + 1)))
    monkeypatch.setattr(poly, "_walk_images", lambda *args: pytest.fail("built a DP table"))
    code, out, err = run(capsys, "decide", g, "@" + big, "ios")
    assert (code, out) == (2, "")
    assert f"at most {targets.U_MAX} vertices" in err
    monkeypatch.undo()
    fits = write("t100.txt", format_edge_list(transitive_tournament(targets.U_MAX)))
    code, out, _ = run(capsys, "decide", g, "@" + fits, "ios")
    assert code == 0 and out.splitlines()[:2] == ["YES", "algorithm: degree2-dp"]


def test_solve_enumerate_and_limit(write, capsys, monkeypatch):
    labelled = []
    monkeypatch.setattr(cli, "target_labels", lambda spec: labelled.append(spec) or targets.target_labels(spec))
    path = write("c3.txt", format_edge_list(directed_cycle(3)))
    code, out, _ = run(capsys, "solve", path, "C3r", "ios", "--enumerate")
    assert code == 0
    assert "solutions: 6" in out
    assert out.count("witness") == 6
    assert len(labelled) == 1  # once per command, not once per witness

    code, out, _ = run(capsys, "solve", path, "C3r", "ios", "--enumerate", "--limit", "2")
    assert code == 0
    assert "solutions: 2 (limit reached)" in out


def test_each_command_parses_its_target_name_once(write, capsys, monkeypatch):
    parsed = []
    parse_name = targets._parse_name
    monkeypatch.setattr(targets, "_parse_name", lambda text: parsed.append(text) or parse_name(text))
    path = write("c3.txt", format_edge_list(directed_cycle(3)))
    for argv in (("decide", path, "C3r", "ios"),
                 ("solve", path, "C3r", "ios", "--pin", "0=c1", "--pin", "1=c2"),
                 ("solve", path, "C3r", "ios", "--enumerate")):
        parsed.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and parsed == ["C3r"], argv


@pytest.mark.parametrize("limit", ["0", "-1", "abc"])
def test_solve_limit_below_one_is_a_usage_error(write, capsys, limit):
    # three isolated vertices have solutions against T3; a limit below one
    # would print "solutions: 0" as a NO, or fail inside the enumeration;
    # a limit that is not a number is refused with the same message
    path = write("e3.txt", format_edge_list(OrientedGraph(3)))
    code, out, err = run(capsys, "solve", path, "T3", "ios", "--enumerate", f"--limit={limit}")
    assert code == 2 and out == ""
    assert f"argument --limit: expected a positive integer, got '{limit}'" in err


def test_solve_with_pin(write, capsys):
    path = write("c3.txt", format_edge_list(directed_cycle(3)))
    code, out, _ = run(capsys, "solve", path, "C3r", "ios", "--pin", "0=c2")
    assert code == 0
    assert out.splitlines()[1] == "0 -> c2"


def test_parser_reuse_keeps_no_pins(write, capsys):
    # main reuses one parser; a pin given to one call must not reach the next
    path = write("c3.txt", format_edge_list(directed_cycle(3)))
    _, unpinned, _ = run(capsys, "solve", path, "C3r", "ios")
    code, pinned, _ = run(capsys, "solve", path, "C3r", "ios", "--pin", "0=c2")
    assert code == 0 and pinned.splitlines()[1] == "0 -> c2"
    code, again, _ = run(capsys, "solve", path, "C3r", "ios")
    assert code == 0 and again == unpinned
    assert again.splitlines()[1] != "0 -> c2"


def test_solve_unsat_exit(write, capsys):
    path = write("c5.txt", format_edge_list(directed_cycle(5)))
    code, out, _ = run(capsys, "solve", path, "C3", "ios")
    assert code == 1 and "NO" in out


def test_bad_pin_is_usage_error(write, capsys):
    path = write("c3.txt", format_edge_list(directed_cycle(3)))
    code, _, err = run(capsys, "solve", path, "C3r", "ios", "--pin", "zero=c1")
    assert code == 2
    assert "error:" in err


def test_solve_limit_without_enumerate_is_a_usage_error(write, capsys):
    # --limit bounds an enumeration; a plain solve would ignore it
    path = write("c3.txt", format_edge_list(directed_cycle(3)))
    code, out, err = run(capsys, "solve", path, "C3r", "ios", "--limit", "2")
    assert code == 2 and out == ""
    assert "error: --limit applies only with --enumerate" in err


def test_pin_given_twice_or_not_in_decimal_digits_is_a_usage_error(write, capsys):
    path = write("c3.txt", format_edge_list(directed_cycle(3)))
    code, out, err = run(capsys, "solve", path, "C3r", "ios", "--pin", "0=c1", "--pin", "0=c2")
    assert code == 2 and out == ""
    assert "error: vertex 0 pinned twice" in err
    # a superscript two is a digit to str.isdigit but not to int()
    code, out, err = run(capsys, "solve", path, "C3r", "ios", "--pin", "\u00b2=c1")
    assert code == 2 and out == ""
    assert "error: bad pin '\u00b2=c1'; expected VERTEX=LABEL" in err


# each reads as a number to int() and as a YES to the command, with an
# Arabic-Indic digit, a sign or an underscore in the number
@pytest.mark.parametrize("argv", [
    ("solve", "{path}", "T3", "ios", "--pin", "\u0660=t0"),
    ("solve", "{path}", "T3", "ios", "--pin", "0=\u0662"),
    ("solve", "{path}", "T3", "ios", "--pin", "0=+0"),
    ("solve", "{path}", "T3", "ios", "--enumerate", "--limit", "\u0661"),
    ("reduce", "3edge-to-um", "{k4}", "--out", "{out}", "--m", "\u0665"),
    ("gadget", "B", "\u0666"),
    ("gadget", "B", "1_0"),
])
def test_numbers_on_the_command_line_are_ascii_decimal_digits(write, capsys, tmp_path, argv):
    names = {
        "path": write("p3.txt", format_edge_list(directed_path(3))),
        "k4": write("k4.txt", format_undirected_edge_list(4, complete_graph(4).edges)),
        "out": str(tmp_path / "u5.txt"),
    }
    code, out, err = run(capsys, *(arg.format(**names) for arg in argv))
    assert code == 2 and out == "" and err
    assert not Path(names["out"]).exists()
    assert run(capsys, "solve", names["path"], "T3", "ios", "--pin", "00=0")[0] == 0


def test_gadget_stdout_and_roundtrip(write, capsys, tmp_path):
    code, out, _ = run(capsys, "gadget", "B", "8")
    assert code == 0
    assert "# gadget B 8" in out
    assert "# role v0 = 0" in out
    direct = parse_edge_list(out)
    assert direct.n == 8

    emit = str(tmp_path / "b8.txt")
    code, out, _ = run(capsys, "gadget", "B", "8", "--emit", emit)
    assert code == 0
    assert f"wrote 8 vertices / 8 arcs to {emit}" in out
    again = parse_edge_list(Path(emit).read_text())
    assert again.arcs == direct.arcs


def test_gadget_errors(capsys):
    code, _, err = run(capsys, "gadget", "Z")
    assert code == 2 and "unknown gadget" in err
    code, _, err = run(capsys, "gadget", "B")
    assert code == 2 and "parameter" in err


def test_gadget_past_the_bound_is_refused_before_building(capsys):
    # D, X and B at 10^7 ask for 9 * 10^7, 10^8 and 10^7 vertices
    for name in ("D", "X", "B"):
        start = time.process_time()
        code, out, err = run(capsys, "gadget", name, str(10**7))
        assert time.process_time() - start < 1.0, name
        assert code == 2 and out == "", name
        assert "error: gadget would have" in err and "more than 1000000" in err, (name, err)


def test_gadget_decide_pipeline(write, capsys, tmp_path):
    # the length-8 antidirected cycle misses the reflexive triangle in iot
    emit = str(tmp_path / "b8.txt")
    run(capsys, "gadget", "B", "8", "--emit", emit)
    code, out, _ = run(capsys, "decide", emit, "C3r", "iot")
    assert code == 1 and out.splitlines()[0] == "NO"

    emit12 = str(tmp_path / "b12.txt")
    run(capsys, "gadget", "B", "12", "--emit", emit12)
    code, out, _ = run(capsys, "decide", emit12, "C3r", "iot")
    assert code == 0


def test_reduce_writes_instance_and_provenance(write, capsys, tmp_path):
    k4 = complete_graph(4)
    src = write("k4.txt", format_undirected_edge_list(4, k4.edges))
    out_path = str(tmp_path / "inst.txt")
    code, out, _ = run(capsys, "reduce", "3col-to-ios-c3r", src, "--out", out_path)
    assert code == 0
    assert f"wrote 138 vertices / 192 arcs to {out_path}" in out
    assert "target: C3r  mode: ios" in out
    inst = parse_edge_list(Path(out_path).read_text())
    assert inst.n == 138
    prov = Path(out_path + ".prov").read_text()
    assert prov.startswith("edge 0-1:")
    assert "vertex 0:" in prov


def test_reduce_of_a_path_holding_a_line_break_decides(write, capsys, tmp_path):
    # the source path goes into a comment of the written instance; its
    # line break must not end the comment and start a data line
    src = write("k4\nx.txt", format_undirected_edge_list(4, complete_graph(4).edges))
    out_path = str(tmp_path / "inst.txt")
    code, _, _ = run(capsys, "reduce", "3col-to-ios-c3r", src, "--out", out_path)
    assert code == 0
    code, out, err = run(capsys, "decide", out_path, "C3r", "ios")
    assert (code, out.splitlines()[0], err) == (1, "NO", "")


def test_reduce_um_kind(write, capsys, tmp_path):
    k4 = complete_graph(4)
    src = write("k4.txt", format_undirected_edge_list(4, k4.edges))
    out_path = str(tmp_path / "u5.txt")
    code, out, _ = run(capsys, "reduce", "3edge-to-um", src, "--out", out_path, "--m", "5")
    assert code == 0
    assert "target: U5" in out
    assert parse_edge_list(Path(out_path).read_text()).n == 32


def test_reduce_oriented_kind(write, capsys, tmp_path):
    src = write("c3.txt", format_edge_list(directed_cycle(3)))
    out_path = str(tmp_path / "umr.txt")
    code, out, _ = run(capsys, "reduce", "ios-c3r-to-umr", src, "--out", out_path)
    assert code == 0
    assert "target: U4r  mode: ios" in out


def test_reduce_refuses_flags_its_kind_ignores(write, capsys, tmp_path):
    src = write("k4.txt", format_undirected_edge_list(4, complete_graph(4).edges))
    out_path = str(tmp_path / "inst.txt")
    refused = [
        (("3col-to-ios-c3r", "--mode", "iot"), "--mode applies only to 3edge-to-t3r"),
        (("3edge-to-um", "--mode", "ios"), "--mode applies only to 3edge-to-t3r"),
        (("3edge-to-t3r", "--m", "9"), "--m applies only to 3edge-to-um, ios-c3r-to-umr, iot-c3r-to-umr"),
        (("3col-to-iot-c3r", "--m", "4"), "--m applies only to"),
    ]
    for (kind, *flags), message in refused:
        code, out, err = run(capsys, "reduce", kind, src, "--out", out_path, *flags)
        assert code == 2 and out == "", (kind, flags)
        assert f"error: {message}" in err, (kind, flags, err)
    # an absent flag keeps its default: ios for 3edge-to-t3r, 4 for the U family
    code, out, _ = run(capsys, "reduce", "3edge-to-t3r", src, "--out", out_path)
    assert code == 0 and "target: T3r  mode: ios" in out
    code, out, _ = run(capsys, "reduce", "3edge-to-t3r", src, "--out", out_path, "--mode", "iot")
    assert code == 0 and "target: T3r  mode: iot" in out
    code, out, _ = run(capsys, "reduce", "3edge-to-um", src, "--out", out_path)
    assert code == 0 and "target: U4  mode: ios" in out


def test_chi_output(write, capsys):
    path = write("p3.txt", format_edge_list(directed_path(3)))
    code, out, _ = run(capsys, "chi", path, "proper-ios")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "chromatic number: 3"
    assert lines[1].startswith("tournament: ")
    assert lines[2] == "0 -> 0" or "->" in lines[2]


def test_chi_improper_flavour(write, capsys):
    path = write("p3.txt", format_edge_list(directed_path(3)))
    code, out, _ = run(capsys, "chi", path, "improper-iot")
    assert code == 0
    assert out.splitlines()[0] == "chromatic number: 2"
    assert "(reflexive)" in out.splitlines()[1]


def test_chi_bad_flavour(write, capsys):
    path = write("p3.txt", format_edge_list(directed_path(3)))
    code, _, err = run(capsys, "chi", path, "rainbow")
    assert code == 2 and "unknown flavour" in err


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "gadget-F")
    assert code == 0
    assert "12/12 checks passed" in out
    assert out.count("pass") >= 12


def test_verify_reports_a_wrong_decider_verdict(capsys, monkeypatch):
    # one wrong verdict, on the first graph of the first case, fails that
    # case's check and only that one
    real = verify.decide_poly
    calls = []

    def decide_poly(g, spec, mode):
        res = real(g, spec, mode)
        calls.append(g)
        return dataclasses.replace(res, satisfiable=not res.satisfiable) if len(calls) == 1 else res

    monkeypatch.setattr(verify, "decide_poly", decide_poly)
    code, out, _ = run(capsys, "verify", "oracle-equivalence")
    lines = out.splitlines()
    assert code == 1
    assert lines[0].startswith("FAIL  decider vs brute force: T1 ios")
    assert all(line.startswith("pass") for line in lines[1:-1]), lines
    assert lines[-1] == f"{len(lines) - 2}/{len(lines) - 1} checks passed"


def test_verify_reports_an_invalid_witness(capsys, monkeypatch):
    # a YES with a map that is no homomorphism fails the check too
    real = verify.decide_poly

    def decide_poly(g, spec, mode):
        res = real(g, spec, mode)
        if res.satisfiable and spec.name == "C3" and g.arcs:
            res = dataclasses.replace(res, witness=Homomorphism((0,) * g.n, mode))
        return res

    monkeypatch.setattr(verify, "decide_poly", decide_poly)
    code, out, _ = run(capsys, "verify", "oracle-equivalence")
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1
    assert len(fails) == 1 and fails[0].startswith("FAIL  decider vs brute force: C3 ios"), fails


def test_unknown_suite_is_refused():
    # the command line offers only the suites' names; the library call names them
    with pytest.raises(ValueError, match="unknown suite 'lemma-Z'; available: gadget-F, "):
        verify.run_suite("lemma-Z")


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_verify_suite_passes(capsys, suite):
    code, out, _ = run(capsys, "verify", suite)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) >= 2 and lines[-1].endswith("checks passed")
    assert all(line.startswith("pass") for line in lines[:-1]), lines


def test_parse_error_reports_line(write, capsys):
    path = write("bad.txt", "2 1\n0 2\n")
    code, _, err = run(capsys, "decide", path, "C3", "ios")
    assert code == 2
    assert "line 2" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "decide", "/nonexistent/graph.txt", "C3", "ios")
    assert code == 2 and "error:" in err


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "decide")[0] == 2
    assert run(capsys, "verify", "no-such-suite")[0] == 2


def test_unknown_target_message(write, capsys):
    path = write("c3.txt", format_edge_list(directed_cycle(3)))
    code, _, err = run(capsys, "decide", path, "T9", "ios")
    assert code == 2
    assert "expected T1|T2|T3|C3|U<m> with optional r suffix" in err
    # a name with a trailing newline, or with a non-ASCII digit, is no
    # spelling of T3 or U4
    claw = write("claw.txt", format_edge_list(OrientedGraph(4, [(0, 1), (0, 2), (3, 0)])))
    for bad in ("T3\n", "U\u0664"):
        code, out, err = run(capsys, "decide", claw, bad, "ios")
        assert code == 2 and out == "", bad
        assert f"unknown target {bad!r}" in err, bad


def test_huge_u_target_is_refused_before_building(write, capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("a U target past the cap was built")

    monkeypatch.setattr(targets, "u_tournament", no_build)
    path = write("p3.txt", format_edge_list(directed_path(3)))
    for name in ("U100000", f"U{targets.U_MAX + 1}r"):
        for command in ("decide", "solve"):
            code, out, err = run(capsys, command, path, name, "ios")
            assert code == 2 and out == ""
            assert f"error: U targets need m <= {targets.U_MAX}" in err


def test_vertex_count_past_the_bound_is_an_input_error(write, capsys):
    path = write("huge.txt", "10000000000 0\n")
    for argv in (["decide", path, "C3", "ios"], ["solve", path, "C3", "ios"], ["chi", path, "proper-ios"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "error: line 1: at most 1000000 vertices allowed" in err, (argv, err)


def test_reduction_past_the_bound_is_refused(write, capsys, tmp_path, monkeypatch):
    # the U4 instance of K4 has 28 vertices and its lift to U9 has 32
    src = write("k4.txt", format_undirected_edge_list(4, complete_graph(4).edges))
    out_path = tmp_path / "inst.txt"
    monkeypatch.setattr(reductions, "MAX_VERTICES", 28)
    code, out, _ = run(capsys, "reduce", "3edge-to-um", src, "--out", str(out_path))
    assert code == 0 and "wrote 28 vertices" in out
    out_path.unlink()
    for kind, flags in (("3edge-to-um", ("--m", "9")), ("3col-to-ios-c3r", ()), ("3edge-to-t3r", ())):
        code, out, err = run(capsys, "reduce", kind, src, "--out", str(out_path), *flags)
        assert code == 2 and out == "", kind
        assert "error: reduction instance would pass 28 vertices" in err, (kind, err)
        assert not out_path.exists()


def _mutate(rng, text: bytes) -> bytes:
    """One random corruption of an edge-list file."""
    lines = text.split(b"\n")
    i = rng.randrange(len(lines))
    header = next((k for k, line in enumerate(lines) if line and not line.startswith(b"#")), i)
    op = rng.randrange(7)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 3:
        digits = [k for k, c in enumerate(text) if c in b"0123456789"]
        if digits:
            k = rng.choice(digits)
            return text[:k] + str(rng.randrange(10)).encode() + text[k + 1:]
    elif op == 4:
        tokens = lines[header].split()
        k = rng.randrange(len(tokens) + 1)
        junk = rng.choice((b"x", b"-1", b"", b"3.5", b"1e2", b"reflexive", b"0 0", b"007"))
        lines[header] = b" ".join(tokens[:k] + [junk] + tokens[k + 1:])
    elif op == 5:
        if lines[header].endswith(b" reflexive"):
            lines[header] = lines[header][:-len(b" reflexive")]
        else:
            lines[header] += b" reflexive"
    else:
        k = rng.randrange(len(text) + 1)
        return text[:k] + rng.choice((b"\xff", b"\x80\x80", b"\xc3", b"\xfe\xff")) + text[k:]
    return b"\n".join(lines)


def test_mutated_files_give_documented_exit_codes(tmp_path, capsys):
    # edge lists and @file targets with dropped, repeated and swapped
    # lines, flipped digits, broken headers, a reflexive flag added or
    # removed and bytes that are not UTF-8: every command answers or
    # reports an input error, and none raises
    rng = random.Random(61)
    graph_path = tmp_path / "g.txt"
    target_path = tmp_path / "t.txt"
    out_path = str(tmp_path / "out.txt")
    named = ("C3", "T3r", "U4", "T2r", "C3r")
    for trial in range(300):
        n = rng.randint(1, 10) if trial % 4 else rng.randint(11, 50)
        g = random_oriented_graph(n, rng, arc_chance=min(0.4, 2.5 / n))
        if rng.random() < 0.2:
            g = OrientedGraph(g.n, g.arcs, reflexive=True)
        text = format_edge_list(g, comments=["fuzz"] if rng.random() < 0.3 else ()).encode()
        k = rng.randint(1, 4)
        t = random_oriented_graph(k, rng, arc_chance=1.0)
        target = format_edge_list(OrientedGraph(k, t.arcs, reflexive=rng.random() < 0.5)).encode()
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                text = _mutate(rng, text)
            else:
                target = _mutate(rng, target)
        graph_path.write_bytes(text)
        target_path.write_bytes(target)
        g_arg = str(graph_path)
        t_arg = rng.choice(named + ("@" + str(target_path),) * 3)
        mode = rng.choice(("plain", "ios", "iot"))
        commands = [
            ["decide", g_arg, t_arg, mode],
            ["solve", g_arg, t_arg, mode, "--pin", f"{rng.randrange(3)}={rng.randrange(3)}"],
            ["solve", g_arg, t_arg, mode, "--enumerate", "--limit", "3"],
            ["reduce", rng.choice(("3col-to-iot-c3r", "3edge-to-t3r", "ios-c3r-to-umr")), g_arg,
             "--out", out_path],
        ]
        if n <= 10:
            commands.append(["chi", g_arg, rng.choice(("proper-ios", "improper-ios", "improper-iot"))])
        for argv in commands:
            code = main(argv)
            capsys.readouterr()
            assert code in (0, 1, 2), (argv, text, target, code)
