import pytest

from injhom.graphs import OrientedGraph, is_tournament, transitive_tournament
from injhom.targets import (
    U_MAX,
    TargetSpec,
    build_named,
    label_index,
    target_labels,
    u_tournament,
)


def test_named_targets_build():
    for name, n, loops in (
        ("T1", 1, False), ("T2", 2, False), ("T3", 3, False),
        ("C3", 3, False), ("T3r", 3, True), ("C3r", 3, True),
        ("U4", 4, False), ("U7r", 7, True),
    ):
        g = build_named(name)
        assert g.n == n and g.reflexive == loops
        assert is_tournament(g)


def test_named_targets_are_built_once():
    # one graph per target, whatever spelling or spec names it
    assert build_named("U4") is build_named("U04") is build_named(TargetSpec.parse("U4"))
    assert build_named("T3r") is TargetSpec.parse("T3r").build()
    assert build_named("U4") is not build_named("U4r")
    assert build_named("U4") == u_tournament(4)
    # a custom target is the graph given
    custom = OrientedGraph(2, [(1, 0)])
    assert build_named(TargetSpec.from_graph(custom)) is custom


def test_unknown_name_message():
    with pytest.raises(ValueError) as exc:
        build_named("T9")
    assert "expected T1|T2|T3|C3|U<m> with optional r suffix" in str(exc.value)
    for bad in ("", "C4", "u4", "T3rr", "U3"):
        with pytest.raises(ValueError):
            build_named(bad)
    # the whole name is matched, with ASCII digits only
    for bad in ("T3\n", "C3r\n", "U4\n", "U\u0664", "U\u0664r", "T\u0663"):
        with pytest.raises(ValueError, match="unknown target"):
            TargetSpec.parse(bad)


def test_u_tournament_structure():
    g = u_tournament(6)
    assert g.has_arc(0, 1) and g.has_arc(1, 2) and g.has_arc(2, 0)
    # every transitive-part vertex dominates the triangle
    for i in (3, 4, 5):
        for c in (0, 1, 2):
            assert g.has_arc(i, c)
    assert g.has_arc(3, 4) and g.has_arc(4, 5) and g.has_arc(3, 5)
    with pytest.raises(ValueError):
        u_tournament(3)


def test_labels():
    assert target_labels("C3") == ["c1", "c2", "c3"]
    assert target_labels("T3r") == ["t0", "t1", "t2"]
    assert target_labels("U5") == ["c1", "c2", "c3", "t0", "t1"]
    spec = TargetSpec.from_graph(transitive_tournament(2))
    assert target_labels(spec) == ["v0", "v1"]


def test_label_index():
    assert label_index("U5", "c2") == 1
    assert label_index("U5", "t0") == 3
    assert label_index("U5", "4") == 4
    with pytest.raises(ValueError):
        label_index("U5", "t9")
    with pytest.raises(ValueError):
        label_index("U5", "7")


def test_spec_validation():
    with pytest.raises(ValueError):
        TargetSpec()
    with pytest.raises(ValueError):
        TargetSpec(name="C3", custom=transitive_tournament(2))
    with pytest.raises(ValueError):
        TargetSpec.from_graph(OrientedGraph(3, [(0, 1)]))  # not a tournament
    spec = TargetSpec.parse("U4r")
    assert spec.build().reflexive


def test_u_size_cap():
    # the names past the cap are refused by the spec itself, before any
    # build; the largest allowed one still builds
    assert TargetSpec.parse(f"U{U_MAX}r").build().num_arcs == U_MAX * (U_MAX - 1) // 2
    for name in (f"U{U_MAX + 1}", "U100000", "U100000r"):
        with pytest.raises(ValueError, match=f"U targets need m <= {U_MAX}"):
            TargetSpec.parse(name)
    with pytest.raises(ValueError, match=f"U targets need m <= {U_MAX}"):
        u_tournament(U_MAX + 1)


def test_custom_target_is_capped_at_u_max():
    # the degree-2 DP's state tables grow as the fourth power of the
    # target's size, so a custom target is capped as a U<m> name is
    with pytest.raises(ValueError, match=f"at most {U_MAX} vertices, got {U_MAX + 1}"):
        TargetSpec.from_graph(transitive_tournament(U_MAX + 1))
    assert TargetSpec.from_graph(transitive_tournament(U_MAX)).custom.n == U_MAX


def test_u_tournament_needs_an_int_m():
    # a float or a string used to pass the range check or fail in it with
    # a TypeError
    for m in (4.0, 4.5, "5", None):
        with pytest.raises(ValueError, match="int m"):
            u_tournament(m)
