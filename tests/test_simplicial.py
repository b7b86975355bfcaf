import copy
from fractions import Fraction

import pytest
from oracles import cofaces_of, faces_of, is_closed_pseudomanifold, is_isomorphic

from polylogic.algebra import FiniteHeyting
from polylogic.errors import (
    AffinelyDependent,
    BadCoordinate,
    DimensionMismatch,
    DuplicateVertex,
    OutsideSupport,
    PolarityMismatch,
    UnknownSimplex,
)
from polylogic.simplicial import (
    ComplexReport,
    DefinableSet,
    barycentric_coordinates,
    build_complex,
    co_implication,
    complex_from_json,
    complex_to_json,
    heyting_implication,
    parse_rational,
    sample_points,
    verify_complex,
)

F = Fraction


def square():
    """Unit square, triangulated along the a-c diagonal."""
    return build_complex(
        {"a": ["0", "0"], "b": ["1", "0"], "c": ["1", "1"], "d": ["0", "1"]},
        [["a", "b", "c"], ["a", "c", "d"]],
    )


# ---------------------------------------------------------------------------
# exact arithmetic helpers


def test_parse_rational():
    assert parse_rational("1/3") == F(1, 3)
    assert parse_rational("-2") == F(-2)
    assert parse_rational(5) == F(5)


def test_parse_rational_bounds_the_exponent():
    assert parse_rational("1e4300") == 10**4300
    assert parse_rational("2.5E-4_300") == F(5, 2 * 10**4300)
    for text in ["1e4301", "1E+4_301", "-3e-100000", " 1e1000000 ", "1e" + "9" * 5000]:
        with pytest.raises(BadCoordinate):
            parse_rational(text)


def test_barycentric_coordinates_exact():
    tri = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    assert barycentric_coordinates(tri, (F(1, 3), F(1, 3))) == [F(1, 3), F(1, 3), F(1, 3)]
    assert barycentric_coordinates(tri, (F(2), F(2))) == [F(-3), F(2), F(2)]
    # a segment in the plane: points off its line have no coordinates
    seg = [(F(0), F(0)), (F(1), F(1))]
    assert barycentric_coordinates(seg, (F(1, 2), F(1, 2))) == [F(1, 2), F(1, 2)]
    assert barycentric_coordinates(seg, (F(0), F(1))) is None


# ---------------------------------------------------------------------------
# construction and validation


def test_square_has_eleven_simplices_closed_under_faces():
    k = square()
    names = [k.name(s) for s in k.simplices]
    assert len(names) == 11
    assert names == ["a", "b", "c", "d", "ab", "ac", "ad", "bc", "cd", "abc", "acd"]
    assert k.dim() == 2


def test_build_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        build_complex({"a": ["0"], "b": ["0", "1"]}, [["a", "b"]])
    with pytest.raises(DuplicateVertex):
        build_complex({"a": ["0", "0"], "b": ["0", "0"]}, [["a", "b"]])
    with pytest.raises(AffinelyDependent):
        build_complex(
            {"a": ["0", "0"], "b": ["1", "0"], "c": ["2", "0"]}, [["a", "b", "c"]]
        )


def test_verify_complex_flags_improper_intersections():
    assert verify_complex(square()).ok
    # two segments crossing at their midpoints, which is a vertex of neither
    bad = build_complex(
        {"a": ["0", "0"], "b": ["2", "2"], "c": ["0", "2"], "d": ["2", "0"]},
        [["a", "b"], ["c", "d"]],
    )
    rep = verify_complex(bad)
    assert not rep.ok
    assert ("ab", "cd") in rep.violations


def test_json_round_trip():
    k = square()
    j = complex_to_json(k)
    k2 = complex_from_json(j)
    assert k2.simplices == k.simplices
    assert k2.vertices == k.vertices


# ---------------------------------------------------------------------------
# face poset, carriers, stars


def test_face_poset_covers():
    face = square().face_poset()
    assert face.depth() == 2
    expected = {
        ("a", "ab"), ("a", "ac"), ("a", "ad"), ("b", "ab"), ("b", "bc"),
        ("c", "ac"), ("c", "bc"), ("c", "cd"), ("d", "ad"), ("d", "cd"),
        ("ab", "abc"), ("ac", "abc"), ("ac", "acd"), ("bc", "abc"),
        ("ad", "acd"), ("cd", "acd"),
    }
    assert set(face.covers()) == expected


def test_carrier_examples():
    k = square()
    assert k.name(k.carrier((F(1, 2), F(1, 2)))) == "ac"
    assert k.name(k.carrier((F(1, 2), F(1, 4)))) == "abc"
    assert k.name(k.carrier((F(0), F(0)))) == "a"
    assert k.name(k.carrier((F(1), F(1, 2)))) == "bc"
    with pytest.raises(OutsideSupport):
        k.carrier((F(2), F(2)))


@pytest.mark.parametrize("x", [(F(0),), (F(0), F(0), F(0))], ids=["1-coordinate", "3-coordinate"])
def test_point_of_the_wrong_dimension_raises_dimension_mismatch(x):
    # the square is in R^2; solving only x's coordinates put (0,) in abc
    k = square()
    with pytest.raises(DimensionMismatch):
        k.contains_point(("a", "b", "c"), x)
    with pytest.raises(DimensionMismatch):
        k.carrier(x)


def test_carrier_is_unique_and_minimal():
    # the carrier is the unique simplex containing the point whose every
    # proper face omits it
    k = square()
    for x, _ in sample_points(k, 3, seed=11):
        sigma = k.carrier(x)
        assert k.contains_point(sigma, x)
        for tau in faces_of(k, sigma):
            if tau != sigma:
                bc = barycentric_coordinates(k.points_of(tau), x)
                assert bc is None or min(bc) < 0
        containing = [t for t in k.simplices if k.contains_point(t, x)]
        for t in containing:
            assert set(sigma) <= set(t)


def test_open_star():
    k = square()
    assert k.open_star(("a", "c")).names() == ["ac", "abc", "acd"]
    assert k.open_star(("b",)).names() == ["b", "ab", "bc", "abc"]


def test_unknown_simplex_is_named_as_the_complex_names_it():
    # multi-character ids join with ",", so ("a", "zz") is a,zz and not azz
    k = build_complex({"a": ["0"], "bc": ["1"]}, [["a", "bc"]])
    with pytest.raises(UnknownSimplex, match="'a,zz'"):
        k.open_star(("a", "zz"))


def test_star_matches_cofaces():
    k = square()
    for s in k.simplices:
        assert set(k.open_star(s).names()) == {k.name(t) for t in cofaces_of(k, s)}


# ---------------------------------------------------------------------------
# definable sets


def test_definable_polarity_validation():
    k = square()
    closed = k.definable("closed", faces_of(k, ("a", "b")))
    assert closed.names() == ["a", "b", "ab"]
    opened = k.definable("open", cofaces_of(k, ("a", "c")))
    assert opened.names() == ["ac", "abc", "acd"]
    with pytest.raises(PolarityMismatch):
        closed.union(opened)
    with pytest.raises(PolarityMismatch):
        k.definable("closed", [("a", "b")])  # missing the faces a, b


def test_definable_set_inputs_are_checked():
    k = square()
    for polarity, mask, error in [("half", 0, PolarityMismatch), ("closed", -1, ValueError),
                                  ("open", 1 << len(k), ValueError),
                                  ("closed", 1 << k.index[("a", "b")], PolarityMismatch),
                                  ("open", 1 << k.index[("a",)], PolarityMismatch)]:
        with pytest.raises(error):
            DefinableSet(k, polarity, mask)


def test_definable_sets_are_immutable_and_equal_on_one_complex_object():
    k, twin = square(), square()
    s = k.definable("closed", faces_of(k, ("a", "b")))
    for name in ("complex", "polarity", "mask", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 0)
    with pytest.raises(AttributeError):
        del s.mask
    same = DefinableSet(k, "closed", s.mask)
    assert s == same and hash(s) == hash(same) and s != (k, "closed", s.mask) and copy.copy(s) == s
    assert s != twin.definable("closed", faces_of(twin, ("a", "b")))  # an equal complex
    assert s != k.definable("closed", faces_of(k, ("a",)))
    full = k.face_poset().full_mask
    assert DefinableSet(k, "closed", full) != DefinableSet(k, "open", full)
    assert DefinableSet(k, "open", full) == DefinableSet(k, "open", full)
    assert repr(s) == f"DefinableSet(complex={k!r}, polarity='closed', mask={s.mask!r})"


def test_complex_report_compares_and_prints_its_violations():
    rep = verify_complex(square())
    assert rep == ComplexReport([]) and rep.ok and rep != ComplexReport([("a", "b")])
    assert repr(rep) == "ComplexReport(violations=[])"
    with pytest.raises(TypeError):
        hash(rep)


def test_membership_is_geometric():
    k = square()
    star_ac = k.open_star(("a", "c"))
    assert star_ac.member((F(1, 2), F(1, 2)))
    assert star_ac.member((F(1, 2), F(1, 4)))
    assert not star_ac.member((F(1), F(0)))
    closure_ab = k.definable("closed", faces_of(k, ("a", "b")))
    assert closure_ab.member((F(1, 2), F(0)))
    assert not closure_ab.member((F(1, 2), F(1, 4)))


def test_heyting_implication_against_local_analysis():
    # oracle: sigma belongs to U -> V iff every coface of sigma lying in U
    # lies in V; check it pointwise at sampled points of the result
    k = square()
    u = k.open_star(("a",))
    v = k.open_star(("a", "c"))
    w = heyting_implication(u, v)
    for s in k.simplices:
        in_w = s in w.flags
        local = all(t in v.flags for t in cofaces_of(k, s) if t in u.flags)
        assert in_w == local
    for x, s in sample_points(k, 2, seed=3):
        if w.member(x):
            assert (not u.member(x)) or v.member(x)


def test_co_implication_example():
    k = square()
    c = DefinableSet(k, "closed", k.face_poset().full_mask)
    d = k.definable("closed", faces_of(k, ("a", "b", "c")))
    e = co_implication(c, d)
    # supports of C minus D: everything not under abc
    assert "acd" in e.names() and "d" in e.names()
    assert set(c.names()) <= set(d.names()) | set(e.names())


def test_definable_algebras_sizes():
    k = square()
    closed, opened = FiniteHeyting(k.face_poset().op()), FiniteHeyting(k.face_poset())
    assert is_isomorphic(closed.frame.op(), opened.frame)
    assert len(closed) == len(opened) == 83


# ---------------------------------------------------------------------------
# pseudomanifolds and sampling


def test_pseudomanifold_check():
    sphere = build_complex(
        {"a": ["0", "0", "0"], "b": ["1", "0", "0"], "c": ["0", "1", "0"],
         "d": ["0", "0", "1"]},
        [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]],
    )
    ok, witnesses = is_closed_pseudomanifold(sphere, 2)
    assert ok and witnesses == []
    ok, witnesses = is_closed_pseudomanifold(square(), 2)
    assert not ok
    assert sorted(witnesses) == ["ab", "ad", "bc", "cd"]
    with pytest.raises(ValueError):
        is_closed_pseudomanifold(square(), 1)


def test_sample_points_reproducible_and_in_carrier():
    k = square()
    a = sample_points(k, 2, seed=42)
    b = sample_points(k, 2, seed=42)
    assert a == b
    for x, s in a:
        assert k.carrier(x) == s
