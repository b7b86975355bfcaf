"""The face-poset mask algebra, the single exact elimination and the
filtered intersection check, each against the slower code in oracles.py;
and what oracles.py takes from the program, and its own canonical form."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polylogic import corpus, simplicial
from polylogic.errors import AffinelyDependent, DuplicateVertex, OutsideSupport, PolarityMismatch
from polylogic.nerve import realize
from polylogic.poset import enumerate_posets, from_covers
from polylogic.simplicial import (
    build_complex,
    co_implication,
    heyting_implication,
    verify_complex,
)

COMPLEXES = dict(corpus.corpus_complexes())
for _i, _p in enumerate(corpus.corpus_posets(4)[::3]):
    COMPLEXES[f"realize{_i}"] = realize(_p)


@pytest.fixture(scope="module", params=sorted(COMPLEXES))
def complex_(request):
    return COMPLEXES[request.param]


def test_stars_and_closures_match_scans(complex_):
    k = complex_
    for s in k.simplices:
        assert k.open_star(s).flags == frozenset(oracles.cofaces_of(k, s))
        assert k.definable("closed", oracles.faces_of(k, s)).flags == frozenset(
            oracles.faces_of(k, s)
        )
    assert k.maximal() == [
        s for s in k.simplices if oracles.cofaces_of(k, s) == [s]
    ]


@settings(max_examples=25, deadline=None)
@given(raw=st.lists(st.integers(min_value=0), min_size=4, max_size=4))
def test_mask_operations_match_frozenset_oracle(complex_, raw):
    k = complex_
    subsets = [frozenset(s for i, s in enumerate(k.simplices) if r >> i & 1) for r in raw]
    # polarity validation agrees with the scans on arbitrary subsets
    for flags in subsets[:2]:
        for polarity in ("closed", "open"):
            if oracles.is_closed_flags(k, flags, polarity):
                assert k.definable(polarity, flags).flags == flags
            else:
                with pytest.raises(PolarityMismatch):
                    k.definable(polarity, flags)
    closed = [frozenset(t for s in f for t in oracles.faces_of(k, s)) for f in subsets[:2]]
    opened = [frozenset(t for s in f for t in oracles.cofaces_of(k, s)) for f in subsets[2:]]
    c, d = (k.definable("closed", f) for f in closed)
    u, v = (k.definable("open", f) for f in opened)
    assert c.union(d).flags == closed[0] | closed[1]
    assert u.intersection(v).flags == opened[0] & opened[1]
    assert heyting_implication(u, v).flags == oracles.heyting_implication_flags(k, *opened)
    assert co_implication(c, d).flags == oracles.co_implication_flags(k, *closed)
    assert u.names() == [k.name(s) for s in k.simplices if s in opened[0]]


def test_membership_matches_carrier_in_flags(complex_):
    k = complex_
    rng = random.Random(len(k))
    sets = [k.open_star(rng.choice(k.simplices)) for _ in range(3)]
    full = k.face_poset().full_mask
    sets += [simplicial.DefinableSet(k, "closed", full & ~s.mask) for s in sets]
    for x, carrier in oracles.sample_points(k, 1, seed=1):
        for s in sets:
            assert s.member(x) == (carrier in s.flags)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), count=st.integers(1, 4))
def test_rref_coordinates_match_old_elimination(data, dim, count):
    point = st.tuples(*[rationals] * dim)
    points = data.draw(st.lists(point, min_size=count, max_size=count))
    x = data.draw(point)
    assert simplicial.affinely_independent(points) == oracles.affinely_independent(points)
    assert simplicial.barycentric_coordinates(points, x) == oracles.barycentric_coordinates(
        points, x
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), count=st.integers(1, 5))
def test_fm_feasibility_matches_old_substitution(data, dim, count):
    # a homogeneous signed system, written for the oracle as equalities with
    # constant 0, rows z_j >= 0 on the signed columns and one strict sum row
    columns = data.draw(st.lists(st.tuples(*[rationals] * dim), min_size=count, max_size=count))
    signed = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
    eqs = [([c[i] for c in columns], Fraction(0)) for i in range(dim)]
    ineqs = [([Fraction(int(j == c)) for c in range(count)], Fraction(0), False)
             for j in range(count) if signed[j]]
    ineqs.append(([Fraction(int(x)) for x in signed], Fraction(0), True))
    assert simplicial._signed_dependency(columns, signed) == oracles.fm_feasible(eqs, ineqs)


def _perturbed_realizations(count, seed, dim=2):
    """Realizations of posets of depth <= dim with their vertices moved to
    random points of a small grid in R^dim, where simplices cross."""
    rng = random.Random(seed)
    posets = [p for p in corpus.corpus_posets(5) if len(p) >= 3 and p.depth() <= dim]
    out = []
    while len(out) < count:
        p = rng.choice(posets)
        k = realize(p)
        maximal = [list(s) for s in k.maximal()]
        vertices = {v: [str(rng.randint(-2, 2)) for _ in range(dim)] for v in k.vertices}
        try:
            out.append(build_complex(vertices, maximal))
        except (AffinelyDependent, DuplicateVertex):
            continue
    return out


def test_face_rows_match_the_all_faces_build():
    complexes = list(corpus.corpus_complexes().values())
    complexes += [realize(p) for n in range(1, 6) for p in enumerate_posets(n)]
    complexes += _perturbed_realizations(40, seed=2)
    assert len(complexes) == 7 + 87 + 40
    for k in complexes:
        face = k.face_poset()
        assert (list(face.up), list(face.down)) == oracles.face_rows(k)


def test_verify_complex_matches_all_pairs_oracle(monkeypatch):
    # one exact run per tested pair: its non-shared weights sum to more
    # than 0, in place of one run per non-shared weight
    pairs, runs = [], []
    violates, dependent = simplicial._pair_violates, simplicial._signed_dependency
    monkeypatch.setattr(simplicial, "_pair_violates", lambda *a: pairs.append(a) or violates(*a))
    monkeypatch.setattr(simplicial, "_signed_dependency",
                        lambda *a: runs.append(a) or dependent(*a))
    total = 0
    for dim, count, seed in [(1, 20, 2), (2, 40, 2), (3, 8, 3)]:
        invalid = violations = 0
        for k in _perturbed_realizations(count, seed, dim):
            want = oracles.verify_complex_violations(k)
            assert verify_complex(k).violations == want
            invalid += bool(want)
            violations += len(want)
        # each sample must hold valid and invalid complexes alike
        assert 0 < invalid < count and violations > invalid
        assert dim != 2 or 10 <= invalid <= 30
        total += violations
    assert len(runs) == len(pairs) > total


def test_verify_complex_skips_exact_test_under_one_maximal_simplex(monkeypatch):
    calls = []
    real = simplicial._pair_violates

    def counted(k, s, t):
        calls.append((s, t))
        return real(k, s, t)

    monkeypatch.setattr(simplicial, "_pair_violates", counted)
    names = [f"x{i}" for i in range(6)]
    k = realize(from_covers(names, list(zip(names, names[1:]))))
    assert len(k) == 63
    assert verify_complex(k).ok
    assert calls == []


CARRIER_COMPLEXES = {
    "corpus": list(corpus.corpus_complexes().values()),
    "realize": [realize(p) for n in range(1, 6) for p in enumerate_posets(n)],
    "plane": _perturbed_realizations(40, seed=2),  # some cross: verify_complex rejects them
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), group=st.sampled_from(sorted(CARRIER_COMPLEXES)))
def test_carrier_is_the_least_face_over_the_maximal_simplices(data, group):
    # a point is a combination of some simplex's vertices with weights 0..3,
    # on its relative interior or its boundary, or a point of a small box,
    # mostly outside the support
    k = data.draw(st.sampled_from(CARRIER_COMPLEXES[group]))
    if data.draw(st.booleans()):
        s = data.draw(st.sampled_from(k.simplices))
        weights = data.draw(st.lists(st.integers(0, 3), min_size=len(s), max_size=len(s))
                            .filter(any))
        x = tuple(sum(w * p[i] for w, p in zip(weights, k.points_of(s))) / sum(weights)
                  for i in range(k.ambient))
    else:
        x = data.draw(st.tuples(*[rationals] * k.ambient))
    try:
        got = k.carrier(x)
    except OutsideSupport:
        got = None
    assert got == oracles.carrier_by_maximal(k, x)


# What oracles.py may import from polylogic, besides anything from
# polylogic.errors: data types, constructors and the formula node classes.
ORACLE_IMPORTS = {
    "polylogic.poset": {"Poset", "DEFAULT_UPSET_CAP"},
    "polylogic.simplicial": {"build_complex"},
    "polylogic.pipeline": {"Report"},
    "polylogic.formula": {"Atom", "Bottom", "Top", "And", "Or", "Implies", "neg"},
}


def borrowed_names(source):
    """The names a module takes from polylogic beyond ORACLE_IMPORTS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "polylogic"]
        elif (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "polylogic"
              and node.module != "polylogic.errors"):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if a.name not in ORACLE_IMPORTS.get(node.module, ())]
    return found


def test_oracles_borrow_no_kernel_from_the_program():
    assert borrowed_names(Path(oracles.__file__).read_text()) == []
    assert borrowed_names(
        "import polylogic.algebra\n"
        "from polylogic import poset\n"
        "from polylogic.errors import CapExceeded\n"
        "from polylogic.poset import Poset, _canonical_form, enumerate_posets\n"
    ) == ["polylogic.algebra", "polylogic.poset", "polylogic.poset._canonical_form",
          "polylogic.poset.enumerate_posets"]


def test_the_oracle_canonical_form_ignores_relabelling():
    # each poset of at most 6 elements, as the oracle's own form, keeps that
    # form under three random relabellings
    rnd = random.Random(13)
    for n in range(1, 7):
        for form in oracles.enumerate_by_all_extensions(n):
            for _ in range(3):
                perm = rnd.sample(range(n), n)  # new position -> old index
                bits = {old: 1 << new for new, old in enumerate(perm)}
                relabelled = [oracles.union(bits, form[old]) for old in perm]
                assert oracles.canonical_form(relabelled, n) == form
