"""The face-poset mask algebra, the single exact elimination and the
filtered intersection check, each against the slower code in oracles.py."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polylogic import corpus, simplicial
from polylogic.errors import AffinelyDependent, DuplicateVertex, PolarityMismatch
from polylogic.nerve import realize
from polylogic.poset import from_covers
from polylogic.simplicial import (
    build_complex,
    co_implication,
    heyting_implication,
    sample_points,
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
    assert c.complement().flags == frozenset(k.simplices) - closed[0]
    assert c.complement().polarity == "open"
    assert heyting_implication(u, v).flags == oracles.heyting_implication_flags(k, *opened)
    assert co_implication(c, d).flags == oracles.co_implication_flags(k, *closed)
    assert u.names() == [k.name(s) for s in k.simplices if s in opened[0]]


def test_membership_matches_carrier_in_flags(complex_):
    k = complex_
    rng = random.Random(len(k))
    sets = [k.open_star(rng.choice(k.simplices)) for _ in range(3)]
    sets += [s.complement() for s in sets]
    for x, carrier in sample_points(k, 1, seed=1):
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
@given(data=st.data(), nvars=st.integers(1, 3))
def test_fm_feasibility_matches_old_substitution(data, nvars):
    coeffs = st.lists(rationals, min_size=nvars, max_size=nvars)
    eqs = data.draw(st.lists(st.tuples(coeffs, rationals), max_size=2))
    ineqs = data.draw(st.lists(st.tuples(coeffs, rationals, st.booleans()), max_size=4))
    assert simplicial._fm_feasible(eqs, ineqs) == oracles.fm_feasible(eqs, ineqs)


def _perturbed_realizations(count, seed):
    """Realizations of posets of depth <= 2 with their vertices moved to
    random points of a small grid in the plane, where simplices cross."""
    rng = random.Random(seed)
    posets = [p for p in corpus.corpus_posets(5) if len(p) >= 3 and p.depth() <= 2]
    out = []
    while len(out) < count:
        p = rng.choice(posets)
        k = realize(p)
        maximal = [list(s) for s in k.maximal()]
        vertices = {v: [str(rng.randint(-2, 2)) for _ in range(2)] for v in k.vertices}
        try:
            out.append(build_complex(vertices, maximal))
        except (AffinelyDependent, DuplicateVertex):
            continue
    return out


def test_verify_complex_matches_all_pairs_oracle():
    invalid = violations = 0
    for k in _perturbed_realizations(40, seed=2):
        want = oracles.verify_complex_violations(k)
        assert verify_complex(k).violations == want
        invalid += bool(want)
        violations += len(want)
    # the sample must hold valid and invalid complexes alike
    assert 10 <= invalid <= 30 and violations > invalid


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
