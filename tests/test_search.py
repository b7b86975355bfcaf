"""Rooted-frame countermodel search and whole-batch validity checks,
each against the slower code in oracles.py."""

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from polylogic import algebra, pipeline
from polylogic.algebra import FiniteHeyting, eval_formula, is_valid
from polylogic.formula import And, Atom, Bottom, Implies, Or, Top, bd, parse
from polylogic.pipeline import NO_COUNTERMODEL, find_frame_countermodel
from polylogic.poset import Poset, enumerate_posets

SMALL_FRAMES = [p for n in range(1, 5) for p in enumerate_posets(n)]


@st.composite
def formulas(draw, min_atoms, max_atoms):
    """A formula with exactly k distinct atoms, min_atoms <= k <= max_atoms,
    built by joining a shuffled list of leaves pairwise at random."""
    k = draw(st.integers(min_atoms, max_atoms))
    names = draw(st.permutations(["p", "q", "r", "s"]))[:k]
    extra = st.sampled_from([Atom(a) for a in names] + [Bottom(), Top()])
    leaves = draw(st.permutations([Atom(a) for a in names] + draw(st.lists(extra, max_size=6))))
    while len(leaves) > 1:
        i = draw(st.integers(0, len(leaves) - 2))
        op = draw(st.sampled_from([And, Or, Implies]))
        leaves[i:i + 2] = [op(leaves[i], leaves[i + 1])]
    return leaves[0]


@settings(max_examples=100, deadline=None)
@given(formulas(1, 3), st.integers(1, 5), st.sampled_from([None, 0, 1, 2, 3]))
@example(parse("p -> (q -> p)"), 5, None)
@example(parse("(p -> q) | (q -> p)"), 5, 2)
@example(parse("p2 | (p2 -> (p1 | (p1 -> (p0 | ~p0))))"), 5, 3)
def test_rooted_search_matches_all_frames(f, max_size, max_depth):
    got = find_frame_countermodel(f, max_size, max_depth)
    want = oracles.find_frame_countermodel(f, max_size, max_depth)
    if want is None:
        assert got.status == NO_COUNTERMODEL
        assert got.bounds["searched_size"] == max_size
        return
    frame = got.frame
    assert got.refuted and len(frame) == len(want[0])
    assert frame.up[0] == frame.full_mask  # x1 is the root
    assert all(frame.is_upset(m) for m in got.valuation.values())
    assert eval_formula(frame, got.valuation, f) != frame.full_mask
    assert max_depth is None or frame.depth() <= max_depth
    assert got.bounds["searched_size"] == len(frame) - 1


@settings(max_examples=100, deadline=None)
@given(formulas(3, 4))
def test_batched_is_valid_matches_two_atom_loop(f):
    for frame in SMALL_FRAMES:
        res = is_valid(frame, f)
        assert (res.valid, res.valuation, res.checked) == oracles.is_valid(frame, f)


@settings(max_examples=50, deadline=None)
@given(formulas(1, 3), st.randoms(use_true_random=False))
def test_folded_evaluators_match_the_recursive_oracles(f, rnd):
    names = oracles.atoms(f)
    for frame in SMALL_FRAMES:
        h = FiniteHeyting(frame)
        valuation = {p: rnd.choice(h.carrier) for p in names}
        assert eval_formula(frame, valuation, f) == oracles.eval_formula(frame, valuation, f)
        ups = [[j for j in range(len(frame)) if up >> j & 1] for up in frame.up]
        env = {p: [rnd.getrandbits(8) for _ in ups] for p in names}
        assert algebra._eval_sliced(f, env, ups, 255) == oracles.eval_sliced(f, env, ups, 255)
        with patch.object(algebra, "_eval_sliced", oracles.eval_sliced):
            want = is_valid(frame, f, algebra=h)
        assert is_valid(frame, f, algebra=h) == want


def test_batched_is_valid_on_named_formulas():
    for text in ["p -> (q -> p)", "(p -> q) | (q -> p)", "((p -> q) -> p) -> p",
                 "(p -> r) -> (q -> r) -> (p | q -> r)"]:
        f = parse(text)
        for frame in SMALL_FRAMES:
            res = is_valid(frame, f)
            assert (res.valid, res.valuation, res.checked) == oracles.is_valid(frame, f)
    for frame in SMALL_FRAMES:
        res = is_valid(frame, bd(3))
        assert (res.valid, res.valuation, res.checked) == oracles.is_valid(frame, bd(3))


# k = 0, 1 and 2 atoms, 3-atom theorems that need every valuation, and a
# 4-atom formula whose first refutation lies past m**3 valuations
EDGE_FORMULAS = [parse(t) for t in [
    "true", "false", "p | ~p", "~p | ~~p", "(p -> q) | (q -> p)", "((p -> q) -> p) -> p",
    "p -> (q -> p)", "(p -> r) -> (q -> r) -> (p | q -> r)", "p & q & r -> s",
]] + [bd(2)]


@pytest.mark.parametrize("batch", [1, 2, 7, 64, None])
def test_is_valid_across_batch_sizes(monkeypatch, batch):
    # batch None: exactly m**2, so the last two atoms fill one batch; a
    # batch of 1 loops over every valuation, r = 0
    for frame in SMALL_FRAMES:
        m = len(FiniteHeyting(frame))
        monkeypatch.setattr(algebra, "_BATCH", batch or m * m)
        for f in EDGE_FORMULAS:
            res = is_valid(frame, f)
            assert (res.valid, res.valuation, res.checked) == oracles.is_valid(frame, f)


def test_is_valid_with_a_short_last_window(monkeypatch):
    # a batch of m * (m - 1) valuations: the window atom takes m - 1 values
    # and then 1, since m - 1 does not divide m for m >= 3
    for frame in SMALL_FRAMES:
        m = len(FiniteHeyting(frame))
        if m >= 3:
            monkeypatch.setattr(algebra, "_BATCH", m * (m - 1))
            for f in EDGE_FORMULAS:
                res = is_valid(frame, f)
                assert (res.valid, res.valuation, res.checked) == oracles.is_valid(frame, f)


def test_is_valid_on_a_ten_antichain():
    frame = Poset([f"a{i}" for i in range(10)], [1 << i for i in range(10)])
    for text in ["p | ~p", "~p | ~~p", "(p -> q) | (q -> p)", "p -> (q -> p)"]:
        f = parse(text)
        res = is_valid(frame, f)
        assert (res.valid, res.valuation, res.checked) == oracles.is_valid(frame, f)


def test_search_checks_only_rooted_frames(monkeypatch):
    # one frame per (n-1)-poset: 1 + 1 + 2 + 5 + 16 + 63 + 318 = 406;
    # the search over all posets of size <= 7 checks 2 450
    calls = []

    def counting(frame, f, **kw):
        calls.append(len(frame))
        return is_valid(frame, f, **kw)

    monkeypatch.setattr(pipeline, "is_valid", counting)
    v = find_frame_countermodel(parse("p -> (q -> p)"), max_size=7)
    assert v.status == NO_COUNTERMODEL
    assert len(calls) == 406


@pytest.mark.parametrize(
    "max_depth, counts",
    [(0, [1, 0, 0, 0]), (1, [1, 1, 1, 1]), (2, [1, 1, 2, 4]), (None, [1, 1, 2, 5])],
)
def test_rooted_frames_by_depth(max_depth, counts):
    # a root below each (n-1)-poset of depth <= max_depth - 1: depth <= 1
    # gives the fans, depth <= 2 a root below antichains and bipartite orders
    for n, count in enumerate(counts, start=1):
        frames = list(pipeline._rooted_frames(n, max_depth))
        assert len(frames) == count
        for p in frames:
            assert p.op().maximal_of(p.full_mask) == 1
            assert max_depth is None or p.depth() <= max_depth
