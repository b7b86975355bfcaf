"""Rooted-frame countermodel search and whole-batch validity checks,
each against the slower code in oracles.py."""

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from polylogic import algebra, pipeline
from polylogic.algebra import FiniteHeyting, ValidityResult, eval_formula, is_valid
from polylogic.corpus import corpus_complexes
from polylogic.formula import And, Atom, Bottom, Implies, Or, Top, bd, parse
from polylogic.pipeline import NO_COUNTERMODEL, find_frame_countermodel
from polylogic.poset import Poset, enumerate_posets, from_covers

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


def test_is_valid_past_64_elements():
    # a 64-chain below two maximal points: 66 elements and 68 up-sets, more
    # elements than the uint64 tables of an earlier oracle held
    chain = [f"c{i}" for i in range(64)]
    covers = list(zip(chain, chain[1:])) + [(chain[-1], "a"), (chain[-1], "b")]
    frame = from_covers(chain + ["a", "b"], covers)
    for text in ["p | ~p", "~p | ~~p", "(p -> q) | (q -> p)", "p -> (q -> p)",
                 "(p -> r) -> (q -> r) -> (p | q -> r)"]:
        f = parse(text)
        res = is_valid(frame, f)
        assert (res.valid, res.valuation, res.checked) == oracles.is_valid(frame, f)


@st.composite
def non_rooted_frames(draw):
    """A frame on at most 5 points with two or more minimal points, its
    elements in a random order: a disjoint union of 2-3 posets, or random
    covers on 2-5 points none of which lies below x0 or x1."""
    if draw(st.booleans()):
        parts = draw(st.lists(st.sampled_from(SMALL_FRAMES[:8]), min_size=2, max_size=3)
                     .filter(lambda parts: sum(map(len, parts)) <= 5))
        names = [f"{c}{e}" for c, p in zip("abc", parts) for e in p.elements]
        covers = [(f"{c}{x}", f"{c}{y}") for c, p in zip("abc", parts) for x, y in p.covers()]
    else:
        n = draw(st.integers(2, 5))
        names = [f"x{i}" for i in range(n)]
        pairs = [(i, j) for j in range(2, n) for i in range(j)]
        covers = [(names[i], names[j]) for i, j in pairs if draw(st.booleans())]
    return from_covers(draw(st.permutations(names)), covers)


@settings(max_examples=100, deadline=None)
@given(non_rooted_frames(), formulas(1, 3))
@example(from_covers(["a", "b", "c"], [("b", "c")]), parse("p | ~p"))
@example(from_covers(["a", "r", "x", "y"], [("r", "x"), ("r", "y")]), parse("(p -> q) | (q -> p)"))
def test_star_by_star_matches_the_oracle(frame, f):
    # batches of 1, 7 and m valuations put small frames past one block,
    # so the stars are checked first; in the examples the point's star
    # validates f and the next star refutes it
    assert frame.op().maximal_of(frame.full_mask).bit_count() >= 2
    want = oracles.is_valid(frame, f)
    for batch in (1, 7, len(FiniteHeyting(frame))):
        with patch.object(algebra, "_BATCH", batch):
            res = is_valid(frame, f)
        assert (res.valid, res.valuation, res.checked) == want


def _spy_on_blocks(monkeypatch):
    """Record (frame size, valuations covered) of each block-helper call."""
    calls, helper = [], algebra._first_refutation

    def spy(h, f, names):
        calls.append((len(h.frame), len(h) ** len(names)))
        return helper(h, f, names)

    monkeypatch.setattr(algebra, "_first_refutation", spy)
    return calls


@pytest.mark.parametrize("covers, calls", [
    # the 2-chain's star refutes p | ~p first: the point's is never checked
    ([("a", "b")], [(2, 9), (3, 36)]),
    # the point's star validates it, then the 2-chain's refutes it
    ([("b", "c")], [(1, 4), (2, 9), (3, 36)]),
])
def test_one_refuting_star_hands_over_to_the_whole_frame(monkeypatch, covers, calls):
    monkeypatch.setattr(algebra, "_BATCH", 1)
    frame = from_covers(["a", "b", "c"], covers)
    seen = _spy_on_blocks(monkeypatch)
    f = parse("(p | ~p) & (q -> q)")
    res = is_valid(frame, f)
    assert (res.valid, res.valuation, res.checked) == oracles.is_valid(frame, f)
    assert seen == calls


def test_sphere2_bd2_is_proved_on_the_four_vertex_stars(monkeypatch):
    # the open star of a vertex has 7 faces and 19 up-sets: 4 * 19**3 =
    # 27 436 valuations cover all 166**3 = 4 574 296 of the face poset
    face = corpus_complexes()["sphere2"].face_poset()
    seen = _spy_on_blocks(monkeypatch)
    assert is_valid(face, bd(2)) == ValidityResult(True, None, 4_574_296)
    assert seen == [(7, 19**3)] * 4
    assert sum(n for _, n in seen) == 27_436


def test_stars_are_skipped_unless_they_pay(monkeypatch):
    # one block, one minimal point, or stars with as many valuations as
    # the frame: only the whole frame is searched
    seen, generated, star = _spy_on_blocks(monkeypatch), [], algebra._generated
    monkeypatch.setattr(algebra, "_generated", lambda frame, x: generated.append(x) or star(frame, x))
    is_valid(corpus_complexes()["sphere2"].face_poset(), bd(1))  # 166**2 = 27 556 valuations
    monkeypatch.setattr(algebra, "_BATCH", 1)
    is_valid(from_covers(["r", "x", "y"], [("r", "x"), ("r", "y")]), parse("p | ~p"))
    # x and y below the 2-chain c0 < c1: 4 + 4 star up-sets against 6
    is_valid(from_covers(["x", "y", "c0", "c1"], [("x", "c0"), ("y", "c0"), ("c0", "c1")]),
             parse("p | ~p"))
    assert seen == [(14, 27_556), (3, 5), (4, 6)]
    assert generated == [0, 1]


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
