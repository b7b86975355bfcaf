import itertools
import json
import random
import time

import pytest

import oracles
from polylogic import algebra, pipeline
from polylogic.algebra import (
    FiniteHeyting,
    _cover_failures,
    eval_formula,
    is_valid,
    join_irreducibles,
    spec,
    stone_map,
    valuation_from_json,
    valuation_to_json,
)
from polylogic.corpus import corpus_complexes, corpus_posets
from polylogic.errors import (
    BudgetExceeded,
    CapExceeded,
    MissingAtom,
    NotMonotone,
)
from polylogic.formula import bd, parse
from polylogic.pipeline import verify_esakia
from polylogic.poset import MonotoneMap, Poset, enumerate_posets, from_covers, is_pmorphism, limits


def chain(n):
    return from_covers([f"c{i}" for i in range(n)], [[f"c{i}", f"c{i+1}"] for i in range(n - 1)])


def fork():
    return from_covers(["r", "x", "y"], [["r", "x"], ["r", "y"]])


# ---------------------------------------------------------------------------
# Heyting / co-Heyting structure


def test_residuation_exhaustive_on_small_frames():
    # U n W <= V iff W <= (U -> V), for every triple of up-sets
    for p in [chain(3), fork()]:
        h = FiniteHeyting(p)
        for u, v, w in itertools.product(h.carrier, repeat=3):
            assert ((u & w) | v == v) == (w & p.imp(u, v) == w)


def test_co_residuation_exhaustive():
    # (C <- D) <= E iff C <= D u E, for every triple of down-sets
    for p in [chain(3), fork()]:
        c = FiniteHeyting(p.op())
        for x, y, z in itertools.product(c.carrier, repeat=3):
            assert (p.down_closure(x & ~y) | z == z) == (x | (y | z) == y | z)


def test_implication_example_two_chain():
    p = chain(2)
    top, c1 = p.full_mask, p.mask_of(["c1"])
    assert p.imp(c1, 0) == 0  # ~{c1} = empty
    assert p.imp(0, 0) == top
    assert p.imp(top, c1) == c1


def test_duality_of_implications():
    # complement swaps the adjoints: ~(U -> V) relates to co-implication
    # of the complementary down-sets
    for p in [chain(3), fork()]:
        h = FiniteHeyting(p)
        full = p.full_mask
        for u, v in itertools.product(h.carrier, repeat=2):
            assert full ^ p.imp(u, v) == p.down_closure((full ^ v) & ~(full ^ u))


# ---------------------------------------------------------------------------
# evaluation and validity


def test_eval_bd0_refuted_on_two_chain():
    p = chain(2)
    v = {"p0": p.mask_of(["c1"])}
    assert p.names_of(eval_formula(p, v, bd(0))) == ["c1"]


def test_eval_missing_atom():
    with pytest.raises(MissingAtom):
        eval_formula(chain(2), {}, parse("p & q"))


def test_peirce_refuted_on_two_chain():
    p = chain(2)
    res = is_valid(p, parse("((p -> q) -> p) -> p"))
    assert not res.valid
    assert res.valuation == {"p": p.mask_of(["c1"]), "q": 0}
    # the witness is the lexicographically first refutation
    assert eval_formula(p, res.valuation, parse("((p -> q) -> p) -> p")) != p.full_mask


def test_weak_excluded_middle_needs_a_fork():
    wem = parse("~p | ~~p")
    assert is_valid(chain(3), wem).valid
    res = is_valid(fork(), wem)
    assert not res.valid


def test_intuitionistic_theorems_valid_everywhere():
    for f in [parse("p -> p"), parse("p -> (q -> p)"), parse("false -> p"),
              parse("~~(p | ~p)")]:
        for n in range(1, 4):
            for p in enumerate_posets(n):
                assert is_valid(p, f).valid


def test_budget_exceeded():
    p = fork()
    with limits(budget=10), pytest.raises(BudgetExceeded):
        is_valid(p, parse("p | q | r | s"))


def test_validity_checked_counts():
    p = chain(2)
    res = is_valid(p, parse("p -> p"))
    assert res.valid and res.checked == 3  # |Up(2-chain)| = 3, one atom


def test_is_valid_past_64_elements():
    c70 = chain(70)
    res = is_valid(c70, parse("p | ~p"))
    assert not res.valid and res.valuation == {"p": c70.mask_of(["c69"])} and res.checked == 2
    names = [f"{x}{i}" for x in "ab" for i in range(40)]
    two = from_covers(names, [[f"{x}{i}", f"{x}{i + 1}"] for x in "ab" for i in range(39)])
    res = is_valid(two, parse("(p -> q) | (q -> p)"))
    assert res.valid and res.checked == 1681**2  # 41 * 41 up-sets


def test_bd_validity_matches_depth():
    # frame validates bd(d) iff its depth is <= d
    for n in range(1, 5):
        for p in enumerate_posets(n):
            for d in range(4):
                assert is_valid(p, bd(d)).valid == (p.depth() <= d)


# ---------------------------------------------------------------------------
# join-irreducibles, spectrum, Stone map


def test_join_irreducibles_of_upsets_are_principal():
    for p in [chain(3), fork()]:
        h = FiniteHeyting(p)
        assert join_irreducibles(h) == sorted(p.up[i] for i in range(len(p)))


def test_upset_layer_matches_the_replaced_code():
    # growth against depth-first up-sets, the transpose against summed
    # columns, columns against the carrier-index scan for join-irreducibles,
    # and Up(P.op()) read off Up(P) against its own enumeration and transpose
    frames = [Poset((), ())] + [p for n in range(1, 6) for p in enumerate_posets(n)]
    frames += [k.face_poset() for k in corpus_complexes().values()]
    frames += [Poset([f"a{i}" for i in range(12)], [1 << i for i in range(12)]), chain(70)]
    for p in frames + [p.op() for p in frames]:
        h = FiniteHeyting(p)
        assert h.carrier == oracles.all_upsets(p)
        assert h.tables() == oracles.membership_columns(h)
        assert join_irreducibles(h) == oracles.join_irreducibles_by_covers(h.carrier)
        op, want = h.op(), FiniteHeyting(p.op())
        assert (op.frame.up, op.frame.down) == (want.frame.up, want.frame.down)
        assert (op.carrier, op.tables()) == (want.carrier, want.tables())


def test_join_irreducibles_oracle():
    # brute force: j is join-irreducible iff j != 0 and j is not the join
    # of the elements strictly below it; the 70-chain is wider than a
    # uint64 mask
    frames = list(enumerate_posets(4)) + [chain(70)]
    frames += [k.face_poset() for k in corpus_complexes().values()
               if len(FiniteHeyting(k.face_poset())) <= 167]
    for p in frames:
        for h in (FiniteHeyting(p), FiniteHeyting(p.op())):
            assert join_irreducibles(h) == oracles.join_irreducibles(h)


def test_spec_reverses_into_original_frame():
    # canonical forms agree with the explicit map x -> up(x) that
    # verify_esakia checks
    for n in range(1, 7):
        for p in enumerate_posets(n):
            assert oracles.is_isomorphic(spec(FiniteHeyting(p)), p)
            assert verify_esakia(p).entries[0][1]


def test_spec_map_fails_without_a_principal_upset(monkeypatch):
    real = algebra.join_irreducibles

    def top_for_the_largest(h):  # one principal up-set replaced by the top
        jis = real(h)
        return sorted(jis[:-1] + [h.frame.full_mask if jis[-1] != h.frame.full_mask else 0])

    monkeypatch.setattr(algebra, "join_irreducibles", top_for_the_largest)
    monkeypatch.setattr(pipeline, "join_irreducibles", top_for_the_largest)
    for n in range(1, 5):
        for p in enumerate_posets(n):
            assert not verify_esakia(p).entries[0][1]


def test_stone_map_is_heyting_isomorphism():
    # the cover check against the oracles, on the Stone map and on broken
    # maps into Up(Spec): two images swapped (bottom's, then a random pair),
    # the images reversed, which is never monotone, and maps that are not
    # onto Up(Spec), two up-sets sent alike or one up-set left out; the
    # failure list is empty exactly when the map is a bijection onto Up(Spec)
    # that the all-pairs check passes
    rng = random.Random(0)
    for p in [q for n in range(1, 6) for base in enumerate_posets(n) for q in (base, base.op())]:
        mapping, sp, failures = stone_map(FiniteHeyting(p))
        ups, spec_ups = oracles.all_upsets(p), oracles.all_upsets(sp)
        assert failures == [] and sorted(mapping.values()) == spec_ups
        assert oracles.hom_failures(mapping, p, sp) == []
        keys = list(mapping)
        broken = []
        for u, v in ((keys[0], rng.choice(keys[1:])), rng.sample(keys, 2)):
            swapped = {**mapping, u: mapping[v], v: mapping[u]}
            caught = oracles.hom_failures(swapped, p, sp) != []
            assert caught or u != keys[0]
            broken += [swapped, {**mapping, u: mapping[v]}, {**mapping, v: mapping[u]}]
            broken += [{w: fw for w, fw in mapping.items() if w != u}]
        broken.append(dict(zip(keys, reversed(mapping.values()))))
        for m in broken:
            onto = sorted(m) == ups and sorted(m.values()) == spec_ups
            iso = onto and oracles.hom_failures(m, p, sp) == []
            assert (_cover_failures(m, p, sp) == []) == iso


def test_stone_map_fails_on_a_short_join_irreducible_list(monkeypatch):
    # with the join-irreducible up(x) dropped, the map u -> {filters
    # containing u} sends up(x) and up(x) minus x alike
    real = algebra.join_irreducibles
    monkeypatch.setattr(algebra, "join_irreducibles", lambda h: real(h)[:-1])
    for n in range(1, 5):
        for p in enumerate_posets(n):
            assert "not injective" in stone_map(FiniteHeyting(p))[2]


def test_cover_check_names_a_cover_on_either_side():
    p = chain(2)
    mapping, sp, _ = stone_map(FiniteHeyting(p))
    swapped = {**mapping, 0: mapping[2], 2: mapping[0]}  # the images of {} and {c1}
    assert _cover_failures(swapped, p, sp)[0] == ("Up(A)", 0, 1)
    # Up(2-antichain) onto the 4-chain Up(3-chain) is monotone, its inverse is not:
    # {c2} < {c1, c2} goes back to {a0} and {a1}
    a = Poset(["a0", "a1"], [1, 2])
    assert _cover_failures({0: 0, 1: 4, 2: 6, 3: 7}, a, chain(3)) == [("Up(Spec)", 4, 1)]


def test_esakia_scales_with_covers_not_pairs():
    # 16 384 up-sets: the all-pairs check and the canonical forms took hours
    a = Poset([f"a{i}" for i in range(14)], [1 << i for i in range(14)])
    start = time.perf_counter()
    assert verify_esakia(a).ok
    assert time.perf_counter() - start < 5


def test_inner_algebras_take_the_callers_cap():
    # x and y below r: Up has 5 sets, each star up(x) and up(y) 3. 5**7 valuations
    # fill more than one block, so is_valid builds the star algebras, under the cap
    frame = fork().op()
    h, f = FiniteHeyting(frame), parse(" | ".join(f"p{i}" for i in range(7)))
    with limits(cap=2, budget=len(h) ** 7), pytest.raises(CapExceeded):
        is_valid(frame, f, algebra=h)
    with limits(cap=3, budget=len(h) ** 7):
        assert not is_valid(frame, f, algebra=h).valid


def test_algebra_depth():
    # the longest prime-filter chain of Up(P) is the depth of P
    assert spec(FiniteHeyting(chain(3))).depth() == 2
    assert spec(FiniteHeyting(fork())).depth() == 1


# ---------------------------------------------------------------------------
# functoriality


def test_up_of_pmorphism_is_injective_hom_for_surjections():
    p = from_covers(
        ["bot", "l", "r", "top"],
        [["bot", "l"], ["bot", "r"], ["l", "top"], ["r", "top"]],
    )
    q = chain(2)
    f = MonotoneMap(p, q, ("c0", "c1", "c1", "c1"))
    up_f = {u: f.preimage_mask(u) for u in FiniteHeyting(q).carrier}
    assert len(set(up_f.values())) == len(up_f)
    assert all(up_f[q.imp(u, v)] == p.imp(up_f[u], up_f[v]) for u in up_f for v in up_f)


def test_dual_map_check_raises_exactly_when_the_oracle_fails():
    # over every monotone map between posets of at most 3 elements: the dual map
    # is a Heyting homomorphism exactly when the map is a p-morphism
    frames = [p for n in range(1, 4) for p in enumerate_posets(n)]
    maps = []
    for a, b in itertools.product(frames, repeat=2):
        for images in itertools.product(b.elements, repeat=len(a)):
            try:
                maps.append(MonotoneMap(a, b, images))
            except NotMonotone:
                pass
    fails = [oracles.hom_failures({u: f.preimage_mask(u) for u in FiniteHeyting(f.cod).carrier},
                                  f.cod, f.dom) != [] for f in maps]
    assert any(fails) and not all(fails)
    assert [not is_pmorphism(f)[0] for f in maps] == fails


def test_valuation_from_json():
    p = chain(2)
    v = valuation_from_json(p, {"p": ["c1"], "q": []})
    assert v == {"p": p.mask_of(["c1"]), "q": 0}
    with pytest.raises(Exception):
        valuation_from_json(p, {"p": ["c0"]})  # {c0} is not an up-set


def test_valuation_json_round_trips_the_refutations_on_the_corpus():
    refuted = 0
    for p in corpus_posets():
        for f in (parse("p | ~p"), parse("(p -> q) | (q -> p)"), bd(1)):
            res = is_valid(p, f)
            if res.valid:
                continue
            refuted += 1
            data = valuation_to_json(p, res.valuation)
            assert list(data) == sorted(res.valuation)
            assert valuation_from_json(p, data) == res.valuation
            assert valuation_from_json(p, json.dumps(data)) == res.valuation
    assert refuted > 100
