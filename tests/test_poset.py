import copy
import itertools
import json
import random
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import enumerate_by_all_extensions, is_isomorphic, minimal_of

from polylogic import corpus, poset
from polylogic.errors import CapExceeded, CycleError, MalformedInput, NotMonotone, UnknownElement
from polylogic.formula import parse
from polylogic.nerve import max_pmorphism
from polylogic.pipeline import find_frame_countermodel
from polylogic.poset import (
    MonotoneMap,
    Poset,
    enumerate_posets,
    from_covers,
    is_pmorphism,
    poset_from_json,
    poset_to_json,
)


def chain(n):
    return from_covers([f"c{i}" for i in range(n)], [[f"c{i}", f"c{i+1}"] for i in range(n - 1)])


def fork():
    # bottom r below incomparable x, y
    return from_covers(["r", "x", "y"], [["r", "x"], ["r", "y"]])


def diamond():
    return from_covers(
        ["bot", "l", "r", "top"],
        [["bot", "l"], ["bot", "r"], ["l", "top"], ["r", "top"]],
    )


# ---------------------------------------------------------------------------
# construction


def test_from_covers_takes_transitive_closure():
    p = chain(3)
    assert p.leq("c0", "c2")
    assert not p.leq("c2", "c0")
    assert p.covers() == [("c0", "c1"), ("c1", "c2")]


def test_from_covers_rejects_cycles_with_witness():
    for covers in (
        [["a", "b"], ["b", "c"], ["c", "a"]],
        [["a", "b"], ["b", "a"]],
        [["d", "a"], ["a", "b"], ["b", "c"], ["c", "b"], ["a", "e"]],  # a cycle above a tail
        [["e", "d"], ["d", "c"], ["c", "b"], ["b", "a"], ["a", "e"], ["a", "c"]],  # a chord
    ):
        with pytest.raises(CycleError) as exc:
            from_covers(["a", "b", "c", "d", "e"], covers)
        cyc = exc.value.cycle
        assert cyc[0] == cyc[-1] and len(set(cyc)) >= 2
        assert all([x, y] in covers for x, y in zip(cyc, cyc[1:]))  # every step is a cover


def random_dag(seed):
    """Elements in a shuffled order, covers going up a hidden linear order."""
    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    hidden = [f"v{i}" for i in range(n)]
    density = rng.choice([0.02, 0.1, 0.3])
    covers = [[hidden[i], hidden[j]] for i in range(n) for j in range(i + 1, n)
              if rng.random() < density]
    return rng.sample(hidden, n), covers


def random_digraph(seed):
    """Elements in a shuffled order, pairs drawn in both directions: 21 of
    seeds 0-39 give a list with a cycle."""
    rng = random.Random(seed)
    n = rng.randrange(2, 12)
    names = [f"v{i}" for i in range(n)]
    density = rng.choice([0.1, 0.2, 0.4])
    covers = [[a, b] for a in names for b in names if a != b and rng.random() < density]
    return rng.sample(names, n), covers


CHAIN_300 = [f"c{i}" for i in range(300)]
CHAIN_300_COVERS = [[a, b] for a, b in zip(CHAIN_300, CHAIN_300[1:])]


@pytest.mark.parametrize("elements, covers", [
    *(pytest.param(*random_dag(seed), id=f"dag-{seed}") for seed in range(40)),
    *(pytest.param(*random_digraph(seed), id=f"digraph-{seed}") for seed in range(40)),
    pytest.param(CHAIN_300, CHAIN_300_COVERS, id="chain-300"),
    pytest.param(CHAIN_300[::-1], CHAIN_300_COVERS, id="chain-300-listed-top-down"),
    pytest.param([f"a{i}" for i in range(300)], [], id="antichain-300"),
])
def test_from_covers_closure_matches_reachability(elements, covers, monkeypatch):
    # the down rows come from the cover list, not from a transpose of the up rows
    monkeypatch.setattr(poset, "_transpose", lambda *a: pytest.fail("_transpose called"))
    reach = oracles.reachable(elements, covers)
    if any(r >> j & 1 and reach[j] >> i & 1 for i, r in enumerate(reach) for j in range(i)):
        with pytest.raises(CycleError) as exc:  # two distinct elements reach each other
            from_covers(elements, covers)
        cyc = exc.value.cycle
        assert cyc[0] == cyc[-1] and len(cyc) >= 3
        assert all([x, y] in covers for x, y in zip(cyc, cyc[1:]))  # every step is a cover
        return
    p = from_covers(elements, covers)
    assert list(p.up) == reach
    assert list(p.down) == [sum(1 << i for i, u in enumerate(p.up) if u >> j & 1)
                            for j in range(len(p))]


@pytest.mark.parametrize("elements", [
    pytest.param(CHAIN_300, id="chain-300"),
    pytest.param(CHAIN_300[::-1], id="chain-300-listed-top-down"),
])
def test_from_covers_closes_in_one_pass(elements, monkeypatch):
    """Each element's up-mask is one OR over its successors' finished masks."""
    calls = []
    union = poset._union
    monkeypatch.setattr(poset, "_union", lambda rows, mask: calls.append(mask) or union(rows, mask))
    assert from_covers(elements, CHAIN_300_COVERS).depth() == 299
    assert len(calls) <= len(elements)


def test_cover_rows_match_the_brute_force_oracle():
    orders = corpus.corpus_posets() + [k.face_poset() for k in corpus.corpus_complexes().values()]
    assert len(orders) == 94
    for p in orders:
        for q in (p, p.op()):  # the down rows of p are the up rows of p.op()
            assert poset._cover_rows(q.up) == oracles.covers(q.up)


def test_bundled_posets_read_and_write_back_byte_identical():
    files = sorted((Path(__file__).resolve().parents[1] / "corpus").glob("poset*.json"))
    assert len(files) == 87
    for path in files:
        text = path.read_text()
        assert json.dumps(poset_to_json(poset_from_json(text)), indent=1) + "\n" == text, path.name


@pytest.mark.parametrize("up, message", [
    ([0b010, 0b010, 0b100], "relation not reflexive at a"),
    ([0b1111, 0b010, 0b100], "up-mask references unknown element"),
    ([-1, 0b010, 0b100], "up-mask references unknown element"),
    ([0b011, 0b110, 0b100], "relation not transitive"),
    ([0b011, 0b011, 0b100], "relation not antisymmetric on a, b"),
])
def test_poset_rejects_up_masks_that_are_no_order(up, message):
    with pytest.raises(MalformedInput, match=message):
        Poset(["a", "b", "c"], up)


def test_from_covers_rejects_unknown_elements():
    with pytest.raises(UnknownElement):
        from_covers(["a"], [["a", "z"]])


def test_json_round_trip():
    p = diamond()
    q = poset_from_json(poset_to_json(p))
    assert q.elements == p.elements
    assert q.up == p.up


# ---------------------------------------------------------------------------
# order queries, against brute-force oracles


def brute_upsets(p):
    n = len(p)
    out = []
    for mask in range(1 << n):
        if all(
            not (mask >> i & 1) or (p.up[i] & mask) == p.up[i] for i in range(n)
        ):
            out.append(mask)
    return out


@pytest.mark.parametrize("make", [lambda: chain(1), lambda: chain(4), fork, diamond])
def test_all_upsets_matches_subset_filter(make):
    p = make()
    assert p.all_upsets() == brute_upsets(p)


def test_all_upsets_are_sorted_and_capped():
    p = fork()
    ups = p.all_upsets()
    assert ups == sorted(ups)
    with pytest.raises(CapExceeded):
        p.all_upsets(cap=3)


def test_growth_stops_at_the_cap():
    # a 40-antichain has 2**40 up-sets; growth doubles the list once per
    # element and stops at the first doubling past the cap
    p = Poset([f"a{i}" for i in range(40)], [1 << i for i in range(40)])
    with pytest.raises(CapExceeded) as exc:
        p.all_upsets(cap=1024)
    assert 1024 < exc.value.count <= 2 * 1024 + 1


def test_downsets_are_complements_of_upsets():
    p = diamond()
    full = p.full_mask
    assert sorted(full ^ u for u in p.all_upsets()) == p.op().all_upsets()


def test_op_is_the_opposite_order():
    # on every poset of at most five elements: op is an involution, its
    # up-sets are the complements of the up-sets (the down-sets), and its
    # maximal elements are the minimal ones, on every subset
    posets = [Poset((), ())] + [p for n in range(1, 6) for p in enumerate_posets(n)]
    for p in posets:
        q = p.op()
        assert (q.elements, q.up, q.down) == (p.elements, p.down, p.up)
        assert (q.op().elements, q.op().up) == (p.elements, p.up)
        assert q.all_upsets() == sorted(p.full_mask ^ u for u in p.all_upsets())
        for mask in range(1 << len(p)):
            assert q.maximal_of(mask) == minimal_of(p, mask)


def brute_depth(p):
    # longest strictly ascending path, counted in edges
    best = -1
    n = len(p)

    def walk(i, d):
        nonlocal best
        best = max(best, d)
        for j in range(n):
            if j != i and p.up[i] >> j & 1:
                walk(j, d + 1)

    for i in range(n):
        walk(i, 0)
    return best


def test_depth_against_path_oracle():
    for p in [Poset((), ())] + [p for n in range(1, 6) for p in enumerate_posets(n)]:
        for q in (p, p.op()):
            assert q.depth() == brute_depth(q)
    assert chain(4).depth() == 3
    assert fork().depth() == 1


def test_up_down_closures():
    p = diamond()
    assert p.names_of(p.up_closure(p.mask_of(["l"]))) == ["l", "top"]
    assert p.names_of(p.down_closure(p.mask_of(["l"]))) == ["bot", "l"]
    assert p.is_upset(p.mask_of(["l", "top"]))
    assert not p.is_upset(p.mask_of(["l"]))


def test_minimal_maximal():
    p = diamond()
    assert p.names_of(p.op().maximal_of(p.full_mask)) == ["bot"]
    assert p.names_of(p.maximal_of(p.mask_of(["l", "r", "bot"]))) == ["l", "r"]


# ---------------------------------------------------------------------------
# isomorphism and enumeration


def test_isomorphism_detects_relabellings():
    p = diamond()
    q = from_covers(
        ["1", "2", "3", "4"], [["4", "2"], ["4", "3"], ["2", "1"], ["3", "1"]]
    )
    assert is_isomorphic(p, q)
    assert not is_isomorphic(p, chain(4))


def brute_poset_count(n):
    """Number of posets on n labelled points, deduped by permutation."""
    idx = list(range(n))
    seen = set()
    for rel in itertools.product([0, 1], repeat=n * n):
        leq = [[rel[i * n + j] for j in range(n)] for i in range(n)]
        if not all(leq[i][i] for i in idx):
            continue
        if any(leq[i][j] and leq[j][i] and i != j for i in idx for j in idx):
            continue
        if any(
            leq[i][j] and leq[j][k] and not leq[i][k]
            for i in idx for j in idx for k in idx
        ):
            continue
        canon = min(
            tuple(leq[pi[i]][pi[j]] for i in idx for j in idx)
            for pi in itertools.permutations(idx)
        )
        seen.add(canon)
    return len(seen)


def test_enumeration_counts():
    counts = [len(list(enumerate_posets(n))) for n in range(1, 6)]
    assert counts == [1, 2, 5, 16, 63]
    assert brute_poset_count(3) == 5


def test_enumeration_yields_pairwise_nonisomorphic():
    ps = list(enumerate_posets(4))
    forms = {poset._canonical_form(p.up, len(p)) for p in ps}
    assert len(forms) == len(ps)


def test_enumeration_depth_filter():
    assert all(p.depth() <= 1 for p in enumerate_posets(4, max_depth=1))
    flat = list(enumerate_posets(3, max_depth=0))
    assert len(flat) == 1  # the antichain
    assert list(enumerate_posets(1, max_depth=-1)) == []
    assert list(enumerate_posets(3, max_depth=-1)) == []


# posets on n unlabelled points, n = 1..7 (OEIS A000112)
A000112 = [1, 2, 5, 16, 63, 318, 2045]


@pytest.mark.parametrize(
    "n, depths", [(n, (None, 0, 1, 2, 3)) for n in range(1, 7)] + [(7, (None,))]
)
def test_enumeration_matches_all_extensions_oracle(n, depths):
    # adding only maximal elements gives the same classes in the same order,
    # and without a depth bound both sides have one class per n-poset
    for d in depths:
        got, want = [p.up for p in enumerate_posets(n, d)], enumerate_by_all_extensions(n, d)
        assert got == want
        if d is None:
            assert len(got) == len(want) == A000112[n - 1]


@pytest.fixture
def cold_levels(monkeypatch):
    """An empty level cache for this test; the process's cache is restored after."""
    monkeypatch.setattr(poset, "_LEVELS", {})


@pytest.fixture
def count_forms(monkeypatch):
    """The list of sizes passed to _canonical_form, one entry per call."""
    canonical_form = poset._canonical_form
    calls = []

    def counting(up, k):
        calls.append(k)
        return canonical_form(up, k)

    monkeypatch.setattr(poset, "_canonical_form", counting)
    return calls


@pytest.mark.parametrize("n, max_depth, forms", [(7, None, 6377), (6, 2, 751)])
def test_enumeration_canonical_form_count(cold_levels, count_forms, n, max_depth, forms):
    # one extension per down-set; a new element in every compatible
    # (down-set, up-set) pair makes 18 709 and 1 806 forms here
    first = [p.up for p in enumerate_posets(n, max_depth)]
    assert len(count_forms) == forms
    count_forms.clear()
    assert [p.up for p in enumerate_posets(n, max_depth)] == first
    assert count_forms == []


def test_search_computes_each_class_once(cold_levels, count_forms):
    # the size-7 search enumerates the posets of sizes 1..6 above the root
    f = parse("p->(q->p)")
    assert not find_frame_countermodel(f, 7).refuted
    assert len(count_forms) == 938
    count_forms.clear()
    assert find_frame_countermodel(f, 7).bounds["searched_size"] == 7
    assert count_forms == []


DEPTHS = st.sampled_from(["none", 0, 1, 2, 3, "n-1", "n+2"])


def depth_bound(n, d):
    return {"none": None, "n-1": n - 1, "n+2": n + 2}.get(d, d)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), DEPTHS), min_size=1, max_size=8))
def test_interleaved_calls_match_the_oracle(calls):
    # any order of calls, cold or warm, gives the oracle's classes in its order
    with patch.object(poset, "_LEVELS", {}):
        for _ in range(2):
            for n, d in calls:
                d = depth_bound(n, d)
                assert [p.up for p in enumerate_posets(n, d)] == enumerate_by_all_extensions(n, d)
            calls = calls[::-1]


def test_depth_bounds_past_n_minus_1_share_the_unbounded_levels(cold_levels, count_forms):
    assert len(list(enumerate_posets(5))) == 63
    count_forms.clear()
    for d in (4, 5, 9):
        assert [p.up for p in enumerate_posets(5, d)] == enumerate_by_all_extensions(5, None)
    assert count_forms == []
    assert list(poset._LEVELS) == [None]


@pytest.mark.parametrize("fail_at", [1, 5, 10, 100, 600])
def test_a_failed_level_is_not_cached(cold_levels, monkeypatch, fail_at):
    # levels 2..6 take 2, 7, 28, 135 and 766 forms: each failure falls at the
    # first call of a level or inside one
    canonical_form = poset._canonical_form
    calls = []

    def failing(up, k):
        calls.append(k)
        if len(calls) == fail_at:
            raise RuntimeError("interrupted")
        return canonical_form(up, k)

    monkeypatch.setattr(poset, "_canonical_form", failing)
    with pytest.raises(RuntimeError):
        list(enumerate_posets(6))
    whole = 1 + sum(done < fail_at for done in (2, 9, 37, 172))
    assert [len(level) for level in poset._LEVELS[None]] == [1, 2, 5, 16, 63][:whole]
    monkeypatch.setattr(poset, "_canonical_form", canonical_form)
    for n in range(6, 0, -1):
        assert [p.up for p in enumerate_posets(n)] == enumerate_by_all_extensions(n, None)
    assert [len(level) for level in poset._LEVELS[None]] == [1, 2, 5, 16, 63, 318]


def test_an_abandoned_generator_leaves_whole_levels(cold_levels, count_forms):
    gen = enumerate_posets(6, 2)
    next(gen)
    gen.close()
    count_forms.clear()
    assert [p.up for p in enumerate_posets(6, 2)] == enumerate_by_all_extensions(6, 2)
    assert count_forms == []
    assert [len(level) for level in poset._LEVELS[2]] == [
        len(enumerate_by_all_extensions(n, 2)) for n in range(1, 7)]


def test_enumeration_rejects_sizes_below_1_and_negative_depths_are_empty(cold_levels):
    for n in (0, -1):
        with pytest.raises(ValueError):
            list(enumerate_posets(n))
    for _ in range(2):
        assert all(list(enumerate_posets(n, -1)) == [] for n in range(1, 6))
    assert poset._LEVELS == {}


# ---------------------------------------------------------------------------
# maps


def test_monotone_map_validation():
    p, q = chain(3), chain(2)
    MonotoneMap(p, q, ("c0", "c0", "c1"))
    with pytest.raises(NotMonotone):
        MonotoneMap(p, q, ("c1", "c0", "c1"))
    with pytest.raises(NotMonotone, match="total"):
        MonotoneMap(p, q, ("c0", "c0"))
    with pytest.raises(UnknownElement):
        MonotoneMap(p, q, ("c0", "c0", "c2"))


def test_monotone_maps_are_immutable_and_compare_by_their_fields():
    p, q = chain(3), chain(2)
    f, g = MonotoneMap(p, q, ("c0", "c0", "c1")), MonotoneMap(p, q, ("c0", "c0", "c1"))
    for name in ("dom", "cod", "mapping", "image", "_fibres", "other"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    with pytest.raises(AttributeError):
        del f.mapping
    assert f == g and hash(f) == hash(g) and f.image == (0, 0, 1) and copy.copy(f) == f
    assert f != MonotoneMap(p, q, ("c0", "c1", "c1")) and f != f.mapping
    assert repr(f) == f"MonotoneMap(dom={p!r}, cod={q!r}, mapping=('c0', 'c0', 'c1'))"


def test_pmorphism_back_condition():
    p, q = diamond(), chain(2)
    # collapse: bot -> c0, everything else -> c1
    f = MonotoneMap(p, q, ("c0", "c1", "c1", "c1"))
    ok, _ = is_pmorphism(f)
    assert ok and f.is_surjective()
    # monotone but not a p-morphism: l sits below top yet its image c0
    # sits below c1 with no witness above l ... take fork -> chain sending
    # only y up
    g = MonotoneMap(fork(), q, ("c0", "c0", "c1"))
    ok, witness = is_pmorphism(g)
    assert not ok
    assert witness == ("x", "c1")


def test_pmorphisms_compose():
    p = diamond()
    q = fork()
    r = chain(2)
    f = MonotoneMap(p, q, ("r", "x", "x", "x"))  # not a p-morphism, just monotone
    g = MonotoneMap(q, r, ("c0", "c1", "c1"))
    h = MonotoneMap(p, r, tuple(g(f(e)) for e in p.elements))
    for e in p.elements:
        assert h(e) == g(f(e))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_max_map_masks_match_the_oracles(n):
    rng = random.Random(n)
    for a in enumerate_posets(n):
        f = max_pmorphism(a)
        dom_masks = [0, f.dom.full_mask] + [rng.getrandbits(len(f.dom)) for _ in range(50)]
        assert [f.image_mask(m) for m in dom_masks] == [oracles.image_mask(f, m) for m in dom_masks]
        assert [f.preimage_mask(m) for m in range(1 << n)] == [
            oracles.preimage_mask(f, m) for m in range(1 << n)]


def test_image_preimage_masks():
    p, q = diamond(), chain(2)
    f = MonotoneMap(p, q, ("c0", "c1", "c1", "c1"))
    assert q.names_of(f.image_mask(p.mask_of(["l", "bot"]))) == ["c0", "c1"]
    assert p.names_of(f.preimage_mask(q.mask_of(["c1"]))) == ["l", "r", "top"]
