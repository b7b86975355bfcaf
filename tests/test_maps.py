"""Monotone maps, p-morphisms, order isomorphisms and the chain list of
the nerve, each against the name-pair and tuple code in oracles.py.

Every check runs again on relabelled copies whose element order is not a
linear extension: code that walks only the elements above a chain, or
only higher indices, agrees with the oracles on a linear extension and
drops chains elsewhere.
"""

import itertools
import random

import pytest

import oracles
from polylogic import nerve as nerve_mod, pipeline
from polylogic.algebra import is_valid
from polylogic.errors import NotMonotone
from polylogic.formula import parse
from polylogic.nerve import max_pmorphism, realize, transfer_countermodel
from polylogic.pipeline import verify_nerve
from polylogic.poset import MonotoneMap, Poset, enumerate_posets, is_pmorphism


def relabelled(p, order):
    """p with its elements listed in the given order of old indices."""
    pos = {old: new for new, old in enumerate(order)}
    up = [sum(1 << pos[j] for j in range(len(p)) if p.up[old] >> j & 1) for old in order]
    return Poset([p.elements[i] for i in order], up)


def is_linear_extension(p):
    """Whether no element lies above one with a larger index."""
    return not any(p.up[i] & (1 << i) - 1 for i in range(len(p)))


def not_linear_copies(posets, seed=0):
    """For each poset with a comparable pair, two copies whose element order
    is not a linear extension: one listing every element before all those
    below it, and one random order."""
    rng = random.Random(seed)
    out = []
    for p in posets:
        if all(up == 1 << i for i, up in enumerate(p.up)):
            continue  # an antichain: every order is a linear extension
        out.append(relabelled(p, sorted(range(len(p)), key=lambda i: p.up[i].bit_count())))
        while is_linear_extension(q := relabelled(p, rng.sample(range(len(p)), len(p)))):
            pass
        out.append(q)
    return out


def posets_up_to(n):
    return [p for k in range(1, n + 1) for p in enumerate_posets(k)]


SMALL = [Poset((), ())] + posets_up_to(3)
SMALL += not_linear_copies(SMALL)
UP_TO_5 = posets_up_to(5)
UP_TO_5 += not_linear_copies(UP_TO_5)


def test_relabelled_copies_are_not_linear_extensions():
    copies = not_linear_copies(posets_up_to(3))
    assert len(copies) == 2 * 5  # the 2-chain and the 3-posets but the antichain
    assert not any(is_linear_extension(q) for q in copies)


def test_maps_match_the_name_pair_oracles():
    checked = monotone = 0
    for dom, cod in itertools.product(SMALL, repeat=2):
        for names in itertools.product(cod.elements, repeat=len(dom)):
            checked += 1
            as_dict = dict(zip(dom.elements, names))
            assert dom.is_order_isomorphism(cod, as_dict) == oracles.is_order_isomorphism(
                dom, cod, as_dict)
            if oracles.monotone_violation(dom, cod, names) is not None:
                with pytest.raises(NotMonotone):
                    MonotoneMap(dom, cod, names)
                continue
            monotone += 1
            f = MonotoneMap(dom, cod, names)
            assert is_pmorphism(f) == oracles.is_pmorphism(f)
            for mask in range(1 << len(dom)):
                assert f.image_mask(mask) == oracles.image_mask(f, mask)
            for mask in range(1 << len(cod)):
                assert f.preimage_mask(mask) == oracles.preimage_mask(f, mask)
            assert f.is_surjective() == (oracles.image_mask(f, dom.full_mask) == cod.full_mask)
            assert [f(e) for e in dom.elements] == list(names)
    assert monotone < checked


def test_chains_nerve_and_realize_match_the_tuple_oracles():
    for p in UP_TO_5:
        got = nerve_mod._maximal_chains(p)
        assert len(got) == len(set(got))
        assert set(got) == {sum(1 << i for i in c) for c in oracles.maximal_chains(p)}
        k, old_k = realize(p), oracles.realize(p)
        assert (k.simplices, k.vertices) == (old_k.simplices, old_k.vertices)
        # the nerve lists the chains in simplex order
        nv, old = k.face_poset(), oracles.nerve(p)
        order = [old.index[k.name(s)] for s in k.simplices]
        old = relabelled(old, order)
        assert (nv.elements, nv.up) == (old.elements, old.up)
        pm = max_pmorphism(p, k)
        assert (pm.dom.elements, pm.dom.up) == (old.elements, old.up)
        assert list(pm.mapping) == [oracles.max_images(p)[i] for i in order]


def test_transfer_matches_the_nerve_matched_by_name():
    f = parse("(p -> q) | (q -> p) | ~p")
    refuted = 0
    for p in UP_TO_5[::3]:
        res = is_valid(p, f)
        if not res.valid:
            refuted += 1
            pcm = transfer_countermodel(p, res.valuation, f)
            assert pcm.valuation == oracles.transferred_valuation(p, res.valuation)
    assert refuted > 10


def test_one_chain_list_per_call(monkeypatch):
    calls = []
    real = nerve_mod._maximal_chains
    counted = lambda a, *cap: calls.append(a) or real(a, *cap)
    monkeypatch.setattr(nerve_mod, "_maximal_chains", counted)
    monkeypatch.setattr(pipeline, "_maximal_chains", counted)  # verify_nerve binds it by name
    p = UP_TO_5[-1]  # the 5-chain in an order that is not a linear extension

    def transfer(a):
        return transfer_countermodel(a, {"p": a.maximal_of(a.full_mask)}, parse("p | ~p"))

    for fn in (realize, verify_nerve, transfer):
        calls.clear()
        fn(p)
        assert calls == [p], fn.__name__
