import pytest

import oracles
from polylogic.corpus import corpus_complexes
from polylogic.errors import EmptyPoset, NotACountermodel
from polylogic.formula import bd, parse
from polylogic.nerve import max_pmorphism, realize, transfer_countermodel
from polylogic.poset import Poset, enumerate_posets, from_covers, is_pmorphism
from polylogic.simplicial import DefinableSet


def chain(n):
    return from_covers([f"c{i}" for i in range(n)], [[f"c{i}", f"c{i+1}"] for i in range(n - 1)])


def fork():
    return from_covers(["r", "x", "y"], [["r", "x"], ["r", "y"]])


def test_nerve_of_two_chain():
    nv = realize(chain(2)).face_poset()
    assert sorted(nv.elements) == ["c0", "c0,c1", "c1"]
    up = {e: set(nv.names_of(row)) for e, row in zip(nv.elements, nv.up)}
    assert up == {"c0": {"c0", "c0,c1"}, "c1": {"c1", "c0,c1"}, "c0,c1": {"c0,c1"}}


def test_nerve_of_antichain_is_discrete():
    p = Poset(("x", "y"), (0b01, 0b10))
    nv = realize(p).face_poset()
    assert len(nv) == 2 and nv.depth() == 0


def test_nerve_chain_counts():
    # nerve of an n-chain is the poset of nonempty subsets: 2^n - 1 chains
    for n in range(1, 5):
        assert len(realize(chain(n)).face_poset()) == 2**n - 1


def test_empty_poset_rejected():
    with pytest.raises(EmptyPoset):
        realize(Poset((), ()))


def test_realize_on_standard_basis():
    p = fork()
    k = realize(p)
    assert k.dim() == p.depth() == 1
    assert len(k) == len(oracles.nerve(p))
    # vertices sit on pairwise distinct standard basis vectors
    coords = set(k.vertices.values())
    assert len(coords) == len(p)
    assert all(sum(c) == 1 and set(c) <= {0, 1} for c in coords)


def test_face_poset_depth_is_the_dimension():
    complexes = list(corpus_complexes().values())
    complexes += [realize(p) for n in range(1, 6) for p in enumerate_posets(n)]
    complexes.append(realize(chain(12)))
    assert len(complexes[-1]) == 4095
    for k in complexes:
        assert k.face_poset().depth() == k.dim() == max(map(len, k.simplices)) - 1


def test_realize_face_poset_matches_nerve():
    # the face poset against the chains of p under frozenset inclusion
    for n in range(1, 5):
        for p in enumerate_posets(n):
            old = oracles.nerve(p)
            face = realize(p).face_poset()
            assert old.is_order_isomorphism(face, {e: e for e in old.elements})


def test_max_pmorphism_properties():
    for p in [chain(3), fork()]:
        f = max_pmorphism(p, realize(p))
        ok, witness = is_pmorphism(f)
        assert ok, witness
        assert f.is_surjective()
        # on singleton chains the map is the identity
        for e in p.elements:
            assert f(e) == e


def test_transfer_refutes_on_polyhedron():
    p = chain(2)
    valuation = {"p0": p.mask_of(["c1"])}
    pcm = transfer_countermodel(p, valuation, bd(0))
    assert pcm.complex.dim() == p.depth() == 1
    assert pcm.evaluation != pcm.frame.full_mask
    DefinableSet(pcm.complex, "open", pcm.evaluation)  # raises unless an up-set


def test_transfer_rejects_non_countermodels():
    p = chain(2)
    with pytest.raises(NotACountermodel):
        transfer_countermodel(p, {"p": p.full_mask}, parse("p -> p"))
