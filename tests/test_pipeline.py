import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import polylogic
from polylogic import algebra, corpus, pipeline, poset
from polylogic.algebra import eval_formula
from polylogic.errors import SoundnessError
from polylogic.formula import bd, parse
from polylogic.nerve import realize, transfer_countermodel
from polylogic.pipeline import (
    NO_COUNTERMODEL,
    REFUTED_ON_FRAME,
    REFUTED_ON_POLYHEDRON,
    decide_in_bd_logic,
    find_frame_countermodel,
    polyhedral_countermodel,
    verify_dim_bd,
    verify_esakia,
    verify_hneg,
    verify_ji,
    verify_nerve,
)
from polylogic.poset import MonotoneMap, Poset, enumerate_posets, from_covers, limits
from polylogic.simplicial import DefinableSet, build_complex


def test_frame_countermodel_for_excluded_middle():
    v = find_frame_countermodel(parse("p | ~p"), max_size=3)
    assert v.status == REFUTED_ON_FRAME
    assert v.frame.depth() >= 1
    assert eval_formula(v.frame, v.valuation, parse("p | ~p")) != v.frame.full_mask


def test_no_countermodel_for_theorems():
    v = find_frame_countermodel(parse("p -> (q -> p)"), max_size=4)
    assert v.status == NO_COUNTERMODEL
    assert not v.refuted


def test_bd_membership_decisions():
    # bd(d) is refutable below depth bound d+1 but not at depth <= d
    for d in range(3):
        assert not decide_in_bd_logic(bd(d), d, max_size=5).refuted
        assert decide_in_bd_logic(bd(d), d + 1, max_size=d + 2).refuted


def test_polyhedral_countermodels_dimension_one():
    for text in ["p | ~p", "((p -> q) -> p) -> p", "~p | ~~p"]:
        v = polyhedral_countermodel(parse(text), d=2, max_size=4)
        assert v.status == REFUTED_ON_POLYHEDRON
        assert v.polyhedral.complex.dim() == 1
        j = v.to_json()
        assert j["polyhedral"]["dimension"] == 1


def test_verify_dim_bd_square():
    rep = verify_dim_bd(corpus.square_complex())
    assert rep.ok, list(rep.lines())


def test_verify_ji_and_esakia_reports():
    assert verify_ji(corpus.square_complex()).ok
    for p in enumerate_posets(3):
        assert verify_esakia(p).ok


def test_verify_ji_matches_the_down_set_oracle():
    # PC^c(K) as the up-sets of the opposite face order reports what the
    # separate down-set carrier reported, the empty complex included
    subjects = list(corpus.corpus_complexes().values()) + [build_complex({}, [])]
    subjects += [realize(p) for n in range(1, 5) for p in enumerate_posets(n)]
    assert len(subjects) == 7 + 1 + 24
    for k in subjects:
        assert verify_ji(k).to_json() == oracles.verify_ji(k).to_json()


def test_verify_ji_scans_each_algebra_once(monkeypatch):
    calls = []
    real = algebra.join_irreducibles
    counted = lambda h: calls.append(h) or real(h)
    monkeypatch.setattr(algebra, "join_irreducibles", counted)  # spec() calls it here
    monkeypatch.setattr(pipeline, "join_irreducibles", counted)
    verify_ji(corpus.square_complex())
    assert len(calls) == 2


def test_each_suite_call_enumerates_once(monkeypatch):
    # verify_ji reads PC^c off PC^o, and verify_esakia proves the Stone map
    # onto Up(Spec) by cover steps and scans Up(A) for join-irreducibles once
    enumerations, scans = [], []
    upsets, scan = poset.Poset.all_upsets, algebra.join_irreducibles
    monkeypatch.setattr(poset.Poset, "all_upsets",
                        lambda p, *a: enumerations.append(p) or upsets(p, *a))
    counted = lambda h: scans.append(h) or scan(h)
    monkeypatch.setattr(algebra, "join_irreducibles", counted)
    monkeypatch.setattr(pipeline, "join_irreducibles", counted)
    for k in corpus.corpus_complexes().values():
        enumerations.clear()
        assert verify_ji(k).ok and len(enumerations) == 1
    for p in corpus.corpus_posets(4):
        enumerations.clear()
        scans.clear()
        assert verify_esakia(p).ok and len(enumerations) == len(scans) == 1


def test_verify_hneg_seeded():
    rep = verify_hneg(corpus.square_complex(), trials=40, seed=5)
    assert rep.ok, list(rep.lines())
    assert rep.seed == 5


def test_verify_nerve_small():
    for p in enumerate_posets(3):
        assert verify_nerve(p).ok


def test_verify_nerve_on_a_12_chain():
    # 4 095 simplices: a face poset built face by face would visit 3**12 faces
    names = [f"c{i}" for i in range(12)]
    p = from_covers(names, list(zip(names, names[1:])))
    assert len(realize(p)) == 4095
    assert verify_nerve(p).ok


def _failing(rep):
    return [label for label, ok, _ in rep.entries if not ok]


def test_verify_nerve_fails_on_a_realization_missing_a_chain(monkeypatch):
    fork = from_covers(["r", "x", "y"], [("r", "x"), ("r", "y")])
    real = pipeline._realize
    rx = fork.mask_of(["r", "x"])
    monkeypatch.setattr(pipeline, "_realize", lambda a, chains: real(a, [c for c in chains if c != rx]))
    rep = verify_nerve(fork)
    assert not rep.ok and "face poset of realization iso nerve" in _failing(rep)


@pytest.mark.parametrize("edits", [
    [("down", "ac", None, "b"), ("up", "b", None, "ac")],  # caught by the size of down(ac)
    [("down", "ac", "a", "b")],  # by the down-set of the deletion a
    [("up", "a", "ac", "c")],  # by the up-set of the coface ac
    [("up", "a", None, "c")],  # by the pair counts of the rows
], ids=["size", "down", "up", "pairs"])
def test_verify_nerve_fails_on_a_face_poset_with_a_wrong_pair(monkeypatch, edits):
    # each face poset keeps the max map monotone and fails one clause only
    p = from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])
    real = pipeline._realize

    def wrong(a, chains):
        k = real(a, chains)
        rows = {"up": list(k._face.up), "down": list(k._face.down)}
        bit = {name: 1 << i for i, name in enumerate(k._face.elements)}
        for row, at, drop, add in edits:
            i = k._face.index[at]
            rows[row][i] = rows[row][i] & ~bit.get(drop, 0) | bit.get(add, 0)
        k._face = Poset(k._face.elements, rows["up"], _down=rows["down"])
        return k

    monkeypatch.setattr(pipeline, "_realize", wrong)
    assert "face poset of realization iso nerve" in _failing(verify_nerve(p))


def test_verify_nerve_fails_on_a_max_map_that_is_not_a_pmorphism(monkeypatch):
    p = from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    # every simplex to the bottom: monotone, but up(a) is not the image of any up-set
    monkeypatch.setattr(pipeline, "max_pmorphism",
                        lambda a, k: MonotoneMap(k.face_poset(), a, ("a",) * len(k)))
    rep = verify_nerve(p)
    assert _failing(rep) == ["max map is a p-morphism", "max map is surjective"]
    # the witness: simplex a, whose up-set maps onto up(a) less b
    assert {label: detail for label, _, detail in rep.entries}["max map is a p-morphism"] \
        == "('a', 'b')"


def test_report_lines_format():
    rep = verify_dim_bd(corpus.simplex_complex(1))
    lines = list(rep.lines())
    assert lines and all(line.startswith(("PASS", "FAIL")) for line in lines)
    j = rep.to_json()
    assert j["ok"] is True and j["suite"] == "dimbd"


def test_budget_stops_the_search_at_the_last_full_size():
    # the root below a 5-antichain has 33 up-sets: 33**5 valuations
    f = parse("p -> (q -> (r -> (s -> (t -> p))))")
    v = find_frame_countermodel(f, max_size=6)
    assert v.status == NO_COUNTERMODEL
    assert v.bounds["searched_size"] == 5
    with limits(budget=1):
        v = find_frame_countermodel(f, max_size=6)
    assert v.status == NO_COUNTERMODEL and v.bounds["searched_size"] == 0


_BOGUS_COUNTER = """
import sys
from polylogic import pipeline
from polylogic.algebra import ValidityResult
from polylogic.cli import main
pipeline.is_valid = lambda frame, f, **kw: ValidityResult(False, {"p": frame.full_mask}, 1)
sys.exit(main(["counter", "p -> p", "--max-size", "2"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_soundness_error_exits_2_with_and_without_asserts(flags):
    src = str(Path(polylogic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, *flags, "-c", _BOGUS_COUNTER],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert out.stderr.count("\n") == 1 and out.stderr.startswith("error: ")
    assert "does not re-verify" in out.stderr


def test_transfer_rejects_a_map_that_is_not_a_pmorphism(monkeypatch):
    monkeypatch.setattr(poset, "is_pmorphism", lambda pm: (False, ("x", "y")))
    a = from_covers(["a", "b"], [["a", "b"]])
    with pytest.raises(SoundnessError):
        transfer_countermodel(a, {"p": a.mask_of(["b"])}, parse("p | ~p"))


def test_polyhedral_dimension_is_checked(monkeypatch):
    real = pipeline.transfer_countermodel

    def too_deep(a, valuation, f):
        return dataclasses.replace(real(a, valuation, f), complex=corpus.simplex_complex(3))

    monkeypatch.setattr(pipeline, "transfer_countermodel", too_deep)
    with pytest.raises(SoundnessError):
        polyhedral_countermodel(parse("p | ~p"), d=2, max_size=3)


@pytest.mark.parametrize("fault", ["too large", "too small"])
def test_hneg_fails_on_a_wrong_co_implication(monkeypatch, fault):
    real = pipeline.co_implication

    def wrong(c, d):
        if fault == "too large":  # the closure of C, which C \ D need not reach
            return DefinableSet(c.complex, "closed", c.complex.face_poset().down_closure(c.mask))
        return DefinableSet(c.complex, "closed", 0) if c.mask & ~d.mask else real(c, d)

    monkeypatch.setattr(pipeline, "co_implication", wrong)
    rep = verify_hneg(corpus.square_complex(), trials=40, seed=5)
    assert not rep.ok
    assert any(not ok and "random closed pairs" in label for label, ok, _ in rep.entries)
