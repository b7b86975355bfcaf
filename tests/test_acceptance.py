"""Acceptance gate: one test (and one PASS/FAIL line) per criterion.

Run with `pytest -v` for the per-test verdicts or `pytest -s` to see the
criterion lines directly.
"""

import json
import time
from fractions import Fraction

import pytest
from oracles import barycentric_coordinates, cofaces_of, is_closed_pseudomanifold, sample_points

from polylogic import corpus
from polylogic.algebra import eval_formula
from polylogic.cli import main as cli_main
from polylogic.formula import bd, parse
from polylogic.pipeline import (
    decide_in_bd_logic,
    verify_dim_bd,
    verify_esakia,
    verify_hneg,
    verify_ji,
    verify_nerve,
)
from polylogic.simplicial import heyting_implication


def _verdict(n, description, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {n}: {description}")
    assert ok, f"criterion {n} failed: {description}"


def test_criterion_1_square_complex_reproduction():
    t0 = time.monotonic()
    k = corpus.square_complex()
    names = [k.name(s) for s in k.simplices]
    ok = names == ["a", "b", "c", "d", "ab", "ac", "ad", "bc", "cd", "abc", "acd"]
    expected_covers = {
        ("a", "ab"), ("a", "ac"), ("a", "ad"),
        ("b", "ab"), ("b", "bc"),
        ("c", "ac"), ("c", "bc"), ("c", "cd"),
        ("d", "ad"), ("d", "cd"),
        ("ab", "abc"), ("ac", "abc"), ("bc", "abc"),
        ("ac", "acd"), ("ad", "acd"), ("cd", "acd"),
    }
    ok = ok and set(k.face_poset().covers()) == expected_covers
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _verdict(1, "triangulated square: 11 simplices, exact Hasse covers, < 1 s", ok)


def test_criterion_2_dimension_bd_suite():
    t0 = time.monotonic()
    ok = True
    for k in [corpus.simplex_complex(2), corpus.square_complex()]:
        rep = verify_dim_bd(k)
        ok = ok and rep.ok
        labels = [lab for lab, good, _ in rep.entries if good]
        ok = ok and any("BD_2 valid" in lab for lab in labels)
        ok = ok and any(
            "BD_1 refuted with valuation" in lab and "=" in lab for lab in labels
        )
    for d in range(5):
        k = corpus.simplex_complex(d)
        ok = ok and k.dim() == d and verify_dim_bd(k).ok
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _verdict(2, "BD_2 valid / BD_1 refuted on 2-complexes; d-simplex pattern d=0..4", ok)


def test_criterion_3_nerve_suite_small_posets():
    t0 = time.monotonic()
    failures = [p for p in corpus.corpus_posets(5) if not verify_nerve(p).ok]
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _verdict(3, "nerve suite over all posets with <= 5 elements, zero failures", ok)


def test_criterion_4_stone_duality_suite():
    failures = [p for p in corpus.corpus_posets(5) if not verify_esakia(p).ok]
    _verdict(4, "spectrum and Stone map suite over all posets with <= 5 elements", not failures)


def test_criterion_5_co_implication_oracle():
    per_complex = 75  # 7 complexes x 75 = 525 seeded pairs
    complexes = corpus.corpus_complexes()
    failures = [
        name for name, k in complexes.items()
        if not verify_hneg(k, trials=per_complex, seed=20240817).ok
    ]
    total = per_complex * len(complexes)
    ok = total >= 500 and not failures
    _verdict(5, f"{total} random closed pairs: co-implication oracle + co-adjunction", ok)


def test_criterion_6_pointwise_semantics():
    total = 0
    ok = True
    for name, k in corpus.corpus_complexes().items():
        pts = sample_points(k, 13, seed=5)
        total += len(pts)
        # a couple of open sets per complex to combine
        opens = [k.open_star(s) for s in list(k.simplices)[::3]]
        pairs = list(zip(opens, opens[1:] or opens))
        for x, s in pts:
            # carrier uniqueness and minimality
            containing = [t for t in k.simplices if k.contains_point(t, x)]
            ok = ok and all(set(s) <= set(t) for t in containing)
            bc = barycentric_coordinates(k.points_of(s), x)
            ok = ok and bc is not None and min(bc) > 0
            for u, v in pairs:
                mu, mv = u.member(x), v.member(x)
                ok = ok and u.intersection(v).member(x) == (mu and mv)
                ok = ok and u.union(v).member(x) == (mu or mv)
                w = heyting_implication(u, v)
                if w.member(x):
                    ok = ok and ((not mu) or mv)
                # independent local check of the implication at the carrier
                ok = ok and (s in w.flags) == all(
                    t in v.flags for t in cofaces_of(k, s) if t in u.flags
                )
    ok = ok and total >= 1000
    _verdict(6, f"{total} sampled points: set operations pointwise + carrier laws", ok)


def test_criterion_7_countermodel_pipeline(capsys):
    ok = True
    for text in ["p0 | ~p0", "((p -> q) -> p) -> p", "~p | ~~p"]:
        code = cli_main(["counter", text, "--polyhedral", "--depth", "2", "--max-size", "4"])
        out = capsys.readouterr().out
        data = json.loads(out)
        ok = ok and code == 1
        ok = ok and data["status"] == "RefutedOnPolyhedron"
        ok = ok and data["polyhedral"]["dimension"] == 1
        # witness re-verifies: re-evaluate on the rebuilt complex and check
        # the value is a proper up-set of its face poset
        from polylogic.simplicial import complex_from_json

        k = complex_from_json(data["polyhedral"]["complex"])
        face = k.face_poset()
        valuation = {
            p: face.mask_of(names)
            for p, names in data["polyhedral"]["valuation"].items()
        }
        value = eval_formula(face, valuation, parse(text))
        ok = ok and value != face.full_mask
        ok = ok and face.names_of(value) == data["polyhedral"]["evaluation"]
    for d in range(3):
        ok = ok and not decide_in_bd_logic(bd(d), d, max_size=5).refuted
    _verdict(7, "dim-1 polyhedral countermodels + bd(d) unrefuted at depth <= d", ok)


def test_criterion_8_join_irreducible_suite():
    ok = True
    for name, k in corpus.corpus_complexes().items():
        rep = verify_ji(k)
        ok = ok and rep.ok
    _verdict(8, "join-irreducible counts and prime-filter chains on the corpus", ok)


def test_criterion_9_pseudomanifold_check():
    sphere = corpus.boundary_3_simplex()
    good, w = is_closed_pseudomanifold(sphere, 2)
    ok = good and w == []
    bad, w = is_closed_pseudomanifold(corpus.square_complex(), 2)
    ok = ok and not bad and sorted(w) == ["ab", "ad", "bc", "cd"]
    _verdict(9, "sphere passes the closed-pseudomanifold check; square fails on its rim", ok)
