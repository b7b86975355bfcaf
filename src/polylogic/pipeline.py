"""Countermodel search, bounded decision for IPC + BD_d, and the
executable verification suites.

Bounded search never claims validity: the verdict vocabulary is
RefutedOnFrame / RefutedOnPolyhedron / NoCountermodelUpToBound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .algebra import (
    DEFAULT_BUDGET,
    FiniteHeyting,
    algebra_depth,
    eval_formula,
    is_valid,
    join_irreducibles,
    spec,
    stone_map,
)
from .formula import Formula, atoms, bd, pretty
from .nerve import PolyhedralCountermodel, max_pmorphism, nerve, realize, transfer_countermodel
from .poset import DEFAULT_UPSET_CAP, Poset, enumerate_posets, is_pmorphism, poset_to_json
from .simplicial import (
    Complex,
    DefinableSet,
    co_implication,
    definable_algebras,
    sample_points,
)

__all__ = [
    "Verdict",
    "find_frame_countermodel",
    "decide_in_bd_logic",
    "polyhedral_countermodel",
    "verify_dim_bd",
    "verify_ji",
    "verify_esakia",
    "verify_hneg",
    "verify_nerve",
    "Report",
]

REFUTED_ON_FRAME = "RefutedOnFrame"
REFUTED_ON_POLYHEDRON = "RefutedOnPolyhedron"
NO_COUNTERMODEL = "NoCountermodelUpToBound"


@dataclass
class Verdict:
    status: str
    formula: Formula
    bounds: dict
    frame: Poset | None = None
    valuation: dict[str, int] | None = None
    polyhedral: PolyhedralCountermodel | None = None

    @property
    def refuted(self) -> bool:
        return self.status != NO_COUNTERMODEL

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "formula": pretty(self.formula),
            "bounds": self.bounds,
        }
        if self.frame is not None:
            out["frame"] = poset_to_json(self.frame)
        if self.valuation is not None and self.frame is not None:
            out["valuation"] = {
                p: self.frame.names_of(m) for p, m in sorted(self.valuation.items())
            }
        if self.polyhedral is not None:
            out["polyhedral"] = self.polyhedral.to_json()
        return out


def find_frame_countermodel(
    f: Formula,
    max_size: int,
    max_depth: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """First refuting frame in enumeration order, sizes 1..max_size."""
    bounds = {"max_size": max_size, "max_depth": max_depth}
    for n in range(1, max_size + 1):
        for frame in enumerate_posets(n, max_depth):
            res = is_valid(frame, f, budget=budget)
            if not res.valid:
                # soundness: the witness must re-verify by direct evaluation
                assert eval_formula(frame, res.valuation, f) != frame.full_mask
                return Verdict(REFUTED_ON_FRAME, f, bounds, frame, res.valuation)
    return Verdict(NO_COUNTERMODEL, f, bounds)


def decide_in_bd_logic(
    f: Formula, d: int, max_size: int, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Search for a countermodel among frames of depth <= d. A refutation
    witnesses f outside IPC + BD_d; absence is only absence up to bound."""
    return find_frame_countermodel(f, max_size, max_depth=d, budget=budget)


def polyhedral_countermodel(
    f: Formula, d: int, max_size: int, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Frame countermodel of depth <= d transferred to a polyhedron of
    dimension <= d through the nerve."""
    verdict = decide_in_bd_logic(f, d, max_size, budget)
    if not verdict.refuted:
        return verdict
    pcm = transfer_countermodel(verdict.frame, verdict.valuation, f)
    assert pcm.complex.dim() == verdict.frame.depth() <= d
    return Verdict(
        REFUTED_ON_POLYHEDRON, f, verdict.bounds, verdict.frame, verdict.valuation, pcm
    )


# ---------------------------------------------------------------------------
# Verification suites


@dataclass
class Report:
    name: str
    entries: list[tuple[str, bool, str]] = field(default_factory=list)
    seed: int | None = None

    def add(self, label: str, ok: bool, detail: str = ""):
        self.entries.append((label, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def to_json(self) -> dict:
        out = {
            "suite": self.name,
            "ok": self.ok,
            "checks": [
                {"label": lab, "ok": ok, **({"detail": det} if det else {})}
                for lab, ok, det in self.entries
            ],
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def lines(self):
        for lab, ok, det in self.entries:
            suffix = f"  ({det})" if det and not ok else ""
            yield f"{'PASS' if ok else 'FAIL'}  {lab}{suffix}"


def verify_dim_bd(
    k: Complex,
    budget: int = DEFAULT_BUDGET,
    cap: int = DEFAULT_UPSET_CAP,
) -> Report:
    """Certify that the definable open algebra of k validates BD_dim and
    refutes BD_(dim-1).

    The prime-filter-chain characterisation is always certified; the
    direct exhaustive valuation search runs additionally whenever the
    valuation space fits the budget (it is equivalent via the up-set
    isomorphism, and exponentially more expensive).
    """
    rep = Report("dimbd")
    d = k.dim()
    if d < 0:
        rep.add("nonempty", False, "empty complex")
        return rep
    face = k.face_poset()
    h = FiniteHeyting(face, cap)
    rep.add(f"dim={d} equals face-poset depth", face.depth() == d)
    rep.add(
        f"longest prime-filter chain = {d + 1}",
        (algebra_depth(h) == d) if len(h) > 1 else d == 0,
    )
    space = len(h) ** len(atoms(bd(d)))
    if space <= budget:
        res = is_valid(face, bd(d), budget=budget, algebra=h)
        rep.add(f"BD_{d} valid (exhaustive, {res.checked} valuations)", res.valid)
    else:
        rep.add(
            f"BD_{d} valid (via depth characterisation; search space {space} over budget)",
            face.depth() <= d,
        )
    if d >= 1:
        space = len(h) ** len(atoms(bd(d - 1)))
        if space <= budget:
            res = is_valid(face, bd(d - 1), budget=budget, algebra=h)
            detail = ""
            if not res.valid:
                detail = "; ".join(
                    f"{p}={face.names_of(m)}" for p, m in sorted(res.valuation.items())
                )
            rep.add(f"BD_{d - 1} refuted with valuation {detail}", not res.valid)
        else:
            rep.add(
                f"BD_{d - 1} refuted (via depth characterisation; space {space} over budget)",
                face.depth() > d - 1,
            )
    return rep


def verify_ji(k: Complex, cap: int = DEFAULT_UPSET_CAP) -> Report:
    """Join-irreducibles of the definable algebras and the length of the
    longest prime-filter chain."""
    rep = Report("ji")
    closed, opened = definable_algebras(k, cap)
    face = closed.frame
    jis_c = join_irreducibles(closed)
    principal_down = sorted(face.down[i] for i in range(len(face)))
    rep.add(
        f"JI(PC^c) = principal down-sets of the {len(face)} simplices",
        jis_c == principal_down,
    )
    jis_o = join_irreducibles(opened)
    stars = sorted(face.up[i] for i in range(len(face)))
    rep.add(
        f"JI(PC^o) = the {len(face)} open stars",
        jis_o == stars,
    )
    d = k.dim()
    if len(closed) > 1:
        rep.add(
            f"longest prime-filter chain = dim+1 = {d + 1} in both algebras",
            algebra_depth(closed) == d and algebra_depth(opened) == d,
        )
    else:
        rep.add("trivial algebra on the empty complex", d == -1)
    return rep


def verify_esakia(a: Poset, cap: int = DEFAULT_UPSET_CAP) -> Report:
    rep = Report("esakia")
    h = FiniteHeyting(a, cap)
    mapping, sp, stone_rep = stone_map(h)
    rep.add(
        f"spec(Up(A)) iso A (|A|={len(a)})",
        sp.is_isomorphic(a),
    )
    rep.add(
        "Stone map is a bijective Heyting homomorphism",
        stone_rep.ok,
        "; ".join(str(x) for x in stone_rep.failures[:3]),
    )
    return rep


def _random_downset(face: Poset, rng: random.Random) -> int:
    seeds = 0
    for i in range(len(face)):
        if rng.random() < 0.4:
            seeds |= 1 << i
    return face.down_closure(seeds)


def verify_hneg(k: Complex, trials: int, seed: int = 0) -> Report:
    """Random closed pairs (C, D): the combinatorial co-implication must
    match the independent face-coverage oracle, and co-adjunction with
    minimality must hold. Spot-checks the relint/containment equivalence
    at simplex barycenters."""
    rep = Report("hneg", seed=seed)
    rng = random.Random(seed)
    face = k.face_poset()
    failures = 0
    for trial in range(trials):
        c = DefinableSet(k, "closed", _random_downset(face, rng))
        dset = DefinableSet(k, "closed", _random_downset(face, rng))
        e = co_implication(c, dset)
        residue = c.flags - dset.flags
        # independent oracle: faces-of-residue coverage computed from raw
        # vertex-set inclusion, not the face poset machinery
        oracle = frozenset(
            s for s in k.simplices
            if any(set(s) <= set(t) for t in residue)
        )
        ok = e.flags == oracle
        # co-adjunction C <= D u E ...
        ok = ok and c.mask & ~(dset.mask | e.mask) == 0
        # ... with minimality: dropping any maximal element of E breaks it
        top = face.maximal_of(e.mask)
        while top:
            bit = top & -top
            if c.mask & ~(dset.mask | e.mask & ~bit) == 0:
                ok = False
            top &= top - 1
        if not ok:
            failures += 1
            if failures <= 3:
                rep.add(f"trial {trial}", False, f"C={c.names()} D={dset.names()}")
    rep.add(f"{trials} random closed pairs, co-implication oracle + adjunction", failures == 0,
            f"{failures} failures")
    # relint sigma n P != empty iff sigma <= P, at barycenters
    bad = 0
    pts = sample_points(k, 1, seed=seed)
    for _ in range(min(trials, 20)):
        dflags = k.simplices_of(_random_downset(face, rng))
        for x, s in pts:
            geom = any(k.contains_point(t, x) for t in dflags)
            if geom != (s in dflags):
                bad += 1
    rep.add("relint-containment equivalence at barycenters", bad == 0, f"{bad} failures")
    return rep


def verify_nerve(a: Poset) -> Report:
    rep = Report("nerve")
    nv = nerve(a)
    k = realize(a)
    rep.add(f"depth(A)={a.depth()} equals dim(realize(A))", k.dim() == a.depth())
    # chains and simplices share canonical names, so the identity on names
    # must be an order-isomorphism (canonical forms are intractable here:
    # nerve posets have large automorphism groups)
    face = k.face_poset()
    rep.add(
        "face poset of realization iso nerve",
        nv.is_order_isomorphism(face, {e: e for e in nv.elements}),
    )
    pm = max_pmorphism(a)
    ok, witness = is_pmorphism(pm)
    rep.add("max map is a p-morphism", ok, str(witness))
    rep.add("max map is surjective", pm.is_surjective())
    return rep
