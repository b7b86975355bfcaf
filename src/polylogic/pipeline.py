"""Countermodel search, bounded decision for IPC + BD_d, and the
executable verification suites.

Bounded search never claims validity: the verdict vocabulary is
RefutedOnFrame / RefutedOnPolyhedron / NoCountermodelUpToBound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .algebra import (FiniteHeyting, _filter_names, _spectrum, eval_formula, is_valid,
                      join_irreducibles, spec, stone_map, valuation_to_json)
from .errors import BudgetExceeded, SoundnessError
from .formula import Formula, bd, pretty
from .nerve import (PolyhedralCountermodel, _chain_count, _maximal_chains, _realize,
                    max_pmorphism, transfer_countermodel)
from .poset import Poset, enumerate_posets, is_pmorphism, poset_to_json
from .simplicial import Complex, DefinableSet, co_implication

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
            out["valuation"] = valuation_to_json(self.frame, self.valuation)
        if self.polyhedral is not None:
            out["polyhedral"] = self.polyhedral.to_json()
        return out


def _rooted_frames(n: int, max_depth: int | None):
    """Rooted frames on x1..xn of depth <= max_depth, one per isomorphism
    class: x1 is a bottom added below an (n-1)-poset of depth
    <= max_depth - 1, in the order of enumerate_posets.

    The posets above the root must come from enumerate_posets: its cached
    levels serve every search in the process, and bench/tracing.py times
    the enumeration by that name. The frames themselves are not cached."""
    names = [f"x{i + 1}" for i in range(n)]
    if n == 1:
        if max_depth is None or max_depth >= 0:
            yield Poset(names, [1], _down=[1])
    elif max_depth is None or max_depth >= 1:
        full = (1 << n) - 1
        above = None if max_depth is None else max_depth - 1
        for p in enumerate_posets(n - 1, above):
            yield Poset(names, [full, *(u << 1 for u in p.up)],
                        _down=[1, *(d << 1 | 1 for d in p.down)])


def find_frame_countermodel(f: Formula, max_size: int, max_depth: int | None = None) -> Verdict:
    """First refuting rooted frame of size <= max_size and depth <= max_depth.

    Rooted frames suffice: if f is refuted at a point w of a frame A, it is
    refuted at w on the subframe generated by w, the up-set of w. A formula's
    value at a point depends only on the points above it, and valuations
    restrict to up-sets of the subframe. That subframe is rooted, and no
    larger or deeper than A, so the smallest refuting frame is also found.

    Witness order: sizes ascending, then ascending canonical form of the
    poset above the root. ``bounds["searched_size"]`` is the largest n such
    that every frame of size <= n was searched without a refutation. When a
    frame's valuation space exceeds the active budget at size n, the search
    stops there and reports NoCountermodelUpToBound with searched_size n - 1.

    The poset classes come from enumerate_posets, which computes each size
    once per process, so later searches in the process (to any size and
    depth already reached) compute no canonical form.
    """
    bounds = {"max_size": max_size, "max_depth": max_depth, "searched_size": max_size}
    for n in range(1, max_size + 1):
        for frame in _rooted_frames(n, max_depth):
            try:
                res = is_valid(frame, f)
            except BudgetExceeded:
                bounds["searched_size"] = n - 1
                return Verdict(NO_COUNTERMODEL, f, bounds)
            if not res.valid:
                # soundness: the witness must re-verify by direct evaluation
                if not all(frame.is_upset(m) for m in res.valuation.values()) or (
                    eval_formula(frame, res.valuation, f) == frame.full_mask
                ):
                    raise SoundnessError(
                        f"refutation of {pretty(f)} on a {n}-element frame does not re-verify"
                    )
                bounds["searched_size"] = n - 1
                return Verdict(REFUTED_ON_FRAME, f, bounds, frame, res.valuation)
    return Verdict(NO_COUNTERMODEL, f, bounds)


def decide_in_bd_logic(f: Formula, d: int, max_size: int) -> Verdict:
    """Search for a countermodel among frames of depth <= d. A refutation
    witnesses f outside IPC + BD_d; absence is only absence up to bound."""
    return find_frame_countermodel(f, max_size, max_depth=d)


def polyhedral_countermodel(f: Formula, d: int, max_size: int) -> Verdict:
    """Frame countermodel of depth <= d transferred to a polyhedron of
    dimension <= d through the nerve."""
    verdict = decide_in_bd_logic(f, d, max_size)
    if not verdict.refuted:
        return verdict
    pcm = transfer_countermodel(verdict.frame, verdict.valuation, f)
    if not pcm.complex.dim() == verdict.frame.depth() <= d:
        raise SoundnessError(
            f"polyhedron of dimension {pcm.complex.dim()} for a frame of depth "
            f"{verdict.frame.depth()}, bound {d}"
        )
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
        if self.seed is not None:
            yield f"seed {self.seed}"
        for lab, ok, det in self.entries:
            suffix = f"  ({det})" if det and not ok else ""
            yield f"{'PASS' if ok else 'FAIL'}  {lab}{suffix}"


def verify_dim_bd(k: Complex) -> Report:
    """Certify that the definable open algebra of k validates BD_dim and
    refutes BD_(dim-1).

    The prime-filter-chain characterisation is always certified; the
    direct exhaustive valuation search runs additionally whenever the
    valuation space fits the active budget (it is equivalent via the up-set
    isomorphism, and exponentially more expensive). Exhaustive means star
    by star when that pays: is_valid proves BD_dim on the open star of each
    vertex, the subframe its vertex generates, and reports the m**k
    valuations of the face poset that this covers.
    """
    rep = Report("dimbd")
    d = k.dim()
    if d < 0:
        rep.add("nonempty", False, "empty complex")
        return rep
    face = k.face_poset()
    h, depth = FiniteHeyting(face), face.depth()
    rep.add(f"dim={d} equals face-poset depth", depth == d)
    rep.add(f"longest prime-filter chain = {d + 1}", spec(h).depth() == d)
    for e in (d, d - 1) if d else (d,):
        want = e == d  # BD_d valid, BD_(d-1) refuted
        try:
            res = is_valid(face, bd(e), algebra=h)
        except BudgetExceeded as over:
            verdict = "valid" if want else "refuted"
            rep.add(f"BD_{e} {verdict} (via depth characterisation; search space {over.count} "
                    "over budget)", (depth <= e) == want)
            continue
        rep.add(f"BD_{e} valid (exhaustive, {res.checked} valuations)" if want else
                f"BD_{e} refuted with valuation " + "; ".join(
                    f"{p}={v}" for p, v in valuation_to_json(face, res.valuation or {}).items()),
                res.valid == want)
    return rep


def verify_ji(k: Complex) -> Report:
    """Join-irreducibles of the definable algebras, PC^o(K) as Up(face),
    enumerated once, and PC^c(K) as Up(face.op()), read off it, and the longest
    prime-filter chain, read off the spectrum of each join-irreducible list."""
    rep = Report("ji")
    face = k.face_poset()
    n, d = len(face), k.dim()
    h = FiniteHeyting(face)
    jis_o = join_irreducibles(h)
    jis_c = join_irreducibles(h.op())
    rep.add(f"JI(PC^c) = principal down-sets of the {n} simplices", jis_c == sorted(face.down))
    rep.add(f"JI(PC^o) = the {n} open stars", jis_o == sorted(face.up))
    if n:
        rep.add(
            f"longest prime-filter chain = dim+1 = {d + 1} in both algebras",
            _spectrum(face, jis_c).depth() == d == _spectrum(face, jis_o).depth(),
        )
    else:
        rep.add("trivial algebra on the empty complex", d == -1)
    return rep


def verify_esakia(a: Poset) -> Report:
    """Spec(Up(A)) iso A by x -> the prime filter generated by up(x) (Birkhoff:
    JI(Up(A)) = {up(x)}), and the Stone map on covers; Up(A) is enumerated
    once, under the active cap, and Spec(Up(A)) is the one stone_map builds."""
    rep = Report("esakia")
    _, sp, failures = stone_map(FiniteHeyting(a))
    principal = dict(zip(a.elements, _filter_names(a, a.up)))  # x -> the name of F_up(x)
    rep.add(f"spec(Up(A)) iso A (|A|={len(a)})", a.is_order_isomorphism(sp, principal))
    rep.add(
        "Stone map is a bijective Heyting homomorphism",
        not failures,
        "; ".join(str(x) for x in failures[:3]),
    )
    return rep


def _random_downset(face: Poset, rng: random.Random) -> int:
    return face.down_closure(sum(1 << i for i in range(len(face)) if rng.random() < 0.4))


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
        # co-adjunction C <= D u E, with minimality: dropping a maximal t of E
        # breaks it, which given C <= D u E holds iff t is in C minus D
        ok = (ok and c.mask & ~(dset.mask | e.mask) == 0
              and face.maximal_of(e.mask) & ~(c.mask & ~dset.mask) == 0)
        if not ok:
            failures += 1
            if failures <= 3:
                rep.add(f"trial {trial}", False, f"C={c.names()} D={dset.names()}")
    rep.add(f"{trials} random closed pairs, co-implication oracle + adjunction", failures == 0,
            f"{failures} failures")
    # relint sigma n P != empty iff sigma <= P, at barycenters
    bad = 0
    pts = k.barycenters()
    for _ in range(min(trials, 20)):
        dflags = k.simplices_of(_random_downset(face, rng))
        for x, s in pts:
            geom = any(k.contains_point(t, x) for t in dflags)
            if geom != (s in dflags):
                bad += 1
    rep.add("relint-containment equivalence at barycenters", bad == 0, f"{bad} failures")
    return rep


def verify_nerve(a: Poset) -> Report:
    """The realization of a and its max map, read off one list of the maximal
    chains of a, which has no more chains than the active cap. Its face poset
    is the chains under inclusion iff there are as many simplices as chains, as
    many up pairs as down pairs, and each simplex s is a chain whose rows hold
    s, with 2^|s| - 1 faces, and whose one-vertex deletions t are simplices with
    down(t) <= down(s) and up(s) <= up(t) (induct on |s|)."""
    rep = Report("nerve")
    k = _realize(a, _maximal_chains(a))
    rep.add(f"depth(A)={a.depth()} equals dim(realize(A))", k.dim() == a.depth())
    face = k.face_poset()
    bad = next((i for i in range(len(k)) if not _is_chain_face(a, k, i)), None)
    pairs = sum(map(int.bit_count, face.up)) == sum(map(int.bit_count, face.down))
    rep.add("face poset of realization iso nerve",
            len(k) == _chain_count(a) and pairs and bad is None,
            "" if bad is None else f"first failing simplex {face.elements[bad]}")
    pm = max_pmorphism(a, k)
    ok, witness = is_pmorphism(pm)
    rep.add("max map is a p-morphism", ok, "" if witness is None else str(witness))
    rep.add("max map is surjective", pm.is_surjective())
    return rep


def _is_chain_face(a: Poset, k: Complex, i: int) -> bool:
    """Whether simplex i of k, a realization of a, passes the checks of verify_nerve."""
    s, up, down = k.simplices[i], k.face_poset().up, k.face_poset().down
    c = a.mask_of(s)
    deletions = [k.index.get(s[:j] + s[j + 1:]) for j in range(len(s))] if len(s) > 1 else []
    return (not any(c & ~(a.up[x] | a.down[x]) for x in map(a.index.get, s))
            and (up[i] & down[i]) >> i & 1 and down[i].bit_count() == 2 ** len(s) - 1
            and all(t is not None and down[t] | down[i] == down[i] and up[i] | up[t] == up[t]
                    for t in deletions))
