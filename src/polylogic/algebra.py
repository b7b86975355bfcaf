"""Finite Heyting and co-Heyting algebras of up-sets and lower sets.

Carriers are sorted lists of bitmasks over the base frame's canonical
element order, so the canonical enumeration order is ascending integers
and the top element is always the last carrier entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceeded,
    MissingAtom,
    NotPMorphism,
    TrivialAlgebra,
)
from .formula import And, Atom, Bottom, Formula, Implies, Or, Top, atoms
from .poset import DEFAULT_UPSET_CAP, MonotoneMap, Poset, is_pmorphism

__all__ = [
    "FiniteHeyting",
    "FiniteCoHeyting",
    "eval_formula",
    "is_valid",
    "ValidityResult",
    "join_irreducibles",
    "spec",
    "stone_map",
    "StoneReport",
    "up_of_pmorphism",
    "algebra_depth",
    "valuation_from_json",
]

DEFAULT_BUDGET = 10**7


class FiniteHeyting:
    """The Heyting algebra Up(A) of a finite frame A.

    U -> V is the largest up-set W with W n U <= V, concretely
    {a : up(a) n U <= V}.
    """

    def __init__(self, frame: Poset, cap: int = DEFAULT_UPSET_CAP):
        self.frame = frame
        self.carrier: list[int] = frame.all_upsets(cap)
        self.index = {u: i for i, u in enumerate(self.carrier)}
        self.bot = 0
        self.top = frame.full_mask
        self._tables = None

    def __len__(self):
        return len(self.carrier)

    def leq(self, u: int, v: int) -> bool:
        return u & ~v == 0

    def meet(self, u: int, v: int) -> int:
        return u & v

    def join(self, u: int, v: int) -> int:
        return u | v

    def imp(self, u: int, v: int) -> int:
        return self.frame.imp(u, v)

    def neg(self, u: int) -> int:
        return self.imp(u, 0)

    # Operation tables over carrier indices, built on demand for the
    # vectorised validity search.
    def tables(self):
        if self._tables is None:
            c = np.array(self.carrier, dtype=np.uint64)
            m = len(c)
            meet = c[:, None] & c[None, :]
            join = c[:, None] | c[None, :]
            imp = np.zeros((m, m), dtype=np.uint64)
            for i, upmask in enumerate(self.frame.up):
                ua = np.uint64(upmask)
                ok = (c[:, None] & ua & ~c[None, :]) == 0
                imp |= ok.astype(np.uint64) << np.uint64(i)
            to_idx = lambda masks: np.searchsorted(c, masks).astype(np.int64)
            self._tables = (to_idx(meet), to_idx(join), to_idx(imp))
        return self._tables


class FiniteCoHeyting:
    """The co-Heyting algebra Lo(A): lower sets with C <= D the
    down-closure of C \\ D (smallest K with C <= D u K)."""

    def __init__(self, frame: Poset, cap: int = DEFAULT_UPSET_CAP):
        self.frame = frame
        self.carrier: list[int] = frame.all_downsets(cap)
        self.index = {u: i for i, u in enumerate(self.carrier)}
        self.bot = 0
        self.top = frame.full_mask

    def __len__(self):
        return len(self.carrier)

    def leq(self, u: int, v: int) -> bool:
        return u & ~v == 0

    def meet(self, u: int, v: int) -> int:
        return u & v

    def join(self, u: int, v: int) -> int:
        return u | v

    def co_imp(self, c: int, d: int) -> int:
        return self.frame.down_closure(c & ~d)

    def co_neg(self, d: int) -> int:
        return self.co_imp(self.top, d)


# ---------------------------------------------------------------------------
# Formula evaluation over frames


def eval_formula(frame: Poset, valuation: dict[str, int], f: Formula) -> int:
    """Evaluate f in Up(frame); valuation maps atom names to up-set masks."""
    if isinstance(f, Atom):
        if f.name not in valuation:
            raise MissingAtom(f.name)
        return valuation[f.name]
    if isinstance(f, Bottom):
        return 0
    if isinstance(f, Top):
        return frame.full_mask
    left = eval_formula(frame, valuation, f.left)
    right = eval_formula(frame, valuation, f.right)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    return frame.imp(left, right)


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    valuation: dict[str, int] | None = None  # first refuting valuation
    checked: int = 0

    def __bool__(self):
        return self.valid


def _eval_indices(f: Formula, arrays, tables, bot_idx, top_idx):
    meet_t, join_t, imp_t = tables
    if isinstance(f, Atom):
        return arrays[f.name]
    if isinstance(f, Bottom):
        return bot_idx
    if isinstance(f, Top):
        return top_idx
    a = _eval_indices(f.left, arrays, tables, bot_idx, top_idx)
    b = _eval_indices(f.right, arrays, tables, bot_idx, top_idx)
    if isinstance(f, And):
        return meet_t[a, b]
    if isinstance(f, Or):
        return join_t[a, b]
    return imp_t[a, b]


def is_valid(
    frame: Poset,
    f: Formula,
    budget: int = DEFAULT_BUDGET,
    cap: int = DEFAULT_UPSET_CAP,
    algebra: FiniteHeyting | None = None,
) -> ValidityResult:
    """Exhaustive validity check of f over Up(frame).

    Valuations are enumerated lexicographically: atoms in first-occurrence
    order, up-sets in ascending bitmask order; the first refuting valuation
    in that order is returned. Raises BudgetExceeded before starting if the
    search space is larger than the budget.
    """
    h = algebra if algebra is not None else FiniteHeyting(frame, cap)
    names = atoms(f)
    m = len(h)
    k = len(names)
    total = m**k
    if total > budget:
        raise BudgetExceeded(total)
    if k == 0:
        val = eval_formula(frame, {}, f)
        return ValidityResult(val == frame.full_mask, None if val == frame.full_mask else {}, 1)
    tables = h.tables()
    bot_idx = h.index[h.bot]
    top_idx = h.index[h.top]
    # Vectorise over the last (up to) two atoms; loop over the rest.
    inner = names[-2:] if k >= 2 else names[-1:]
    outer = names[: k - len(inner)]
    if len(inner) == 2:
        grid = (np.arange(m).reshape(m, 1), np.arange(m).reshape(1, m))
    else:
        grid = (np.arange(m),)
    checked = 0
    for combo in itertools.product(range(m), repeat=len(outer)):
        arrays = {name: np.int64(idx) for name, idx in zip(outer, combo)}
        for name, g in zip(inner, grid):
            arrays[name] = g
        res = _eval_indices(f, arrays, tables, bot_idx, top_idx)
        res = np.broadcast_to(res, (m,) * len(inner))
        flat = res.reshape(-1)
        bad = np.flatnonzero(flat != top_idx)
        checked += flat.size
        if bad.size:
            first = int(bad[0])
            inner_idx = np.unravel_index(first, (m,) * len(inner))
            valuation = {name: h.carrier[idx] for name, idx in zip(outer, combo)}
            for name, idx in zip(inner, inner_idx):
                valuation[name] = h.carrier[int(idx)]
            return ValidityResult(False, valuation, checked)
    return ValidityResult(True, None, checked)


# ---------------------------------------------------------------------------
# Join-irreducibles, Spec, and the Stone map


def join_irreducibles(algebra) -> list[int]:
    """Elements j != bot with j = a v b only trivially: j is not the join
    of the carrier elements strictly below it. Ascending mask order."""
    out = []
    if len(algebra.frame) <= 63:
        carrier = np.array(algebra.carrier, dtype=np.uint64)
        for u in algebra.carrier:
            if u == algebra.bot:
                continue
            uu = np.uint64(u)
            strictly = ((carrier & ~uu) == 0) & (carrier != uu)
            joined = int(np.bitwise_or.reduce(carrier[strictly])) if strictly.any() else 0
            if joined != u:
                out.append(u)
    else:
        for u in algebra.carrier:
            if u == algebra.bot:
                continue
            joined = 0
            for v in algebra.carrier:
                if v != u and v & ~u == 0:
                    joined |= v
            if joined != u:
                out.append(u)
    return out


def spec(algebra) -> Poset:
    """Poset of prime filters ordered by inclusion.

    In a finite distributive lattice every prime filter is the principal
    filter of a join-irreducible generator, and filter inclusion reverses
    the generator order.
    """
    jis = join_irreducibles(algebra)
    frame = algebra.frame
    names = []
    for j in jis:
        members = frame.names_of(j)
        names.append("{" + ",".join(members) + "}")
    n = len(jis)
    up = []
    for i in range(n):
        mask = 0
        for k in range(n):
            # F_{j_i} <= F_{j_k} iff j_k <= j_i
            if jis[k] & ~jis[i] == 0:
                mask |= 1 << k
        up.append(mask)
    return Poset(names, up)


@dataclass
class StoneReport:
    bijective: bool
    homomorphism: bool
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return self.bijective and self.homomorphism


def stone_map(h: FiniteHeyting):
    """The map u -> {prime filters containing u}, as a dict from carrier
    masks of h to up-set masks of spec(h), plus a verification report
    that it is a bijective Heyting homomorphism."""
    sp = spec(h)
    jis = join_irreducibles(h)
    mapping = {}
    for u in h.carrier:
        mask = 0
        for k, j in enumerate(jis):
            if j & ~u == 0:  # j <= u, i.e. u is in the filter generated by j
                mask |= 1 << k
        mapping[u] = mask
    report = StoneReport(bijective=True, homomorphism=True)
    target = FiniteHeyting(sp)
    if sorted(mapping.values()) != target.carrier:
        report.bijective = False
        report.failures.append("image is not all of Up(Spec H)")
    if mapping[h.bot] != target.bot or mapping[h.top] != target.top:
        report.homomorphism = False
        report.failures.append("bounds not preserved")
    for u, v in itertools.product(h.carrier, repeat=2):
        for opname, op, top_op in (
            ("meet", h.meet, target.meet),
            ("join", h.join, target.join),
            ("imp", h.imp, target.imp),
        ):
            if mapping[op(u, v)] != top_op(mapping[u], mapping[v]):
                report.homomorphism = False
                report.failures.append((opname, u, v))
    return mapping, sp, report


def up_of_pmorphism(f: MonotoneMap, check: bool = True):
    """Dual homomorphism Up(B) -> Up(A) of a p-morphism f: A -> B, as a
    dict from Up(B) masks to Up(A) masks (preimage).

    With check=True the Heyting homomorphism equations are verified on
    all pairs, and injectivity is verified when f is surjective.
    """
    ok, witness = is_pmorphism(f)
    if not ok:
        raise NotPMorphism(f"not a p-morphism, witness {witness}")
    hb = FiniteHeyting(f.cod)
    mapping = {u: f.preimage_mask(u) for u in hb.carrier}
    if check:
        ha = FiniteHeyting(f.dom)
        for u, v in itertools.product(hb.carrier, repeat=2):
            assert mapping[hb.meet(u, v)] == ha.meet(mapping[u], mapping[v])
            assert mapping[hb.join(u, v)] == ha.join(mapping[u], mapping[v])
            assert mapping[hb.imp(u, v)] == ha.imp(mapping[u], mapping[v])
        assert mapping[hb.bot] == ha.bot and mapping[hb.top] == ha.top
        if f.is_surjective():
            assert len(set(mapping.values())) == len(mapping), "dual map not injective"
    return mapping


def algebra_depth(algebra) -> int:
    """Longest chain of prime filters minus one; equals depth(spec)."""
    if len(algebra) < 2:
        raise TrivialAlgebra("algebra has no distinct top and bottom")
    return spec(algebra).depth()


# ---------------------------------------------------------------------------
# Valuation files


def valuation_from_json(frame: Poset, data: dict) -> dict[str, int]:
    """JSON valuation {"p0": ["b"], ...}; element lists must be up-sets."""
    out = {}
    for atom_name, members in data.items():
        mask = frame.mask_of(members)
        if not frame.is_upset(mask):
            raise ValueError(f"valuation of {atom_name!r} is not an up-set")
        out[atom_name] = mask
    return out
