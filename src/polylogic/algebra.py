"""Finite Heyting algebras of up-sets.

The lower sets Lo(P) of a frame are handled as the up-sets Up(P.op()) of
the opposite order, and the co-implication C <= D of Lo(P) is
``P.down_closure(C & ~D)``.

Carriers are sorted lists of bitmasks over the base frame's canonical
element order, so the canonical enumeration order is ascending integers
and the top element is always the last carrier entry.

is_valid is bit-sliced: a subformula's value at a frame point is one int
whose bit b is its value when the last r atoms take the carrier indices
written by the base-m digits of b.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_

from .errors import (
    BudgetExceeded,
    MalformedInput,
    MissingAtom,
    NotPMorphism,
    SoundnessError,
    TrivialAlgebra,
)
from .formula import And, Atom, Formula, Implies, Or, Top, atoms, fold
from .poset import DEFAULT_UPSET_CAP, MonotoneMap, Poset, is_name_list, is_pmorphism, json_object

__all__ = [
    "FiniteHeyting",
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
_BATCH = 1 << 16  # valuations per bit-sliced pass of is_valid


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

    def imp(self, u: int, v: int) -> int:
        return self.frame.imp(u, v)

    # Membership columns, built on demand for is_valid: bit v of column i
    # is set iff point i lies in carrier[v].
    def tables(self) -> list[int]:
        if self._tables is None:
            self._tables = [sum(1 << v for v, u in enumerate(self.carrier) if u >> i & 1)
                            for i in range(len(self.frame))]
        return self._tables


# ---------------------------------------------------------------------------
# Formula evaluation over frames


def eval_formula(frame: Poset, valuation: dict[str, int], f: Formula) -> int:
    """Evaluate f in Up(frame); valuation maps atom names to up-set masks."""

    def leaf(g):
        if isinstance(g, Atom):
            if g.name not in valuation:
                raise MissingAtom(g.name)
            return valuation[g.name]
        return frame.full_mask if isinstance(g, Top) else 0

    ops = {And: and_, Or: or_, Implies: frame.imp}
    return fold(f, leaf, lambda g, left, right: ops[type(g)](left, right))


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    valuation: dict[str, int] | None = None  # first refuting valuation
    checked: int = 0

    def __bool__(self):
        return self.valid


def _pattern(col: int, m: int, width: int, count: int) -> int:
    """Bit b is bit (b // width) % m of col: each bit of col widened into a
    run of width bits, and the m*width-bit block tiled count times."""
    run, out = (1 << width) - 1, col if width == 1 else 0
    while width > 1 and col:
        low = col & -col
        out |= run << width * (low.bit_length() - 1)
        col ^= low
    have = 1
    while have < count:  # doubling: copies [0, have) and [step, step + have)
        step = min(have, count - have)
        out |= out << step * m * width
        have += step
    return out


def _eval_sliced(f: Formula, env, ups, ones) -> list[int]:
    """f at every frame point; bit b of each int is its value under the
    b-th valuation of the batch."""

    def leaf(g):
        if isinstance(g, Atom):
            return env[g.name]
        return [ones if isinstance(g, Top) else 0] * len(ups)

    def node(g, a, b):
        if not isinstance(g, Implies):
            return list(map(and_ if isinstance(g, And) else or_, a, b))
        fails = [x & ~y for x, y in zip(a, b)]  # a -> b fails at i iff fails above i
        return [ones ^ reduce(or_, map(fails.__getitem__, up)) for up in ups]

    return fold(f, leaf, node)


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
    in that order is returned, and ``checked`` is its 1-based position in
    that order (all m**k valuations when f is valid). Raises BudgetExceeded
    before starting if the search space is larger than the budget.

    The last r atoms, the longest suffix with m**r <= _BATCH, are checked
    in one pass per choice for the others: bit b gives them the base-m
    digits of b, the first atom's most significant. Bit order is then
    lexicographic, so the lowest 0 bit at any point is the first refutation.
    """
    h = algebra if algebra is not None else FiniteHeyting(frame, cap)
    names = atoms(f)
    m = len(h)
    k = len(names)
    total = m**k
    if total > budget:
        raise BudgetExceeded(total)
    r = 0
    while r < k and m ** (r + 1) <= _BATCH:
        r += 1
    inner, outer = names[k - r:], names[: k - r]
    size = m**r
    ones = (1 << size) - 1
    n = len(h.frame)
    ups = [[j for j in range(n) if up >> j & 1] for up in h.frame.up]
    env = {name: [_pattern(col, m, m ** (r - 1 - j), m**j) for col in h.tables()]
           for j, name in enumerate(inner)}
    fixed = [[ones if u >> i & 1 else 0 for i in range(n)] for u in h.carrier] if outer else []
    for done, combo in enumerate(itertools.product(range(m), repeat=len(outer))):
        env.update(zip(outer, (fixed[v] for v in combo)))
        miss = ones ^ reduce(and_, _eval_sliced(f, env, ups, ones), ones)
        if miss:
            first = (miss & -miss).bit_length() - 1
            chosen = list(combo) + [first // m ** (r - 1 - j) % m for j in range(r)]
            valuation = {name: h.carrier[v] for name, v in zip(names, chosen)}
            return ValidityResult(False, valuation, done * size + first + 1)
    return ValidityResult(True, None, total)


# ---------------------------------------------------------------------------
# Join-irreducibles, Spec, and the Stone map


def join_irreducibles(algebra) -> list[int]:
    """Elements with exactly one lower cover, in ascending mask order.

    The carrier must be all up-sets of a frame (all down-sets of P are the
    up-sets of P.op()). Then a carrier element v < u lies below u minus x
    for any x minimal in u \\ v, and that x is minimal in u, so u minus x
    is in the carrier. The lower covers of u are thus the carrier elements
    u minus one point; u is join-irreducible iff there is exactly one.
    """
    out = []
    for u in algebra.carrier:
        covers, rest = 0, u
        while rest and covers < 2:
            low = rest & -rest
            covers += u ^ low in algebra.index
            rest ^= low
        if covers == 1:
            out.append(u)
    return out


def spec(algebra) -> Poset:
    """Poset of prime filters ordered by inclusion.

    In a finite distributive lattice every prime filter is the principal
    filter of a join-irreducible generator, and filter inclusion reverses
    the generator order.
    """
    return _spectrum(algebra.frame, join_irreducibles(algebra))


def _spectrum(frame: Poset, jis: list[int]) -> Poset:
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


def _hom_failures(mapping: dict[int, int], src: Poset, dst: Poset) -> list:
    """Where mapping, from all of Up(src) into Up(dst), fails to preserve the
    bounds ("bounds not preserved"), then each (operation, u, v) that fails."""
    out = []
    if mapping[0] != 0 or mapping[src.full_mask] != dst.full_mask:
        out.append("bounds not preserved")
    for u, v in itertools.product(mapping, repeat=2):
        fu, fv = mapping[u], mapping[v]
        for opname, have, want in (
            ("meet", mapping[u & v], fu & fv),
            ("join", mapping[u | v], fu | fv),
            ("imp", mapping[src.imp(u, v)], dst.imp(fu, fv)),
        ):
            if have != want:
                out.append((opname, u, v))
    return out


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
    jis = join_irreducibles(h)
    sp = _spectrum(h.frame, jis)
    mapping = {}
    for u in h.carrier:
        mask = 0
        for k, j in enumerate(jis):
            if j & ~u == 0:  # j <= u, i.e. u is in the filter generated by j
                mask |= 1 << k
        mapping[u] = mask
    target = FiniteHeyting(sp)
    bijective = sorted(mapping.values()) == target.carrier
    failures = [] if bijective else ["image is not all of Up(Spec H)"]
    hom_failures = _hom_failures(mapping, h.frame, sp)
    return mapping, sp, StoneReport(bijective, not hom_failures, failures + hom_failures)


def up_of_pmorphism(f: MonotoneMap):
    """Dual homomorphism Up(B) -> Up(A) of a p-morphism f: A -> B, as a
    dict from Up(B) masks to Up(A) masks (preimage).

    The Heyting homomorphism equations are verified on all pairs, and
    injectivity is verified when f is surjective.
    """
    ok, witness = is_pmorphism(f)
    if not ok:
        raise NotPMorphism(f"not a p-morphism, witness {witness}")
    mapping = {u: f.preimage_mask(u) for u in FiniteHeyting(f.cod).carrier}
    failures = _hom_failures(mapping, f.cod, f.dom)
    if failures:
        raise SoundnessError(f"dual map is not a Heyting homomorphism: {failures[0]}")
    if f.is_surjective() and len(set(mapping.values())) != len(mapping):
        raise SoundnessError("dual map of a surjective p-morphism is not injective")
    return mapping


def algebra_depth(algebra) -> int:
    """Longest chain of prime filters minus one; equals depth(spec)."""
    if len(algebra) < 2:
        raise TrivialAlgebra("algebra has no distinct top and bottom")
    return spec(algebra).depth()


# ---------------------------------------------------------------------------
# Valuation files


def valuation_from_json(frame: Poset, data) -> dict[str, int]:
    """JSON valuation {"p0": ["b"], ...}, given as a dict or as JSON text;
    element lists must be up-sets. Malformed data raises MalformedInput."""
    data = json_object(data)
    if not all(is_name_list(v) for v in data.values()):
        raise MalformedInput("valuation JSON must map atoms to lists of element names")
    out = {}
    for atom_name, members in data.items():
        mask = frame.mask_of(members)
        if not frame.is_upset(mask):
            raise MalformedInput(f"valuation of {atom_name!r} is not an up-set")
        out[atom_name] = mask
    return out
