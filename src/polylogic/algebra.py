"""Finite Heyting algebras of up-sets.

The lower sets Lo(P) of a frame are handled as the up-sets Up(P.op()) of
the opposite order, read off Up(P) by ``FiniteHeyting.op``, and the
co-implication C <= D of Lo(P) is ``P.down_closure(C & ~D)``.

Carriers are sorted lists of bitmasks over the base frame's canonical
element order, so the canonical enumeration order is ascending integers
and the top element is always the last carrier entry.

is_valid is bit-sliced: a subformula's value at a frame point is one int
whose bit b is its value under the b-th valuation of a block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .errors import MalformedInput, MissingAtom
from .formula import And, Atom, Formula, Implies, Or, Top, atoms, fold
from .poset import Poset, _cover_rows, _union, charge, is_name_list, json_object

__all__ = [
    "FiniteHeyting",
    "eval_formula",
    "is_valid",
    "ValidityResult",
    "join_irreducibles",
    "spec",
    "stone_map",
    "valuation_from_json",
    "valuation_to_json",
]

_BATCH = 1 << 16  # valuations per bit-sliced pass of is_valid


class FiniteHeyting:
    """The Heyting algebra Up(A) of a finite frame A: the frame, its up-sets
    and their membership columns. The operations are the frame's: & and |,
    0 and frame.full_mask, and frame.imp.
    """

    def __init__(self, frame: Poset):
        self.frame = frame
        self.carrier: list[int] = frame.all_upsets()
        self._tables = None

    def __len__(self):
        return len(self.carrier)

    def op(self) -> "FiniteHeyting":
        """Up(frame.op()), Lo(frame), read off this algebra: the carrier's complements
        in reverse order, and the columns complemented and bit-reversed."""
        out, full, m = object.__new__(FiniteHeyting), self.frame.full_mask, len(self.carrier)
        out.frame, out.carrier = self.frame.op(), [full ^ u for u in reversed(self.carrier)]
        out._tables = [int(f"{col ^ (1 << m) - 1:0{m}b}"[::-1], 2) for col in self.tables()]
        return out

    def tables(self) -> list[int]:
        """Membership columns, built once: bit v of column i is set iff point
        i lies in carrier[v]. One transpose: in the carrier's n-digit binary
        numerals, written last first by one format call, column i is a
        stride-n slice."""
        if self._tables is None:
            n, m = len(self.frame), len(self.carrier)
            text = (f"{{:0{n}b}}" * m).format(*reversed(self.carrier))
            self._tables = [int(text[n - 1 - i::n], 2) for i in range(n)]
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


def is_valid(frame: Poset, f: Formula, algebra: FiniteHeyting | None = None) -> ValidityResult:
    """Exhaustive validity check of f over Up(frame).

    Valuations are enumerated lexicographically: atoms in first-occurrence
    order, up-sets in ascending bitmask order; the first refuting valuation
    in that order is returned, and ``checked`` is its 1-based position in
    that order (all m**k valuations when f is valid): the number of
    valuations the search has covered, not the number it evaluated. Raises
    BudgetExceeded before starting if m**k is larger than the active budget.

    f is valid on a finite frame iff it is valid on the subframe up(x)
    generated by each minimal point x, its star (the generated-subframe
    lemma; Chagrov & Zakharyaschev, Modal Logic, 1997). So each star is
    searched first when m**k needs more than one block of _BATCH
    valuations, the frame has two or more minimal points, and the stars'
    valuations, the sum of |Up(up(x))|**k, are fewer than m**k. If every
    star validates f, f is valid; if one refutes it, the whole-frame
    search runs as usual and names the frame's first refuting valuation.
    """
    h = algebra if algebra is not None else FiniteHeyting(frame)
    names = atoms(f)
    m, k = len(h), len(names)
    total = m**k
    charge("valuations", total)
    minimal = [x for x, down in enumerate(h.frame.down) if down == 1 << x]
    if total > _BATCH and len(minimal) > 1:
        stars = [FiniteHeyting(_generated(h.frame, x)) for x in minimal]
        if sum(len(s) ** k for s in stars) < total and all(
                _first_refutation(s, f, names) is None for s in stars):
            return ValidityResult(True, None, total)
    done = _first_refutation(h, f, names)
    if done is None:
        return ValidityResult(True, None, total)
    valuation = {a: h.carrier[done // m ** (k - 1 - j) % m] for j, a in enumerate(names)}
    return ValidityResult(False, valuation, done + 1)


def _generated(frame: Poset, x: int) -> Poset:
    """The subframe up(x) on the induced order, in the frame's element order."""
    keep = [i for i in range(len(frame)) if frame.up[x] >> i & 1]
    bits = {i: 1 << j for j, i in enumerate(keep)}  # frame index -> its bit in the star
    return Poset([frame.elements[y] for y in keep], [_union(bits, frame.up[y]) for y in keep],
                 _down=[_union(bits, frame.down[y] & frame.up[x]) for y in keep])


def _first_refutation(h: FiniteHeyting, f: Formula, names: list[str]) -> int | None:
    """The 0-based lexicographic position of the first valuation of names
    over h.carrier that refutes f, or None if f is valid on h.frame.

    A pass checks a block of at most _BATCH consecutive valuations: the last
    r atoms, the longest suffix with m**r <= _BATCH, take all m**r values;
    the atom before them a window of c = _BATCH // m**r values (the last
    window may be shorter); the atoms before it are fixed. Bit b gives the
    window atom its (b // m**r)-th value and the last r atoms the base-m
    digits of b % m**r, so the lowest 0 bit is the block's first refutation.
    The last r atoms' patterns are built once per window width.
    """
    m, k = len(h), len(names)
    total = m**k
    r = next(r for r in range(k, -1, -1) if m**r <= _BATCH)
    outer, window, inner = names[: max(k - r - 1, 0)], names[k - r - 1: k - r], names[k - r:]
    size, cols, n = m**r, h.tables(), len(h.frame)
    ups = [[j for j in range(n) if up >> j & 1] for up in h.frame.up]
    patterns: dict[int, dict] = {}  # window width -> inner atom patterns
    done = 0  # valuations checked before the block
    while done < total:
        start = done // size % m  # the window atom's first value
        w = min(_BATCH // size, m - start) if window else 1
        ones = (1 << w * size) - 1
        if w not in patterns:
            patterns[w] = {a: [_pattern(col, m, m ** (r - 1 - j), m**j * w) for col in cols]
                           for j, a in enumerate(inner)}
        env = dict(patterns[w])
        for j, a in enumerate(outer):
            u = h.carrier[done // m ** (k - 1 - j) % m]
            env[a] = [ones if u >> i & 1 else 0 for i in range(n)]
        for a in window:
            env[a] = [_pattern(col >> start & (1 << w) - 1, w, size, 1) for col in cols]
        miss = ones ^ reduce(and_, _eval_sliced(f, env, ups, ones), ones)
        if miss:
            return done + (miss & -miss).bit_length() - 1
        done += w * size
    return None


# ---------------------------------------------------------------------------
# Join-irreducibles, Spec, and the Stone map


def join_irreducibles(algebra: FiniteHeyting) -> list[int]:
    """Elements with exactly one lower cover, in ascending mask order.

    The carrier is all up-sets of the frame (the down-sets of P are the
    up-sets of P.op()). A carrier element v < u lies below u minus x for
    any x minimal in u \\ v, which is minimal in u, and u minus a minimal
    point is an up-set: so u is join-irreducible iff it has exactly one
    minimal point. Bit v of col_x & ~(the columns of x's lower covers) says
    x is minimal in carrier[v]; ORs of these seen once and seen twice leave
    the answer in once & ~twice.
    """
    cols = algebra.tables()
    once = twice = 0
    for col, covers in zip(cols, _cover_rows(algebra.frame.down)):
        col &= ~_union(cols, covers)
        twice |= once & col
        once |= col
    single = reversed(format(once & ~twice, "b"))
    return [u for u, bit in zip(algebra.carrier, single) if bit == "1"]


def spec(algebra) -> Poset:
    """Poset of prime filters ordered by inclusion.

    In a finite distributive lattice every prime filter is the principal
    filter of a join-irreducible generator, and filter inclusion reverses
    the generator order.
    """
    return _spectrum(algebra.frame, join_irreducibles(algebra))


def _spectrum(frame: Poset, jis: list[int]) -> Poset:
    # F_{j_i} <= F_{j_k} iff j_k <= j_i
    ups = [sum(1 << k for k, jk in enumerate(jis) if jk & ~ji == 0) for ji in jis]
    return Poset(_filter_names(frame, jis), ups)


def _filter_names(frame: Poset, jis) -> list[str]:
    """The names of the prime filters F_j: j's element list in JSON, injectively."""
    return [json.dumps(frame.names_of(j)) for j in jis]


def _cover_failures(mapping: dict[int, int], src: Poset, dst: Poset) -> list:
    """Each cover step u < u + x of Up(src) (x outside u, up(x) minus x inside
    u) that mapping, from Up(src) into Up(dst), sends out of order or out of
    its domain, then each of Up(dst) that its inverse does, as (side, u, x),
    then "not injective" and "{} not sent to {}" where they hold. Cover steps
    reach every up-set from {}, so with none of these the map is onto; and
    monotone both ways on covers, it is an order, so a lattice and a Heyting,
    isomorphism (Davey & Priestley, Introduction to Lattices and Order)."""
    inverse = {v: u for u, v in mapping.items()}
    out = []
    for side, f, p in (("Up(A)", mapping, src), ("Up(Spec)", inverse, dst)):
        for x, up in enumerate(p.up):  # u & up == above: x outside u, up(x) minus x inside u
            bit, above = 1 << x, up ^ 1 << x
            out += [(side, u, x) for u, fu in f.items() if u & up == above
                    and ((fv := f.get(u | bit)) is None or fu & ~fv)]
    return out + [why for why, bad in (("not injective", len(inverse) < len(mapping)),
                                       ("{} not sent to {}", mapping.get(0) != 0)) if bad]


def stone_map(h: FiniteHeyting):
    """The map u -> {prime filters containing u}, an up-set of spec(h), as a
    dict from carrier masks of h, with spec(h) and the failures of its cover
    check: none iff it is a bijection onto Up(spec(h)), monotone both ways, a
    Heyting isomorphism. Up(spec(h)) is not enumerated."""
    jis = join_irreducibles(h)
    sp = _spectrum(h.frame, jis)
    # j <= u iff u is in the filter generated by j
    mapping = {u: sum(1 << k for k, j in enumerate(jis) if j & ~u == 0) for u in h.carrier}
    return mapping, sp, _cover_failures(mapping, h.frame, sp)


# ---------------------------------------------------------------------------
# Valuation files


def valuation_to_json(frame: Poset, valuation: dict[str, int]) -> dict[str, list[str]]:
    """The JSON form {"p0": ["b"], ...} of a valuation, atoms in sorted order."""
    return {p: frame.names_of(m) for p, m in sorted(valuation.items())}


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
