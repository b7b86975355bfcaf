"""Finite posets used as Kripke frames and as face posets.

Elements are strings in a fixed canonical order; the order relation is
kept as per-element bitmasks (``up[i]`` = mask of everything above
element ``i``, itself included). Up-sets and lower sets are plain int
bitmasks relative to that canonical order, so the canonical enumeration
order of up-sets is just ascending integers. The lower sets of P are the
up-sets of ``P.op()``, so only up-sets are enumerated.
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import dataclass, field

from .errors import (
    CapExceeded,
    CycleError,
    MalformedInput,
    NotMonotone,
    UnknownElement,
)

__all__ = [
    "Poset",
    "MonotoneMap",
    "from_covers",
    "is_pmorphism",
    "enumerate_posets",
    "poset_from_json",
    "poset_to_json",
]

DEFAULT_UPSET_CAP = 1 << 20


class Poset:
    __slots__ = ("elements", "index", "up", "down")

    def __init__(self, elements, up_masks, *, _trusted: bool = False):
        self.elements: tuple[str, ...] = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise MalformedInput("duplicate element identifiers")
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.up: tuple[int, ...] = tuple(up_masks)
        n = len(self.elements)
        if len(self.up) != n:
            raise MalformedInput("one up-mask per element required")
        down = [0] * n
        for i in range(n):
            m = self.up[i]
            while m:
                j = (m & -m).bit_length() - 1
                down[j] |= 1 << i
                m &= m - 1
        self.down: tuple[int, ...] = tuple(down)
        if not _trusted:
            self._validate()

    def _validate(self):
        n = len(self.elements)
        for i in range(n):
            if not self.up[i] >> i & 1:
                raise MalformedInput(f"relation not reflexive at {self.elements[i]}")
            if self.up[i] >> n:
                raise MalformedInput("up-mask references unknown element")
            m = self.up[i]
            while m:
                j = (m & -m).bit_length() - 1
                if self.up[j] & ~self.up[i]:
                    raise MalformedInput("relation not transitive")
                if j != i and self.up[j] >> i & 1:
                    raise MalformedInput(
                        f"relation not antisymmetric on "
                        f"{self.elements[i]}, {self.elements[j]}"
                    )
                m &= m - 1

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"Poset({list(self.elements)!r}, covers={self.covers()!r})"

    @property
    def full_mask(self) -> int:
        return (1 << len(self.elements)) - 1

    def leq(self, a: str, b: str) -> bool:
        return bool(self.up[self.index[a]] >> self.index[b] & 1)

    def mask_of(self, names) -> int:
        m = 0
        for name in names:
            if name not in self.index:
                raise UnknownElement(name)
            m |= 1 << self.index[name]
        return m

    def names_of(self, mask: int) -> list[str]:
        return [e for i, e in enumerate(self.elements) if mask >> i & 1]

    def up_closure(self, mask: int) -> int:
        out = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            out |= self.up[i]
            m &= m - 1
        return out

    def down_closure(self, mask: int) -> int:
        out = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            out |= self.down[i]
            m &= m - 1
        return out

    def imp(self, u: int, v: int) -> int:
        """Heyting implication in Up(P): {a : up(a) n u <= v}, i.e. the
        complement of the down-closure of u \\ v."""
        return self.full_mask & ~self.down_closure(u & ~v)

    def op(self) -> "Poset":
        """The opposite order on the same elements: its up-sets are the
        down-sets of self, so Lo(P) is Up(P.op())."""
        return Poset(self.elements, self.down, _trusted=True)

    def is_upset(self, mask: int) -> bool:
        return self.up_closure(mask) == mask

    def is_downset(self, mask: int) -> bool:
        return self.down_closure(mask) == mask

    def covers(self) -> list[tuple[str, str]]:
        """Hasse covers (a, b) with a < b, in canonical order."""
        n = len(self.elements)
        out = []
        for i in range(n):
            strict = self.up[i] & ~(1 << i)
            m = strict
            while m:
                j = (m & -m).bit_length() - 1
                between = self.up[i] & self.down[j] & ~(1 << i) & ~(1 << j)
                if not between:
                    out.append((self.elements[i], self.elements[j]))
                m &= m - 1
        return out

    def maximal_of(self, mask: int) -> int:
        out = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if not (self.up[i] & mask & ~(1 << i)):
                out |= 1 << i
            m &= m - 1
        return out

    # -- depth ------------------------------------------------------------

    def depth(self) -> int:
        """Longest chain cardinality minus one; -1 for the empty poset."""
        n = len(self.elements)
        if n == 0:
            return -1
        memo = [0] * n
        for i in sorted(range(n), key=lambda i: bin(self.up[i]).count("1")):
            best = 0
            m = self.up[i] & ~(1 << i)
            while m:
                j = (m & -m).bit_length() - 1
                best = max(best, 1 + memo[j])
                m &= m - 1
            memo[i] = best
        return max(memo)

    # -- up-set enumeration ----------------------------------------------

    def all_upsets(self, cap: int = DEFAULT_UPSET_CAP) -> list[int]:
        """Every up-set as a bitmask, ascending; CapExceeded as soon as more
        than cap are found. Grown maximal-first (smallest principal up-set
        first): each up-set of the elements seen so far that holds all of
        up(x) minus x gains a copy with x added. One sort at the end."""
        out = [0]
        for i in sorted(range(len(self.elements)), key=lambda i: self.up[i].bit_count()):
            bit, above = 1 << i, self.up[i] & ~(1 << i)
            out += [u | bit for u in out if u & above == above]
            if len(out) > cap:
                raise CapExceeded(len(out))
        return sorted(out)

    # -- isomorphism ------------------------------------------------------

    def canonical_form(self) -> tuple[int, ...]:
        return _canonical_form(self.up, len(self.elements))

    def is_isomorphic(self, other: "Poset") -> bool:
        if len(self) != len(other):
            return False
        return self.canonical_form() == other.canonical_form()

    def is_order_isomorphism(self, other: "Poset", mapping: dict[str, str]) -> bool:
        """Check that the given element bijection preserves and reflects
        the order (cheap alternative to canonical forms when a candidate
        map is known): a bijection does so iff it is a p-morphism."""
        if sorted(mapping) != sorted(self.elements):
            return False
        if sorted(mapping.values()) != sorted(other.elements):
            return False
        try:
            f = MonotoneMap(self, other, tuple(mapping[e] for e in self.elements))
        except NotMonotone:
            return False
        return is_pmorphism(f)[0]


def from_covers(elements, covers) -> Poset:
    """Poset from Hasse covers; leq is the reflexive-transitive closure."""
    elements = tuple(elements)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    succ = [0] * n
    for a, b in covers:
        if a not in index:
            raise UnknownElement(a)
        if b not in index:
            raise UnknownElement(b)
        if a != b:
            succ[index[a]] |= 1 << index[b]
    up = [1 << i | succ[i] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m, acc = up[i], up[i]
            while m:
                j = (m & -m).bit_length() - 1
                acc |= up[j]
                m &= m - 1
            if acc != up[i]:
                up[i] = acc
                changed = True
    for i in range(n):
        m = up[i] & ~(1 << i)
        while m:
            j = (m & -m).bit_length() - 1
            if up[j] >> i & 1:
                raise CycleError(_witness_cycle(succ, i, j, elements))
            m &= m - 1
    return Poset(elements, up, _trusted=True)


def _witness_cycle(succ, i, j, elements):
    # Path i -> ... -> j through the cover digraph, then back to i.
    def path(src, dst):
        prev = {src: None}
        queue = [src]
        while queue:
            x = queue.pop(0)
            if x == dst:
                out = []
                while x is not None:
                    out.append(x)
                    x = prev[x]
                return out[::-1]
            m = succ[x]
            while m:
                y = (m & -m).bit_length() - 1
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
                m &= m - 1
        return [src, dst]

    cycle = path(i, j) + path(j, i)[1:]
    return [elements[k] for k in cycle]


# ---------------------------------------------------------------------------
# Monotone maps and p-morphisms


@dataclass(frozen=True)
class MonotoneMap:
    """A map given by the names of the images of dom.elements, kept as their
    cod indices; monotone iff up x <= f^-1(up f(x)), i.e. f[up x] <= up f(x)."""

    dom: Poset
    cod: Poset
    mapping: tuple[str, ...]  # image of dom.elements[i]
    image: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.mapping) != len(self.dom):
            raise NotMonotone("mapping must be total on the domain")
        self.cod.mask_of(self.mapping)  # raises UnknownElement
        object.__setattr__(self, "image", tuple(self.cod.index[name] for name in self.mapping))
        for x, fx in enumerate(self.image):
            bad = self.dom.up[x] & ~self.preimage_mask(self.cod.up[fx])
            if bad:
                y = (bad & -bad).bit_length() - 1
                raise NotMonotone(f"{self.dom.elements[x]} <= {self.dom.elements[y]} but "
                                  f"{self.mapping[x]} !<= {self.mapping[y]}")

    def __call__(self, name: str) -> str:
        return self.mapping[self.dom.index[name]]

    def image_mask(self, dom_mask: int) -> int:
        out = 0
        m = dom_mask
        while m:
            i = (m & -m).bit_length() - 1
            out |= 1 << self.image[i]
            m &= m - 1
        return out

    def preimage_mask(self, cod_mask: int) -> int:
        out = 0
        for i, j in enumerate(self.image):
            if cod_mask >> j & 1:
                out |= 1 << i
        return out

    def is_surjective(self) -> bool:
        return self.image_mask(self.dom.full_mask) == self.cod.full_mask


def is_pmorphism(f: MonotoneMap):
    """Check f[up a] = up f(a) for all a.

    Returns (True, None) or (False, (a, missed_target)).
    """
    for i, a in enumerate(f.dom.elements):
        missed = f.image_mask(f.dom.up[i]) ^ f.cod.up[f.image[i]]
        if missed:
            j = (missed & -missed).bit_length() - 1
            return False, (a, f.cod.elements[j])
    return True, None


# ---------------------------------------------------------------------------
# Canonical forms and enumeration


def _refine_invariants(up, down, n):
    inv = [(bin(down[i]).count("1"), bin(up[i]).count("1")) for i in range(n)]
    for _ in range(n):
        nxt = []
        for i in range(n):
            ups = sorted(inv[j] for j in range(n) if up[i] >> j & 1 and j != i)
            downs = sorted(inv[j] for j in range(n) if down[i] >> j & 1 and j != i)
            nxt.append((inv[i], tuple(ups), tuple(downs)))
        # compress to comparable ranks
        ranks = {v: r for r, v in enumerate(sorted(set(nxt)))}
        nxt = [(ranks[v],) for v in nxt]
        if nxt == inv:
            break
        inv = nxt
    return inv


def _canonical_form(up, n) -> tuple[int, ...]:
    if n == 0:
        return ()
    down = [0] * n
    for i in range(n):
        m = up[i]
        while m:
            j = (m & -m).bit_length() - 1
            down[j] |= 1 << i
            m &= m - 1
    inv = _refine_invariants(up, down, n)
    groups: dict = {}
    for i in range(n):
        groups.setdefault(inv[i], []).append(i)
    ordered_groups = [groups[k] for k in sorted(groups)]
    best = None
    for perm_parts in itertools.product(
        *(itertools.permutations(g) for g in ordered_groups)
    ):
        perm = [i for part in perm_parts for i in part]  # new position -> old index
        pos = {old: new for new, old in enumerate(perm)}
        rows = []
        for old in perm:
            m = up[old]
            row = 0
            while m:
                j = (m & -m).bit_length() - 1
                row |= 1 << pos[j]
                m &= m - 1
            rows.append(row)
        cand = tuple(rows)
        if best is None or cand < best:
            best = cand
    return best


# max_depth (None: any depth) -> [level 1, level 2, ...]; level k is the
# sorted tuple of the canonical up-mask tuples of the k-element posets
_LEVELS: dict[int | None, list[tuple[tuple[int, ...], ...]]] = {}
_LEVELS_LOCK = threading.Lock()


def enumerate_posets(n: int, max_depth: int | None = None):
    """All posets on n labelled elements x1..xn with depth <= max_depth,
    one per isomorphism class, in ascending canonical-form order.

    Built size by size: each (k-1)-element poset is extended by a new
    maximal element, and the results are deduplicated by canonical form.
    This reaches every class: deleting a maximal element of a k-poset
    leaves a (k-1)-poset, and it never raises depth, so every k-poset of
    depth <= max_depth extends one kept at size k-1.

    The levels are computed once per process and kept in ``_LEVELS``,
    keyed by max_depth; a call extends its list only as far as n. A bound
    of n - 1 or more excludes no n-poset, so it is read as None and shares
    the unrestricted levels. A level is stored only once it is complete,
    as a tuple of int tuples (no Poset objects). The cache holds, for each
    max_depth asked for, every level up to the largest n asked for: about
    as many forms as the largest level, which is what enumerating that
    level once holds at its peak anyway.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_depth is not None and max_depth >= n - 1:
        max_depth = None
    if max_depth is not None and max_depth < 0:
        return
    with _LEVELS_LOCK:
        levels = _LEVELS.setdefault(max_depth, [((1,),)])
        for k in range(len(levels) + 1, n + 1):
            nxt = set()
            for form in levels[-1]:
                for extended in _extensions(form, k):
                    if max_depth is not None:
                        p = Poset([f"t{i}" for i in range(k)], extended, _trusted=True)
                        if p.depth() > max_depth:
                            continue
                    nxt.add(_canonical_form(extended, k))
            levels.append(tuple(sorted(nxt)))
        level = levels[n - 1]
    names = [f"x{i + 1}" for i in range(n)]
    for form in level:
        yield Poset(names, form, _trusted=True)


def _extensions(up, k):
    """Extend a poset on k-1 elements (up-mask tuple) by a new maximal
    element, one extension per down-set: the elements below it."""
    m = k - 1
    base = Poset([str(i) for i in range(m)], up, _trusted=True)
    for d_mask in (base.full_mask ^ upset for upset in base.all_upsets()):
        yield tuple(u | (d_mask >> i & 1) << m for i, u in enumerate(up)) + (1 << m,)


# ---------------------------------------------------------------------------
# JSON format


def poset_to_json(p: Poset) -> dict:
    return {"elements": list(p.elements), "covers": [list(c) for c in p.covers()]}


def read_text(path: str) -> str:
    """The text of a UTF-8 file; bytes that do not decode raise MalformedInput."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise MalformedInput(f"{path} is not UTF-8: {e.reason} at byte {e.start}") from None


def json_object(data, *keys) -> dict:
    """A JSON object holding keys, given as a dict or as JSON text, else MalformedInput."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise MalformedInput(f"invalid JSON: {e}") from None
    if not isinstance(data, dict) or not set(keys) <= data.keys():
        raise MalformedInput("expected a JSON object" + "".join(f' with "{k}"' for k in keys))
    return data


def is_name_list(x) -> bool:
    return isinstance(x, (list, tuple)) and all(isinstance(e, str) for e in x)


def poset_from_json(data) -> Poset:
    """Poset from {"elements": [...], "covers": [[a, b], ...]}, given as a
    dict or as JSON text. Malformed data raises MalformedInput."""
    data = json_object(data, "elements", "covers")
    elements, covers = data["elements"], data["covers"]
    if not is_name_list(elements):
        raise MalformedInput('"elements" must be a list of strings')
    if not isinstance(covers, list) or not all(is_name_list(c) and len(c) == 2 for c in covers):
        raise MalformedInput('"covers" must be a list of [lower, upper] pairs of strings')
    return from_covers(elements, [tuple(c) for c in covers])
