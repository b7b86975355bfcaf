"""Finite posets used as Kripke frames and as face posets.

Elements are strings in a fixed canonical order; the order relation is
kept as per-element bitmasks (``up[i]`` = mask of everything above
element ``i``, itself included). Up-sets and lower sets are plain int
bitmasks relative to that canonical order, so the canonical enumeration
order of up-sets is just ascending integers.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import (
    CapExceeded,
    CycleError,
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
            raise ValueError("duplicate element identifiers")
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.up: tuple[int, ...] = tuple(up_masks)
        n = len(self.elements)
        if len(self.up) != n:
            raise ValueError("one up-mask per element required")
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
                raise ValueError(f"relation not reflexive at {self.elements[i]}")
            if self.up[i] >> n:
                raise ValueError("up-mask references unknown element")
            m = self.up[i]
            while m:
                j = (m & -m).bit_length() - 1
                if self.up[j] & ~self.up[i]:
                    raise ValueError("relation not transitive")
                if j != i and self.up[j] >> i & 1:
                    raise ValueError(
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

    def minimal_of(self, mask: int) -> int:
        """Minimal elements of the subset given by mask."""
        out = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if not (self.down[i] & mask & ~(1 << i)):
                out |= 1 << i
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
        """Every up-set as a bitmask, ascending. Raises CapExceeded."""
        n = len(self.elements)
        # Process elements maximal-first (smallest principal up-set first)
        # so that when an element is decided, everything strictly above it
        # has already been decided.
        order = sorted(range(n), key=lambda i: bin(self.up[i]).count("1"))
        out: list[int] = []
        stack = [(0, 0)]  # (position in order, mask so far)
        while stack:
            pos, mask = stack.pop()
            if pos == n:
                out.append(mask)
                if len(out) > cap:
                    raise CapExceeded(len(out))
                continue
            i = order[pos]
            stack.append((pos + 1, mask))
            if self.up[i] & ~(1 << i) & ~mask == 0:
                stack.append((pos + 1, mask | 1 << i))
        out.sort()
        return out

    def all_downsets(self, cap: int = DEFAULT_UPSET_CAP) -> list[int]:
        full = self.full_mask
        return sorted(full & ~u for u in self.all_upsets(cap))

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
        map is known)."""
        if sorted(mapping) != sorted(self.elements):
            return False
        if sorted(mapping.values()) != sorted(other.elements):
            return False
        for a in self.elements:
            for b in self.elements:
                if self.leq(a, b) != other.leq(mapping[a], mapping[b]):
                    return False
        return True


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
    dom: Poset
    cod: Poset
    mapping: tuple[str, ...]  # image of dom.elements[i]

    def __post_init__(self):
        if len(self.mapping) != len(self.dom):
            raise NotMonotone("mapping must be total on the domain")
        for name in self.mapping:
            if name not in self.cod.index:
                raise UnknownElement(name)
        for a, b in itertools.combinations(range(len(self.dom)), 2):
            for x, y in ((a, b), (b, a)):
                if self.dom.up[x] >> y & 1 and not self.cod.leq(
                    self.mapping[x], self.mapping[y]
                ):
                    raise NotMonotone(
                        f"{self.dom.elements[x]} <= {self.dom.elements[y]} but "
                        f"{self.mapping[x]} !<= {self.mapping[y]}"
                    )

    def __call__(self, name: str) -> str:
        return self.mapping[self.dom.index[name]]

    def image_mask(self, dom_mask: int) -> int:
        out = 0
        m = dom_mask
        while m:
            i = (m & -m).bit_length() - 1
            out |= 1 << self.cod.index[self.mapping[i]]
            m &= m - 1
        return out

    def preimage_mask(self, cod_mask: int) -> int:
        out = 0
        for i, name in enumerate(self.mapping):
            if cod_mask >> self.cod.index[name] & 1:
                out |= 1 << i
        return out

    def is_surjective(self) -> bool:
        return self.image_mask(self.dom.full_mask) == self.cod.full_mask


def is_pmorphism(f: MonotoneMap):
    """Check f[up a] = up f(a) for all a.

    Returns (True, None) or (False, (a, missed_target)).
    """
    for i, a in enumerate(f.dom.elements):
        have = f.image_mask(f.dom.up[i])
        want = f.cod.up[f.cod.index[f.mapping[i]]]
        if have != want:
            missed = want & ~have | have & ~want
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


def enumerate_posets(n: int, max_depth: int | None = None):
    """All posets on n labelled elements x1..xn with depth <= max_depth,
    one per isomorphism class, in deterministic order.

    Built by extending each (k-1)-element poset with a fresh element in
    every consistent way, deduplicating by canonical form at each size.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    forms = {(1,)}  # canonical up-mask tuples on 1 element
    for k in range(2, n + 1):
        nxt = set()
        for form in forms:
            for extended in _extensions(form, k):
                if max_depth is not None:
                    p = Poset([f"t{i}" for i in range(k)], extended, _trusted=True)
                    if p.depth() > max_depth:
                        continue
                nxt.add(_canonical_form(extended, k))
        forms = nxt
    names = [f"x{i + 1}" for i in range(n)]
    for form in sorted(forms):
        yield Poset(names, form, _trusted=True)


def _extensions(up, k):
    """Extend a poset on k-1 elements (up-mask tuple) by a new element."""
    m = k - 1
    base = Poset([str(i) for i in range(m)], up, _trusted=True)
    downsets = base.all_downsets()
    upsets = base.all_upsets()
    for d_mask in downsets:
        for u_mask in upsets:
            if d_mask & u_mask:
                continue
            ok = True
            dm = d_mask
            while dm and ok:
                i = (dm & -dm).bit_length() - 1
                if u_mask & ~up[i]:
                    ok = False
                dm &= dm - 1
            if not ok:
                continue
            new_up = list(up)
            for i in range(m):
                if d_mask >> i & 1:
                    new_up[i] |= 1 << m
            new_up.append(u_mask | 1 << m)
            yield tuple(new_up)


# ---------------------------------------------------------------------------
# JSON format


def poset_to_json(p: Poset) -> dict:
    return {"elements": list(p.elements), "covers": [list(c) for c in p.covers()]}


def poset_from_json(data) -> Poset:
    if isinstance(data, str):
        data = json.loads(data)
    return from_covers(data["elements"], [tuple(c) for c in data["covers"]])
