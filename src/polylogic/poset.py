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

from .errors import CapExceeded, CycleError, MalformedInput, NotMonotone, UnknownElement

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
DEFAULT_BUDGET = 10**7  # valuations is_valid checks before it refuses


class Poset:
    __slots__ = ("elements", "index", "up", "down")

    def __init__(self, elements, up_masks, *, _down=None):
        """The order with these up-masks; given _down, its converse rows, it is trusted."""
        self.elements: tuple[str, ...] = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise MalformedInput("duplicate element identifiers")
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.up: tuple[int, ...] = tuple(up_masks)
        n = len(self.elements)
        if len(self.up) != n:
            raise MalformedInput("one up-mask per element required")
        if _down is None and any(u >> n for u in self.up):
            raise MalformedInput("up-mask references unknown element")
        self.down: tuple[int, ...] = tuple(_transpose(self.up, n) if _down is None else _down)
        if _down is None:
            self._validate()

    @classmethod
    def _from_up(cls, elements, up_masks) -> "Poset":
        """A trusted order given by its up-masks alone; its converse rows are transposed here."""
        return cls(elements, up_masks, _down=_transpose(up_masks, len(up_masks)))

    def _validate(self):
        up, down = self.up, self.down
        for i, e in enumerate(self.elements):
            if not up[i] >> i & 1:
                raise MalformedInput(f"relation not reflexive at {e}")
            if _union(up, up[i]) != up[i]:
                raise MalformedInput("relation not transitive")
            both = up[i] & down[i] & ~(1 << i)
            if both:
                j = (both & -both).bit_length() - 1
                raise MalformedInput(f"relation not antisymmetric on {e}, {self.elements[j]}")

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
        return _union(self.up, mask)

    def down_closure(self, mask: int) -> int:
        return _union(self.down, mask)

    def imp(self, u: int, v: int) -> int:
        """Heyting implication in Up(P): {a : up(a) n u <= v}, i.e. the
        complement of the down-closure of u \\ v."""
        return self.full_mask & ~self.down_closure(u & ~v)

    def op(self) -> "Poset":
        """The opposite order on the same elements: its up-sets are the
        down-sets of self, so Lo(P) is Up(P.op())."""
        return Poset(self.elements, self.down, _down=self.up)

    def is_upset(self, mask: int) -> bool:
        return self.up_closure(mask) == mask

    def is_downset(self, mask: int) -> bool:
        return self.down_closure(mask) == mask

    def covers(self) -> list[tuple[str, str]]:
        """Hasse covers (a, b) with a < b, in canonical order."""
        out = []
        for a, row in zip(self.elements, _cover_rows(self.up)):
            while row:
                low = row & -row
                out.append((a, self.elements[low.bit_length() - 1]))
                row ^= low
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

    def depth(self) -> int:
        """Longest chain cardinality minus one, -1 for the empty poset: one
        less than the number of times the maximal points can be peeled off."""
        return _depth(self.up)

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


def _union(rows, mask: int) -> int:
    """The OR of rows[i] over the set bits i of mask, rows being a list or a
    dict of masks: the Boolean matrix-vector product of a relation and a set."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _depth(up) -> int:
    """The depth of the order with these up-masks: each pass removes the points
    of rest with nothing else of rest above them, the maximal points of rest."""
    rest, depth = (1 << len(up)) - 1, -1
    while rest:
        rest ^= sum(1 << i for i, u in enumerate(up) if u & rest == 1 << i)
        depth += 1
    return depth


def _cover_rows(rows) -> list[int]:
    """The cover rows of the order with these rows: row i minus i and minus all
    that the rest of row i reaches. Up rows give upper covers, down rows lower."""
    strict = [row ^ 1 << i for i, row in enumerate(rows)]
    return [row & ~_union(strict, row) for row in strict]


def _transpose(rows, n: int) -> list[int]:
    """The n rows of the converse relation: bit i of row j iff bit j of rows[i]."""
    out = [0] * n
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def from_covers(elements, covers) -> Poset:
    """Poset from Hasse covers; leq is the reflexive-transitive closure, taken in
    one depth-first walk: a point's up-mask is its bit OR its successors', set on
    leaving it. A step onto the walk raises CycleError naming the walk from there.
    The down rows follow in reverse finishing order, which puts each point before
    its successors: its finished down row is ORed into theirs, one OR per cover."""
    elements = tuple(elements)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    succ = [0] * n
    for a, b in covers:
        if a not in index or b not in index:
            raise UnknownElement(a if a not in index else b)
        if a != b:
            succ[index[a]] |= 1 << index[b]
    up = [0] * n  # nonzero once the walk has left the point
    finished = []
    for root in range(n):
        if up[root]:
            continue
        walk, todo, on_walk = [root], [succ[root]], 1 << root
        while walk:
            low = todo[-1] & -todo[-1]
            if not low:
                x, _ = walk.pop(), todo.pop()
                up[x] = 1 << x | _union(up, succ[x])
                on_walk ^= 1 << x
                finished.append(x)
                continue
            todo[-1] ^= low
            y = low.bit_length() - 1
            if on_walk & low:
                raise CycleError([elements[k] for k in walk[walk.index(y):] + [y]])
            if not up[y]:
                walk.append(y)
                todo.append(succ[y])
                on_walk |= low
    down = [1 << x for x in range(n)]
    for x in reversed(finished):
        row = succ[x]
        while row:
            low = row & -row
            down[low.bit_length() - 1] |= down[x]
            row ^= low
    return Poset(elements, up, _down=down)


# ---------------------------------------------------------------------------
# Monotone maps and p-morphisms


class _Frozen:
    """A record whose __init__ fills __dict__, immutable after it, with the
    ==, hash and repr of a frozen dataclass over the fields in _fields."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"


class MonotoneMap(_Frozen):
    """A map given by the names of the images of dom.elements, kept as their
    cod indices; monotone iff up x <= f^-1(up f(x)), i.e. f[up x] <= up f(x).
    == and hash compare dom and cod by identity and the mapping. _fibres
    holds the preimage of each point of cod."""

    _fields = ("dom", "cod", "mapping")

    def __init__(self, dom: Poset, cod: Poset, mapping: tuple[str, ...]):
        if len(mapping) != len(dom):
            raise NotMonotone("mapping must be total on the domain")
        cod.mask_of(mapping)  # raises UnknownElement
        image = tuple(cod.index[name] for name in mapping)
        self.__dict__.update(dom=dom, cod=cod, mapping=mapping, image=image,
                             _fibres=_transpose([1 << j for j in image], len(cod)))
        for x, fx in enumerate(image):
            bad = dom.up[x] & ~self.preimage_mask(cod.up[fx])
            if bad:
                y = (bad & -bad).bit_length() - 1
                raise NotMonotone(f"{dom.elements[x]} <= {dom.elements[y]} but "
                                  f"{mapping[x]} !<= {mapping[y]}")

    def __call__(self, name: str) -> str:
        return self.mapping[self.dom.index[name]]

    def image_mask(self, dom_mask: int) -> int:
        return sum(1 << y for y, fibre in enumerate(self._fibres) if fibre & dom_mask)

    def preimage_mask(self, cod_mask: int) -> int:
        return _union(self._fibres, cod_mask)

    def is_surjective(self) -> bool:
        return all(self._fibres)


def is_pmorphism(f: MonotoneMap):
    """Check f[up a] = up f(a) for all a: (True, None), or (False, (a, missed))
    for the first a that fails. For monotone f that is f^-1(down y) = down f^-1(y)
    for each y in cod, a point a on the left only having f(a) <= y = f(b) for no b >= a."""
    bad = 0
    for y, fibre in enumerate(f._fibres):
        bad |= f.preimage_mask(f.cod.down[y]) & ~f.dom.down_closure(fibre)
    if not bad:
        return True, None
    i = (bad & -bad).bit_length() - 1
    missed = f.image_mask(f.dom.up[i]) ^ f.cod.up[f.image[i]]
    j = (missed & -missed).bit_length() - 1
    return False, (f.dom.elements[i], f.cod.elements[j])


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
    down = _transpose(up, n)
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
        bits = {old: 1 << new for new, old in enumerate(perm)}
        cand = tuple([_union(bits, up[old]) for old in perm])
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
                    if max_depth is None or _depth(extended) <= max_depth:
                        nxt.add(_canonical_form(extended, k))
            levels.append(tuple(sorted(nxt)))
        level = levels[n - 1]
    names = [f"x{i + 1}" for i in range(n)]
    for form in level:
        yield Poset._from_up(names, form)


def _extensions(up, k):
    """Extend a poset on k-1 elements (up-mask tuple) by a new maximal
    element, one extension per down-set: the elements below it."""
    m = k - 1
    base = Poset._from_up([str(i) for i in range(m)], up)
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
        except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deep
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
