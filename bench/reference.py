"""Reference answers computed without polylogic.

Formulas are nested tuples: ``("atom", name)``, ``("bot",)``, ``("top",)``
and ``(op, left, right)`` with ``op`` in ``and``/``or``/``imp``. Frames are
finite posets given as element names plus Hasse covers (the program's
JSON format), closed here under reflexivity and transitivity. Simplices
are frozensets of vertex ids. Nothing in this module imports polylogic, so
a wrong answer from the program cannot also be the reference's answer.
"""

from __future__ import annotations

from itertools import combinations

BOT = ("bot",)
TOP = ("top",)


def atom(name):
    return ("atom", name)


def neg(f):
    return ("imp", f, BOT)


def imp(a, b):
    return ("imp", a, b)


def conj(a, b):
    return ("and", a, b)


def disj(a, b):
    return ("or", a, b)


def bd(d):
    """Bounded-depth axiom over p0..pd, built the way the paper states it."""
    f = disj(atom("p0"), neg(atom("p0")))
    for k in range(1, d + 1):
        a = atom(f"p{k}")
        f = disj(a, imp(a, f))
    return f


def render(f) -> str:
    """Fully parenthesised concrete syntax accepted by ``polylogic.parse``."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "bot":
        return "false"
    if tag == "top":
        return "true"
    sym = {"and": "&", "or": "|", "imp": "->"}[tag]
    return f"({render(f[1])} {sym} {render(f[2])})"


def atoms_of(f) -> list[str]:
    out: list[str] = []

    def walk(g):
        if g[0] == "atom":
            if g[1] not in out:
                out.append(g[1])
        elif len(g) == 3:
            walk(g[1])
            walk(g[2])

    walk(f)
    return out


class Frame:
    """A finite poset as a Kripke frame: ``above[w]`` is the set of v >= w."""

    def __init__(self, elements, above):
        self.elements = list(elements)
        self.above = above

    @classmethod
    def from_covers(cls, elements, covers):
        succ = {e: set() for e in elements}
        for a, b in covers:
            succ[a].add(b)
        above = {}

        def reach(w):
            if w not in above:
                out = {w}
                for v in succ[w]:
                    out |= reach(v)
                above[w] = frozenset(out)
            return above[w]

        for e in elements:
            reach(e)
        return cls(elements, above)

    @classmethod
    def from_json(cls, doc):
        return cls.from_covers(doc["elements"], [tuple(c) for c in doc["covers"]])

    @classmethod
    def of_simplices(cls, simplices):
        """Face poset ordered by inclusion, keyed by the simplices themselves."""
        simplices = list(simplices)
        return cls(simplices, {s: frozenset(t for t in simplices if s <= t) for s in simplices})

    def is_upset(self, s) -> bool:
        return all(self.above[w] <= s for w in s)

    def maximal_above(self, w):
        return {v for v in self.above[w] if self.above[v] == {v}}

    def depth(self) -> int:
        memo = {}

        def height(w):
            if w not in memo:
                memo[w] = max((1 + height(v) for v in self.above[w] if v != w), default=0)
            return memo[w]

        return max(height(w) for w in self.elements)

    def is_antichain(self) -> bool:
        return all(self.above[w] == {w} for w in self.elements)

    def one_maximal_above_each(self) -> bool:
        return all(len(self.maximal_above(w)) == 1 for w in self.elements)

    def cones_are_chains(self) -> bool:
        return all(
            v in self.above[u] or u in self.above[v]
            for w in self.elements
            for u, v in combinations(self.above[w], 2)
        )

    def upset_count(self) -> int:
        """Number of up-sets, by extending over elements top-down."""
        order = sorted(self.elements, key=lambda w: len(self.above[w]))
        sets = [frozenset()]
        for w in order:
            strict = self.above[w] - {w}
            sets += [s | {w} for s in sets if strict <= s]
        return len(sets)


def value(frame: Frame, valuation, f) -> frozenset:
    """Worlds of ``frame`` that force ``f`` under ``valuation`` (atom -> set)."""
    tag = f[0]
    if tag == "atom":
        return frozenset(valuation[f[1]])
    if tag == "bot":
        return frozenset()
    if tag == "top":
        return frozenset(frame.elements)
    left = value(frame, valuation, f[1])
    right = value(frame, valuation, f[2])
    if tag == "and":
        return left & right
    if tag == "or":
        return left | right
    return frozenset(w for w in frame.elements if frame.above[w] & left <= right)


def refutation_error(frame: Frame, valuation, f) -> str | None:
    """None if ``valuation`` is a valuation of up-sets refuting ``f``."""
    for p in atoms_of(f):
        if p not in valuation:
            return f"witness leaves atom {p} unassigned"
        if not frame.is_upset(frozenset(valuation[p])):
            return f"witness value of {p} is not an up-set"
    if value(frame, valuation, f) == frozenset(frame.elements):
        return "witness does not refute the formula"
    return None


def frame_verdict(frame: Frame, family: str, d: int | None = None) -> bool:
    """Validity on ``frame`` of a formula family, from the order alone."""
    if family == "theorem":
        return True
    if family == "em":
        return frame.is_antichain()
    if family == "wem":
        return frame.one_maximal_above_each()
    if family == "dummett":
        return frame.cones_are_chains()
    if family == "bd":
        return frame.depth() <= d
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Simplicial references on raw vertex sets


def faces(maximal) -> set[frozenset]:
    out = set()
    for m in maximal:
        m = sorted(m)
        for r in range(1, len(m) + 1):
            out.update(frozenset(c) for c in combinations(m, r))
    return out


def chains(elements, above) -> list[frozenset]:
    """Nonempty chains of a poset given by ``above``."""
    out = []

    def grow(chain, last):
        out.append(frozenset(chain))
        for v in above[last]:
            if v != last and all(v in above[u] for u in chain):
                grow(chain + [v], v)

    for e in elements:
        grow([e], e)
    return sorted(set(out), key=lambda c: (len(c), sorted(c)))


def open_star(simplices, sigma) -> frozenset:
    return frozenset(t for t in simplices if sigma <= t)


def closure(generators) -> frozenset:
    return frozenset(faces(generators))


def heyting_implication(simplices, u, v) -> frozenset:
    return frozenset(s for s in simplices if all(t in v for t in u if s <= t))


def co_implication(c, d) -> frozenset:
    return closure(c - d)


def simplex_name(vertex_ids, s) -> str:
    sep = "," if any(len(v) != 1 for v in vertex_ids) else ""
    return sep.join(sorted(s))


def simplex_of_name(vertex_ids, name) -> frozenset:
    if any(len(v) != 1 for v in vertex_ids):
        return frozenset(name.split(","))
    return frozenset(name)


def polyhedral_error(doc, f, d) -> str | None:
    """Check a polyhedral countermodel (``PolyhedralCountermodel.to_json``)."""
    cx = doc["complex"]
    ids = list(cx["vertices"])
    simplices = faces(frozenset(m) for m in cx["maximal"])
    dim = max(len(s) for s in simplices) - 1
    if dim != d or doc["dimension"] != d:
        return f"polyhedral witness has dimension {dim} (reported {doc['dimension']}), expected {d}"
    frame = Frame.of_simplices(simplices)
    valuation = {
        p: frozenset(simplex_of_name(ids, n) for n in names) for p, names in doc["valuation"].items()
    }
    err = refutation_error(frame, valuation, f)
    if err:
        return "polyhedral " + err
    reported = {simplex_of_name(ids, n) for n in doc["evaluation"]}
    if reported != value(frame, valuation, f):
        return "polyhedral evaluation differs from the reference evaluation"
    return None
