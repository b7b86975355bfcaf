"""Seeded inputs and reference answers for the three workloads.

Every workload is a fixed list of operations (one *pass*) that the runner
repeats for the length of a run. The seed draws the concrete inputs: atom
names, substitution instances, element names and orders, random frames,
points and sets. The *composition* of a pass (how many operations of each
kind and cost class) is the same for every seed, so that runs with
different seeds measure comparable work:

* exactly one or two operations per pass are heavier than a class of at
  least five operations of nearly equal cost, so the tail percentile
  (ten successful operations beyond it) falls inside that class for any
  pass count from 2 to 5;
* a majority class of cheap operations holds the median.

Nothing here imports polylogic; expected answers come from ``reference``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference as ref
from reference import atom, conj, disj, imp, neg

WORKLOADS = ("frame-search", "wide-frames", "polyhedra")

NO_COUNTERMODEL = "NoCountermodelUpToBound"
REFUTED_ON_FRAME = "RefutedOnFrame"
REFUTED_ON_POLYHEDRON = "RefutedOnPolyhedron"

CORPUS_COMPLEXES = ("square", "simplex0", "simplex1", "simplex2", "simplex3", "simplex4", "sphere2")


@dataclass
class Workload:
    name: str
    ops: list[dict]
    formulas: list = field(default_factory=list)  # reference ASTs
    frames: list[dict] = field(default_factory=list)  # poset JSON documents
    complexes: list[dict] = field(default_factory=list)  # complex JSON documents
    properties: dict = field(default_factory=dict)

    def inputs(self) -> dict:
        """What the program loads: formula texts, poset and complex JSON."""
        return {
            "formulas": [ref.render(f) for f in self.formulas],
            "frames": self.frames,
            "complexes": self.complexes,
        }

    def formula(self, f) -> int:
        self.formulas.append(f)
        return len(self.formulas) - 1

    def frame(self, doc) -> int:
        self.frames.append(doc)
        return len(self.frames) - 1

    def complex(self, doc) -> int:
        self.complexes.append(doc)
        return len(self.complexes) - 1

    def add(self, kind: str, args: dict, expect: dict):
        self.ops.append({"kind": kind, "args": args, "expect": expect})


def build(name: str, seed: int, root: Path) -> Workload:
    """The workload ``name`` for ``seed``; ``root`` is the repository root."""
    rng = random.Random(f"{name}:{seed}")
    w = Workload(name, [])
    if name == "frame-search":
        _frame_search(w, rng)
    elif name == "wide-frames":
        _wide_frames(w, rng, root)
    elif name == "polyhedra":
        _polyhedra(w, rng, root)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return w


# ---------------------------------------------------------------------------
# frame-search: what `counter` does


def _hilbert_schemas():
    """The intuitionistic Hilbert axioms as (name, arity, builder)."""
    return [
        ("K", 2, lambda a, b, c: imp(a, imp(b, a))),
        ("S", 3, lambda a, b, c: imp(imp(a, imp(b, c)), imp(imp(a, b), imp(a, c)))),
        ("and-e1", 2, lambda a, b, c: imp(conj(a, b), a)),
        ("and-e2", 2, lambda a, b, c: imp(conj(a, b), b)),
        ("and-i", 2, lambda a, b, c: imp(a, imp(b, conj(a, b)))),
        ("or-i1", 2, lambda a, b, c: imp(a, disj(a, b))),
        ("or-i2", 2, lambda a, b, c: imp(b, disj(a, b))),
        ("or-e", 3, lambda a, b, c: imp(imp(a, c), imp(imp(b, c), imp(disj(a, b), c)))),
        ("efq", 1, lambda a, b, c: imp(ref.BOT, a)),
        ("neg-i", 2, lambda a, b, c: imp(imp(a, b), imp(imp(a, neg(b)), neg(a)))),
    ]


# Named non-theorems and the size of their smallest refuting frame.
NON_THEOREMS = [
    ("excluded-middle", lambda a, b: disj(a, neg(a)), 2),
    ("weak-excluded-middle", lambda a, b: disj(neg(a), neg(neg(a))), 3),
    ("peirce", lambda a, b: imp(imp(imp(a, b), a), a), 2),
    ("dummett", lambda a, b: disj(imp(a, b), imp(b, a)), 3),
    ("double-negation", lambda a, b: imp(neg(neg(a)), a), 2),
]


def _literals(rng, count, negate):
    names = rng.sample(["p", "q", "r"], 3)
    lits = [atom(n) for n in names]
    if negate:
        lits = [neg(x) if rng.random() < 0.5 else x for x in lits]
    return lits[:count] + [None] * (3 - count)


def _frame_search(w: Workload, rng):
    schemas = _hilbert_schemas()
    by_name = {s[0]: s for s in schemas}

    def theorem(schema, max_size, negate):
        name, arity, build_f = schema
        f = build_f(*_literals(rng, arity, negate))
        w.add("counter", {"formula": w.formula(f), "max_size": max_size},
              {"status": NO_COUNTERMODEL, "family": f"theorem:{name}"})

    # One size-7 search per pass (the heaviest operation).
    theorem(by_name["K"], 7, False)
    # The tail class: five 3-atom theorems exhausting every frame up to size 6.
    for _ in range(5):
        theorem(by_name[rng.choice(["S", "or-e"])], 6, False)
    # Every Hilbert schema once at size 5.
    for schema in schemas:
        theorem(schema, 5, True)
    # Named non-theorems with renamed atoms; six renamings of each.
    for name, build_f, min_size in NON_THEOREMS:
        for _ in range(6):
            a, b, _c = _literals(rng, 2, False)
            w.add("counter", {"formula": w.formula(build_f(a, b)), "max_size": rng.choice([5, 6])},
                  {"status": REFUTED_ON_FRAME, "family": name, "size": min_size})
    # Bounded-depth decisions: bd(d) holds at depth <= d ...
    for d, size in ((1, rng.choice([5, 6])), (2, 5), (3, 6)):
        w.add("decide", {"formula": w.formula(ref.bd(d)), "depth": d, "max_size": size},
              {"status": NO_COUNTERMODEL, "family": f"bd({d})"})
    # ... and bd(d-1) is refuted there, on a (d+1)-chain at the smallest.
    for d in (1, 2, 3):
        w.add("decide", {"formula": w.formula(ref.bd(d - 1)), "depth": d,
                         "max_size": rng.choice([5, 6])},
              {"status": REFUTED_ON_FRAME, "family": f"bd({d - 1})", "size": d + 1})
    _renumber(w, rng)
    w.properties = {
        "max_sizes": sorted({op["args"]["max_size"] for op in w.ops}),
        "atoms_per_formula": sorted({len(ref.atoms_of(f)) for f in w.formulas}),
        "families": sorted({op["expect"]["family"].split(":")[0] for op in w.ops}),
    }


# ---------------------------------------------------------------------------
# wide-frames: what `frame check` and `suite esakia|ji|dimbd` do


def _poset_doc(elements, covers, rng):
    elements = list(elements)
    rng.shuffle(elements)
    covers = [list(c) for c in covers]
    rng.shuffle(covers)
    return {"elements": elements, "covers": covers}


def _antichain(n, rng):
    return _poset_doc([f"w{i}" for i in range(n)], [], rng)


def _chain_union(k, length, rng):
    names = [[f"c{i}{chr(97 + j)}" for j in range(length)] for i in range(k)]
    covers = [(c[j], c[j + 1]) for c in names for j in range(length - 1)]
    return _poset_doc([e for c in names for e in c], covers, rng)


def _random_poset(n, rng, accept, names=None, edge_p=0.25):
    """Random poset on n elements, redrawn until ``accept(frame)`` holds.

    A random linear extension is fixed first; each later element lies above
    each earlier one with probability ``edge_p``, closed transitively. The
    covers of the closure are returned, in random order."""
    names = names or [f"v{i}" for i in range(n)]
    while True:
        order = rng.sample(names, n)
        above = {e: {e} for e in order}
        for j in range(n):
            for i in range(j):
                if rng.random() < edge_p:
                    above[order[i]].add(order[j])
        for i in reversed(range(n)):  # transitive closure, top-down
            e = order[i]
            for v in list(above[e]):
                above[e] |= above[v]
        covers = [
            (a, b) for a in order for b in above[a]
            if a != b and not any(c not in (a, b) and b in above[c] for c in above[a])
        ]
        frame = ref.Frame.from_covers(order, covers)
        if accept(frame):
            return _poset_doc(order, covers, rng)


# Formulas by atom count; each entry is (family, builder, bd index).
ONE_ATOM = [
    ("em", lambda a, b: disj(a, neg(a)), None),
    ("wem", lambda a, b: disj(neg(a), neg(neg(a))), None),
    ("theorem", lambda a, b: neg(neg(disj(a, neg(a)))), None),
    ("bd", lambda a, b: ref.bd(0), 0),
]
TWO_ATOMS = [
    ("dummett", lambda a, b: disj(imp(a, b), imp(b, a)), None),
    ("bd", lambda a, b: ref.bd(1), 1),
    ("theorem", lambda a, b: imp(a, imp(b, a)), None),
    ("theorem", lambda a, b: imp(conj(a, imp(a, b)), b), None),
]


def _frame_check(w: Workload, rng, doc, atom_count):
    family, build_f, d = rng.choice(ONE_ATOM if atom_count == 1 else TWO_ATOMS)
    a, b, _c = _literals(rng, 2, False)
    f = build_f(a, b)
    frame = ref.Frame.from_json(doc)
    w.add("frame_check", {"frame": w.frame(doc), "formula": w.formula(f)},
          {"valid": ref.frame_verdict(frame, family, d), "family": family,
           "m": frame.upset_count()})


def _load_corpus(w: Workload, root: Path) -> dict[str, int]:
    out = {}
    for name in CORPUS_COMPLEXES:
        doc = json.loads((root / "corpus" / f"{name}.complex.json").read_text())
        out[name] = w.complex(doc)
    return out


def _wide_frames(w: Workload, rng, root: Path):
    # The single largest algebra: m = 4096, one atom only.
    _frame_check(w, rng, _antichain(12, rng), 1)
    # The tail class: five one-atom checks on an 11-antichain (m = 2048).
    for _ in range(5):
        _frame_check(w, rng, _antichain(11, rng), 1)
    for i in range(4):
        _frame_check(w, rng, _antichain(10, rng), 1 + i % 2)
    # Disjoint unions of short chains, 8-12 elements (m = 64..729).
    for i, (k, length) in enumerate(((4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (3, 4))):
        _frame_check(w, rng, _chain_union(k, length, rng), 1 + i % 2)
    # The median class: sparse random posets, 8-12 elements, m = 180..220,
    # one atom.
    for i in range(20):
        doc = _random_poset(8 + i % 5, rng, lambda fr: 180 <= fr.upset_count() <= 220,
                            edge_p=0.15)
        _frame_check(w, rng, doc, 1)
    # Esakia duality on 6-10-element frames with small algebras.
    esakia = [_chain_union(3, 2, rng), _chain_union(2, 4, rng), _chain_union(2, 5, rng),
              _random_poset(8, rng, lambda fr: 40 <= fr.upset_count() <= 64)]
    for doc in esakia:
        w.add("esakia", {"frame": w.frame(doc)}, {"ok": True})
    # Join-irreducible and dimension/bd suites on the corpus complexes.
    for name, idx in _load_corpus(w, root).items():
        w.add("ji", {"complex": idx, "name": name}, {"ok": True})
        w.add("dimbd", {"complex": idx, "name": name}, {"ok": True})
    _renumber(w, rng)
    ms = [op["expect"]["m"] for op in w.ops if op["kind"] == "frame_check"]
    w.properties = {
        "frame_sizes": sorted({len(d["elements"]) for d in w.frames}),
        "m_range": [min(ms), max(ms)],
        "atoms_per_formula": sorted({len(ref.atoms_of(f)) for f in w.formulas}),
    }


# ---------------------------------------------------------------------------
# polyhedra: what `complex carrier|verify`, `nerve realize` and
# `counter --polyhedral` do


LETTERS = "abcdefgh"


def _realization(doc):
    """(frame, vertex coordinates, chains, maximal chains) of realize(P):
    element i sits at the i-th standard basis vector, one simplex per chain."""
    frame = ref.Frame.from_json(doc)
    n = len(doc["elements"])
    vertices = {
        e: [str(int(i == j)) for j in range(n)] for i, e in enumerate(doc["elements"])
    }
    chain_list = ref.chains(frame.elements, frame.above)
    maximal = [sorted(c) for c in chain_list if not any(c < o for o in chain_list)]
    return frame, vertices, chain_list, maximal


def _simplices(maximal):
    return sorted(ref.faces(frozenset(m) for m in maximal), key=lambda s: (len(s), sorted(s)))


def _point(vertices, simplex, rng):
    """A point with strictly positive rational weights on ``simplex``."""
    verts = sorted(simplex)
    weights = [rng.randint(1, 97) for _ in verts]
    total = sum(weights)
    dim = len(next(iter(vertices.values())))
    return [
        str(sum(Fraction(wt, total) * Fraction(vertices[v][i]) for wt, v in zip(weights, verts)))
        for i in range(dim)
    ]


def _point_query(w: Workload, rng, target, vertices, simplices, gen):
    """Carrier, open-set and closed-set membership of one seeded point."""
    s1, s2 = rng.choice(simplices), rng.choice(simplices)
    c_gens = rng.sample(simplices, min(2, len(simplices)))
    d_gens = rng.sample(simplices, 1)
    u, v = ref.open_star(simplices, s1), ref.open_star(simplices, s2)
    c, d = ref.closure(c_gens), ref.closure(d_gens)
    hi = ref.heyting_implication(simplices, u, v)
    co = ref.co_implication(c, d)
    key = lambda s: sorted(s)
    w.add("point", {
        "on": target,
        "point": _point(vertices, gen, rng),
        "stars": [key(s1), key(s2)],
        "closed": [sorted(map(key, c)), sorted(map(key, d))],
        "generators": [key(g) for g in c_gens],
    }, {
        "carrier": key(gen),
        "member": {"U": s1 <= gen, "V": s2 <= gen, "U|V": s1 <= gen or s2 <= gen,
                   "U&V": s1 <= gen and s2 <= gen, "U->V": gen in hi,
                   "C": gen in c, "D": gen in d, "C<-D": gen in co,
                   "C-geom": any(gen <= g for g in c_gens)},
        "U->V": sorted(map(key, hi)),
        "C<-D": sorted(map(key, co)),
    })


def _depth_accept(depth, simplex_count):
    def accept(frame):
        return (frame.depth() == depth
                and len(ref.chains(frame.elements, frame.above)) == simplex_count)
    return accept


def _polyhedra(w: Workload, rng, root: Path):
    point_complexes = []  # (target, vertices, maximal simplices)
    for idx in _load_corpus(w, root).values():
        doc = w.complexes[idx]
        point_complexes.append(({"complex": idx}, doc["vertices"], doc["maximal"]))
    # realize(P) for seeded P: 6 elements, depth 3 and depth 4.
    for depth, count in ((3, 25), (4, 39)):
        doc = _random_poset(6, rng, _depth_accept(depth, count), names=list(LETTERS[:6]), edge_p=0.5)
        _frame, vertices, _chains, maximal = _realization(doc)
        point_complexes.append(({"realized": w.frame(doc)}, vertices, maximal))
    # Point queries: 70 per complex, generating simplices cycling through a
    # seeded order so every simplex of a complex is used equally often.
    for target, vertices, maximal in point_complexes:
        simplices = _simplices(maximal)
        order = rng.sample(simplices, len(simplices))
        for i in range(70):
            _point_query(w, rng, target, vertices, simplices, order[i % len(order)])
    # realize + verify_complex: the heaviest operation is the 5-chain
    # (a single 4-simplex), relabelled; the tail class is three 5-element
    # depth-3 realizations and three perturbed copies of such realizations.
    chain5 = rng.sample(LETTERS[:5], 5)
    doc = _poset_doc(chain5, list(zip(chain5, chain5[1:])), rng)
    w.add("realize_verify", {"frame": w.frame(doc)},
          {"ok": True, "simplices": _chain_names(doc)})
    for _ in range(3):
        doc = _random_poset(5, rng, _depth_accept(3, 19), names=list(LETTERS[:5]), edge_p=0.5)
        w.add("realize_verify", {"frame": w.frame(doc)},
              {"ok": True, "simplices": _chain_names(doc)})
    for _ in range(3):
        doc = _random_poset(5, rng, _depth_accept(3, 19), names=list(LETTERS[:5]), edge_p=0.5)
        cdoc, pair = _perturbed(doc, rng)
        w.add("verify_perturbed", {"complex": w.complex(cdoc)}, {"ok": False, "pair": pair})
    # counter --polyhedral: bd(d-1) at depth d, d = 1..3.
    for d in (1, 2, 3):
        w.add("polyhedral", {"formula": w.formula(ref.bd(d - 1)), "depth": d,
                             "max_size": rng.choice([d + 1, 5])},
              {"status": REFUTED_ON_POLYHEDRON, "dimension": d})
    _renumber(w, rng)
    w.properties = {
        "point_queries": sum(op["kind"] == "point" for op in w.ops),
        "simplices_per_complex": sorted({len(_simplices(m)) for _t, _v, m in point_complexes}),
    }


def _chain_names(doc):
    _frame, vertices, chain_list, _maximal = _realization(doc)
    return sorted(ref.simplex_name(list(vertices), c) for c in chain_list)


def _perturbed(doc, rng):
    """realize(P) with one vertex pushed into the interior of a chain it is
    not comparable with. Returns (complex JSON, expected violating pair)."""
    frame, vertices, chain_list, maximal = _realization(doc)
    candidates = [
        (v, c) for c in chain_list if len(c) >= 2 for v in frame.elements
        if v not in c and not all(v in frame.above[u] or u in frame.above[v] for u in c)
    ]
    v, c = rng.choice(sorted(candidates, key=lambda vc: (vc[0], sorted(vc[1]))))
    vertices = dict(vertices)
    vertices[v] = _point(vertices, c, rng)
    ids = list(vertices)
    return ({"dim": len(vertices), "vertices": vertices, "maximal": maximal},
            sorted([ref.simplex_name(ids, {v}), ref.simplex_name(ids, c)]))


def _renumber(w: Workload, rng):
    """Shuffle the pass order and give operations ids in that order."""
    rng.shuffle(w.ops)
    for i, op in enumerate(w.ops):
        op["id"] = f"{w.name[:2]}{i:03d}"
