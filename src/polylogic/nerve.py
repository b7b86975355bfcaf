"""Nerve of a finite poset, its canonical realization on standard basis
vectors, the max-element p-morphism, and countermodel transfer."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyPoset, NotACountermodel, SoundnessError
from .formula import Formula, pretty
from .poset import MonotoneMap, Poset, from_covers
from .simplicial import Complex, DefinableSet, build_complex, complex_to_json

__all__ = [
    "nerve",
    "realize",
    "max_pmorphism",
    "transfer_countermodel",
    "PolyhedralCountermodel",
]


def _chains(a: Poset) -> list[tuple[int, ...]]:
    """All nonempty chains, as sorted tuples of element indices."""
    n = len(a)
    out = []

    def extend(chain, last):
        out.append(tuple(chain))
        for j in range(n):
            if j != last and a.up[last] >> j & 1:
                chain.append(j)
                extend(chain, j)
                chain.pop()

    for i in range(n):
        extend([i], i)
    return sorted(set(tuple(sorted(c)) for c in out))


def _chain_name(a: Poset, chain: tuple[int, ...]) -> str:
    names = sorted(a.elements[i] for i in chain)
    if all(len(x) == 1 for x in a.elements):
        return "".join(names)
    return ",".join(names)


def nerve(a: Poset) -> Poset:
    """Poset of all nonempty chains of a, ordered by inclusion."""
    if len(a) == 0:
        raise EmptyPoset("nerve of the empty poset")
    chains = _chains(a)
    names = [_chain_name(a, c) for c in chains]
    sets = [frozenset(c) for c in chains]
    up = []
    for s in sets:
        mask = 0
        for k, t in enumerate(sets):
            if s <= t:
                mask |= 1 << k
        up.append(mask)
    return Poset(names, up)


def realize(a: Poset) -> Complex:
    """Geometric realization: element a_i sits at the i-th standard basis
    vector of R^n (n = |a|), one simplex per chain."""
    if len(a) == 0:
        raise EmptyPoset("cannot realize the empty poset")
    n = len(a)
    vertices = {
        a.elements[i]: [str(Fraction(int(i == j))) for j in range(n)]
        for i in range(n)
    }
    chains = _chains(a)
    maximal = [c for c in chains if not any(c != d and set(c) < set(d) for d in chains)]
    return build_complex(vertices, [[a.elements[i] for i in c] for c in maximal])


def max_pmorphism(a: Poset) -> MonotoneMap:
    """The p-morphism nerve(a) -> a sending each chain to its maximum."""
    if len(a) == 0:
        raise EmptyPoset("max p-morphism needs a nonempty poset")
    nv = nerve(a)
    chains = _chains(a)
    images = []
    for c in chains:
        mx = c[0]
        for i in c[1:]:
            if a.up[mx] >> i & 1:
                mx = i
        images.append(a.elements[mx])
    return MonotoneMap(nv, a, tuple(images))


@dataclass
class PolyhedralCountermodel:
    complex: Complex
    frame: Poset  # nerve frame = face poset of the complex
    formula: Formula
    valuation: dict[str, int]  # up-set masks over the nerve frame
    evaluation: int  # up-set mask, != top

    def evaluation_set(self) -> DefinableSet:
        return DefinableSet(self.complex, "open", self.evaluation)

    def to_json(self) -> dict:
        return {
            "formula": pretty(self.formula),
            "complex": complex_to_json(self.complex),
            "valuation": {
                p: self.frame.names_of(mask) for p, mask in sorted(self.valuation.items())
            },
            "evaluation": self.frame.names_of(self.evaluation),
            "dimension": self.complex.dim(),
        }


def transfer_countermodel(a: Poset, valuation: dict[str, int], f: Formula) -> PolyhedralCountermodel:
    """Turn a frame refutation of f on a into a polyhedral one of the same
    dimension, via the nerve and the max p-morphism.

    The formula is re-evaluated on both the source frame and the nerve
    frame; both evaluations must refute.
    """
    from .algebra import eval_formula
    from .poset import is_pmorphism

    if eval_formula(a, valuation, f) == a.full_mask:
        raise NotACountermodel("valuation does not refute the formula on the frame")
    k = realize(a)
    face = k.face_poset()
    pm = max_pmorphism(a)
    ok, witness = is_pmorphism(pm)
    if not (ok and pm.is_surjective()):
        raise SoundnessError(f"max map is not a surjective p-morphism, witness {witness}")
    # pm's domain is nerve(a); align it with the face poset by name
    if sorted(pm.dom.elements) != sorted(face.elements):
        raise SoundnessError("nerve and face poset of the realization differ")
    transferred = {}
    for p, mask in valuation.items():
        nerve_mask = pm.preimage_mask(mask)
        transferred[p] = face.mask_of(pm.dom.names_of(nerve_mask))
    value = eval_formula(face, transferred, f)
    if value == face.full_mask:
        raise NotACountermodel("transferred valuation fails to refute on the nerve")
    return PolyhedralCountermodel(k, face, f, transferred, value)
