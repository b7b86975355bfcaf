"""Nerve of a finite poset, realized from its maximal chains on standard
basis vectors, the max-element p-morphism, and countermodel transfer.
The nerve of a is the face poset of its realization, realize(a).face_poset()."""

from __future__ import annotations

from dataclasses import dataclass

from . import poset
from .algebra import eval_formula, valuation_to_json
from .errors import EmptyPoset, NotACountermodel, SoundnessError
from .formula import Formula, pretty
from .poset import MonotoneMap, Poset, _cover_rows, charge
from .simplicial import Complex, _separator, build_complex, complex_to_json

__all__ = [
    "realize",
    "max_pmorphism",
    "transfer_countermodel",
    "PolyhedralCountermodel",
]


def _maximal_chains(a: Poset) -> list[int]:
    """The maximal chains as element masks: the paths from a minimal point up
    through upper covers to a maximal point. Raises CapExceeded when a has more
    nonempty chains than the active cap, and MalformedInput on a name holding ","."""
    if len(a) == 0:
        raise EmptyPoset("the empty poset has no nonempty chains")
    _separator(a.elements)
    charge("chains", _chain_count(a))
    upper, out = _cover_rows(a.up), []
    stack = [(1 << x, x) for x in range(len(a)) if a.down[x] == 1 << x]
    while stack:
        chain, x = stack.pop()
        covers = upper[x]
        if not covers:
            out.append(chain)
        while covers:
            j = covers.bit_length() - 1
            stack.append((chain | 1 << j, j))
            covers ^= 1 << j
    return out


def _chain_count(a: Poset) -> int:
    """The number of nonempty chains: g(x) = 1 + sum of g(y) over y < x have
    maximum x, taken in down-set size order, a linear extension."""
    g = [0] * len(a)
    for x in sorted(range(len(a)), key=lambda i: a.down[i].bit_count()):
        g[x] = 1 + sum(g[y] for y in range(len(a)) if a.down[x] >> y & 1 and y != x)
    return sum(g)


def realize(a: Poset) -> Complex:
    """Geometric realization: element a_i sits at the i-th standard basis
    vector of R^n (n = |a|), one simplex per chain."""
    return _realize(a, _maximal_chains(a))


def _realize(a: Poset, maximal_chains: list[int]) -> Complex:
    """The complex whose maximal simplices are these chains, on the basis vectors."""
    n = len(a)
    vertices = {e: [str(int(i == j)) for j in range(n)] for i, e in enumerate(a.elements)}
    return build_complex(vertices, [a.names_of(c) for c in maximal_chains])


def max_pmorphism(a: Poset, k: Complex) -> MonotoneMap:
    """The map from the face poset of k, a realization of a, sending each
    simplex, a chain of a, to its maximum: the p-morphism from the nerve onto a."""
    return MonotoneMap(k.face_poset(), a, tuple(
        a.elements[a.maximal_of(a.mask_of(s)).bit_length() - 1] for s in k.simplices))


@dataclass
class PolyhedralCountermodel:
    complex: Complex
    frame: Poset  # nerve frame = face poset of the complex
    formula: Formula
    valuation: dict[str, int]  # up-set masks over the nerve frame
    evaluation: int  # up-set mask, != top

    def to_json(self) -> dict:
        return {
            "formula": pretty(self.formula),
            "complex": complex_to_json(self.complex),
            "valuation": valuation_to_json(self.frame, self.valuation),
            "evaluation": self.frame.names_of(self.evaluation),
            "dimension": self.complex.dim(),
        }


def transfer_countermodel(a: Poset, valuation: dict[str, int], f: Formula) -> PolyhedralCountermodel:
    """Turn a frame refutation of f on a into a polyhedral one of the same
    dimension, via the nerve and the max p-morphism.

    The formula is re-evaluated on both the source frame and the nerve
    frame; both evaluations must refute.
    """
    if eval_formula(a, valuation, f) == a.full_mask:
        raise NotACountermodel("valuation does not refute the formula on the frame")
    k = realize(a)
    face = k.face_poset()
    pm = max_pmorphism(a, k)
    ok, witness = poset.is_pmorphism(pm)
    if not (ok and pm.is_surjective()):
        raise SoundnessError(f"max map is not a surjective p-morphism, witness {witness}")
    transferred = {p: pm.preimage_mask(mask) for p, mask in valuation.items()}
    value = eval_formula(face, transferred, f)
    if value == face.full_mask:
        raise NotACountermodel("transferred valuation fails to refute on the nerve")
    return PolyhedralCountermodel(k, face, f, transferred, value)
