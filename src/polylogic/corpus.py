"""The bundled desk-scale corpus.

Complexes: a triangulated unit square, the single
d-simplex family (d <= 4), and the boundary of a 3-simplex. Posets: all
posets with up to five elements, one per isomorphism class.

Everything is generated programmatically; write_corpus() materialises
the JSON files for CLI use.
"""

from __future__ import annotations

import json
import os
import string

from .errors import MalformedInput, PolylogicError
from .poset import Poset, enumerate_posets, poset_from_json, poset_to_json, read_text
from .simplicial import Complex, build_complex, complex_from_json, complex_to_json

__all__ = [
    "square_complex",
    "simplex_complex",
    "boundary_3_simplex",
    "corpus_complexes",
    "corpus_posets",
    "write_corpus",
    "load_corpus",
]


def square_complex() -> Complex:
    """Unit square triangulated along the a-c diagonal."""
    return build_complex(
        {"a": ["0", "0"], "b": ["1", "0"], "c": ["1", "1"], "d": ["0", "1"]},
        [["a", "b", "c"], ["a", "c", "d"]],
    )


def simplex_complex(d: int) -> Complex:
    """A single d-simplex with all its faces (standard simplex in R^d)."""
    if not 0 <= d <= 25:
        raise ValueError("d out of range")
    names = list(string.ascii_lowercase[: d + 1])
    ambient = max(d, 1)
    vertices = {}
    for i, name in enumerate(names):
        coords = ["0"] * ambient
        if i > 0:
            coords[i - 1] = "1"
        vertices[name] = coords
    return build_complex(vertices, [names])


def boundary_3_simplex() -> Complex:
    """The four triangles bounding a tetrahedron (a 2-sphere)."""
    return build_complex(
        {
            "a": ["0", "0", "0"],
            "b": ["1", "0", "0"],
            "c": ["0", "1", "0"],
            "d": ["0", "0", "1"],
        },
        [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]],
    )


def corpus_complexes() -> dict[str, Complex]:
    out = {"square": square_complex()}
    for d in range(5):
        out[f"simplex{d}"] = simplex_complex(d)
    out["sphere2"] = boundary_3_simplex()
    return out


def corpus_posets(max_size: int = 5) -> list[Poset]:
    out = []
    for n in range(1, max_size + 1):
        out.extend(enumerate_posets(n))
    return out


def write_corpus(directory: str):
    os.makedirs(directory, exist_ok=True)
    for name, k in corpus_complexes().items():
        with open(os.path.join(directory, f"{name}.complex.json"), "w") as fh:
            json.dump(complex_to_json(k), fh, indent=1)
            fh.write("\n")
    posets = corpus_posets()
    for i, p in enumerate(posets):
        with open(os.path.join(directory, f"poset{i:03d}.json"), "w") as fh:
            json.dump(poset_to_json(p), fh, indent=1)
            fh.write("\n")


def load_corpus(directory: str, posets: bool) -> dict:
    """The complexes (*.complex.json files) or the posets (every other *.json
    file) in directory, keyed by file name less that suffix. A malformed file
    raises MalformedInput naming it."""
    suffix, parse = (".json", poset_from_json) if posets else (".complex.json", complex_from_json)
    out = {}
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(suffix) and fname.endswith(".complex.json") != posets:
            try:
                out[fname.removesuffix(suffix)] = parse(read_text(os.path.join(directory, fname)))
            except PolylogicError as e:
                raise MalformedInput(f"{fname}: {e}") from None
    return out
