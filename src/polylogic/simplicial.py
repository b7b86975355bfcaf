"""Exact-rational geometric simplicial complexes.

All geometry runs over ``fractions.Fraction``; no floating point enters
any semantic decision. Simplices are sorted tuples of vertex ids, kept in
``Complex.simplices`` sorted by (size, ids); the canonical display name
joins the sorted ids with ``_separator`` (``"acd"`` when every id is a
single character, comma-separated otherwise).

Each complex builds its face poset once, with element i the simplex
``simplices[i]``, from facets: the down-set of a simplex is itself and
the down-sets of its one-vertex deletions, which come before it in
simplex order, and its up-set is itself and the up-sets of its
cofacets, which come after; O(N * dim) row ORs for N simplices.

A definable set is a polarity plus an int bitmask over the face poset:
a down-set when closed, an up-set when open (PC^c(K) = Lo(F(K)) =
Up(F(K).op()), PC^o(K) = Up(F(K))). Its algebra is the frame algebra of
``Poset``; geometry enters only through carrier() and member().
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .errors import (AffinelyDependent, BadCoordinate, DimensionMismatch, DuplicateVertex,
                     MalformedInput, OutsideSupport, PolarityMismatch, UnknownSimplex)
from .poset import Poset, _Frozen, charge, is_name_list, json_object

__all__ = [
    "Complex",
    "DefinableSet",
    "build_complex",
    "verify_complex",
    "complex_from_json",
    "complex_to_json",
    "complex_to_off",
    "parse_rational",
]

Point = tuple[Fraction, ...]
SimplexKey = tuple[str, ...]  # sorted vertex ids


def parse_rational(s) -> Fraction:
    """Exact value of an int or of a decimal or fraction string. A decimal
    exponent over 4300 in magnitude, Python's default limit on decimal
    digit strings, is refused: building 10**e takes time quadratic in e."""
    if isinstance(s, int):
        return Fraction(s)
    _, e, exponent = str(s).lower().rpartition("e")  # only an exponent holds an e
    try:
        if e and abs(int(exponent)) > 4300:
            raise ValueError(s)
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        raise BadCoordinate(s) from None


# ---------------------------------------------------------------------------
# Exact linear algebra


def _rref(rows: list[list[Fraction]], ncols: int):
    """Gauss-Jordan elimination pivoting only on the first ncols columns
    (the unknowns); later columns are right-hand sides carried along.

    Returns (rows, pivots): rows[r] for r < len(pivots) is normalised with
    a 1 in column pivots[r] and 0 in every other pivot column; the
    leftover rows are zero on the unknowns, so a nonzero right-hand entry
    there means the system is inconsistent.
    """
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        pr = rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pr)]
        pivots.append(col)
    return rows, pivots


def affinely_independent(points: list[Point]) -> bool:
    if len(points) <= 1:
        return True
    base = points[0]
    rows = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    return len(_rref(rows, len(base))[1]) == len(points) - 1


def barycentric_coordinates(points: list[Point], x: Point):
    """Solve x = sum r_i p_i with sum r_i = 1; None if x is not in the
    affine hull of the (affinely independent) points."""
    k = len(points)
    # rows: one per ambient coordinate plus the normalisation row
    aug = [[p[i] for p in points] + [x[i]] for i in range(len(x))]
    aug.append([Fraction(1)] * (k + 1))
    rows, pivots = _rref(aug, k)
    if any(row[-1] != 0 for row in rows[len(pivots):]):
        return None  # inconsistent: x outside the affine hull
    coords = [Fraction(0)] * k
    for row, col in zip(rows, pivots):
        coords[col] = row[-1]
    return coords


# ---------------------------------------------------------------------------
# Complex


def _separator(ids) -> str:
    """What joins sorted ids into a simplex or chain name: nothing when every id
    is one character, "," otherwise. An id holding "," raises MalformedInput."""
    for i in ids:
        if "," in i:
            raise MalformedInput(f"id {i!r} contains ',', which separates the ids in a name")
    return "" if all(len(i) == 1 for i in ids) else ","


class Complex:
    """Geometric simplicial complex closed under nonempty faces;
    ``index[s]`` is the bit of simplex s in every mask over it."""

    def __init__(self, vertices: dict[str, Point], simplices: set[SimplexKey], ambient: int):
        self.vertices = dict(vertices)
        self.ambient = ambient
        self.simplices: list[SimplexKey] = sorted(simplices, key=lambda s: (len(s), s))
        self.index = {s: i for i, s in enumerate(self.simplices)}
        self._sep = _separator(self.vertices)
        n = len(self.simplices)
        facets = [[self.index[s[:j] + s[j + 1:]] for j in range(len(s))] if len(s) > 1 else []
                  for s in self.simplices]
        up, down = [1 << i for i in range(n)], [1 << i for i in range(n)]
        for i in range(n):  # the facets of a simplex come before it
            for j in facets[i]:
                down[i] |= down[j]
        for i in reversed(range(n)):  # and its cofacets after it, so up[i] is whole here
            for j in facets[i]:
                up[j] |= up[i]
        self._face = Poset([self.name(s) for s in self.simplices], up, _down=down)

    def __len__(self):
        return len(self.simplices)

    def name(self, key: SimplexKey) -> str:
        return self._sep.join(key)

    def key_of(self, name: str) -> SimplexKey:
        key = tuple(sorted(name.split(self._sep) if self._sep else name))
        if key not in self.index:
            raise UnknownSimplex(name)
        return key

    def _bit(self, key: SimplexKey) -> int:
        key = tuple(key)
        if key not in self.index:
            raise UnknownSimplex(self.name(key))
        return self.index[key]

    def simplices_of(self, mask: int) -> list[SimplexKey]:
        """The simplices whose bits are set in mask, in simplex order."""
        return [s for i, s in enumerate(self.simplices) if mask >> i & 1]

    def points_of(self, key: SimplexKey) -> list[Point]:
        return [self.vertices[v] for v in key]

    def dim(self) -> int:
        return len(self.simplices[-1]) - 1 if self.simplices else -1  # sorted by size

    def face_poset(self) -> Poset:
        """Simplices ordered by inclusion, element i being simplices[i]."""
        return self._face

    def maximal(self) -> list[SimplexKey]:
        """The maximal simplices, in simplex order."""
        return self.simplices_of(self._face.maximal_of(self._face.full_mask))

    # -- geometry ---------------------------------------------------------

    def _check_point(self, x: Point):
        if len(x) != self.ambient:
            raise DimensionMismatch(
                f"point has {len(x)} coordinates, ambient dimension is {self.ambient}"
            )

    def carrier(self, x: Point) -> SimplexKey:
        """The simplex whose relative interior contains x: unique when the
        complex passes verify_complex, otherwise the first such simplex in
        simplex order. OutsideSupport if there is none."""
        self._check_point(x)
        for s in self.simplices:
            coords = barycentric_coordinates(self.points_of(s), x)
            if coords is not None and all(c > 0 for c in coords):
                return s
        raise OutsideSupport(x)

    def contains_point(self, key: SimplexKey, x: Point) -> bool:
        """Exact test x in conv(vertices of key)."""
        self._check_point(x)
        coords = barycentric_coordinates(self.points_of(key), x)
        return coords is not None and all(c >= 0 for c in coords)

    def barycenters(self) -> list[tuple[Point, SimplexKey]]:
        """(barycenter, simplex) for each simplex, in simplex order."""
        return [(tuple(Fraction(sum(c), len(s)) for c in zip(*self.points_of(s))), s)
                for s in self.simplices]

    # -- definable sets ---------------------------------------------------

    def open_star(self, key: SimplexKey) -> "DefinableSet":
        return DefinableSet(self, "open", self._face.up[self._bit(key)])

    def definable(self, polarity: str, keys) -> "DefinableSet":
        mask = 0
        for key in keys:
            mask |= 1 << self._bit(key)
        return DefinableSet(self, polarity, mask)


class DefinableSet(_Frozen):
    """A definable subpolyhedron: a down-set (closed) or up-set (open) of
    the face poset, as a mask whose bit i is ``complex.simplices[i]``.
    Set operations are bit operations, the implications those of the face
    poset; a point is a member iff its carrier is. Two sets are equal iff
    they share the complex object, the polarity and the mask."""

    _fields = ("complex", "polarity", "mask")

    def __init__(self, complex: Complex, polarity: str, mask: int):
        face = complex._face
        if polarity not in ("closed", "open"):
            raise PolarityMismatch(f"bad polarity {polarity!r}")
        if mask < 0 or mask >> len(face):
            raise ValueError("mask has bits outside the complex")
        closed = polarity == "closed"
        if not (face.is_downset if closed else face.is_upset)(mask):
            raise PolarityMismatch(f"flags not {'down' if closed else 'up'}-closed")
        self.__dict__.update(complex=complex, polarity=polarity, mask=mask)

    @property
    def flags(self) -> frozenset:
        """The member simplices, decoded from the mask."""
        return frozenset(self.complex.simplices_of(self.mask))

    def _same(self, other: "DefinableSet"):
        if self.complex is not other.complex or self.polarity != other.polarity:
            raise PolarityMismatch("operands disagree on complex or polarity")

    def union(self, other: "DefinableSet") -> "DefinableSet":
        self._same(other)
        return DefinableSet(self.complex, self.polarity, self.mask | other.mask)

    def intersection(self, other: "DefinableSet") -> "DefinableSet":
        self._same(other)
        return DefinableSet(self.complex, self.polarity, self.mask & other.mask)

    def member(self, x: Point) -> bool:
        return bool(self.mask >> self.complex.index[self.complex.carrier(x)] & 1)

    def names(self) -> list[str]:
        return self.complex._face.names_of(self.mask)


def heyting_implication(u: DefinableSet, v: DefinableSet) -> DefinableSet:
    """U -> V in PC^o: the up-set {s : every coface of s in U is in V}."""
    if u.polarity != "open" or v.polarity != "open":
        raise PolarityMismatch("heyting implication needs open operands")
    u._same(v)
    return DefinableSet(u.complex, "open", u.complex._face.imp(u.mask, v.mask))


def co_implication(c: DefinableSet, d: DefinableSet) -> DefinableSet:
    """C <= D in PC^c: the closure of C \\ D, i.e. all faces of simplices
    in C \\ D."""
    if c.polarity != "closed" or d.polarity != "closed":
        raise PolarityMismatch("co-implication needs closed operands")
    c._same(d)
    return DefinableSet(c.complex, "closed", c.complex._face.down_closure(c.mask & ~d.mask))


# ---------------------------------------------------------------------------
# Construction


def build_complex(vertices: dict, maximal_simplices) -> Complex:
    """Close the listed simplices under faces, checking exact affine
    independence of every listed simplex. Vertex ids may not hold ",", which
    joins the ids in a simplex name. A listed simplex is charged its faces
    before they are listed, and the complex its distinct faces so far."""
    _separator(vertices)
    verts: dict[str, Point] = {}
    ambient = None
    for name, coords in vertices.items():
        pt = tuple(parse_rational(c) for c in coords)
        if ambient is None:
            ambient = len(pt)
        elif len(pt) != ambient:
            raise DimensionMismatch(
                f"vertex {name!r} has {len(pt)} coordinates, expected {ambient}"
            )
        verts[name] = pt
    if ambient is None:
        ambient = 0
    seen_points = {}
    for name, pt in verts.items():
        if pt in seen_points:
            raise DuplicateVertex(f"{name} duplicates {seen_points[pt]}")
        seen_points[pt] = name
    simplices: set[SimplexKey] = set()
    for raw in maximal_simplices:
        ids = tuple(sorted(raw))
        if len(set(ids)) != len(ids):
            raise DuplicateVertex(f"repeated vertex in simplex {raw}")
        for v in ids:
            if v not in verts:
                raise MalformedInput(f"simplex references unknown vertex {v!r}")
        charge("faces", (1 << len(ids)) - 1)
        if not affinely_independent([verts[v] for v in ids]):
            raise AffinelyDependent(ids)
        simplices.update(tuple(v for b, v in enumerate(ids) if mask >> b & 1)
                         for mask in range(1, 1 << len(ids)))  # every nonempty face
        charge("faces", len(simplices))
    return Complex(verts, simplices, ambient)


# ---------------------------------------------------------------------------
# Condition (2) verification: pairwise intersections are common faces.
#
# Simplices s and t with shared vertices S violate it iff some common point
# x = sum lam_v v = sum mu_w w (lam, mu >= 0, each summing to 1) puts weight
# > 0 on a vertex outside S in one of the two representations. Subtract the
# two and lift each vertex v to (v, 1): then z = lam - mu on S, lam on s \ S
# and mu on t \ S is a linear dependency of the columns (v, 1) for v in s
# and -(w, 1) for w in t \ s, >= 0 on the vertices outside S (the signed
# columns) and > 0 on one of them. Conversely, given such a z, take
# eps >= max(0, -z_u) over u in S and put lam_u = z_u + eps, mu_u = eps on
# S and lam, mu = z off S: the eps cancel, so sum lam (v, 1) = sum mu (w, 1)
# with lam, mu >= 0; the last coordinate says sum lam = sum mu, which is
# > 0 because the signed z, a part of lam and mu, sum to more than 0, and
# dividing by it gives a violating x. When the columns are linearly
# independent, that is when the vertices of s and t are affinely
# independent, z = 0 is the only dependency and s and t meet properly.


def _signed_dependency(columns: list[Point], signed: list[bool]) -> bool:
    """Whether sum z_c columns[c] = 0 for some z >= 0 on the signed columns
    whose signed entries sum to more than 0.

    One _rref gives the kernel, each pivot coordinate in terms of the free
    ones; each signed z_c is a row >= 0 over the free coordinates, and their
    sum one strict row. Fourier-Motzkin eliminates the free coordinates: no
    row has a constant, so what is left reads 0 >= 0 or 0 > 0, and z exists
    iff no strict row is left. With no free coordinate nothing is eliminated
    and the strict row, 0 > 0, is left."""
    rows, pivots = _rref([list(r) for r in zip(*columns)], len(columns))
    free = [c for c in range(len(columns)) if c not in pivots]
    form = {c: [int(c == f) for f in free] for c in free}
    form.update((p, [-row[f] for f in free]) for row, p in zip(rows, pivots))
    ineqs = [(form[c], False) for c in range(len(columns)) if signed[c]]
    ineqs.append(([sum(r[i] for r, _ in ineqs) for i in range(len(free))], True))
    for i in range(len(free)):
        pos = [r for r in ineqs if r[0][i] > 0]
        neg = [r for r in ineqs if r[0][i] < 0]
        ineqs = [r for r in ineqs if r[0][i] == 0] + [
            ([-nc[i] * a + pc[i] * b for a, b in zip(pc, nc)], ps or ns)
            for pc, ps in pos for nc, ns in neg]
    return not any(strict for _, strict in ineqs)


def _pair_violates(k: Complex, s: SimplexKey, t: SimplexKey) -> bool:
    apart = [w for w in t if w not in s]
    columns = [k.vertices[v] + (Fraction(1),) for v in s]
    columns += [tuple(-c for c in k.vertices[w]) + (Fraction(-1),) for w in apart]
    return _signed_dependency(columns, [v not in t for v in s] + [True] * len(apart))


class ComplexReport(_Frozen):
    """The pairs of simplices, by name, that meet outside a common face."""

    _fields = ("violations",)

    def __init__(self, violations: list[tuple[str, str]]):
        self.__dict__.update(violations=violations)

    @property
    def ok(self):
        return not self.violations


def verify_complex(k: Complex) -> ComplexReport:
    """Exact check of the pairwise-intersection condition: every pair of
    non-nested simplices (s, t), s before t, that meets outside a common
    face is reported by name, in simplex order.

    Each simplex is grouped under its first maximal coface. Each pair of
    maximal simplices (M, N) is tested, and the pairs (s, t) with s under M
    and t under N only when (M, N) fails. That skips no violation:
    build_complex checks M and N for affine independence, so a point x of
    s n t has unique barycentric coordinates in M and in N, namely its
    coordinates in s and in t. If M and N meet properly, x lies in the face
    spanned by their shared vertices, so its M- and N-coordinates coincide;
    hence its s- and t-coordinates coincide, are supported on the shared
    vertices of s and t, and s and t meet properly too. Two simplices under
    one maximal simplex are faces of it and always meet properly.
    """
    face, simplices = k._face, k.simplices
    maximal = face.maximal_of(face.full_mask)
    under: dict[int, list[int]] = {}
    for i, row in enumerate(face.up):
        first = row & maximal
        under.setdefault((first & -first).bit_length() - 1, []).append(i)
    bad = []
    for m, n in combinations(sorted(under), 2):
        if not _pair_violates(k, simplices[m], simplices[n]):
            continue
        for i, j in product(under[m], under[n]):
            s, t = sorted((i, j))
            if (i, j) == (m, n) or (not (face.up[i] | face.down[i]) >> j & 1
                                    and _pair_violates(k, simplices[s], simplices[t])):
                bad.append((s, t))
    return ComplexReport([(face.elements[s], face.elements[t]) for s, t in sorted(bad)])


# ---------------------------------------------------------------------------
# Serialisation


def complex_from_json(data) -> Complex:
    """Complex from {"vertices": {id: [coordinates]}, "maximal": [[ids]]},
    given as a dict or as JSON text. Malformed data raises MalformedInput."""
    data = json_object(data, "vertices", "maximal")
    vertices, maximal = data["vertices"], data["maximal"]
    if not isinstance(vertices, dict) or not all(isinstance(c, list) for c in vertices.values()):
        raise MalformedInput('"vertices" must map vertex ids to coordinate lists')
    if not isinstance(maximal, list) or not all(is_name_list(s) for s in maximal):
        raise MalformedInput('"maximal" must be a list of lists of vertex ids')
    return build_complex(vertices, maximal)


def complex_to_json(k: Complex) -> dict:
    return {
        "dim": k.ambient,
        "vertices": {v: [str(c) for c in pt] for v, pt in k.vertices.items()},
        "maximal": [list(s) for s in k.maximal()],
    }


def complex_to_off(k: Complex) -> str:
    """OFF export; ambient dimension must be <= 3 (padded with zeros)."""
    if k.ambient > 3:
        raise DimensionMismatch("OFF export requires ambient dimension <= 3")
    order = list(k.vertices)
    idx = {v: i for i, v in enumerate(order)}
    faces = [s for s in k.maximal() if len(s) >= 2]
    lines = ["OFF", f"{len(order)} {len(faces)} 0"]
    for v in order:
        pt = list(k.vertices[v]) + [Fraction(0)] * (3 - k.ambient)
        lines.append(" ".join(str(float(c)) for c in pt))
    for s in faces:
        lines.append(" ".join([str(len(s))] + [str(idx[v]) for v in s]))
    return "\n".join(lines) + "\n"
