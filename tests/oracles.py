"""Reference implementations that the program's fast paths are tested
against.

Geometry: the direct frozenset scans and the separate exact eliminations
that ``polylogic.simplicial`` used before definable sets became face-poset
bitmasks and the eliminations became one Gauss-Jordan routine. They are
slow and independent of the face poset: simplices are compared by raw
vertex-set inclusion only. The carrier read off the maximal simplices,
which ``Complex.carrier`` matches also where simplices cross. The face
poset's rows as they were built before they were built from facets: by
visiting every nonempty face of every simplex, 3^n visits for the faces of
an n-vertex simplex.

Search: the countermodel search over every poset of each size, and the
validity check that bit-slices the last two atoms only and loops over the
rest, as used before the search was restricted to rooted frames and the
check to whole-batch grids.

Order: the poset generator that added a new element with every
compatible (down-set, up-set) pair before it added only maximal ones, and
the all-pairs join-irreducible scan that ran before lower covers were read
off the carrier. The generator deduplicates by its own copy of the
program's canonical form and bounds depth by the longest chain of up rows,
so no oracle shares the program's order kernels.

Lower sets: the down-sets of a poset as a carrier of their own, its
minimal elements read off the down-masks, and the ji report built on that
carrier, with one join-irreducible scan per check and the spectrum depths
read off as longest chains of join-irreducibles, as they were before lower
sets became the up-sets of the opposite order.

Maps and chains: the checks that compared element names in pairs before
maps were kept as image indices and checked one mask identity per point,
and the chains as sorted index tuples and frozensets before they became
one list of masks shared by the nerve, the realization and the max map.

Formulas: the tokenizer and recursive-descent parser, the recursive
printer and atom walk, and the recursive frame and bit-sliced evaluators,
as they were before parsing went over two explicit stacks and every other
walk became a ``formula.fold``. They recurse once or more per nesting level, so they
hold only formulas a few hundred levels deep.

Up-sets: the depth-first up-set enumeration, the membership columns
summed one (point, up-set) pair at a time, and the join-irreducible scan
that looked each u minus one point up in a carrier index, as they were
before up-sets were grown element by element, the columns became one
transpose and join-irreducibles were read off the columns.

Duality: Heyting implication read off the up rows by its definition, the
check of a map between up-set algebras on every pair of up-sets and each of
meet, join and implication, and isomorphism by canonical forms, as used
before the Stone map was checked on covers, the dual of a p-morphism point
by point, and Spec(Up(A)) against A by the explicit map x -> up(x).

Closure: reachability along the covers by one depth-first search per
element over name pairs, the slow check of ``from_covers``.

Pseudo-manifolds: the closed-pseudomanifold check of acceptance criterion
9, which no command runs, read off the vertex tuples of the simplices.

Sampling: the seeded sampler of points in each simplex, the barycenter and
pseudo-random strictly positive combinations, which no command runs.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from fractions import Fraction
from functools import reduce
from operator import and_, or_

from polylogic.errors import CapExceeded, MissingAtom, ParseError
from polylogic.formula import And, Atom, Bottom, Implies, Or, Top, neg
from polylogic.pipeline import Report
from polylogic.poset import DEFAULT_UPSET_CAP, Poset
from polylogic.simplicial import build_complex


def faces_of(k, key):
    """Every simplex of k that is a face of key, key included."""
    return [t for t in k.simplices if set(t) <= set(key)]


def face_rows(k):
    """The up and down rows of k's face poset, one bit set per (face,
    simplex) pair found by listing each simplex's nonempty faces."""
    up, down = [0] * len(k), [0] * len(k)
    for i, s in enumerate(k.simplices):
        for mask in range(1, 1 << len(s)):
            j = k.index[tuple(v for b, v in enumerate(s) if mask >> b & 1)]
            up[j] |= 1 << i
            down[i] |= 1 << j
    return up, down


def cofaces_of(k, key):
    """Every simplex of k that has key as a face, key included."""
    return [t for t in k.simplices if set(key) <= set(t)]


def carrier_by_maximal(k, x):
    """Over every maximal simplex M holding x, the face of M spanned by x's
    positive coordinates in M; the least of these by (size, ids), or None if
    no simplex holds x. Each such face has x in its relative interior, and
    each simplex that has is one: so this is the carrier, also where
    simplices cross."""
    faces = []
    for m in (s for s in k.simplices if cofaces_of(k, s) == [s]):
        coords = barycentric_coordinates(k.points_of(m), x)
        if coords is not None and min(coords) >= 0:
            faces.append(tuple(v for v, c in zip(m, coords) if c > 0))
    return min(faces, key=lambda s: (len(s), s), default=None)


def heyting_implication_flags(k, u, v):
    """U -> V on frozensets: sigma is in it iff every coface of sigma that
    lies in U lies in V."""
    return frozenset(
        s for s in k.simplices if all(t in v for t in cofaces_of(k, s) if t in u)
    )


def co_implication_flags(k, c, d):
    """C <= D on frozensets: every face of a simplex in C minus D."""
    out = set()
    for s in c - d:
        out.update(faces_of(k, s))
    return frozenset(out)


def is_closed_flags(k, flags, polarity):
    """Whether the frozenset is down-closed (closed) or up-closed (open)."""
    near = faces_of if polarity == "closed" else cofaces_of
    return all(t in flags for s in flags for t in near(k, s))


def gauss_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        inv = 1 / pr[col]
        rows[rank] = [x * inv for x in pr]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def affinely_independent(points):
    if len(points) <= 1:
        return True
    base = points[0]
    rows = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    return gauss_rank(rows) == len(points) - 1


def barycentric_coordinates(points, x):
    """Solve x = sum r_i p_i with sum r_i = 1; None if x is not in the
    affine hull of the points."""
    k = len(points)
    n = len(x)
    aug = [[points[j][i] for j in range(k)] + [x[i]] for i in range(n)]
    aug.append([Fraction(1)] * k + [Fraction(1)])
    rank = 0
    where = [-1] * k
    for col in range(k):
        pivot = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[rank])]
        where[col] = rank
        rank += 1
    for r in range(rank, len(aug)):
        if aug[r][-1] != 0:
            return None
    return [aug[where[c]][-1] if where[c] >= 0 else Fraction(0) for c in range(k)]


def fm_feasible(eqs, ineqs) -> bool:
    """eqs: (coeffs, const) meaning sum c_i x_i + const = 0.
    ineqs: (coeffs, const, strict) meaning sum c_i x_i + const >= 0 (> 0).
    Equalities are substituted out one at a time, then Fourier-Motzkin."""
    eqs = [(list(c), k) for c, k in eqs]
    ineqs = [(list(c), k, s) for c, k, s in ineqs]
    nvars = len(eqs[0][0]) if eqs else (len(ineqs[0][0]) if ineqs else 0)
    live = list(range(nvars))
    while eqs:
        coeffs, const = eqs.pop()
        j = next((v for v in live if coeffs[v] != 0), None)
        if j is None:
            if const != 0:
                return False
            continue
        cj = coeffs[j]
        live.remove(j)

        def subst(tc, tk):
            f = tc[j] / cj
            nc = [tc[v] - f * coeffs[v] for v in range(nvars)]
            nc[j] = Fraction(0)
            return nc, tk - f * const

        eqs = [(*subst(c, k),) for c, k in eqs]
        ineqs = [(*subst(c, k), s) for c, k, s in ineqs]
    for j in live:
        pos = [t for t in ineqs if t[0][j] > 0]
        neg = [t for t in ineqs if t[0][j] < 0]
        new = [t for t in ineqs if t[0][j] == 0]
        for pc, pk, ps in pos:
            for nc, nk, ns in neg:
                a, b = pc[j], -nc[j]
                cc = [b * pc[v] + a * nc[v] for v in range(nvars)]
                new.append((cc, b * pk + a * nk, ps or ns))
        ineqs = new
    for coeffs, const, strict in ineqs:
        if strict:
            if const <= 0:
                return False
        elif const < 0:
            return False
    return True


def pair_violates(k, s, t) -> bool:
    """Whether simplices s and t share a point outside their common face."""
    pa = k.points_of(s)
    pb = k.points_of(t)
    shared = set(s) & set(t)
    na, nb = len(pa), len(pb)
    nvars = na + nb
    eqs = [([p[i] for p in pa] + [-q[i] for q in pb], Fraction(0)) for i in range(k.ambient)]
    eqs.append(([Fraction(1)] * na + [Fraction(0)] * nb, Fraction(-1)))
    eqs.append(([Fraction(0)] * na + [Fraction(1)] * nb, Fraction(-1)))

    def unit(j, strict):
        return ([Fraction(int(v == j)) for v in range(nvars)], Fraction(0), strict)

    nonneg = [unit(j, False) for j in range(nvars)]
    if not shared:
        return fm_feasible(eqs, nonneg)
    strict_vars = [j for j, vid in enumerate(s) if vid not in shared]
    strict_vars += [na + j for j, vid in enumerate(t) if vid not in shared]
    return any(fm_feasible(eqs, nonneg + [unit(j, True)]) for j in strict_vars)


def verify_complex_violations(k):
    """Every non-nested pair (s, t), s before t, tested exactly."""
    bad = []
    for i, s in enumerate(k.simplices):
        for t in k.simplices[i + 1:]:
            if set(s) <= set(t) or set(t) <= set(s):
                continue
            if pair_violates(k, s, t):
                bad.append((k.name(s), k.name(t)))
    return bad


# ---------------------------------------------------------------------------
# Sampling


def sample_points(k, per_simplex: int, seed: int = 0):
    """Per simplex: the barycenter plus pseudo-random strictly positive
    rational barycentric combinations. Deterministic for a fixed seed.
    Returns [(point, carrier_key)]."""
    if per_simplex < 1:
        raise ValueError("per_simplex must be >= 1")
    rng = random.Random(seed)
    out = []
    for s in k.simplices:
        pts = k.points_of(s)
        m = len(pts)
        weight_sets = [[1] * m]
        for _ in range(per_simplex - 1):
            weight_sets.append([rng.randint(1, 97) for _ in range(m)])
        for ws in weight_sets:
            total = sum(ws)
            coords = tuple(
                sum(Fraction(w, total) * p[i] for w, p in zip(ws, pts))
                for i in range(k.ambient)
            )
            out.append((coords, s))
    return out


# ---------------------------------------------------------------------------
# Pseudo-manifold check


def is_closed_pseudomanifold(k, d):
    """True iff every (d-1)-simplex of k, a complex of dimension d, is a face
    of exactly two d-simplices. Returns (verdict, witnesses): the names of
    the (d-1)-simplices that fail. Another dimension raises ValueError."""
    dim = max(map(len, k.simplices), default=0) - 1
    if dim != d:
        raise ValueError(f"complex has dimension {dim}, expected {d}")
    tops = [set(s) for s in k.simplices if len(s) == d + 1]
    witnesses = [k.name(s) for s in k.simplices
                 if len(s) == d and sum(set(s) <= t for t in tops) != 2]
    return not witnesses, witnesses


def is_valid(frame, f):
    """Validity of f over Up(frame): the last (up to) two atoms bit-sliced,
    bit b of each int giving them the base-m digits of b, a Python loop over
    the rest. Returns (valid, first refuting valuation, its 1-based
    lexicographic position or m**k if valid)."""
    carrier = all_upsets(frame)
    names = atoms(f)
    n, m = len(frame), len(carrier)
    inner = names[-2:]
    outer = names[: len(names) - len(inner)]
    size = m ** len(inner)
    ones = (1 << size) - 1
    ups = [[j for j in range(n) if up >> j & 1] for up in frame.up]

    def pattern(i, j):
        # bit b is whether point i lies in carrier[digit j of b]
        run = m ** (len(inner) - 1 - j)
        digits = "".join(("1" if u >> i & 1 else "0") * run for u in reversed(carrier))
        return int(digits * m**j, 2)

    inner_env = {a: [pattern(i, j) for i in range(n)] for j, a in enumerate(inner)}
    for done, combo in enumerate(itertools.product(carrier, repeat=len(outer))):
        env = {a: [ones if u >> i & 1 else 0 for i in range(n)] for a, u in zip(outer, combo)}
        bad = ones & ~reduce(and_, eval_sliced(f, env | inner_env, ups, ones), ones)
        if bad:
            first = (bad & -bad).bit_length() - 1
            valuation = dict(zip(outer, combo))
            for j, a in enumerate(inner):
                valuation[a] = carrier[first // m ** (len(inner) - 1 - j) % m]
            return False, valuation, done * size + first + 1
    return True, None, m ** len(names)


def find_frame_countermodel(f, max_size, max_depth=None):
    """First refuting (frame, valuation) over every poset of sizes
    1..max_size in enumerate_by_all_extensions order, or None."""
    for n in range(1, max_size + 1):
        for form in enumerate_by_all_extensions(n, max_depth):
            frame = Poset._from_up([f"x{i + 1}" for i in range(n)], form)
            valid, valuation, _ = is_valid(frame, f)
            if not valid:
                return frame, valuation
    return None


def union(rows, mask: int) -> int:
    """The OR of rows[i] over the set bits i of mask, rows being a list or a
    dict of masks: the Boolean matrix-vector product of a relation and a set."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def transpose(rows, n: int) -> list[int]:
    """The n rows of the converse relation: bit i of row j iff bit j of rows[i]."""
    out = [0] * n
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def refine_invariants(up, down, n):
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


def canonical_form(up, n) -> tuple[int, ...]:
    """The least up-mask tuple over the relabellings that keep the refined
    invariant classes in order: a copy of the program's canonical form, so
    the enumeration oracles fix the classes and their order without it."""
    if n == 0:
        return ()
    down = transpose(up, n)
    inv = refine_invariants(up, down, n)
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
        cand = tuple([union(bits, up[old]) for old in perm])
        if best is None or cand < best:
            best = cand
    return best


def longest_chain(masks) -> int:
    """The number of masks in the longest chain under strict inclusion; the
    depth of a poset is one less on its up rows."""
    masks = sorted(set(masks), key=int.bit_count)
    length = []
    for i, u in enumerate(masks):
        length.append(1 + max((length[j] for j in range(i) if masks[j] & ~u == 0), default=0))
    return max(length, default=0)


def all_extensions(up, k):
    """Extend a poset on k-1 elements (up-mask tuple) by a new element in
    every compatible way: below a down-set d, above an up-set u."""
    m = k - 1
    upsets = all_upsets(Poset._from_up([str(i) for i in range(m)], up))
    for d_mask in ((1 << m) - 1 & ~u for u in upsets):
        for u_mask in upsets:
            if d_mask & u_mask:
                continue
            if any(d_mask >> i & 1 and u_mask & ~up[i] for i in range(m)):
                continue
            new_up = [u | 1 << m if d_mask >> i & 1 else u for i, u in enumerate(up)]
            yield tuple(new_up) + (u_mask | 1 << m,)


def enumerate_by_all_extensions(n, max_depth=None):
    """Canonical up-mask tuples of every n-poset of depth <= max_depth,
    built with all_extensions at each size, in ascending order; each level
    is computed once per process."""
    return list(_levels(n, max_depth))


@functools.cache
def _levels(n, max_depth):
    if n == 1:
        return ((1,),)
    forms = set()
    for form in _levels(n - 1, max_depth):
        for extended in all_extensions(form, n):
            if max_depth is None or longest_chain(extended) - 1 <= max_depth:
                forms.add(canonical_form(extended, n))
    return tuple(sorted(forms))


def join_irreducibles(algebra):
    """Carrier elements other than the bottom that are not the join of
    the carrier elements strictly below them, in carrier order."""
    out = []
    for u in algebra.carrier:
        if u == 0:
            continue
        joined = 0
        for v in algebra.carrier:
            if v != u and v & ~u == 0:
                joined |= v
        if joined != u:
            out.append(u)
    return out


def all_upsets(p, cap=DEFAULT_UPSET_CAP):
    """Every up-set of p, ascending, by a depth-first search that decides
    the elements maximal-first; CapExceeded past cap leaves."""
    n = len(p)
    order = sorted(range(n), key=lambda i: bin(p.up[i]).count("1"))
    out = []
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
        if p.up[i] & ~(1 << i) & ~mask == 0:
            stack.append((pos + 1, mask | 1 << i))
    out.sort()
    return out


def membership_columns(h):
    """Bit v of column i is set iff point i lies in h.carrier[v]."""
    return [sum(1 << v for v, u in enumerate(h.carrier) if u >> i & 1)
            for i in range(len(h.frame))]


def join_irreducibles_by_covers(carrier):
    """Carrier elements u with exactly one lower cover, found by looking
    each u minus one point up in the carrier; the carrier must be all
    up-sets or all down-sets of a frame."""
    index = set(carrier)
    out = []
    for u in carrier:
        covers, rest = 0, u
        while rest and covers < 2:
            low = rest & -rest
            covers += u ^ low in index
            rest ^= low
        if covers == 1:
            out.append(u)
    return out


def minimal_of(p, mask):
    """Minimal elements of the subset given by mask."""
    out = 0
    for i in range(len(p)):
        if mask >> i & 1 and not p.down[i] & mask & ~(1 << i):
            out |= 1 << i
    return out


def verify_ji(k):
    """The ji report with PC^c(K) on the down-sets of the face poset, one
    carrier-index scan per algebra, the depths of their spectra read off as
    longest chains of join-irreducibles."""
    rep = Report("ji")
    face = k.face_poset()
    opened = all_upsets(face)
    closed = sorted(face.full_mask & ~u for u in opened)
    jis_c = join_irreducibles_by_covers(closed)
    principal_down = sorted(face.down[i] for i in range(len(face)))
    rep.add(
        f"JI(PC^c) = principal down-sets of the {len(face)} simplices",
        jis_c == principal_down,
    )
    jis_o = join_irreducibles_by_covers(opened)
    stars = sorted(face.up[i] for i in range(len(face)))
    rep.add(f"JI(PC^o) = the {len(face)} open stars", jis_o == stars)
    d = k.dim()
    if len(closed) > 1:
        rep.add(
            f"longest prime-filter chain = dim+1 = {d + 1} in both algebras",
            longest_chain(jis_c) - 1 == d and longest_chain(jis_o) - 1 == d,
        )
    else:
        rep.add("trivial algebra on the empty complex", d == -1)
    return rep


def leq(p, a, b) -> bool:
    """a <= b in p for element names a and b: b is in the up row of a."""
    return bool(p.up[p.elements.index(a)] >> p.elements.index(b) & 1)


def monotone_violation(dom, cod, mapping):
    """First pair (x, y) of dom indices, tried as pairs of names, with
    x <= y but mapping[x] !<= mapping[y]; None when the map is monotone."""
    for a, b in itertools.combinations(range(len(dom)), 2):
        for x, y in ((a, b), (b, a)):
            if dom.up[x] >> y & 1 and not leq(cod, mapping[x], mapping[y]):
                return x, y
    return None


def image_mask(f, dom_mask):
    return f.cod.mask_of(name for i, name in enumerate(f.mapping) if dom_mask >> i & 1)


def preimage_mask(f, cod_mask):
    out = 0
    for i, name in enumerate(f.mapping):
        if cod_mask >> f.cod.index[name] & 1:
            out |= 1 << i
    return out


def is_pmorphism(f):
    """f[up a] = up f(a) for all a, with images looked up by name; returns
    (True, None) or (False, (a, missed_target))."""
    for i, a in enumerate(f.dom.elements):
        have = image_mask(f, f.dom.up[i])
        want = f.cod.up[f.cod.index[f.mapping[i]]]
        if have != want:
            missed = want & ~have | have & ~want
            j = (missed & -missed).bit_length() - 1
            return False, (a, f.cod.elements[j])
    return True, None


def is_order_isomorphism(p, other, mapping):
    """Whether the name bijection preserves and reflects leq on all pairs."""
    if sorted(mapping) != sorted(p.elements):
        return False
    if sorted(mapping.values()) != sorted(other.elements):
        return False
    for a in p.elements:
        for b in p.elements:
            if leq(p, a, b) != leq(other, mapping[a], mapping[b]):
                return False
    return True


def chains(a):
    """All nonempty chains, as sorted tuples of element indices, ascending."""
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


def chain_name(a, chain):
    names = sorted(a.elements[i] for i in chain)
    if all(len(x) == 1 for x in a.elements):
        return "".join(names)
    return ",".join(names)


def nerve(a):
    """Poset of the chains of a under frozenset inclusion."""
    cs = chains(a)
    sets = [frozenset(c) for c in cs]
    up = []
    for s in sets:
        mask = 0
        for k, t in enumerate(sets):
            if s <= t:
                mask |= 1 << k
        up.append(mask)
    return Poset([chain_name(a, c) for c in cs], up)


def maximal_chains(a):
    cs = chains(a)
    return [c for c in cs if not any(c != d and set(c) < set(d) for d in cs)]


def realize(a):
    n = len(a)
    vertices = {a.elements[i]: [str(int(i == j)) for j in range(n)] for i in range(n)}
    return build_complex(vertices, [[a.elements[i] for i in c] for c in maximal_chains(a)])


def max_images(a):
    """The name of the maximum of each chain of chains(a)."""
    images = []
    for c in chains(a):
        mx = c[0]
        for i in c[1:]:
            if a.up[mx] >> i & 1:
                mx = i
        images.append(a.elements[mx])
    return images


def transferred_valuation(a, valuation):
    """The valuation moved to the face poset of realize(a) through the
    nerve, matched to the face poset by name."""
    nv = nerve(a)
    face = realize(a).face_poset()
    images = max_images(a)
    out = {}
    for p, mask in valuation.items():
        nerve_mask = sum(1 << k for k, name in enumerate(images) if mask >> a.index[name] & 1)
        out[p] = face.mask_of(nv.names_of(nerve_mask))
    return out


TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<arrow>->)"
    r"|(?P<op>[|&~()]))"
)


def tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ParseError(off, f"a token (got {stripped[0]!r})")
        if m.group("ident"):
            tokens.append((m.group("ident"), m.start("ident")))
        elif m.group("arrow"):
            tokens.append(("->", m.start("arrow")))
        else:
            tokens.append((m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("<end>", len(text)))
    return tokens


class Parser:
    """Recursive descent over the grammar in the formula module docstring."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def offset(self):
        return self.tokens[self.i][1]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        if self.peek() != kind:
            raise ParseError(self.offset(), f"{kind!r}")
        return self.advance()

    def form(self):
        left = self.disj()
        if self.peek() == "->":
            self.advance()
            return Implies(left, self.form())
        return left

    def disj(self):
        f = self.conj()
        while self.peek() == "|":
            self.advance()
            f = Or(f, self.conj())
        return f

    def conj(self):
        f = self.negated()
        while self.peek() == "&":
            self.advance()
            f = And(f, self.negated())
        return f

    def negated(self):
        if self.peek() == "~":
            self.advance()
            return neg(self.negated())
        return self.atomic()

    def atomic(self):
        tok = self.peek()
        if tok == "(":
            self.advance()
            f = self.form()
            self.expect(")")
            return f
        if tok in ("false", "true"):
            self.advance()
            return Bottom() if tok == "false" else Top()
        if tok not in ("->", "|", "&", "~", ")", "<end>"):
            name, _ = self.advance()
            return Atom(name)
        raise ParseError(self.offset(), "an atom, 'false', 'true', '~' or '('")


def parse(text: str):
    p = Parser(text)
    f = p.form()
    if p.peek() != "<end>":
        raise ParseError(p.offset(), "end of input")
    return f


def render(f, level: int) -> str:
    """f printed in a context of binding level: -> 1, | 2, & 3, ~ 4."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Implies) and f.right == Bottom():
        return "~" + render(f.left, 4)
    if isinstance(f, Implies):
        right = render(f.right, 1)
        if isinstance(f.right, (And, Or)):
            right = "(" + right + ")"
        s = render(f.left, 2) + " -> " + right
        return "(" + s + ")" if level > 1 else s
    if isinstance(f, Or):
        s = render(f.left, 2) + " | " + render(f.right, 3)
        return "(" + s + ")" if level > 2 else s
    s = render(f.left, 3) + " & " + render(f.right, 4)
    return "(" + s + ")" if level > 3 else s


def pretty(f) -> str:
    return render(f, 1)


def atoms(f) -> list[str]:
    """Atom names in first-occurrence order, duplicates removed."""
    seen = []

    def walk(g):
        if isinstance(g, Atom):
            if g.name not in seen:
                seen.append(g.name)
        elif isinstance(g, (And, Or, Implies)):
            walk(g.left)
            walk(g.right)

    walk(f)
    return seen


def imp(frame, u, v) -> int:
    """U -> V in Up(frame): the points a such that every b >= a in U is in V."""
    return sum(1 << a for a, row in enumerate(frame.up) if row & u & ~v == 0)


def eval_formula(frame, valuation, f) -> int:
    """f in Up(frame) under valuation, an up-set mask per atom name."""
    if isinstance(f, Atom):
        if f.name not in valuation:
            raise MissingAtom(f.name)
        return valuation[f.name]
    if isinstance(f, Bottom):
        return 0
    if isinstance(f, Top):
        return frame.full_mask
    left = eval_formula(frame, valuation, f.left)
    right = eval_formula(frame, valuation, f.right)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    return imp(frame, left, right)


def eval_sliced(f, env, ups, ones) -> list[int]:
    """f at every frame point over a batch of valuations, one bit each."""
    if isinstance(f, Atom):
        return env[f.name]
    if isinstance(f, (Bottom, Top)):
        return [ones if isinstance(f, Top) else 0] * len(ups)
    a = eval_sliced(f.left, env, ups, ones)
    b = eval_sliced(f.right, env, ups, ones)
    if isinstance(f, And):
        return [x & y for x, y in zip(a, b)]
    if isinstance(f, Or):
        return [x | y for x, y in zip(a, b)]
    fails = [x & ~y for x, y in zip(a, b)]
    return [ones ^ reduce(or_, map(fails.__getitem__, up)) for up in ups]


def structure(f):
    """f as nested tuples (class, fields...), compared the way the
    dataclass-generated == compared formula nodes."""
    if isinstance(f, (And, Or, Implies)):
        return (type(f), structure(f.left), structure(f.right))
    return (type(f), f.name) if isinstance(f, Atom) else (type(f),)


def dataclass_repr(f) -> str:
    """The dataclass-generated repr of a formula node."""
    if isinstance(f, (And, Or, Implies)):
        return f"{type(f).__name__}(left={dataclass_repr(f.left)}, right={dataclass_repr(f.right)})"
    return f"Atom(name={f.name!r})" if isinstance(f, Atom) else f"{type(f).__name__}()"


def hom_failures(mapping, src, dst):
    """Where mapping, from all of Up(src) into Up(dst), fails to preserve the
    bounds ("bounds not preserved"), then each (operation, u, v) that fails."""
    out = []
    if mapping[0] != 0 or mapping[src.full_mask] != dst.full_mask:
        out.append("bounds not preserved")
    for u, v in itertools.product(mapping, repeat=2):
        fu, fv = mapping[u], mapping[v]
        for opname, have, want in (
            ("meet", mapping[u & v], fu & fv),
            ("join", mapping[u | v], fu | fv),
            ("imp", mapping[imp(src, u, v)], imp(dst, fu, fv)),
        ):
            if have != want:
                out.append((opname, u, v))
    return out


def is_isomorphic(p, q):
    """Whether p and q have the same canonical form."""
    return len(p) == len(q) and canonical_form(p.up, len(p)) == canonical_form(q.up, len(q))


def reachable(elements, covers) -> list[int]:
    """Bit j of entry i iff elements[j] is reached from elements[i] along the
    (lower, upper) name pairs of covers, in zero or more steps."""
    index = {e: i for i, e in enumerate(elements)}
    succ = {e: [] for e in elements}
    for a, b in covers:
        succ[a].append(b)
    out = []
    for start in elements:
        seen, stack = {start}, [start]
        while stack:
            for b in succ[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        out.append(sum(1 << index[e] for e in seen))
    return out


def covers(rows) -> list[int]:
    """Bit j of entry i iff j is in row i, j != i, and no third k is in row i
    with j in row k: the upper covers from up rows, the lower from down rows."""
    n = len(rows)
    return [sum(1 << j for j in range(n) if j != i and row >> j & 1 and not any(
        row >> k & 1 and rows[k] >> j & 1 for k in range(n) if k not in (i, j)))
        for i, row in enumerate(rows)]
