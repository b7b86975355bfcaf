"""Reference implementations that the program's mask and elimination
code is tested against.

These are the direct frozenset scans and the separate exact eliminations
that ``polylogic.simplicial`` used before definable sets became face-poset
bitmasks and the eliminations became one Gauss-Jordan routine. They are
slow and independent of the face poset: simplices are compared by raw
vertex-set inclusion only.
"""

from __future__ import annotations

from fractions import Fraction


def faces_of(k, key):
    """Every simplex of k that is a face of key, key included."""
    return [t for t in k.simplices if set(t) <= set(key)]


def cofaces_of(k, key):
    """Every simplex of k that has key as a face, key included."""
    return [t for t in k.simplices if set(key) <= set(t)]


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
