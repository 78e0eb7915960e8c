"""Triangle-count products on the symplectic side.

The product of two generators is a sum over lifted triangles in the
universal cover R^2; the exponent of t_j on each term is the number of
integer translates of the j-th marked point inside the triangle.  Two
independent counting routes are provided: a direct enumeration of lattice
points after a small rational perturbation, and Brion's vertex-cone
evaluation which needs no perturbation at all.  Both must agree with the
piecewise-linear formula in `plgeom`, and the resulting product must match
`theta.theta_product` coefficient by coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import plgeom, theta
from .series import TruncSeries
from .theta import RingElement, canonical_p


@dataclass(frozen=True)
class Triangle:
    """Three vertices in the plane, exact rational coordinates."""

    A: tuple[Fraction, Fraction]
    B: tuple[Fraction, Fraction]
    C: tuple[Fraction, Fraction]

    def vertices(self):
        return (self.A, self.B, self.C)

    def doubled_area(self) -> Fraction:
        (ax, ay), (bx, by), (cx, cy) = self.A, self.B, self.C
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    def is_degenerate(self) -> bool:
        return self.doubled_area() == 0


def lift_triangle(n: int, m1: int, p1, m2: int, p2, k: int) -> Triangle:
    """Vertices of the lifted triangle for the k-th summand of a product.

    Two corners sit on the x-axis at p1/n and at the weighted average of
    the inputs; the third hangs below (or above) at depth proportional to
    the gap p2 + nk - p1.
    """
    p1 = Fraction(p1)
    p2 = Fraction(p2)
    if m1 < 1 or m2 < 1:
        raise ValueError("weights must be >= 1")
    if (m1 * p1).denominator != 1 or (m2 * p2).denominator != 1:
        raise ValueError("indices must satisfy m*p integral")
    gap = p2 + n * k - p1
    a = (Fraction(p1, n), Fraction(0))
    b = (Fraction(p2, n) + k, Fraction(-m1 * gap))
    c = (plgeom.average_E(m1, p1, m2, p2 + k * n) / n, Fraction(0))
    return Triangle(a, b, c)


def default_eps(n: int, m1: int, m2: int, k: int) -> Fraction:
    """A perturbation small enough that no shifted point meets an edge."""
    return Fraction(1, 4 * n * (m1 + m2) * (abs(k) + 2))


def _edge_forms(t: Triangle):
    """Closed-hull membership as three linear inequalities s*(ax+by+c) >= 0."""
    verts = t.vertices()
    forms = []
    for idx in range(3):
        (px, py) = verts[idx]
        (qx, qy) = verts[(idx + 1) % 3]
        (rx, ry) = verts[(idx + 2) % 3]
        # cross(Q-P, X-P) as a linear form in X
        fa = -(qy - py)
        fb = qx - px
        fc = (qx - px) * (-py) - (qy - py) * (-px)
        side = fa * rx + fb * ry + fc
        sign = 1 if side > 0 else -1
        forms.append((fa, fb, fc, sign))
    return forms


def point_in_triangle(t: Triangle, x, y) -> bool:
    """Exact closed-hull membership test (non-degenerate triangles)."""
    x = Fraction(x)
    y = Fraction(y)
    return all(s * (fa * x + fb * y + fc) >= 0 for fa, fb, fc, s in _edge_forms(t))


def count_direct(t: Triangle, n: int, j: int, eps) -> int:
    """Number of integer pairs (a,b) with (a - j/n + eps, b + eps) in t.

    The triangle is taken closed; the perturbation moves every candidate
    off the edges, so open versus closed never matters.  Degenerate
    triangles contain no perturbed point and count 0.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if t.is_degenerate():
        return 0
    dx = -Fraction(j, n) + eps
    dy = eps
    xs = [v[0] for v in t.vertices()]
    ys = [v[1] for v in t.vertices()]
    a_lo = -plgeom.floor_frac(-(min(xs) - dx))
    a_hi = plgeom.floor_frac(max(xs) - dx)
    b_lo = -plgeom.floor_frac(-(min(ys) - dy))
    b_hi = plgeom.floor_frac(max(ys) - dy)
    if a_lo > a_hi or b_lo > b_hi:
        return 0
    # integerize each inequality once, then scan with pure int arithmetic
    int_forms = []
    for fa, fb, fc, s in _edge_forms(t):
        ca = s * fa
        cb = s * fb
        cc = s * (fa * dx + fb * dy + fc)
        den = ca.denominator
        for f in (cb, cc):
            g = f.denominator
            den = den * g // math.gcd(den, g)
        int_forms.append(
            (
                ca.numerator * (den // ca.denominator),
                cb.numerator * (den // cb.denominator),
                cc.numerator * (den // cc.denominator),
            )
        )
    count = 0
    for a in range(a_lo, a_hi + 1):
        for b in range(b_lo, b_hi + 1):
            if all(ca * a + cb * b + cc >= 0 for ca, cb, cc in int_forms):
                count += 1
    return count


def count_brion(n: int, m1: int, p1, m2: int, p2, k: int, j: int) -> int:
    """Vertex-cone count of the same lattice points, no perturbation.

    Each corner of the triangle contributes a two-term polynomial read off
    from the primitive parallelogram of its cone; the combination
    h(x) = g1(x) + x^2 g2(x) - x g3(x) vanishes to second order at x=1 and
    the count is h''(1)/2.  Both vanishing statements and the r-identity
    are asserted on every call.
    """
    p1 = Fraction(p1)
    p2 = Fraction(p2)
    a1 = m1 * p1
    a2 = m2 * p2
    if a1.denominator != 1 or a2.denominator != 1:
        raise ValueError("indices must satisfy m*p integral")
    a1 = a1.numerator
    a2 = a2.numerator
    m3 = m1 + m2
    q1, r1 = divmod(a1 + m1 * j, m1 * n)
    q2, r2 = divmod(a2 + m2 * (k * n + j), m2 * n)
    q3, r3 = divmod(a1 + a2 + m2 * k * n + m3 * j, m3 * n)
    assert r1 + r2 - r3 == n * (m3 * q3 - m2 * q2 - m1 * q1), (
        f"remainder identity violated at n={n} m=({m1},{m2}) "
        f"p=({p1},{p2}) k={k} j={j}"
    )
    h: dict[int, int] = {}

    def acc(e: int, c: int):
        if c:
            h[e] = h.get(e, 0) + c

    acc(q1 + 1, n * m1 - r1)
    acc(q1 + 2, r1)
    acc(q2 - 1 + 2, n * m2 - r2)  # x^2 * g2
    acc(q2 + 2, r2)
    acc(q3 + 1, -(n * m3 - r3))  # -x * g3
    acc(q3 + 1 + 1, -r3)
    assert sum(h.values()) == 0, f"h(1) != 0 at {(n, m1, p1, m2, p2, k, j)}"
    assert sum(c * e for e, c in h.items()) == 0, (
        f"h'(1) != 0 at {(n, m1, p1, m2, p2, k, j)}"
    )
    twice = sum(c * e * (e - 1) for e, c in h.items())
    assert twice % 2 == 0 and twice >= 0
    return twice // 2


def floer_product(n: int, m1: int, p1, m2: int, p2, D: int, mode: str, eps=None) -> RingElement:
    """Product of x_{m2,p2} . x_{m1,p1} as an element of weight m1+m2.

    mode selects the counting route for the t-exponents: "direct" for the
    perturbed enumeration, "brion" for the closed form.  The optional eps
    overrides the per-k default perturbation; the brion route has none.
    """
    if mode not in ("direct", "brion"):
        raise ValueError(f"mode must be 'direct' or 'brion', got {mode!r}")
    if mode == "brion" and eps is not None:
        raise ValueError("eps applies to the direct count only")
    p1 = canonical_p(m1, p1, n)
    p2 = canonical_p(m2, p2, n)
    out = RingElement(m1 + m2, n, D)
    for k in plgeom.admissible_k_range(n, m1, p1, m2, p2, D):
        if mode == "brion":
            exps = tuple(count_brion(n, m1, p1, m2, p2, k, j) for j in range(n))
        else:
            t = lift_triangle(n, m1, p1, m2, p2, k)
            e = default_eps(n, m1, m2, k) if eps is None else Fraction(eps)
            exps = tuple(count_direct(t, n, j, e) for j in range(n))
        if sum(exps) > D:
            continue
        p3 = plgeom.average_E(m1, p1, m2, p2 + k * n)
        out.add_term(p3, TruncSeries(n, D, {exps: 1}))
    return out


def _first_difference(lhs: RingElement, rhs: RingElement):
    """Earliest (p, exponent) where two elements disagree, or None."""
    keys = sorted(set(lhs.coeffs) | set(rhs.coeffs))
    for p in keys:
        ls = lhs.coeffs.get(p)
        rs = rhs.coeffs.get(p)
        lterms = dict(ls.iter_terms()) if ls is not None else {}
        rterms = dict(rs.iter_terms()) if rs is not None else {}
        for e in sorted(set(lterms) | set(rterms)):
            lc = lterms.get(e, 0)
            rc = rterms.get(e, 0)
            if lc != rc:
                return p, e, lc, rc
    return None


def _verify_pair(args):
    """Per counting mode, the first difference from the closed form as a
    failure entry, or None; the closed form is computed once for all."""
    n, a, b, D, modes, eps = args
    rhs = theta.theta_product(a, b, n, D)
    out = []
    for mode in modes:
        lhs = floer_product(n, a.m, a.p, b.m, b.p, D, mode, eps=eps if mode == "direct" else None)
        diff = _first_difference(lhs, rhs)
        if diff is not None:
            p, e, lc, rc = diff
            diff = {
                "mode": mode,
                "a": a.to_json_obj(),
                "b": b.to_json_obj(),
                "monomial": {"p": f"{p.numerator}/{p.denominator}", "e": list(e)},
                "lhs": str(lc),
                "rhs": str(rc),
            }
        out.append(diff)
    return out


def mirror_verify(
    n: int, max_m: int, D: int, modes=("direct", "brion"), eps=None, jobs: int = 1
) -> dict:
    """Compare the triangle-count products against the closed form everywhere.

    Runs over all generator pairs with weights up to max_m, computes the
    closed form once per pair and checks every counting mode in ``modes``
    against it; eps reaches only the direct count.  ``pairs_checked``
    counts (pair, mode) checks, and the first differing monomial of every
    failing check is listed mode by mode, in pair order.  The pair list
    and the merge order are fixed, so the report is deterministic for any
    jobs.
    """
    weights = range(1, max_m + 1)
    tasks = [
        (n, a, b, D, modes, eps)
        for m1 in weights
        for m2 in weights
        for a in theta.basis_indices(n, m1)
        for b in theta.basis_indices(n, m2)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_verify_pair, tasks, chunksize=8))
    else:
        results = [_verify_pair(t) for t in tasks]
    failures = [r[i] for i in range(len(modes)) for r in results if r[i] is not None]
    return {"n": n, "D": D, "pairs_checked": len(tasks) * len(modes), "failures": failures}
