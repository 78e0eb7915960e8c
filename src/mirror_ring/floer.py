"""Triangle-count products on the symplectic side.

The product of two generators is a sum over lifted triangles in the
universal cover R^2; the exponent of t_j on each term is the number of
integer translates of the j-th marked point inside the triangle.  Two
independent counting routes are provided: a direct enumeration of lattice
points after a small rational perturbation, and Brion's vertex-cone
evaluation which needs no perturbation at all.  Both must agree with the
piecewise-linear formula in `plgeom`, and the resulting product must match
`theta.theta_product` coefficient by coefficient.  ``theta.product_terms``
holds the degree cut and the output class and takes each route's row of
exponents; the counting kernels never call the theta route's, the integer
n*lambda kernel ``plgeom.lambda_exponents`` (whose one-slot p-signature
names are ``plgeom.t_exponent_qr`` and ``theta._exponent``).  A lifted
triangle depends on a2 = m2*p2 and k only through b2 = a2 + m2*n*k, so
all three kernels take (n, m1, a1, m2, b2s) in the integer frame a = m*p,
b2s a range of b2, and return all n slots of each lifted triangle of the
run, computing what depends on the first class alone once per run.  The
direct one counts them column by column on the lattice, from its shape
in one orientation: the perturbation eps = 1/E, E an integer, is small
enough that it only settles which boundary points count
(``default_eps`` is that eps as a Fraction).  ``count_direct`` is its reference: slot j of a generic
three-edge scan of any Fraction triangle, which the direct kernel never
calls.  ``counted_product`` takes two basis labels and
``floer_product`` is its wrapper with a p signature; it reads each
pair's window from the integer classes through ``theta.assemble``.
Every term has coefficient +1 and nothing cancels, so `mirror_verify`
compares what each product is made of: each count's list of exponent
tuples against theta's, and only where the lists differ the
``product_terms`` maps of the pairs whose terms differ.  It builds no
product.  Its task is one row of pairs, a label against every label of
one weight, whose windows tile one run of b2 (``plgeom.b2_window``):
each kernel is called once per row, and a pool gets no more workers
than there are rows.
Theta against Brion compares two codings of one formula (see
``_brion_counts``); the direct count is the independent arithmetic.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import NamedTuple

from . import plgeom, theta
from .plgeom import InvariantError
from .theta import RingElement

# the two counting routes, in the order verify checks and reports them
COUNTING_MODES = ("direct", "brion")


class Triangle(NamedTuple):
    """Three vertices in the plane, exact rational coordinates."""

    A: tuple[Fraction, Fraction]
    B: tuple[Fraction, Fraction]
    C: tuple[Fraction, Fraction]

    def is_degenerate(self) -> bool:
        (ax, ay), (bx, by), (cx, cy) = self
        return (bx - ax) * (cy - ay) == (by - ay) * (cx - ax)


def lift_triangle(n: int, m1: int, p1, m2: int, p2, k: int) -> Triangle:
    """Vertices of the lifted triangle for the k-th summand of a product.

    Two corners sit on the x-axis at p1/n and at the weighted average of
    the inputs; the third hangs below (or above) at depth proportional to
    the gap p2 + nk - p1.  In Fractions: the reference for the integer
    frame that floer_product counts in.
    """
    p1 = Fraction(p1)
    p2 = Fraction(p2)
    # refuses a weight below 1 and an index with m*p not integral
    plgeom.scaled_index(m1, p1)
    plgeom.scaled_index(m2, p2)
    gap = p2 + n * k - p1
    a = (Fraction(p1, n), Fraction(0))
    b = (Fraction(p2, n) + k, Fraction(-m1 * gap))
    c = (plgeom.average_E(m1, p1, m2, p2 + k * n) / n, Fraction(0))
    return Triangle(a, b, c)


def default_eps(n: int, m1: int, m2: int, k: int) -> Fraction:
    """A perturbation eps = 1/E of the k-th lifted triangle, small enough
    that no shifted point meets an edge; m3*n divides E."""
    return Fraction(1, 4 * n * (m1 + m2) * (abs(k) + 2))


def point_in_triangle(t: Triangle, x, y) -> bool:
    """Exact closed-hull membership test (non-degenerate triangles), in
    Fractions: the reference the integer count_direct is checked against.

    For each edge PQ the point X must lie on the same side as the third
    vertex R, so cross(Q-P, X-P) takes the sign of cross(Q-P, R-P) or 0.
    """
    x = Fraction(x)
    y = Fraction(y)
    for (px, py), (qx, qy), (rx, ry) in zip(t, t[1:] + t[:1], t[2:] + t[:2]):
        side = (qx - px) * (ry - py) - (qy - py) * (rx - px)
        here = (qx - px) * (y - py) - (qy - py) * (x - px)
        if (here if side > 0 else -here) < 0:
            return False
    return True


def _count_scaled(verts, L: int, n: int) -> list:
    """Slot j counts the integer pairs (c, b), c = -j mod n, with
    (c L/n, L b) in the closed triangle on the integer vertices verts;
    n | L, and all n slots are 0 when the vertices are collinear.

    Each edge PQ keeps the side of the third vertex: s * cross(Q - P, X - P)
    >= 0, with s the orientation.  At X = (c L/n, L b) that reads
    fa * c + fb * b + fc >= 0, so in each column c of the bounding box an
    edge with fb > 0 bounds b from below and one with fb < 0 from above.
    A vertical edge (fb = 0) sits at one end of the column range and keeps
    every column in it.
    """
    counts = [0] * n
    (ax, ay), (bx, by), (cx, cy) = verts
    area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if area == 0:
        return counts
    s = 1 if area > 0 else -1
    w = L // n
    edges = [
        (-s * (qy - py) * w, s * (qx - px) * L, s * ((qy - py) * px - (qx - px) * py))
        for (px, py), (qx, qy) in zip(verts, verts[1:] + verts[:1])
    ]
    b_lo, b_hi = -(-min(ay, by, cy) // L), max(ay, by, cy) // L
    for c in range(-(-min(ax, bx, cx) // w), max(ax, bx, cx) // w + 1):
        lo, hi = b_lo, b_hi
        for fa, fb, fc in edges:
            if fb > 0:
                lo = max(lo, -((fa * c + fc) // fb))
            elif fb < 0:
                hi = min(hi, (fa * c + fc) // -fb)
        if hi >= lo:
            counts[-c % n] += hi - lo + 1
    return counts


def count_direct(t: Triangle, n: int, j: int, eps) -> int:
    """Number of integer pairs (a,b) with (a - j/n + eps, b + eps) in t.

    With c = n a - j these are the points (c/n, b) of t - (eps, eps): slot
    j mod n of one count over the columns spaced 1/n.  The shifted
    vertices are scaled by L = lcm(n, den(eps), the six vertex
    denominators), read straight off numerators and denominators, and
    counted in that integer frame by _count_scaled, which knows nothing of
    the lifted triangle's shape: the reference _lifted_counts is tested
    against.  Any common multiple would do: each edge test is homogeneous
    in the scale.  The triangle is taken closed; the perturbation moves
    every candidate off the edges, so open versus closed never matters.
    Degenerate triangles count 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    L = math.lcm(n, eps.denominator, *(c.denominator for v in t for c in v))
    sy = eps.numerator * (L // eps.denominator)
    verts = [
        (x.numerator * (L // x.denominator) - sy, y.numerator * (L // y.denominator) - sy)
        for x, y in t
    ]
    return _count_scaled(verts, L, n)[j % n]


def _lifted_counts(n: int, m1: int, a1: int, m2: int, b2s) -> list:
    """count_direct of lift_triangle(n, m1, p1, m2, p2, k) at default_eps,
    for every slot j, at each b2 = a2 + m2*n*k of the range b2s, one
    n-tuple per b2 in order; a1 = m1*p1, a2 = m2*p2.  Each triangle is
    counted by its own shape on the lattice itself, and depends on a2 and
    k only through b2.

    With gap g = m1 b2 - m2 a1 the corners are A = (a1/(m1 n), 0),
    C = ((a1 + b2)/(m3 n), 0) and B = (b2/(m2 n), -g/m2): g = 0 is the
    degenerate triangle, and C lies strictly between A and B.
    The points counted are (c/n, b) with (c/n + eps, b + eps) in the
    triangle, and column c goes to slot (-c) mod n.  Line AB is
    y = a1 - m1 n x and line CB is y = a1 + b2 - m3 n x, so at such a point
    each edge test compares the integers b and a1 - m1 c, a1 + b2 - m3 c or
    0 up to eps (1 + m1 n), eps (1 + m3 n) or eps, and the column tests
    compare m1 c with a1 and m2 c with b2 up to m n eps; eps = 1/E is below
    1/(n m3 + 1), so every such shift is below 1 and settles a point on an
    edge or a corner column to one side.  For g > 0, B lies below y0 and
    right of C: columns c run from ceil(a1/m1) to floor((b2 - 1)/m2) and b
    from a1 - m1 c to min(-1, a1 + b2 - 1 - m3 c), that is
    min(m1 c - a1, b2 - m2 c) points.  The case g < 0 is its mirror image,
    B above y0 and left of C: the same count with (a1, m1) and (b2, m2)
    exchanged.
    """
    out = []
    for b2 in b2s:
        g = m1 * b2 - m2 * a1
        lo, mlo, hi, mhi = (b2, m2, a1, m1) if g < 0 else (a1, m1, b2, m2)
        counts = [0] * n
        if g:
            for c in range(-(-lo // mlo), (hi - 1) // mhi + 1):
                left, right = mlo * c - lo, hi - mhi * c
                counts[-c % n] += left if left < right else right
        out.append(tuple(counts))
    return out


def _site(n: int, m1: int, a1: int, m2: int, b2: int, j: int) -> str:
    """Where a Brion check failed, with each class spelled p = a/m, from
    a2 = b2 mod m2*n and k = b2 div m2*n."""
    k, a2 = divmod(b2, m2 * n)
    p1, p2 = theta.class_text(a1, m1), theta.class_text(a2, m2)
    return f"n={n} m=({m1},{m2}) p=({p1},{p2}) k={k} j={j}"


def _brion_counts(n: int, m1: int, a1: int, m2: int, b2s) -> list:
    """Vertex-cone counts of the lifted triangles' lattice points, no
    perturbation, for every slot j, at each b2 = a2 + m2*n*k of the range
    b2s, one n-tuple per b2 in order; a1 = m1*p1 and a2 = m2*p2 are
    integers.  Each count depends on a2 and k only through b2.

    Each corner of the triangle contributes a two-term polynomial read off
    from the primitive parallelogram of its cone; the combination
    h(x) = g1(x) + x^2 g2(x) - x g3(x) vanishes to second order at x=1 and
    the count is h''(1)/2.  With (q, r) = divmod of a corner's class by its
    width w, each of g1, x^2 g2 and x g3 is (w - r) x^(q+1) + r x^(q+2),
    whose second derivative at 1 is (q + 1)(wq + 2r): a corner adds that to
    h''(1), the third with a minus sign.  The first corner's class
    a1 + m1*j depends on the slot alone, so its (q, r) and share are
    computed once per run.  That h vanishes needs no check:
    h(1) = w1 + w2 - w3 = 0 for any (q, r), and h'(1) = r1 + r2 - r3 -
    n*(m3 q3 - m2 q2 - m1 q1), so h'(1) = 0 is the remainder identity,
    checked for every slot with the sign of h''(1).  Nor does its parity:
    (q + 1)(wq + 2r) = w q(q + 1) + 2r(q + 1) is even.  Half of a share is
    (q + 1)N - w q(q + 1)/2 with N = wq + r: lambda's term for that point
    plus N.  The N's cancel (N3 = N1 + N2), so this is the formula of
    plgeom.lambda_exponents, not an independent count of it.
    """
    m3 = m1 + m2
    w1, w2, w3 = m1 * n, m2 * n, m3 * n
    first = []
    for j in range(n):
        N1 = a1 + m1 * j
        q1, r1 = divmod(N1, w1)
        first.append((j, N1, m2 * j, q1, r1, (q1 + 1) * (w1 * q1 + 2 * r1)))
    out = []
    for b2 in b2s:
        counts = []
        for j, N1, d2, q1, r1, share1 in first:
            N2 = b2 + d2
            q2, r2 = divmod(N2, w2)
            q3, r3 = divmod(N1 + N2, w3)
            if r1 + r2 - r3 != n * (m3 * q3 - m2 * q2 - m1 * q1):
                raise InvariantError(
                    f"remainder identity violated at {_site(n, m1, a1, m2, b2, j)}"
                )
            twice = share1 + (q2 + 1) * (w2 * q2 + 2 * r2) - (q3 + 1) * (w3 * q3 + 2 * r3)
            if twice < 0:
                raise InvariantError(
                    f"h''(1) = {twice} is negative at {_site(n, m1, a1, m2, b2, j)}"
                )
            counts.append(twice // 2)
        out.append(tuple(counts))
    return out


def count_brion(n: int, m1: int, p1, m2: int, p2, k: int, j: int) -> int:
    """Slot j mod n of _brion_counts, for indices p1, p2 (ints or Fractions)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    b2 = plgeom.scaled_index(m2, p2) + m2 * n * k
    (counts,) = _brion_counts(n, m1, plgeom.scaled_index(m1, p1), m2, range(b2, b2 + 1))
    return counts[j % n]


def _kernel(mode: str):
    """The counting kernel of a mode, (n, m1, a1, m2, b2s) -> the n slot
    counts at each b2 of the run; read from the module at each call, so a
    patched kernel is the one every caller uses."""
    return _brion_counts if mode == "brion" else _lifted_counts


def floer_product(n: int, m1: int, p1, m2: int, p2, D: int, mode: str) -> RingElement:
    """Product of x_{m1,p1} and x_{m2,p2} as an element of weight m1+m2.

    mode selects the counting route for the t-exponents: "direct" for the
    enumeration perturbed by default_eps, "brion" for the closed form.
    Each index is reduced once to its label's a = m*p mod m*n, and
    counted_product counts all n slots of each lifted triangle in that
    integer frame.
    """
    a = theta.ThetaIndex.make(m1, p1, n)
    b = theta.ThetaIndex.make(m2, p2, n)
    return counted_product(a, b, n, D, mode)


def counted_product(a: theta.ThetaIndex, b: theta.ThetaIndex, n: int, D: int, mode: str) -> RingElement:
    """floer_product of two basis labels, read from their integer classes:
    the signature of theta.theta_product, plus the counting mode."""
    if mode not in COUNTING_MODES:
        raise ValueError(f"mode must be 'direct' or 'brion', got {mode!r}")
    return theta._element(a.m + b.m, n, D, theta.assemble(n, a.m, a.a, b.m, b.a, D, _kernel(mode)))


def _first_difference(lhs: dict, rhs: dict):
    """Smallest (class a3, exponent) where two unequal term maps disagree,
    with both counts there."""
    a3 = min(a for a in lhs.keys() | rhs.keys() if lhs.get(a) != rhs.get(a))
    lt, rt = lhs.get(a3, {}), rhs.get(a3, {})
    e = min(e for e in lt.keys() | rt.keys() if lt.get(e, 0) != rt.get(e, 0))
    return a3, e, lt.get(e, 0), rt.get(e, 0)


def _verify_row(args):
    """Per counting mode, the failure entries of one row of pairs: label a
    against every label b of weight mb, in class order.

    Every kernel depends on (a2, k) only through b2 = a2 + mb*n*k, and the
    row's windows tile one run of b2, ``plgeom.b2_window``, each pair on
    its own residue a2 mod mb*n.  So each kernel gives its list of
    exponent tuples over the whole run in one call, theta's
    ``plgeom.lambda_exponents`` first, and a list of the wrong length or a
    tuple not n wide is refused (``theta._check_run``).  Where every
    count's list is theta's, the row passes with no pair walked.
    Otherwise each pair's stride of the lists is compared, and where a
    count's differs from theta's the term maps {a3: {exponents: count}}
    of ``theta.product_terms`` are compared:
    every term has coefficient +1 and nothing cancels, so a count's
    product equals the closed form exactly when they are equal.  That is
    the one comparison of products, and no product is built.
    """
    n, a, mb, D = args
    m1, a1 = a
    run = plgeom.b2_window(m1, a1, mb, D)
    # each kernel is read from its module once per row, so a patched one
    # is the one compared, in a pool worker too
    kernels = (plgeom.lambda_exponents, _lifted_counts, _brion_counts)
    reference, *counted = [kernel(n, m1, a1, mb, run) for kernel in kernels]
    theta._check_run(n, run, reference)
    failures = tuple([] for _ in COUNTING_MODES)
    if counted[0] == reference and counted[1] == reference:
        return failures
    for got in counted:
        theta._check_run(n, run, got)
    w = mb * n
    for a2 in range(w):
        # the pair's window is the run's stride of b2 = a2 mod w, as in
        # theta.assemble
        first = (a2 - run.start) % w
        ref = reference[first::w]
        rows = [got[first::w] for got in counted]
        if rows[0] == ref and rows[1] == ref:
            continue
        b2s = run[first::w]
        closed = theta.product_terms(n, m1, a1, mb, D, b2s, ref)
        for mode, row, out in zip(COUNTING_MODES, rows, failures):
            if row == ref:
                continue
            terms = theta.product_terms(n, m1, a1, mb, D, b2s, row)
            if terms != closed:
                a3, e, lc, rc = _first_difference(terms, closed)
                out.append(
                    {
                        "mode": mode,
                        "a": a.to_json_obj(),
                        "b": theta.ThetaIndex(mb, a2).to_json_obj(),
                        "monomial": {"p": theta.class_text(a3, m1 + mb), "e": list(e)},
                        "lhs": str(lc),
                        "rhs": str(rc),
                    }
                )
    return failures


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mirror_verify(n: int, max_m: int, D: int, jobs: int = 1) -> dict:
    """Compare the triangle-count products against the closed form everywhere.

    Runs over all generator pairs with weights up to max_m and, per row of
    pairs, compares each counting route's list of exponent tuples with the
    closed form's, and only where the lists differ the term maps of the
    pairs whose terms differ; no product is built, even for a pair that
    fails.  A task is one row of pairs, a label a against every label of
    one weight, in ``basis_pairs`` order.
    ``pairs_checked`` counts (pair, mode) checks, and the first differing
    monomial of every failing check is listed mode by mode, in pair order.
    The task list and the merge order are fixed, so the report is
    deterministic for any jobs.  jobs = 0 asks for every usable CPU, and
    no more workers start than there are usable CPUs or rows; a negative
    jobs is refused.
    """
    if D < 0:
        raise ValueError(f"truncation order must be >= 0, got D={D}")
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got jobs={jobs}")
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    weights = range(1, max_m + 1)
    tasks = [(n, a, mb, D) for ma in weights for mb in weights for a in theta.basis_indices(n, ma)]
    # a pool starts all its workers at the first submit, so never ask for
    # more than there are CPUs or rows
    cpus = _usable_cpus()
    workers = min(jobs or cpus, cpus, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # about four chunks per worker: few enough that shipping them is
        # cheap, enough that a slow chunk does not leave a worker idle
        chunksize = -(-len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_row, tasks, chunksize=chunksize))
    else:
        results = [_verify_row(t) for t in tasks]
    failures = [f for per_mode in zip(*results) for row in per_mode for f in row]
    pairs = sum(mb * n for _, _, mb, _ in tasks)
    return {"n": n, "D": D, "pairs_checked": pairs * len(COUNTING_MODES), "failures": failures}
