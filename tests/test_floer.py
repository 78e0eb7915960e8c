"""Lattice-point counting routes and the cross-verification report."""

import math
import os
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirror_ring import cli, floer, moduli, plgeom, theta
from mirror_ring.floer import (
    Triangle,
    count_brion,
    count_direct,
    default_eps,
    floer_product,
    lift_triangle,
    mirror_verify,
    point_in_triangle,
)
from mirror_ring.plgeom import InvariantError
from mirror_ring.series import TruncSeries
from mirror_ring.theta import ThetaIndex, theta_product
from run_kernels import at_k, lifted

SEED = int(os.environ.get("MIRROR_RING_SEED", "434019"))
# the three exponent kernels, as verify reads them from their modules
KERNELS = [(plgeom, "lambda_exponents"), (floer, "_lifted_counts"), (floer, "_brion_counts")]


def test_lift_vertices_reference():
    t = lift_triangle(1, 1, 0, 1, 0, 1)
    assert t.A == (0, 0)
    assert t.B == (1, -1)
    assert t.C == (Fraction(1, 2), 0)


def test_lift_third_vertex_is_average():
    rng = random.Random(SEED)
    for _ in range(50):
        n = rng.randrange(1, 5)
        m1, m2 = rng.randrange(1, 4), rng.randrange(1, 4)
        p1 = Fraction(rng.randrange(0, m1 * n), m1)
        p2 = Fraction(rng.randrange(0, m2 * n), m2)
        k = rng.randrange(-4, 5)
        t = lift_triangle(n, m1, p1, m2, p2, k)
        assert t.C[0] == plgeom.average_E(m1, p1, m2, p2 + k * n) / n
        assert t.C[1] == 0
        assert t.is_degenerate() == (p2 + n * k == p1)


def test_degenerate_counts_zero():
    t = lift_triangle(2, 1, 1, 1, 1, 0)
    assert t.is_degenerate()
    for j in range(2):
        assert count_direct(t, 2, j, Fraction(1, 64)) == 0


def test_direct_reference_value():
    t = lift_triangle(1, 1, 0, 1, 0, 2)
    assert count_direct(t, 1, 0, Fraction(1, 100)) == 1


def test_direct_requires_positive_eps():
    t = lift_triangle(1, 1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        count_direct(t, 1, 0, Fraction(0))


@pytest.mark.parametrize(
    "call",
    [
        lambda n: moduli.solve_s(n, 4),
        lambda n: count_brion(n, 1, 0, 1, 0, 0, 0),
        lambda n: count_direct(lift_triangle(1, 1, 0, 1, 0, 1), n, 0, Fraction(1, 100)),
    ],
    ids=["solve_s", "count_brion", "count_direct"],
)
@pytest.mark.parametrize("n", [0, -2])
def test_entry_points_need_a_positive_n(call, n):
    """With fewer than one marked point the root, a Brion count and a
    direct count refuse n itself, not with an empty min() or a division
    by zero."""
    with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
        call(n)


def test_eps_default_in_smallness_regime():
    rng = random.Random(SEED + 1)
    for _ in range(40):
        n = rng.randrange(1, 5)
        m1, m2 = rng.randrange(1, 4), rng.randrange(1, 4)
        k = rng.randrange(-6, 7)
        e = default_eps(n, m1, m2, k)
        assert 0 < e < Fraction(1, n * (m1 + m2))


def sample_tuples(rng, count, nmax=4, mmax=3, kmax=6):
    for _ in range(count):
        n = rng.randrange(1, nmax + 1)
        m1 = rng.randrange(1, mmax + 1)
        m2 = rng.randrange(1, mmax + 1)
        p1 = Fraction(rng.randrange(0, m1 * n), m1)
        p2 = Fraction(rng.randrange(0, m2 * n), m2)
        k = rng.randrange(-kmax, kmax + 1)
        j = rng.randrange(0, n)
        yield n, m1, p1, m2, p2, k, j


def test_three_routes_agree_sampled():
    """Direct count, cone formula, and the profile formula, 500+ tuples."""
    rng = random.Random(SEED + 2)
    hits = 0
    for n, m1, p1, m2, p2, k, j in sample_tuples(rng, 520):
        t = lift_triangle(n, m1, p1, m2, p2, k)
        direct = count_direct(t, n, j, default_eps(n, m1, m2, k))
        brion = count_brion(n, m1, p1, m2, p2, k, j)
        formula = plgeom.t_exponent(n, m1, p1, m2, p2, k, j)
        assert direct == brion == formula, (n, m1, p1, m2, p2, k, j)
        hits += 1
    assert hits >= 500


def test_brion_degenerate_k():
    # affine stretch of the profile: the defect, and the count, vanish
    assert count_brion(2, 1, 0, 1, 0, 0, 0) == 0
    assert count_brion(2, 1, 0, 1, 0, 0, 1) == 0
    assert count_brion(3, 2, Fraction(1, 2), 2, Fraction(1, 2), 0, 2) == 0


def test_direct_eps_halving_stable():
    rng = random.Random(SEED + 3)
    for n, m1, p1, m2, p2, k, j in sample_tuples(rng, 60, nmax=3, kmax=4):
        t = lift_triangle(n, m1, p1, m2, p2, k)
        eps = default_eps(n, m1, m2, k)
        assert count_direct(t, n, j, eps) == count_direct(t, n, j, eps / 2)


def test_marked_point_partition():
    """Summing the per-slot counts recovers the count over the refined
    lattice (1/n)Z x Z, shifted the same way."""
    rng = random.Random(SEED + 4)
    cases = 0
    for n, m1, p1, m2, p2, k, j in sample_tuples(rng, 120, nmax=3, kmax=3):
        t = lift_triangle(n, m1, p1, m2, p2, k)
        if t.is_degenerate():
            continue
        eps = default_eps(n, m1, m2, k)
        by_slots = sum(count_direct(t, n, jj, eps) for jj in range(n))
        xs = [v[0] for v in (t.A, t.B, t.C)]
        ys = [v[1] for v in (t.A, t.B, t.C)]
        refined = 0
        for u in range(math.floor(min(xs) * n) - 1, math.floor(max(xs) * n) + 2):
            for b in range(math.floor(min(ys)) - 1, math.floor(max(ys)) + 2):
                if point_in_triangle(t, Fraction(u, n) + eps, b + eps):
                    refined += 1
        assert by_slots == refined, (n, m1, p1, m2, p2, k)
        cases += 1
    assert cases >= 60


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 4, 6)))
POINTS = st.tuples(RATIONALS, RATIONALS)


@st.composite
def rational_triangles(draw):
    """Small-denominator triangles of either orientation; integer vertices
    put edges on lattice lines, and one draw in four is degenerate."""
    a, b = draw(POINTS), draw(POINTS)
    if draw(st.integers(0, 3)) == 0:
        r = draw(RATIONALS)
        c = (a[0] + r * (b[0] - a[0]), a[1] + r * (b[1] - a[1]))
    else:
        c = draw(POINTS)
    n = draw(st.integers(1, 7))
    eps = Fraction(draw(st.integers(1, 12)), draw(st.sampled_from((1, 2, 3, 4, 6, 12))))
    return Triangle(a, b, c), n, draw(st.integers(0, n - 1)), eps


@settings(derandomize=True, max_examples=400, deadline=None)
@given(rational_triangles())
@example((Triangle((0, 0), (2, 0), (0, 2)), 1, 0, Fraction(1)))  # lattice points on all edges
@example((Triangle((0, 0), (0, 2), (2, 0)), 1, 0, Fraction(1)))  # the same, clockwise
@example((Triangle((0, 0), (1, 1), (3, 3)), 2, 1, Fraction(1, 2)))  # degenerate
@example((Triangle((0, 0), (Fraction(1, 3), 0), (0, Fraction(1, 2))), 3, 2, Fraction(1, 6)))
@example((Triangle((0, 0), (0, 2), (2, 0)), 7, 3, Fraction(1, 3)))  # vertical edge, n = 7
def test_direct_count_matches_fraction_scan(case):
    """count_direct against point_in_triangle over a box one cell wider."""
    t, n, j, eps = case
    sx = Fraction(j, n) - eps
    xs = [v[0] + sx for v in t]
    ys = [v[1] - eps for v in t]
    expected = 0
    if not t.is_degenerate():
        for a in range(math.floor(min(xs)) - 1, math.floor(max(xs)) + 2):
            for b in range(math.floor(min(ys)) - 1, math.floor(max(ys)) + 2):
                expected += point_in_triangle(t, a - sx, b + eps)
    assert count_direct(t, n, j, eps) == expected


@st.composite
def lifted_products(draw):
    n = draw(st.integers(1, 7))
    m1, m2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    p1 = Fraction(draw(st.integers(0, m1 * n - 1)), m1)
    p2 = Fraction(draw(st.integers(0, m2 * n - 1)), m2)
    return n, m1, p1, m2, p2, draw(st.integers(0, 12))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lifted_products())
def test_direct_count_eps_robust_on_lifted_triangles(case):
    """At default_eps and at a seventh of it the direct count equals the
    Brion count, for every k of the D <= 12 window and every slot j."""
    n, m1, p1, m2, p2, D = case
    for k in plgeom.admissible_k_range(n, m1, p1, m2, p2, D):
        t = lift_triangle(n, m1, p1, m2, p2, k)
        eps = default_eps(n, m1, m2, k)
        for j in range(n):
            brion = count_brion(n, m1, p1, m2, p2, k, j)
            assert count_direct(t, n, j, eps) == count_direct(t, n, j, eps / 7) == brion


@settings(derandomize=True, max_examples=100, deadline=None)
@given(lifted_products())
def test_direct_count_is_periodic_in_the_slot(case):
    """count_direct reads slot j mod n: j + n and j - n give slot j, and
    j = -1 gives slot n - 1."""
    n, m1, p1, m2, p2, D = case
    for k in plgeom.admissible_k_range(n, m1, p1, m2, p2, D):
        t = lift_triangle(n, m1, p1, m2, p2, k)
        eps = default_eps(n, m1, m2, k)
        slots = [count_direct(t, n, j, eps) for j in range(n)]
        for j in range(n):
            assert count_direct(t, n, j + n, eps) == count_direct(t, n, j - n, eps) == slots[j]
        assert count_direct(t, n, -1, eps) == slots[n - 1]


@st.composite
def route_tuples(draw):
    n = draw(st.integers(1, 7))
    m1, m2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    p1 = Fraction(draw(st.integers(0, m1 * n - 1)), m1)
    p2 = Fraction(draw(st.integers(0, m2 * n - 1)), m2)
    return n, m1, p1, m2, p2, draw(st.integers(-50, 50))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(route_tuples())
@example((7, 6, Fraction(41, 6), 6, Fraction(41, 6), 50))
@example((7, 6, Fraction(41, 6), 6, Fraction(0), 20))  # largest direct scan
@example((7, 6, Fraction(0), 1, Fraction(0), -50))
def test_four_routes_agree_far_out(case):
    """t_exponent, theta's integer kernel, t_exponent_qr, count_brion and
    the direct route's integer frame agree for every slot j out to
    |k| = 50; count_direct at default_eps joins them for |k| <= 20."""
    n, m1, p1, m2, p2, k = case
    t = lift_triangle(n, m1, p1, m2, p2, k) if abs(k) <= 20 else None
    frame = at_k(floer._lifted_counts)(n, m1, int(m1 * p1), m2, int(m2 * p2), k)
    for j in range(n):
        te = plgeom.t_exponent(n, m1, p1, m2, p2, k, j)
        assert theta._exponent(n, m1, p1, m2, p2, k, j) == te
        assert plgeom.t_exponent_qr(n, m1, p1, m2, p2, k, j) == te
        assert count_brion(n, m1, p1, m2, p2, k, j) == te
        assert frame[j] == te
        if t is not None:
            assert count_direct(t, n, j, default_eps(n, m1, m2, k)) == te


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    n=st.integers(1, 7),
    m1=st.integers(1, 6),
    m2=st.integers(1, 6),
    a1=st.integers(-120, 120),
    start=st.integers(-300, 300),
    length=st.integers(0, 12),
    strided=st.booleans(),
)
@example(n=5, m1=4, m2=3, a1=7, start=-40, length=12, strided=False)
@example(n=5, m1=4, m2=3, a1=7, start=-40, length=12, strided=True)
@example(n=3, m1=2, m2=1, a1=1, start=4, length=1, strided=False)
@example(n=3, m1=2, m2=1, a1=1, start=4, length=0, strided=True)
def test_each_run_kernel_is_its_one_element_runs(n, m1, m2, a1, start, length, strided):
    """Over a contiguous run, a run strided by m2*n (one pair's window), a
    one-element run or an empty one, each kernel's list is the
    concatenation of its one-element runs: what it computes once per run
    changes no term, and every term is n wide."""
    step = m2 * n if strided else 1
    b2s = range(start, start + length * step, step)
    for owner, name in KERNELS:
        kernel = getattr(owner, name)
        want = [exps for b2 in b2s for exps in kernel(n, m1, a1, m2, range(b2, b2 + 1))]
        assert kernel(n, m1, a1, m2, b2s) == want, name
        assert len(want) == length and all(len(exps) == n for exps in want), name


def test_integer_frame_matches_the_fraction_lift():
    """The direct route's integer frame counts what count_direct counts on
    the Fraction lift at default_eps, and what count_brion counts, for
    every slot j and every admissible k at D = 12, over every basis pair
    with n <= 5, m <= 4."""
    D = 12
    for n in range(1, 6):
        for m1 in range(1, 5):
            for m2 in range(1, 5):
                for a in theta.basis_indices(n, m1):
                    for b in theta.basis_indices(n, m2):
                        args = (n, m1, a.p, m2, b.p)
                        a1, a2 = int(m1 * a.p), int(m2 * b.p)
                        for k in plgeom.admissible_k_range(*args, D):
                            t = lift_triangle(*args, k)
                            eps = default_eps(n, m1, m2, k)
                            want = tuple(count_direct(t, n, j, eps) for j in range(n))
                            assert at_k(floer._lifted_counts)(n, m1, a1, m2, a2, k) == want
                            brion = tuple(count_brion(*args, k, j) for j in range(n))
                            assert want == brion, (args, k)


def _edges_with_lattice_points(n, m1, a1, m2, a2, k):
    """The edges of the lifted triangle, "AB", "CB" and "y0" (the edge AC),
    that hold a point (c/n, b), c and b integers, other than a corner: in
    Fractions, from lift_triangle, with no perturbation."""
    t = lift_triangle(n, m1, Fraction(a1, m1), m2, Fraction(a2, m2), k)
    A, B, C = t
    xs, ys = [x for x, _ in t], [y for _, y in t]
    edges = set()
    for c in range(math.floor(min(xs) * n), math.ceil(max(xs) * n) + 1):
        for b in range(math.floor(min(ys)), math.ceil(max(ys)) + 1):
            x, y = Fraction(c, n), Fraction(b)
            if (x, y) in t:
                continue
            for name, (px, py), (qx, qy) in (("AB", A, B), ("CB", C, B), ("y0", A, C)):
                on_line = (qx - px) * (y - py) == (qy - py) * (x - px)
                if on_line and min(px, qx) <= x <= max(px, qx) and min(py, qy) <= y <= max(py, qy):
                    edges.add(name)
    return edges


@pytest.mark.parametrize(
    "sign, case",
    [
        # g > 0: B below y0; equal weights, negative classes, unequal weights
        pytest.param(1, (3, 1, 0, 1, 0, 1), id="below-equal"),
        pytest.param(1, (2, 1, -2, 2, -3, 1), id="below-negative"),
        pytest.param(1, (2, 1, 0, 2, -3, 2), id="below-unequal"),
        # g < 0: B above y0
        pytest.param(-1, (3, 1, 0, 1, 0, -1), id="above-equal"),
        pytest.param(-1, (2, 1, -2, 2, -1, -2), id="above-negative"),
        pytest.param(-1, (2, 1, 0, 2, 3, -2), id="above-unequal"),
    ],
)
def test_shape_kernel_settles_lattice_points_on_the_edges(sign, case):
    """Lattice points exactly on line AB, on line CB and on y0 are the ones
    the perturbation decides; on triangles with such points on all three
    edges, with gap g = m1 b2 - m2 a1 of either sign, the shape kernel
    counts what count_direct counts at default_eps, slot by slot."""
    n, m1, a1, m2, a2, k = case
    g = m1 * (a2 + m2 * n * k) - m2 * a1
    assert g * sign > 0
    assert _edges_with_lattice_points(*case) == {"AB", "CB", "y0"}
    t = lift_triangle(n, m1, Fraction(a1, m1), m2, Fraction(a2, m2), k)
    eps = default_eps(n, m1, m2, k)
    counts = at_k(floer._lifted_counts)(*case)
    assert len(counts) == n
    for j in range(n):
        assert counts[j] == count_direct(t, n, j, eps), j


@st.composite
def wide_lifted_tuples(draw):
    """Classes three periods either side of the fixed grid's [0, m n)."""
    n = draw(st.integers(1, 8))
    m1, m2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a1 = draw(st.integers(-3 * m1 * n, 3 * m1 * n - 1))
    a2 = draw(st.integers(-3 * m2 * n, 3 * m2 * n - 1))
    return n, m1, a1, m2, a2, draw(st.integers(-40, 40))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(wide_lifted_tuples())
@example((3, 2, 1, 2, 1, 0))  # degenerate gap: every slot 0
@example((8, 6, -144, 6, 143, 40))  # B below y0, columns -25..343
@example((8, 6, 143, 5, -120, -40))  # B above y0, so left of C and A
@example((3, 1, 2, 2, -5, 0))  # B left of A, columns on both sides of 0
@example((4, 1, -5, 3, 2, -1))  # B below y0, every column left of 0
def test_shape_kernel_matches_count_direct_far_out(case):
    """_lifted_counts equals count_direct on the Fraction lift at
    default_eps, slot by slot, for classes well outside [0, m n) and
    |k| <= 40."""
    n, m1, a1, m2, a2, k = case
    t = lift_triangle(n, m1, Fraction(a1, m1), m2, Fraction(a2, m2), k)
    eps = default_eps(n, m1, m2, k)
    want = tuple(count_direct(t, n, j, eps) for j in range(n))
    assert at_k(floer._lifted_counts)(n, m1, a1, m2, a2, k) == want


def test_shape_kernel_shares_no_code_with_the_reference(monkeypatch, tmp_path):
    """With count_direct's scan and the floer module's Fraction made to
    raise, the verify report and the floer-direct table at (3, 2, 6) come
    out byte-identical, and count_direct still reaches the scan."""
    size = ["--n", "3", "--max-m", "2", "--trunc", "6"]

    def reports():
        out = []
        for cmd in (["verify", *size, "--jobs", "1"], ["floer-direct", *size]):
            path = tmp_path / f"{cmd[0]}.json"
            assert cli.main([*cmd, "-o", str(path)]) == 0
            out.append(path.read_bytes())
        return out

    want = reports()

    def forbidden(*args, **kwargs):
        raise RuntimeError("the shape kernel reached the reference scan or a Fraction")

    monkeypatch.setattr(floer, "_count_scaled", forbidden)
    monkeypatch.setattr(floer, "Fraction", forbidden)
    assert reports() == want
    monkeypatch.setattr(floer, "Fraction", Fraction)
    with pytest.raises(RuntimeError, match="reference scan"):
        count_direct(lift_triangle(3, 1, 0, 1, 1, 1), 3, 0, default_eps(3, 1, 1, 1))


def test_the_routes_build_no_fraction(monkeypatch, tmp_path):
    """The routes solve their k-windows from integer classes, the direct
    kernel takes its perturbation as an integer and the counted tables
    read the labels' classes: with the p-signature window, default_eps and
    ThetaIndex.p made to raise, verify and the theta, floer-direct and
    floer-brion tables at (3, 2, 6) come out as before."""
    size = ["--n", "3", "--max-m", "2", "--trunc", "6"]

    def tables():
        out = {}
        for cmd in ("theta", "floer-direct", "floer-brion"):
            path = tmp_path / f"{cmd}.json"
            assert cli.main([cmd, *size, "-o", str(path)]) == 0
            out[cmd] = path.read_bytes()
        return out

    want_tables, want_verify = tables(), mirror_verify(3, 2, 6)
    assert want_verify["failures"] == [] and want_verify["pairs_checked"] == 2 * 81

    def forbidden(*args, **kwargs):
        raise RuntimeError("a route built a Fraction")

    monkeypatch.setattr(plgeom, "admissible_k_range", forbidden)
    monkeypatch.setattr(floer, "default_eps", forbidden)
    monkeypatch.setattr(ThetaIndex, "p", property(forbidden))
    assert tables() == want_tables
    assert mirror_verify(3, 2, 6) == want_verify


def test_brion_takes_int_and_fraction_p():
    for n, m1, p1, m2, p2, k, j in [
        (3, 1, 2, 2, Fraction(3, 2), 1, 0),
        (4, 2, 3, 3, 0, -2, 3),
        (1, 1, 0, 1, 0, 5, 0),
    ]:
        want = plgeom.t_exponent(n, m1, p1, m2, p2, k, j)
        for q1 in (p1, Fraction(p1)):
            for q2 in (p2, Fraction(p2)):
                assert count_brion(n, m1, q1, m2, q2, k, j) == want
    with pytest.raises(ValueError):
        count_brion(3, 2, Fraction(1, 3), 1, 0, 0, 0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    n=st.integers(1, 7),
    m1=st.integers(1, 4),
    m2=st.integers(1, 4),
    a1=st.integers(-60, 60),
    a2=st.integers(-60, 60),
    k=st.integers(-30, 30),
)
@example(n=6, m1=4, m2=4, a1=-60, a2=60, k=-30)
@example(n=7, m1=4, m2=3, a1=-60, a2=59, k=-30)
@example(n=7, m1=1, m2=1, a1=0, a2=0, k=0)
def test_brion_core_counts_every_slot(n, m1, m2, a1, a2, k):
    """The Brion core gives count_brion, and theta's n*lambda core gives
    t_exponent_qr, at every slot, both equal to the Fraction reference, for
    classes outside [0, m*n) and negative k alike."""
    p1, p2 = Fraction(a1, m1), Fraction(a2, m2)
    counts = at_k(floer._brion_counts)(n, m1, a1, m2, a2, k)
    exps = at_k(plgeom.lambda_exponents)(n, m1, a1, m2, a2, k)
    assert len(counts) == len(exps) == n
    for j in range(n):
        want = plgeom.t_exponent(n, m1, p1, m2, p2, k, j)
        assert counts[j] == count_brion(n, m1, p1, m2, p2, k, j) == want
        assert exps[j] == plgeom.t_exponent_qr(n, m1, p1, m2, p2, k, j) == want


@pytest.mark.parametrize(
    "shift, message",
    [
        # a remainder off by one breaks the r-identity
        (lambda q, r, w: (q, r + 1), "remainder identity violated at "),
        # (q - 1, r + w) keeps the identity but lowers the count by r
        (lambda q, r, w: (q - 1, r + w), "h''(1) = -10 is negative at "),
    ],
    ids=["r-identity", "h''(1)"],
)
def test_brion_core_names_the_failing_slot(monkeypatch, shift, message):
    """A corrupted first quotient of the core at a zero count (the
    degenerate k = 0 of x_{2,1/2}^2 at n = 3, slot 2, with q1, r1 = 0, 5)
    raises InvariantError naming n, m, p as the report spells it, k and
    j.  The first corner's quotients come first, once per run, one per
    slot, so slot 2's is the third divmod."""
    real = divmod
    seen = []

    def crooked(x, w):
        q, r = real(x, w)
        seen.append(None)
        return shift(q, r, w) if len(seen) == 3 else (q, r)

    monkeypatch.setattr(floer, "divmod", crooked, raising=False)
    with pytest.raises(InvariantError) as info:
        at_k(floer._brion_counts)(3, 2, 1, 2, 1, 0)
    assert str(info.value) == message + "n=3 m=(2,2) p=(1/2,1/2) k=0 j=2"


def test_brion_corner_share_is_the_second_derivative_of_its_polynomial():
    """Each corner's polynomial (w - r) x^(q+1) + r x^(q+2), as integer
    coefficients, has second derivative (q + 1)(wq + 2r) at x = 1: the one
    product per corner that _brion_counts adds."""
    for w in range(1, 13):
        for r in range(w):
            for q in range(-1, 9):
                poly = {q + 1: w - r, q + 2: r}
                second = sum(c * e * (e - 1) for e, c in poly.items())
                assert second == (q + 1) * (w * q + 2 * r), (w, r, q)


def test_counting_routes_are_independent_of_the_theta_route(monkeypatch):
    """With theta's kernel, its one-slot names and every profile-formula
    route made to raise, both counted tables still equal the theta table."""
    n, max_m, D = 3, 2, 6
    want = theta.build_table(n, max_m, D).entries

    def forbidden(*args, **kwargs):
        raise RuntimeError("a counting route called the theta route")

    monkeypatch.setattr(theta, "_exponent", forbidden)
    for name in ("lambda_exponents", "t_exponent", "t_exponent_qr", "phi", "lambda_defect"):
        monkeypatch.setattr(plgeom, name, forbidden)
    for mode in ("direct", "brion"):

        def product(a, b, nn, DD, mode=mode):
            return floer_product(nn, a.m, a.p, b.m, b.p, DD, mode)

        assert theta.build_table(n, max_m, D, product=product).entries == want, mode


def test_floer_product_matches_theta_reference():
    for mode in ("direct", "brion"):
        out = floer_product(1, 1, 0, 1, 0, 4, mode)
        assert out == theta_product(ThetaIndex.make(1, 0, 1), ThetaIndex.make(1, 0, 1), 1, 4)
        assert out.coeffs[0] == TruncSeries(1, 4, {(0,): 1, (1,): 2, (4,): 2})


def test_floer_modes_agree():
    rng = random.Random(SEED + 5)
    for _ in range(25):
        n = rng.randrange(1, 4)
        m1, m2 = rng.randrange(1, 3), rng.randrange(1, 3)
        p1 = Fraction(rng.randrange(0, m1 * n), m1)
        p2 = Fraction(rng.randrange(0, m2 * n), m2)
        d = floer_product(n, m1, p1, m2, p2, 5, "direct")
        b = floer_product(n, m1, p1, m2, p2, 5, "brion")
        assert d == b
        assert d.m == m1 + m2


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n=st.integers(1, 5),
    m1=st.integers(1, 3),
    m2=st.integers(1, 3),
    a1=st.integers(-200, 200),
    a2=st.integers(-200, 200),
    D=st.integers(0, 6),
)
def test_every_route_keys_products_by_the_integer_class(n, m1, m2, a1, a2, D):
    """Each route's product is keyed by the integer class a3 = m3*p3 in
    [0, m3*n), from labels or from indices outside [0, n)."""
    p1, p2 = Fraction(a1, m1), Fraction(a2, m2)
    x, y = ThetaIndex.make(m1, p1, n), ThetaIndex.make(m2, p2, n)
    products = [theta_product(x, y, n, D)]
    products += [floer_product(n, m1, p1, m2, p2, D, mode) for mode in floer.COUNTING_MODES]
    for elem in products:
        assert elem.m == m1 + m2
        for a3 in elem.coeffs:
            assert type(a3) is int and 0 <= a3 < elem.m * n
    assert products[1] == products[0] and products[2] == products[0]


def _route_products():
    """Each route's product with theta_product's (a, b, n, D) signature."""
    return {
        "theta": theta_product,
        **{mode: partial(floer.counted_product, mode=mode) for mode in floer.COUNTING_MODES},
    }


def _reflected(elem, n) -> dict:
    """The term map of elem under the reflection: class a3 goes to -a3 and
    t_j to t_(-j mod n), so slot j of a new exponent is slot -j of the
    old."""
    size = elem.m * n
    return {
        (-a3) % size: {tuple(e[-j % n] for j in range(n)): c for e, c in s.terms.items()}
        for a3, s in elem.coeffs.items()
    }


def _terms(elem) -> dict:
    return {a3: s.terms for a3, s in elem.coeffs.items()}


@pytest.mark.parametrize("route", ["theta", "direct", "brion"])
def test_reflection_law_on_every_pair(route):
    """th[m1, -a1] * th[m2, -a2] = sum sigma(C_a3) th[m3, -a3], where
    th[m1, a1] * th[m2, a2] = sum C_a3 th[m3, a3] and sigma sends t_j to
    t_(-j mod n): every ordered pair with weights <= 2, at n = 1..6 and
    D = 6, each multiplied by the route itself."""
    product = _route_products()[route]
    D = 6
    for n in range(1, 7):
        pairs = theta.basis_pairs(n, 2)
        got = {(a, b): product(a, b, n, D) for a, b in pairs}
        for (a, b), elem in got.items():
            mirror = (
                ThetaIndex(a.m, -a.a % (a.m * n)),
                ThetaIndex(b.m, -b.a % (b.m * n)),
            )
            assert _terms(got[mirror]) == _reflected(elem, n), (route, n, a, b)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(1, 7),
    m1=st.integers(1, 6),
    m2=st.integers(1, 6),
    a1=st.integers(0, 41),
    a2=st.integers(0, 41),
    D=st.integers(0, 12),
)
@example(n=7, m1=6, m2=6, a1=41, a2=41, D=12)
@example(n=7, m1=6, m2=1, a1=41, a2=0, D=12)
@example(n=5, m1=3, m2=4, a1=7, a2=0, D=0)
def test_reflection_law_far_out(n, m1, m2, a1, a2, D):
    """The reflection law on pairs out to weight 6, n = 7 and D = 12, for
    all three routes; a class is drawn mod m*n."""
    a = ThetaIndex(m1, a1 % (m1 * n))
    b = ThetaIndex(m2, a2 % (m2 * n))
    ma = ThetaIndex(m1, -a.a % (m1 * n))
    mb = ThetaIndex(m2, -b.a % (m2 * n))
    for route, product in _route_products().items():
        elem = product(a, b, n, D)
        assert _terms(product(ma, mb, n, D)) == _reflected(elem, n), route


def test_a_rotated_lambda_is_seen_through_the_reflection_law(monkeypatch):
    """lambda with every term rotated by one slot still gives a commutative,
    rotation-equivariant product, but not a reflection-equivariant one at
    n = 3.  build_table derives reflected pairs, so its theta table is
    then not the every-pair products; verify, which computes every pair,
    and the reflection-law check both fail."""
    n, max_m, D = 3, 2, 6
    kernel = plgeom.lambda_exponents

    def rotated(n, m1, a1, m2, b2s):
        return [e[1:] + e[:1] for e in kernel(n, m1, a1, m2, b2s)]

    monkeypatch.setattr(plgeom, "lambda_exponents", rotated)
    got = {(a, b): theta_product(a, b, n, D) for a, b in theta.basis_pairs(n, max_m)}
    for (a, b), elem in got.items():
        assert got[b, a] == elem
        shifted = got[ThetaIndex.make(a.m, a.p + 1, n), ThetaIndex.make(b.m, b.p + 1, n)]
        m3 = elem.m
        want = {(a3 + m3) % (m3 * n): s.rotate(1) for a3, s in elem.coeffs.items()}
        assert shifted.coeffs == want
    table = theta.build_table(n, max_m, D)
    assert list(table.entries) == list(got)
    assert table.entries != got
    assert mirror_verify(n, max_m, D, jobs=1)["failures"]
    with pytest.raises(AssertionError):
        test_reflection_law_on_every_pair("theta")


def test_floer_product_rejects_unknown_mode():
    with pytest.raises(ValueError):
        floer_product(1, 1, 0, 1, 0, 2, "guess")


@pytest.mark.parametrize("mode", floer.COUNTING_MODES)
@pytest.mark.parametrize("m1, m2", [(0, 1), (1, 0), (1, -1)])
def test_floer_product_rejects_a_weight_below_one(m1, m2, mode):
    """As ThetaIndex.make and lift_triangle do: a ValueError, not the
    ZeroDivisionError of reducing a class mod m*n = 0."""
    with pytest.raises(ValueError, match="weight must be >= 1"):
        floer_product(2, m1, 0, m2, 0, 4, mode)


def test_mirror_verify_passes():
    rep = mirror_verify(4, 1, 4)
    assert rep["failures"] == []
    assert rep["pairs_checked"] == 2 * 16
    assert rep["n"] == 4 and rep["D"] == 4


def test_mirror_verify_refuses_n_below_one():
    """n = 0 has no basis pairs; verify refuses it rather than report
    zero pairs checked and no failure."""
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        mirror_verify(0, 2, 4)


@pytest.mark.parametrize("mode", ["direct", "brion"])
@pytest.mark.parametrize("n", [0, -1])
def test_floer_product_refuses_n_below_one(n, mode):
    """The p-signature entry point refuses n < 1 as the basis does, not by
    a division by zero (n = 0) or an empty product (n = -1)."""
    with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
        floer_product(n, 1, 0, 1, 0, 4, mode)


def test_mirror_verify_jobs_deterministic():
    one = mirror_verify(2, 2, 4, jobs=1)
    two = mirror_verify(2, 2, 4, jobs=2)
    assert one == two


@pytest.mark.parametrize("jobs", [-1, -5])
def test_mirror_verify_refuses_negative_jobs(jobs):
    """A library caller's negative worker count is refused, as the CLI
    refuses --jobs -1, not silently run as one worker."""
    with pytest.raises(ValueError, match=f"jobs must be >= 0, got jobs={jobs}"):
        mirror_verify(2, 1, 4, jobs=jobs)


def _record_pools(monkeypatch):
    """Swap in a pool that maps in-process and records each pool's size
    and chunk size, with 64 usable CPUs so that the rows, not the CPUs,
    cap it; returns the two record lists."""
    import concurrent.futures

    sizes, chunks = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            chunks.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(floer, "_usable_cpus", lambda: 64)
    return sizes, chunks


def test_mirror_verify_caps_workers_at_rows(monkeypatch):
    """A pool starts every worker it is sized for, so --jobs beyond the
    row count must not reach it, and each worker gets about four chunks
    of rows; the fake pool maps in-process."""
    sizes, chunks = _record_pools(monkeypatch)
    # two rows at n = 2, max_m = 1: one per label of weight 1
    assert mirror_verify(2, 1, 4, jobs=64) == mirror_verify(2, 1, 4, jobs=1)
    assert sizes == [2] and chunks == [1]
    mirror_verify(1, 1, 4, jobs=64)
    assert sizes == [2] and chunks == [1]
    # 18 rows on 2 workers: chunks of ceil(18 / 8) = 3
    assert mirror_verify(3, 2, 4, jobs=2) == mirror_verify(3, 2, 4, jobs=1)
    assert sizes == [2, 2] and chunks == [1, 3]


@pytest.mark.parametrize("max_m", [0, -1])
def test_mirror_verify_refuses_max_m_below_one(max_m):
    """No weight below 1 has a basis label; verify refuses it by name
    rather than report zero pairs checked and no failure."""
    with pytest.raises(ValueError, match="max_m must be >= 1"):
        mirror_verify(3, max_m, 4)


@pytest.mark.parametrize("kernel", ["_lifted_counts", "_brion_counts"])
@pytest.mark.parametrize("n, max_m, D", [(2, 2, 6), (3, 2, 4)])
def test_pooled_failures_are_the_serial_failures(monkeypatch, kernel, n, max_m, D):
    """A pool of row tasks lists exactly the failures of the in-process
    run, mode by mode in pair order, with one count corrupted."""
    monkeypatch.setattr(floer, kernel, lifted(getattr(floer, kernel), _shift_one_exponent))
    sizes, chunks = _record_pools(monkeypatch)
    serial = mirror_verify(n, max_m, D, jobs=1)["failures"]
    assert serial and sizes == []
    assert mirror_verify(n, max_m, D, jobs=2)["failures"] == serial
    assert sizes == [2]
    mode = floer.COUNTING_MODES[kernel == "_brion_counts"]
    listed = [(f["a"], f["b"]) for f in serial]
    order = [(a.to_json_obj(), b.to_json_obj()) for a, b in theta.basis_pairs(n, max_m)]
    assert {f["mode"] for f in serial} == {mode}
    assert listed == [pair for pair in order if pair in listed]


def _count_calls(monkeypatch, owner, name, record):
    """Wrap owner.name so each call appends record(*args) to the list
    returned."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(record(*args))
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _row_runs(n, max_m, D):
    """Each row (m1, a1, mb) of verify with the b2 = a2 + mb*n*k of every
    pair's window in it, sorted."""
    return {
        (a.m, a.a, mb): sorted(
            a2 + mb * n * k for a2 in range(mb * n) for k in plgeom.k_window(n, a.m, a.a, mb, a2, D)
        )
        for ma in range(1, max_m + 1)
        for a in theta.basis_indices(n, ma)
        for mb in range(1, max_m + 1)
    }


def test_mirror_verify_reads_theta_once_per_pair(monkeypatch):
    """On a clean run verify calls each kernel, theta's included, once per
    row, over a run that is exactly the union of the row's pair windows:
    each (pair, k) once, not once per mode.  It builds no product of its
    own."""
    n, max_m, D = 3, 2, 4
    calls = [
        _count_calls(monkeypatch, owner, name, lambda nn, m1, a1, m2, b2s: ((m1, a1, m2), b2s))
        for owner, name in KERNELS
    ]
    products = _count_calls(monkeypatch, theta, "theta_product", lambda a, b, nn, DD: (a, b))
    rep = mirror_verify(n, max_m, D, jobs=1)
    pairs = theta.basis_pairs(n, max_m)
    assert rep["pairs_checked"] == 2 * len(pairs) == 2 * 81
    assert rep["failures"] == []
    assert products == []
    rows = _row_runs(n, max_m, D)
    assert sum(map(len, rows.values())) == sum(
        len(plgeom.admissible_k_range(n, a.m, a.p, b.m, b.p, D)) for a, b in pairs
    )
    for got in calls:
        assert len(got) == len(rows) == 18
        assert {row: list(b2s) for row, b2s in got} == rows


def test_mirror_verify_builds_term_maps_only_where_rows_differ(monkeypatch):
    """Verify at (3, 2, 6) calls each kernel once per row, over the union
    of the row's windows, and, on a passing run, builds no term map at
    all.  With one Brion exponent shifted it builds term maps for the
    Brion checks of the failing pairs only, over each pair's window,
    theta's terms and then Brion's, never for direct."""
    n, max_m, D = 3, 2, 6
    pairs = theta.basis_pairs(n, max_m)
    rows = _row_runs(n, max_m, D)
    calls = [
        _count_calls(monkeypatch, owner, name, lambda nn, m1, a1, m2, b2s: ((m1, a1, m2), b2s))
        for owner, name in KERNELS
    ]
    maps = _count_calls(
        monkeypatch,
        theta,
        "product_terms",
        lambda nn, m1, a1, m2, DD, b2s, row: ((m1, a1, m2, list(b2s)), row),
    )
    rep = mirror_verify(n, max_m, D, jobs=1)
    assert rep["failures"] == [] and rep["pairs_checked"] == 2 * len(pairs)
    for got in calls:
        assert {row: list(b2s) for row, b2s in got} == rows and len(got) == len(rows)
    assert maps == []

    crooked = lifted(floer._brion_counts, _shift_one_exponent)
    monkeypatch.setattr(floer, "_brion_counts", crooked)
    failures = mirror_verify(n, max_m, D, jobs=1)["failures"]
    assert failures and {f["mode"] for f in failures} == {"brion"}
    want = []
    for f in failures:
        a, b = (ThetaIndex.make(f[x]["m"], Fraction(f[x]["p"]), n) for x in "ab")
        window = plgeom.k_window(n, a.m, a.a, b.m, b.a, D)
        b2s = [b.a + b.m * n * k for k in window]
        for kernel in (plgeom.lambda_exponents, crooked):
            row = [at_k(kernel)(n, a.m, a.a, b.m, b.a, k) for k in window]
            want.append(((a.m, a.a, b.m, b2s), row))
    assert maps == want


def _theta_tuples(kernel, n, a, b, D):
    """Theta's exponent tuple at every k of the pair's window."""
    return [
        kernel(n, a.m, a.a, b.m, b.a, k)
        for k in plgeom.admissible_k_range(n, a.m, a.p, b.m, b.p, D)
    ]


def test_mirror_verify_builds_no_product_where_tuples_differ(monkeypatch):
    """Under a swap of two of theta's terms verify still builds no product,
    here made to raise, and lists exactly the pairs whose products differ:
    a pair whose tuples differ but whose products agree is not listed."""
    n, max_m, D = 2, 2, 6
    good = at_k(plgeom.lambda_exponents)
    crooked = _swap_two_terms(good)
    pairs = theta.basis_pairs(n, max_m)
    before = {(a, b): theta_product(a, b, n, D) for a, b in pairs}
    differ = [
        (a, b)
        for a, b in pairs
        if _theta_tuples(crooked, n, a, b, D) != _theta_tuples(good, n, a, b, D)
    ]
    monkeypatch.setattr(
        plgeom, "lambda_exponents", lifted(plgeom.lambda_exponents, _swap_two_terms)
    )
    changed = [(a, b) for a, b in differ if theta_product(a, b, n, D) != before[(a, b)]]
    assert 0 < len(changed) < len(differ) < len(pairs)

    def refuse(*args):
        raise AssertionError("verify built a product")

    monkeypatch.setattr(theta, "theta_product", refuse)
    monkeypatch.setattr(floer, "floer_product", refuse)
    failures = mirror_verify(n, max_m, D, jobs=1)["failures"]
    assert [(f["mode"], f["a"], f["b"]) for f in failures] == [
        (mode, a.to_json_obj(), b.to_json_obj())
        for mode in floer.COUNTING_MODES
        for a, b in changed
    ]


def test_mirror_verify_ignores_differences_above_the_cut(monkeypatch):
    """A corruption of theta's kernel that only touches tuples of total
    degree > D, before and after, changes no product: verify reports
    nothing and builds no product."""
    n, max_m, D = 3, 2, 4
    touched = []

    def fault(good):
        def crooked(nn, m1, a1, m2, a2, k):
            exps = good(nn, m1, a1, m2, a2, k)
            if sum(exps) > D:
                touched.append((m1, a1, m2, a2, k))
                return (exps[0] + 1,) + exps[1:]
            return exps

        return crooked

    monkeypatch.setattr(plgeom, "lambda_exponents", lifted(plgeom.lambda_exponents, fault))
    products = _count_calls(monkeypatch, theta, "theta_product", lambda a, b, nn, DD: (a, b))
    assert mirror_verify(n, max_m, D, jobs=1)["failures"] == []
    assert touched
    assert products == []


def test_mirror_verify_reports_a_term_pulled_under_the_cut(monkeypatch):
    """Theta's tuple zeroed wherever the true total degree is > D keeps a
    term that the counts drop: only theta's side is under the cut, and
    verify reports exactly the pairs whose products differ."""
    n, max_m, D = 3, 2, 4

    def fault(good):
        def crooked(nn, m1, a1, m2, a2, k):
            exps = good(nn, m1, a1, m2, a2, k)
            return (0,) * nn if sum(exps) > D else exps

        return crooked

    monkeypatch.setattr(plgeom, "lambda_exponents", lifted(plgeom.lambda_exponents, fault))
    want = [
        (mode, a.to_json_obj(), b.to_json_obj())
        for mode in floer.COUNTING_MODES
        for a, b in theta.basis_pairs(n, max_m)
        if floer_product(n, a.m, a.p, b.m, b.p, D, mode) != theta_product(a, b, n, D)
    ]
    assert want, "the corruption changed no product"
    failures = mirror_verify(n, max_m, D, jobs=1)["failures"]
    assert [(f["mode"], f["a"], f["b"]) for f in failures] == want


def test_mirror_verify_pinpoints_corruption(monkeypatch):
    monkeypatch.setattr(
        plgeom, "lambda_exponents", lifted(plgeom.lambda_exponents, _shift_one_exponent)
    )
    rep = mirror_verify(2, 1, 4, jobs=1)
    assert rep["failures"], "corrupted closed form went unnoticed"
    first = rep["failures"][0]
    assert set(first) == {"mode", "a", "b", "monomial", "lhs", "rhs"}
    assert first["lhs"] != first["rhs"]
    # both counts see the same corrupted reference: direct first, then brion
    modes = [f["mode"] for f in rep["failures"]]
    half = len(modes) // 2
    assert modes == ["direct"] * half + ["brion"] * half
    assert [f["a"] for f in rep["failures"][:half]] == [f["a"] for f in rep["failures"][half:]]


def test_only_the_direct_count_catches_a_wrong_lambda_formula(monkeypatch):
    """Brion's h''(1)/2 is lambda's formula in another coding, so the same
    wrong formula patched into both passes theta against Brion: every
    failure verify reports comes from the direct count, one per pair."""
    n, max_m, D = 3, 2, 6

    def wrong(good):
        def crooked(nn, m1, a1, m2, a2, k):
            exps = good(nn, m1, a1, m2, a2, k)
            return (exps[0] + 1,) + exps[1:] if k == 0 else exps

        return crooked

    monkeypatch.setattr(plgeom, "lambda_exponents", lifted(plgeom.lambda_exponents, wrong))
    monkeypatch.setattr(floer, "_brion_counts", lifted(floer._brion_counts, wrong))
    failures = mirror_verify(n, max_m, D, jobs=1)["failures"]
    assert [(f["mode"], f["a"], f["b"]) for f in failures] == [
        ("direct", a.to_json_obj(), b.to_json_obj()) for a, b in theta.basis_pairs(n, max_m)
    ]


def test_verify_counts_the_pairs_the_table_derives(monkeypatch):
    """A direct count corrupted at one pair that is not its orbit's
    representative leaves the floer-direct table as it was, since that
    entry is derived, while verify, which counts every ordered pair,
    reports that pair and no other."""
    n, max_m, D = 3, 2, 4

    def direct(a, b, nn, DD):
        return floer_product(nn, a.m, a.p, b.m, b.p, DD, "direct")

    before = theta.build_table(n, max_m, D, product=direct).entries
    # its swap (x_{1,0}, x_{2,1/2}) comes first in basis_pairs order
    a, b = ThetaIndex.make(2, Fraction(1, 2), n), ThetaIndex.make(1, 0, n)

    def fault(good):
        def crooked(nn, m1, a1, m2, a2, k):
            counts = good(nn, m1, a1, m2, a2, k)
            if (m1, a1, m2, a2) == (2, 1, 1, 0):
                return (counts[0] + 1,) + counts[1:]
            return counts

        return crooked

    monkeypatch.setattr(floer, "_lifted_counts", lifted(floer._lifted_counts, fault))
    assert direct(a, b, n, D) != theta_product(a, b, n, D)
    assert theta.build_table(n, max_m, D, product=direct).entries == before
    failures = mirror_verify(n, max_m, D, jobs=1)["failures"]
    assert [(f["mode"], f["a"], f["b"]) for f in failures] == [
        ("direct", a.to_json_obj(), b.to_json_obj())
    ]


def _smallest_difference(lhs, rhs):
    """The smallest (p, e) where two elements differ and both coefficients
    there, read off items() and iter_terms(); None when they agree.  The
    class p is spelled from the integer key a = m*p."""
    lterms = {(a, e): c for a, s in lhs.items() for e, c in s.iter_terms()}
    rterms = {(a, e): c for a, s in rhs.items() for e, c in s.iter_terms()}
    for a, e in sorted(set(lterms) | set(rterms)):
        lc, rc = lterms.get((a, e), 0), rterms.get((a, e), 0)
        if lc != rc:
            return Fraction(a, lhs.m), e, lc, rc
    return None


def _shift_one_exponent(good):
    """Slot 0 of the k = 1 term, where it is not 0, goes up by 1."""

    def crooked(n, m1, a1, m2, a2, k):
        exps = good(n, m1, a1, m2, a2, k)
        return (exps[0] + 1,) + exps[1:] if k == 1 and exps[0] else exps

    return crooked


def _merge_two_terms(good):
    """The k = 2 term takes the exponents of the k = 0 term.  At m1 = m2
    both land on one class, so that monomial reads 2 in the closed form."""

    def crooked(n, m1, a1, m2, a2, k):
        return good(n, m1, a1, m2, a2, 0 if k == 2 and m1 == m2 else k)

    return crooked


def _swap_two_terms(good):
    """At m1 = m2 the k = 0 and k = 2 terms swap exponents.  Both land on
    one class, so the product keeps its terms wherever the window holds
    both k, though the tuples differ."""

    def crooked(n, m1, a1, m2, a2, k):
        return good(n, m1, a1, m2, a2, 2 - k if m1 == m2 and k in (0, 2) else k)

    return crooked


@pytest.mark.parametrize(
    "owner, kernel, corrupt",
    [
        # a corrupted theta kernel is the unmarked case
        pytest.param(
            owner,
            kernel,
            corrupt,
            id=corrupt.__name__ if owner is plgeom else f"{corrupt.__name__}-{kernel}",
        )
        for owner, kernel in KERNELS
        for corrupt in [_shift_one_exponent, _merge_two_terms, _swap_two_terms]
    ],
)
def test_mirror_verify_failures_name_the_smallest_difference(monkeypatch, owner, kernel, corrupt):
    """Every failure entry of verify names the smallest monomial where a
    count and the closed form differ, one of the three kernels corrupted,
    with both coefficients, mode by mode in pair order, and no pair that
    agrees is listed."""
    n, max_m, D = 2, 2, 6
    monkeypatch.setattr(owner, kernel, lifted(getattr(owner, kernel), corrupt))
    pairs = [
        (a, b)
        for m1 in range(1, max_m + 1)
        for m2 in range(1, max_m + 1)
        for a in theta.basis_indices(n, m1)
        for b in theta.basis_indices(n, m2)
    ]
    want = []
    for mode in floer.COUNTING_MODES:
        for a, b in pairs:
            lhs = floer_product(n, a.m, a.p, b.m, b.p, D, mode)
            diff = _smallest_difference(lhs, theta_product(a, b, n, D))
            if diff is not None:
                p, e, lc, rc = diff
                want.append(
                    {
                        "mode": mode,
                        "a": a.to_json_obj(),
                        "b": b.to_json_obj(),
                        "monomial": {"p": f"{p.numerator}/{p.denominator}", "e": list(e)},
                        "lhs": str(lc),
                        "rhs": str(rc),
                    }
                )
    assert want, "the corruption changed no product"
    assert mirror_verify(n, max_m, D, jobs=1)["failures"] == want
    if corrupt is _merge_two_terms:
        # the merged monomial reads 2 on the corrupted side
        merged = ("1", "2") if owner is plgeom else ("2", "1")
        assert any((f["lhs"], f["rhs"]) == merged for f in want)
