"""Lattice-point counting routes and the cross-verification report."""

import os
import random
from fractions import Fraction

import pytest

from mirror_ring import floer, plgeom, theta
from mirror_ring.floer import (
    count_brion,
    count_direct,
    default_eps,
    floer_product,
    lift_triangle,
    mirror_verify,
    point_in_triangle,
)
from mirror_ring.series import TruncSeries
from mirror_ring.theta import ThetaIndex, theta_product

SEED = int(os.environ.get("MIRROR_RING_SEED", "434019"))


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
        for u in range(plgeom.floor_frac(min(xs) * n) - 1, plgeom.floor_frac(max(xs) * n) + 2):
            for b in range(plgeom.floor_frac(min(ys)) - 1, plgeom.floor_frac(max(ys)) + 2):
                if point_in_triangle(t, Fraction(u, n) + eps, b + eps):
                    refined += 1
        assert by_slots == refined, (n, m1, p1, m2, p2, k)
        cases += 1
    assert cases >= 60


def test_floer_product_matches_theta_reference():
    for mode in ("direct", "brion"):
        out = floer_product(1, 1, 0, 1, 0, 4, mode)
        assert out == theta_product(ThetaIndex.make(1, 0, 1), ThetaIndex.make(1, 0, 1), 1, 4)
        assert out.coeffs[Fraction(0)] == TruncSeries(1, 4, {(0,): 1, (1,): 2, (4,): 2})


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


def test_floer_product_rejects_unknown_mode():
    with pytest.raises(ValueError):
        floer_product(1, 1, 0, 1, 0, 2, "guess")


def test_brion_refuses_eps():
    with pytest.raises(ValueError):
        floer_product(1, 1, 0, 1, 0, 2, "brion", eps=Fraction(1, 100))


def test_mirror_verify_passes():
    rep = mirror_verify(4, 1, 4, modes=("brion",))
    assert rep["failures"] == []
    assert rep["pairs_checked"] == 16
    assert rep["n"] == 4 and rep["D"] == 4


def test_mirror_verify_jobs_deterministic():
    one = mirror_verify(2, 2, 4, modes=("direct",), jobs=1)
    two = mirror_verify(2, 2, 4, modes=("direct",), jobs=2)
    assert one == two


def test_mirror_verify_one_reference_per_pair(monkeypatch):
    calls = []
    reference = theta.theta_product

    def counted(*args):
        calls.append(args)
        return reference(*args)

    monkeypatch.setattr(theta, "theta_product", counted)
    rep = mirror_verify(3, 2, 4, jobs=1)
    pairs = (1 * 3 + 2 * 3) ** 2
    assert len(calls) == pairs
    assert rep["pairs_checked"] == 2 * pairs
    assert rep["failures"] == []


def test_mirror_verify_pinpoints_corruption(monkeypatch):
    good = plgeom.t_exponent

    def crooked(n, m1, p1, m2, p2, k, j):
        val = good(n, m1, p1, m2, p2, k, j)
        if val and (k, j) == (1, 0):
            return val + 1
        return val

    monkeypatch.setattr(theta, "_exponent", crooked)
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
