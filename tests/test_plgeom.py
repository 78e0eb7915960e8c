"""The convex profile, its supports, and the two exponent routes."""

import os
import random
from fractions import Fraction

import pytest

from mirror_ring import plgeom
from mirror_ring.plgeom import (
    admissible_k_range,
    average_E,
    floor_frac,
    lambda_defect,
    phi,
    psi,
    t_exponent,
    t_exponent_qr,
    total_t_exponent,
)

SEED = int(os.environ.get("MIRROR_RING_SEED", "434019"))


def rand_frac(rng, lo=-8, hi=8, maxden=12):
    den = rng.randrange(1, maxden + 1)
    num = rng.randrange(lo * den, hi * den + 1)
    return Fraction(num, den)


def test_phi_pinned_values():
    assert phi(0) == 0
    assert phi(1) == 0
    assert phi(Fraction(3, 2)) == Fraction(1, 2)
    assert phi(Fraction(-1, 2)) == Fraction(1, 2)
    assert phi(2) == 1
    assert phi(-1) == 1
    assert phi(5) == 10


def test_phi_step_identity():
    for t in (Fraction(-7, 3), Fraction(0), Fraction(5, 2)):
        assert phi(t + 1) == phi(t) + t
    rng = random.Random(SEED)
    for _ in range(200):
        t = rand_frac(rng)
        assert phi(t + 1) == phi(t) + t


def test_phi_equals_max_of_supports():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        t = rand_frac(rng)
        window = range(floor_frac(t) - 3, floor_frac(t) + 4)
        assert phi(t) == max(psi(q, t) for q in window)


def test_phi_preserves_fractional_lattice():
    for m in range(1, 25):
        for a in range(-3 * m, 3 * m + 1):
            v = phi(Fraction(a, m))
            assert (v * m).denominator == 1


def test_floor_frac():
    assert floor_frac(Fraction(-1, 2)) == -1
    assert floor_frac(Fraction(7, 3)) == 2
    assert floor_frac(3) == 3


def test_average_between_endpoints():
    rng = random.Random(SEED + 2)
    for _ in range(100):
        a, b = rand_frac(rng), rand_frac(rng)
        m1, m2 = rng.randrange(1, 5), rng.randrange(1, 5)
        E = average_E(m1, a, m2, b)
        assert min(a, b) <= E <= max(a, b)
    with pytest.raises(ValueError):
        average_E(0, 0, 1, 1)


def test_lambda_nonnegative_and_zero_on_affine_stretch():
    rng = random.Random(SEED + 3)
    for _ in range(200):
        a, b = rand_frac(rng), rand_frac(rng)
        assert lambda_defect(rng.randrange(1, 4), a, rng.randrange(1, 4), b) >= 0
    # both points inside one linearity interval: defect vanishes
    assert lambda_defect(2, Fraction(1, 5), 3, Fraction(4, 5)) == 0
    assert lambda_defect(1, Fraction(7, 3), 1, Fraction(8, 3)) == 0


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


def test_two_exponent_routes_agree():
    rng = random.Random(SEED + 4)
    for n, m1, p1, m2, p2, k, j in sample_tuples(rng, 600):
        a = t_exponent(n, m1, p1, m2, p2, k, j)
        b = t_exponent_qr(n, m1, p1, m2, p2, k, j)
        assert a == b, (n, m1, p1, m2, p2, k, j)
        assert a >= 0


def test_exponent_rejects_non_lattice_p():
    with pytest.raises(ValueError):
        t_exponent_qr(2, 2, Fraction(1, 3), 1, 0, 0, 0)


def test_exponent_shift_in_j_matches_shift_in_p():
    # moving both p's up by one step equals reading the next j slot
    rng = random.Random(SEED + 5)
    for n, m1, p1, m2, p2, k, j in sample_tuples(rng, 150):
        if j + 1 >= n:
            continue
        lhs = t_exponent(n, m1, p1 + 1, m2, p2 + 1, k, j)
        rhs = t_exponent(n, m1, p1, m2, p2, k, j + 1)
        assert lhs == rhs


def test_admissible_window_is_sufficient():
    """Everything outside the returned k-window has total degree > D."""
    rng = random.Random(SEED + 6)
    for _ in range(80):
        n = rng.randrange(1, 4)
        m1, m2 = rng.randrange(1, 4), rng.randrange(1, 4)
        p1 = Fraction(rng.randrange(0, m1 * n), m1)
        p2 = Fraction(rng.randrange(0, m2 * n), m2)
        D = rng.randrange(0, 7)
        window = admissible_k_range(n, m1, p1, m2, p2, D)
        k0 = floor_frac((p1 - p2) / n + Fraction(1, 2))
        lo = min(window, default=k0) - 4
        hi = max(window, default=k0) + 4
        for k in range(lo, hi + 1):
            total = total_t_exponent(n, m1, p1, m2, p2, k)
            if total <= D:
                assert k in window, (n, m1, p1, m2, p2, D, k)


def test_window_total_is_convex_in_k():
    rng = random.Random(SEED + 7)
    for _ in range(60):
        n = rng.randrange(1, 4)
        m1, m2 = rng.randrange(1, 4), rng.randrange(1, 4)
        p1 = Fraction(rng.randrange(0, m1 * n), m1)
        p2 = Fraction(rng.randrange(0, m2 * n), m2)
        vals = [total_t_exponent(n, m1, p1, m2, p2, k) for k in range(-7, 8)]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert a + c >= 2 * b


def test_exponent_reference_example():
    # one-variable squared generator: the k=2 term carries exponent 1
    assert t_exponent(1, 1, 0, 1, 0, 2, 0) == 1
    assert plgeom.t_exponent_qr(1, 1, 0, 1, 0, 2, 0) == 1
