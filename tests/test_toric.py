"""Lattice points, the shear automorphism, and the section region."""

import os
import random
from fractions import Fraction

from mirror_ring.theta import basis_indices
from mirror_ring.toric import MPoint, in_delta, tau_apply, w_point

SEED = int(os.environ.get("MIRROR_RING_SEED", "434019"))


def test_w_point_basics():
    n = 2
    w0 = w_point(0, n)
    assert w0 == MPoint(0, (0, 0))
    w1 = w_point(1, n)
    assert w1.x == -1
    # y_j = n*phi((j-1)/n): phi(-1/2) = 1/2, phi(0) = 0
    assert w1.y == (1, 0)


def test_tau_shifts_w_index():
    for n in range(1, 6):
        for i in range(-20, 21):
            assert tau_apply(w_point(i, n)) == w_point(i - 1, n)


def test_tau_on_rational_indices():
    rng = random.Random(SEED)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        p = Fraction(rng.randrange(-4 * m * n, 4 * m * n), m)
        assert tau_apply(w_point(p, n)) == w_point(p - 1, n)


def test_w_points_lie_in_delta():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 4)
        p = Fraction(rng.randrange(-3 * m * n, 3 * m * n + 1), m)
        assert in_delta(w_point(p, n), n)


def test_delta_membership_examples():
    n = 2
    assert in_delta(MPoint(0, (0, 0)), n)
    assert in_delta(MPoint(0, (1, 0)), n)
    assert not in_delta(MPoint(0, (0, -1)), n)


def test_box_decomposition():
    """Within a finite box, the fractional points of the region split as a
    disjoint union of shifted nonnegative orthants based at the w's."""
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            xs = [Fraction(a, m) for a in range(-2 * m * n, 2 * m * n + 1)]
            ys = [Fraction(a, m) for a in range(-m, 4 * m + 1)]
            for x in xs:
                p = -x
                base = w_point(p, n)
                # sample y-vectors around the section floor
                rng = random.Random(SEED + int(x * m))
                for _ in range(10):
                    y = tuple(
                        base.y[j] + ys[rng.randrange(len(ys))] for j in range(n)
                    )
                    v = MPoint(x, y)
                    inside = in_delta(v, n)
                    cone_membership = all(v.y[j] - base.y[j] >= 0 for j in range(n))
                    assert inside == cone_membership, (n, m, v)


def test_section_basis_counts_and_integrality():
    """The theta basis labels of weight m are the weight-m sections: each
    class lies in [0, n), its m-fold w-point is a lattice point (so theta
    exponents are integers), and its w-point lies in the region."""
    for n in (1, 2, 3, 4):
        for m in (1, 2, 3, 4, 5):
            labels = basis_indices(n, m)
            assert len(labels) == m * n
            for label in labels:
                p = label.p
                assert 0 <= p < n
                w = w_point(p, n)
                assert all((m * v).denominator == 1 for v in (w.x,) + w.y)
                assert in_delta(w, n)
