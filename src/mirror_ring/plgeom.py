"""Convex piecewise-linear bookkeeping behind the graded ring.

Everything here is exact rational arithmetic on the convex profile

    phi(t) = k*t - k*(k+1)/2   for k <= t <= k+1, k an integer,

its supporting lines psi(q, .), weighted averages, and the convexity
defect lambda.  The integer exponents of the t-variables produced by
multiplying ring generators are n*lambda values.  ``lambda_exponents``
is the one integer implementation of them, the theta route's kernel: all
n slots of one product term from the integer classes a = m*p.
``t_exponent`` computes them through phi, the Fraction reference, and
``t_exponent_qr`` reads one slot of the integer kernel with a p
signature.  The k-window of a product, ``k_window``, is solved in
integers from the integer classes, and ``admissible_k_range`` is its
wrapper with a p signature; ``scaled_index`` is the one check that an
index p has m*p integral.
"""

from __future__ import annotations

import math
from fractions import Fraction


class InvariantError(RuntimeError):
    """A proof obligation of the package failed at run time: an internal
    fault, never bad input.  Raised explicitly, so ``python -O`` keeps it."""


def scaled_index(m: int, p) -> int:
    """The integer a = m*p of an int or Fraction index p at a weight m >= 1;
    the one check of m, of p and that m*p is integral, a ValueError otherwise."""
    if m < 1:
        raise ValueError(f"weight must be >= 1, got m={m}")
    if type(p) is not int and type(p) is not Fraction:
        raise ValueError(f"index p={p!r} is not an int or a Fraction")
    a, rem = divmod(m * p.numerator, p.denominator)
    if rem:
        raise ValueError(f"index p={p} does not satisfy m*p integral for m={m}")
    return a


def phi(t) -> Fraction:
    """Value of the convex profile at t (slope k on [k, k+1])."""
    t = Fraction(t)
    k = t.numerator // t.denominator
    return k * t - Fraction(k * (k + 1), 2)


def psi(q: int, t) -> Fraction:
    """Supporting line of slope q: psi(q, t) = q*t - q*(q+1)/2."""
    t = Fraction(t)
    return q * t - Fraction(q * (q + 1), 2)


def average_E(m1: int, a, m2: int, b) -> Fraction:
    """Weighted average (m1*a + m2*b) / (m1 + m2); weights must be positive."""
    if m1 < 1 or m2 < 1:
        raise ValueError(f"weights must be positive, got {m1}, {m2}")
    return Fraction(m1 * Fraction(a) + m2 * Fraction(b), m1 + m2)


def lambda_defect(m1: int, a, m2: int, b) -> Fraction:
    """Convexity defect m1*phi(a) + m2*phi(b) - (m1+m2)*phi(E); always >= 0."""
    val = m1 * phi(a) + m2 * phi(b) - (m1 + m2) * phi(average_E(m1, a, m2, b))
    if val < 0:
        raise InvariantError(f"convexity defect came out negative: {val}")
    return val


def t_exponent(n: int, m1: int, p1, m2: int, p2, k: int, j: int) -> int:
    """Exponent of t_j in the k-th product term: n*lambda at the shifted points.

    The arguments of lambda are (p1+j)/n and (p2+j)/n + k.  The result is
    always a nonnegative integer when m1*p1 and m2*p2 are integers; a
    non-integral value indicates an internal arithmetic fault.
    """
    a = Fraction(Fraction(p1) + j, n)
    b = Fraction(Fraction(p2) + j, n) + k
    val = n * lambda_defect(m1, a, m2, b)
    if val.denominator != 1 or val < 0:
        raise InvariantError(
            f"t-exponent must be a nonnegative integer, got {val} "
            f"for n={n} m=({m1},{m2}) p=({p1},{p2}) k={k} j={j}"
        )
    return int(val)


def lambda_exponents(n: int, m1: int, a1: int, m2: int, a2: int, k: int) -> tuple:
    """Exponents of t_0..t_{n-1} in the k-th product term, n*lambda in
    integers; a1 = m1*p1 and a2 = m2*p2 are any integers.

    At slot j, with N1 = a1 + m1*j and N2 = a2 + m2*(j + n*k), the three
    points of lambda are N1/(m1 n), N2/(m2 n) and their average N3/(m3 n),
    where N3 = N1 + N2, and n*m*phi(N/(m n)) = kappa*N - n*m*kappa*(kappa+1)/2
    with kappa = N // (m n).
    """
    w1, w2, w3 = m1 * n, m2 * n, (m1 + m2) * n
    b2 = a2 + w2 * k
    out = []
    for j in range(n):
        N1 = a1 + m1 * j
        N2 = b2 + m2 * j
        N3 = N1 + N2
        k1, k2, k3 = N1 // w1, N2 // w2, N3 // w3
        # each w*kappa*(kappa+1) is even, so the halving is exact
        val = k1 * N1 + k2 * N2 - k3 * N3 - (
            w1 * k1 * (k1 + 1) + w2 * k2 * (k2 + 1) - w3 * k3 * (k3 + 1)
        ) // 2
        if val < 0:
            raise InvariantError(
                f"t-exponent came out negative: {val} for n={n} m=({m1},{m2}) "
                f"p=({Fraction(a1, m1)},{Fraction(a2, m2)}) k={k} j={j}"
            )
        out.append(val)
    return tuple(out)


def t_exponent_qr(n: int, m1: int, p1, m2: int, p2, k: int, j: int) -> int:
    """Slot j mod n of lambda_exponents, for indices p1, p2 (ints or Fractions)."""
    return lambda_exponents(n, m1, scaled_index(m1, p1), m2, scaled_index(m2, p2), k)[j % n]


def total_t_exponent(n: int, m1: int, p1, m2: int, p2, k: int) -> int:
    """Sum of the t-exponents over all n variable slots, for one k."""
    return sum(t_exponent(n, m1, p1, m2, p2, k, j) for j in range(n))


def k_window(n: int, m1: int, a1: int, m2: int, a2: int, D: int) -> range:
    """All integers k that can contribute a term of total degree <= D to
    the product of the integer classes a1 = m1*p1 and a2 = m2*p2; the
    weights are >= 1, as every label's are.

    The total exponent at shift k equals the unscaled defect
    lambda(p1, p2 + k*n), and phi is squeezed between (t-1/2)^2/2 - 1/8
    and (t-1/2)^2/2, so the total is at least
    m1*m2/(2*(m1+m2)) * (p1 - p2 - k*n)^2 - (m1+m2)/8.  Any k violating
    the resulting quadratic bound is provably degree > D and is skipped.

    With Q = m1*m2 and P = a1*m2 - a2*m1, so that p1 - p2 = P/Q, the bound
    reads 4*Q*u^2 <= (8*m3*D + m3^2)*Q^2 for u = P - k*n*Q, that is
    u^2 <= (8*m3*D + m3^2)*Q/4; so |u| <= s with s solved in integers by
    isqrt, and the window is the k between the two roots.  A negative
    right side (D < 0) admits no k.
    """
    m3 = m1 + m2
    Q = m1 * m2
    P = a1 * m2 - a2 * m1
    rhs = (8 * m3 * D + m3 * m3) * Q
    if rhs < 0:
        return range(0)
    s = math.isqrt(rhs // 4)
    step = n * Q
    return range(-((s - P) // step), (P + s) // step + 1)


def admissible_k_range(n: int, m1: int, p1, m2: int, p2, D: int) -> list[int]:
    """k_window for indices p1, p2 (ints or Fractions), read through
    scaled_index, as a list."""
    return list(k_window(n, m1, scaled_index(m1, p1), m2, scaled_index(m2, p2), D))
