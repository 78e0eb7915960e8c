"""Convex piecewise-linear bookkeeping behind the graded ring.

Everything here is exact rational arithmetic on the convex profile

    phi(t) = k*t - k*(k+1)/2   for k <= t <= k+1, k an integer,

its supporting lines psi(q, .), weighted averages, and the convexity
defect lambda.  The integer exponents of the t-variables produced by
multiplying ring generators are n*lambda values.  ``lambda_exponents``
is the one integer implementation of them, the theta route's kernel: all
n slots of every product term of a run of b2 = a2 + m2*n*k, from the
integer classes a = m*p.  ``t_exponent`` computes them through phi, the
Fraction reference, and ``t_exponent_qr`` reads one slot of the integer
kernel with a p signature.  ``b2_window`` solves in integers the run of
b2 that can reach total degree <= D; the k-window of a product,
``k_window``, is the k it holds at one a2, and ``admissible_k_range`` is
that window's wrapper with a p signature; ``scaled_index`` is the one
check that an index p has m*p integral.
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


def lambda_exponents(n: int, m1: int, a1: int, m2: int, b2s) -> list:
    """Exponents of t_0..t_{n-1}, n*lambda in integers, of the term at each
    b2 = a2 + m2*n*k of the range b2s, one n-tuple per b2 in order; a1 =
    m1*p1 and a2 = m2*p2 are any integers.  The term depends on a2 and k
    only through b2.

    At slot j, with N1 = a1 + m1*j and N2 = b2 + m2*j, the three points of
    lambda are N1/(m1 n), N2/(m2 n) and their average N3/(m3 n), where
    N3 = N1 + N2, and n*m*phi(N/(m n)) = kappa*N - n*m*kappa*(kappa+1)/2
    with kappa = N // (m n).  The first point's term depends on the slot
    alone, so it is computed once per run.
    """
    w1, w2, w3 = m1 * n, m2 * n, (m1 + m2) * n
    first = []
    for j in range(n):
        N1 = a1 + m1 * j
        k1 = N1 // w1
        # each w*kappa*(kappa+1) is even, so every halving is exact
        first.append((j, N1, k1 * N1 - w1 * k1 * (k1 + 1) // 2, m2 * j))
    out = []
    for b2 in b2s:
        exps = []
        for j, N1, t1, d2 in first:
            N2 = b2 + d2
            N3 = N1 + N2
            k2, k3 = N2 // w2, N3 // w3
            val = t1 + k2 * N2 - k3 * N3 - (w2 * k2 * (k2 + 1) - w3 * k3 * (k3 + 1)) // 2
            if val < 0:
                k, a2 = divmod(b2, w2)
                raise InvariantError(
                    f"t-exponent came out negative: {val} for n={n} m=({m1},{m2}) "
                    f"p=({Fraction(a1, m1)},{Fraction(a2, m2)}) k={k} j={j}"
                )
            exps.append(val)
        out.append(tuple(exps))
    return out


def t_exponent_qr(n: int, m1: int, p1, m2: int, p2, k: int, j: int) -> int:
    """Slot j mod n of lambda_exponents, for indices p1, p2 (ints or Fractions)."""
    b2 = scaled_index(m2, p2) + m2 * n * k
    (exps,) = lambda_exponents(n, m1, scaled_index(m1, p1), m2, range(b2, b2 + 1))
    return exps[j % n]


def total_t_exponent(n: int, m1: int, p1, m2: int, p2, k: int) -> int:
    """Sum of the t-exponents over all n variable slots, for one k."""
    return sum(t_exponent(n, m1, p1, m2, p2, k, j) for j in range(n))


def b2_window(m1: int, a1: int, m2: int, D: int) -> range:
    """All integers b2 = a2 + m2*n*k at which the product of the integer
    classes a1 = m1*p1 and a2 = m2*p2 can have a term of total degree <= D,
    for every a2, k and n; the weights are >= 1, as every label's are.

    The total exponent at shift k equals the unscaled defect
    lambda(p1, p2 + k*n), and phi is squeezed between (t-1/2)^2/2 - 1/8
    and (t-1/2)^2/2, so the total is at least
    m1*m2/(2*(m1+m2)) * (p1 - p2 - k*n)^2 - (m1+m2)/8.  Any b2 violating
    the resulting quadratic bound is provably degree > D and is skipped.

    With Q = m1*m2 and u = a1*m2 - m1*b2, so that p1 - p2 - k*n = u/Q, the
    bound reads 4*Q*u^2 <= (8*m3*D + m3^2)*Q^2, that is
    u^2 <= (8*m3*D + m3^2)*Q/4; so |u| <= s with s solved in integers by
    isqrt, and the run is the b2 between the two roots.  It holds no n:
    the pairs of one label against every label of weight m2 tile it, each
    a2 on its own residue mod m2*n.  A negative right side (D < 0) admits
    no b2.
    """
    m3 = m1 + m2
    rhs = (8 * m3 * D + m3 * m3) * m1 * m2
    if rhs < 0:
        return range(0)
    s = math.isqrt(rhs // 4)
    c = a1 * m2
    return range(-((s - c) // m1), (c + s) // m1 + 1)


def k_window(n: int, m1: int, a1: int, m2: int, a2: int, D: int) -> range:
    """All integers k that can contribute a term of total degree <= D to
    the product of the integer classes a1 = m1*p1 and a2 = m2*p2: the k
    whose b2 = a2 + m2*n*k lies in ``b2_window``."""
    run = b2_window(m1, a1, m2, D)
    w = m2 * n
    return range(-((a2 - run.start) // w), (run.stop - 1 - a2) // w + 1)


def admissible_k_range(n: int, m1: int, p1, m2: int, p2, D: int) -> list[int]:
    """k_window for indices p1, p2 (ints or Fractions), read through
    scaled_index, as a list."""
    return list(k_window(n, m1, scaled_index(m1, p1), m2, scaled_index(m2, p2), D))
