"""Convex piecewise-linear bookkeeping behind the graded ring.

Everything here is exact rational arithmetic on the convex profile

    phi(t) = k*t - k*(k+1)/2   for k <= t <= k+1, k an integer,

its supporting lines psi(q, .), weighted averages, and the convexity
defect lambda.  The integer exponents of the t-variables produced by
multiplying ring generators are n*lambda values; ``t_exponent`` computes
them through phi while ``t_exponent_qr`` recomputes them by pure integer
division, giving two independent routes to the same number.
"""

from __future__ import annotations

from fractions import Fraction


def floor_frac(t) -> int:
    """Exact floor of a rational, via integer Euclidean division."""
    t = Fraction(t)
    return t.numerator // t.denominator


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
    assert val >= 0, f"convexity defect came out negative: {val}"
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
    assert val.denominator == 1 and val >= 0, (
        f"t-exponent must be a nonnegative integer, got {val} "
        f"for n={n} m=({m1},{m2}) p=({p1},{p2}) k={k} j={j}"
    )
    return int(val)


def t_exponent_qr(n: int, m1: int, p1, m2: int, p2, k: int, j: int) -> int:
    """Same exponent by integer quotients/remainders, never touching phi.

    Writes (p1+j)/n = q1 + r1/(m1*n) with 0 <= r1 < m1*n, similarly for the
    k-shifted second point and their weighted average, then combines the
    (q, r) data into a closed form.
    """
    a1 = Fraction(p1) * m1
    a2 = Fraction(p2) * m2
    if a1.denominator != 1 or a2.denominator != 1:
        raise ValueError(f"p1, p2 must lie in (1/m)Z: got {p1}, {p2}")
    a1, a2 = a1.numerator, a2.numerator
    m3 = m1 + m2
    q1, r1 = divmod(a1 + m1 * j, m1 * n)
    q2, r2 = divmod(a2 + m2 * (k * n + j), m2 * n)
    q3, r3 = divmod(a1 + a2 + m2 * k * n + m3 * j, m3 * n)
    val = (
        n * (m1 * q1 * (q1 - 1) // 2 + m2 * q2 * (q2 - 1) // 2 - m3 * q3 * (q3 - 1) // 2)
        + r1 * q1
        + r2 * q2
        - r3 * q3
    )
    assert val >= 0, f"integer-route exponent came out negative: {val}"
    return val


def total_t_exponent(n: int, m1: int, p1, m2: int, p2, k: int) -> int:
    """Sum of the t-exponents over all n variable slots, for one k."""
    return sum(t_exponent(n, m1, p1, m2, p2, k, j) for j in range(n))


def admissible_k_range(n: int, m1: int, p1, m2: int, p2, D: int) -> list[int]:
    """All integers k that can contribute a term of total degree <= D.

    The total exponent at shift k equals the unscaled defect
    lambda(p1, p2 + k*n), and phi is squeezed between (t-1/2)^2/2 - 1/8
    and (t-1/2)^2/2, so the total is at least
    m1*m2/(2*(m1+m2)) * (p1 - p2 - k*n)^2 - (m1+m2)/8.  Any k violating
    the resulting quadratic bound is provably degree > D and is skipped.
    """
    m3 = m1 + m2
    gap = Fraction(p1) - Fraction(p2)
    bound = Fraction(2 * m3 * D, m1 * m2) + Fraction(m3 * m3, 4 * m1 * m2)

    def ok(k: int) -> bool:
        return (gap - k * n) ** 2 <= bound

    k0 = floor_frac(gap / n + Fraction(1, 2))  # nearest integer to gap/n
    ks = []
    k = k0
    while ok(k):  # the bound is exactly quadratic in k, so no gaps
        ks.append(k)
        k += 1
    k = k0 - 1
    while ok(k):
        ks.append(k)
        k -= 1
    ks.sort()
    return ks
