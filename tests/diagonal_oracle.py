"""Closed forms for the moduli layer on the diagonal t_0 = ... = t_(n-1) = t.

With every t_j = t the chart-0 section is sum_i (-1)^i u^-i t^(i(i+1)/2),
which Jacobi's triple product writes as
prod_{m>=1} (1 - t^m)(1 - u t^(m-1))(1 - t^m / u), and each residue part
theta_l is a triple product of its own in q = t^(n^2).  So R_0 and b_0
restricted to the diagonal have closed forms that never touch the
package's series, charts or root solver.  Everything here is a plain
list of integers: index k holds the coefficient of t^k, cut at degree D.
"""


def diagonal(f) -> list[int]:
    """Coefficients of a TruncSeries with every t_j set to t."""
    out = [0] * (f.D + 1)
    for e, c in f.iter_terms():
        out[sum(e)] += c
    return out


def mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two series cut at the same degree."""
    D = len(a) - 1
    out = [0] * (D + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(D + 1 - i):
                out[i + j] += x * b[j]
    return out


def _one_minus(c: int, k: int, D: int) -> list[int]:
    """1 - c t^k, with c = +-1 and k >= 1."""
    out = [0] * (D + 1)
    out[0] = 1
    if k <= D:
        out[k] -= c
    return out


def _tail(c: int, k: int, D: int) -> list[int]:
    """c t^k / (1 - c t^k) = sum_{j>=1} c^j t^(kj), with c = +-1 and k >= 1."""
    assert k >= 1
    out = [0] * (D + 1)
    for j in range(1, D // k + 1):
        out[k * j] = c**j
    return out


def _sign(n: int) -> int:
    return 1 if n % 2 else -1  # (-1)^(n+1)


def residue_times_cube(n: int, D: int) -> list[int]:
    """R_0(t,...,t) * prod(1 - t^m)^3 in closed form:
    prod_{m>=1} (1 - q^m)(1 - x q^(m-1))(1 - q^m / x), with q = t^(n^2)
    and x = (-1)^(n+1) t^(n(n+1)/2).  The left factor is Jacobi's cube
    identity for u theta'(1); the right is theta_0 at u = 1."""
    out = [1] + [0] * D
    x, q = n * (n + 1) // 2, n * n
    for m in range(1, D + 1):
        for c, k in ((1, q * m), (_sign(n), x + q * (m - 1)), (_sign(n), q * m - x)):
            out = mul(out, _one_minus(c, k, D))
    return out


def cube(D: int) -> list[int]:
    """prod_{m>=1} (1 - t^m)^3."""
    out = [1] + [0] * D
    for m in range(1, D + 1):
        for _ in range(3):
            out = mul(out, _one_minus(1, m, D))
    return out


def _log_derivative(n: int, r: int, D: int) -> list[int]:
    """L(r) = -r - n sum_{m>=1} [-X q^(m-1) / (1 - X q^(m-1))
    + (q^m / X) / (1 - q^m / X)], with X = (-1)^(n+1) t^(n(n+2r+1)/2):
    the log-derivative of theta_l's triple product, class representative r."""
    out = [0] * (D + 1)
    out[0] = -r
    x, q = n * (n + 2 * r + 1) // 2, n * n
    for m in range(1, D + 1):
        below = _tail(_sign(n), x + q * (m - 1), D)
        above = _tail(_sign(n), q * m - x, D)
        out = [o + n * (lo - hi) for o, lo, hi in zip(out, below, above)]
    return out


def diagonal_b0(n: int, D: int) -> list[int]:
    """b_0(t,...,t) = L(-1) - L(0): theta_(n-1) has representative -1,
    theta_0 has 0."""
    return [a - b for a, b in zip(_log_derivative(n, -1, D), _log_derivative(n, 0, D))]
