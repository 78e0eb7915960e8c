"""The root series s on the slice t_0 = 0, from its own fixed-point
equation, with plain dict series and nothing from the package.

On t_0 = 0 the chart-0 section is the polynomial

    1 - u + sum_{K=2..n} c_K u^K,   c_K = (-1)^K prod_{i=1..K-1} t_(-i mod n)^(K-i),

every other summand carrying a factor t_0.  So u = 1 + s is the fixed
point s = sum_K c_K (1 + s)^K, and each pass of that map fixes one more
degree, because every c_K has degree at least 1.

Series are dicts from exponent tuples to nonzero ints.
"""

from __future__ import annotations


def coefficients(n: int) -> dict[int, tuple[tuple, int]]:
    """{K: (exponents, sign)} of c_K for K = 2..n.

    The summand u^K of the section has t-degree K(K-1)/2, the triangular
    number of its index; the rule is checked against that, and against
    leaving t_0 out, before it is used."""
    out = {}
    for K in range(2, n + 1):
        e = [0] * n
        for i in range(1, K):
            e[-i % n] += K - i
        if sum(e) != K * (K - 1) // 2:
            raise AssertionError(f"c_{K} is not of triangular degree")
        if e[0]:
            raise AssertionError(f"c_{K} carries t_0")
        out[K] = (tuple(e), (-1) ** K)
    return out


def section(n: int) -> dict[int, dict]:
    """The section on t_0 = 0, as {u-exponent: series}."""
    zero = (0,) * n
    out = {0: {zero: 1}, 1: {zero: -1}}
    for K, (e, sign) in coefficients(n).items():
        out[K] = {e: sign}
    return out


def _add_into(acc: dict, f: dict, scale: int = 1) -> None:
    for e, c in f.items():
        acc[e] = acc.get(e, 0) + scale * c


def _mul(f: dict, g: dict, D: int) -> dict:
    """f * g with every term of degree above D dropped."""
    by_degree: dict[int, list] = {}
    for e, c in g.items():
        by_degree.setdefault(sum(e), []).append((e, c))
    out: dict = {}
    for e1, c1 in f.items():
        room = D - sum(e1)
        for d2, terms in by_degree.items():
            if d2 > room:
                continue
            for e2, c2 in terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def root(n: int, D: int) -> dict:
    """s on t_0 = 0 through total degree D.

    Pass d maps s, right through degree d - 1, to sum_K c_K (1 + s)^K
    cut at degree d, which is then right through degree d."""
    c = coefficients(n)
    s: dict = {}
    for d in range(1, D + 1):
        base = {(0,) * n: 1, **s}
        power, new = base, {}
        for K in range(2, n + 1):
            power = _mul(power, base, d)
            e, sign = c[K]
            _add_into(new, _mul({e: sign}, power, d))
        s = {e: v for e, v in new.items() if v}
    return s
