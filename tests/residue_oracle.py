"""The residue theorem at the base point, with plain dict series.

Theta, the canonical section, and its residue parts theta_l are sections
of one line bundle, so theta_l/Theta and theta_l theta_m/Theta^2 are
rational functions on the curve, with poles only at the n marked points
p_j, and du/u is the invariant differential.  On every fibre the residues
of (theta_l/Theta) du/u, and of (theta_l theta_m/Theta^2) du/u, sum to
zero over the p_j.  Both sums are intrinsic: one unit e(u) on every part
leaves them as they are.

At p_0 write f' for u d/du f.  The simple pole of theta_x/Theta has
residue theta_x/Theta', and the double pole of theta_a theta_b/Theta^2
has residue (A' Theta' - A Theta'') / Theta'^3, with A = theta_a theta_b,
A' = theta'_a theta_b + theta_a theta'_b and Theta'' = (u d/du)^2 Theta.
The value at p_j is the one at p_0 with every index moved by -j and every
coefficient rotated by -j, the rule residue_R uses.  So for each l, and
for each l <= m,

    sum_j rotate(-j)(theta_(l-j) / Theta')                         = 0,
    sum_j rotate(-j)(residue of theta_(l-j) theta_(m-j) / Theta^2) = 0.

The values come from moduli._point_data: th (theta_l at p_0), dth
(theta'_l), dth_full (Theta') and the root s.  Theta'' is formed here,
from the section's own chart summands and the powers of 1 + s, so the
check reads none of the package's power tables, charts or products.  It
is the first check of the theta'_l off the diagonal, from which
coords_b builds every b_(0,j).

Series are dicts from exponent tuples to nonzero ints, cut at degree D.
"""

from __future__ import annotations


def _add(*fs: dict, scale: tuple[int, ...] | None = None) -> dict:
    out: dict = {}
    for i, f in enumerate(fs):
        k = 1 if scale is None else scale[i]
        for e, c in f.items():
            out[e] = out.get(e, 0) + k * c
    return {e: c for e, c in out.items() if c}


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


def _inverse(f: dict, n: int, D: int) -> dict:
    """1/f for f with constant term +1 or -1: y = c (1 + h + h^2 + ...)
    with h = 1 - c f, each power of h one degree higher than the last."""
    c = f.get((0,) * n)
    if c not in (1, -1):
        raise ValueError(f"constant term {c} is not a unit")
    one = {(0,) * n: 1}
    h = _add(one, f, scale=(1, -c))
    y, power = dict(one), dict(one)
    for _ in range(D):
        power = _mul(power, h, D)
        y = _add(y, power)
    return {e: c * v for e, v in y.items()}


def _rotate(f: dict, shift: int) -> dict:
    """New exponent of t_j is the old exponent of t_(j + shift mod n)."""
    out = {}
    for e, c in f.items():
        s = shift % len(e)
        out[e[s:] + e[:s]] = c
    return out


def _terms(graded: list[dict], n: int, D: int) -> dict:
    """A graded series of packed keys (base D + 1, t_0 most significant)
    as a dict of exponent tuples."""
    out = {}
    for bucket in graded:
        for k, c in bucket.items():
            e = [0] * n
            for j in range(n - 1, -1, -1):
                k, e[j] = divmod(k, D + 1)
            out[tuple(e)] = c
    return out


def _summand(iota: int, n: int) -> tuple[int, ...]:
    """t-exponents of the chart summand (-1)^iota u^(-iota): a staircase
    iota, iota - 1, ..., 1 on t_0, t_1, ... for iota > 0, and K - 1, ...,
    1 on t_(n-1), t_(n-2), ... for u^K, K = -iota > 0, indices mod n.  Its
    degree is iota(iota + 1)/2 either way."""
    e = [0] * n
    if iota > 0:
        for i in range(iota):
            e[i % n] += iota - i
    for i in range(1, -iota):
        e[-i % n] += -iota - i
    if sum(e) != iota * (iota + 1) // 2:
        raise AssertionError(f"summand {iota} is not of triangular degree")
    return tuple(e)


def second_derivative(s: dict, n: int, D: int) -> dict:
    """Theta'' = (u d/du)^2 Theta at u = 1 + s: sum of e^2 (-1)^iota
    t^(summand) (1 + s)^e over u^e = u^(-iota), every summand of degree
    at most D, with (1 + s)^e a plain product."""
    one = {(0,) * n: 1}
    base = _add(one, s)
    step = {1: base, -1: _inverse(base, n, D)}
    out: dict = {}
    for sign in (1, -1):
        power, e = one, 0
        while True:
            e += sign
            power = _mul(power, step[sign], D)
            iota = -e
            if iota * (iota + 1) // 2 > D:
                break
            term = {_summand(iota, n): (-1) ** (iota % 2) * e * e}
            out = _add(out, _mul(term, power, D))
    return out


def simple_pole_failures(n: int, D: int, th: list[dict], dth_full: dict) -> list[int]:
    """The l whose residues of theta_l/Theta do not sum to zero."""
    inv = _inverse(dth_full, n, D)
    q = [_mul(th[x], inv, D) for x in range(n)]
    return [
        l for l in range(n) if _add(*(_rotate(q[(l - j) % n], -j) for j in range(n)))
    ]


def double_pole_failures(
    n: int, D: int, th: list[dict], dth: list[dict], dth_full: dict, ddth_full: dict
) -> list[tuple[int, int]]:
    """The (l, m), l <= m, whose residues of theta_l theta_m/Theta^2 do
    not sum to zero."""
    inv = _inverse(dth_full, n, D)
    inv3 = _mul(_mul(inv, inv, D), inv, D)
    res = {}
    for a in range(n):
        for b in range(a, n):
            A = _mul(th[a], th[b], D)
            dA = _add(_mul(dth[a], th[b], D), _mul(th[a], dth[b], D))
            num = _add(_mul(dA, dth_full, D), _mul(A, ddth_full, D), scale=(1, -1))
            res[a, b] = res[b, a] = _mul(num, inv3, D)
    return [
        (l, m)
        for l in range(n)
        for m in range(l, n)
        if _add(*(_rotate(res[(l - j) % n, (m - j) % n], -j) for j in range(n)))
    ]


def values(n: int, D: int, point_data) -> tuple:
    """th, dth, Theta' and Theta'' at p_0 as dicts, from the tuple
    point_data(n, D) returns; only th, dth, dth_full and s are read."""
    th, dth, dth_full, *_, s = point_data(n, D)
    return (
        [_terms(v, n, D) for v in th],
        [_terms(v, n, D) for v in dth],
        _terms(dth_full, n, D),
        second_derivative(_terms(s, n, D), n, D),
    )
