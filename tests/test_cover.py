"""The covering law: products at n = d*n' fold onto products at n'.

For n' | n the n-gon is a cyclic etale cover of degree d = n/n' of the
n'-gon, and the n-Tate curve covers the n'-Tate curve.  A section at n'
pulls back to the sum of its d lifts, and sigma, which sends t_j to
t'_(j mod n'), pushes a coefficient at n down to n'.  So for every basis
pair (m1, a1'), (m2, a2') at n', with m3 = m1 + m2,

    sum over i1, i2 < d of sigma(x[m1, a1' + i1*m1*n'] * x[m2, a2' + i2*m2*n'])
        = sum over a3' of C'_(a3') * sum over i < d of x[m3, a3' + i*m3*n'],

the left products taken at n and C' the structure constants at n'.
sigma keeps the total degree, so both sides truncate at the same D.  The
same fold takes the base-point root s at n to the one at n'.

Every law the other tests check lives at one n; this one relates two.
The fold is plain dict arithmetic on the series' terms, with no series
kernel.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirror_ring import floer, moduli, plgeom, theta
from mirror_ring.theta import ThetaIndex
from run_kernels import lifted

ROUTES = {
    "theta": theta.theta_product,
    "direct": lambda a, b, n, D: floer.counted_product(a, b, n, D, "direct"),
    "brion": lambda a, b, n, D: floer.counted_product(a, b, n, D, "brion"),
}

# (n', d, max_m, D)
PRODUCT_SIZES = [(1, 2, 2, 6), (2, 2, 2, 6), (3, 2, 2, 5), (2, 3, 2, 5), (1, 4, 2, 5)]

# (n', d, D)
ROOT_SIZES = [(1, 2, 8), (1, 3, 8), (2, 2, 8), (3, 2, 7), (2, 3, 7), (1, 4, 7)]


def fold(terms: dict, n_small: int, into: dict | None = None) -> dict:
    """sigma of {exponents at n: coefficient}, added into ``into``: slot j
    goes to slot j mod n_small.  Zero coefficients are dropped."""
    out = {} if into is None else into
    for exps, c in terms.items():
        small = [0] * n_small
        for j, e in enumerate(exps):
            small[j % n_small] += e
        key = tuple(small)
        out[key] = out.get(key, 0) + c
    for key in [k for k, c in out.items() if c == 0]:
        del out[key]
    return out


def folded_pair(product, n_small: int, d: int, D: int, m1: int, a1: int, m2: int, a2: int):
    """Both sides of the covering law at one basis pair (m1, a1'),
    (m2, a2') at n_small, for a product (a, b, n, D) -> RingElement:
    (sigma of the d*d lifted products, the n_small product spread over
    the d lifts of each class), each {a3 at n: {exponents at n_small: c}}."""
    n = d * n_small
    m3 = m1 + m2
    small = product(ThetaIndex(m1, a1), ThetaIndex(m2, a2), n_small, D)
    want = {}
    for a3, s in small.coeffs.items():
        for i in range(d):
            want[a3 + i * m3 * n_small] = dict(s.terms)
    got = {}
    for i1 in range(d):
        for i2 in range(d):
            big = product(
                ThetaIndex(m1, a1 + i1 * m1 * n_small),
                ThetaIndex(m2, a2 + i2 * m2 * n_small),
                n,
                D,
            )
            for a3, s in big.coeffs.items():
                fold(s.terms, n_small, got.setdefault(a3, {}))
    return {a3: terms for a3, terms in got.items() if terms}, want


def cover_failures(product, n_small: int, d: int, max_m: int, D: int) -> list:
    """The basis pairs (m1, a1', m2, a2') at n_small where the covering
    law fails, over every pair of weights up to max_m."""
    failures = []
    for m1 in range(1, max_m + 1):
        for m2 in range(1, max_m + 1):
            for a1 in range(m1 * n_small):
                for a2 in range(m2 * n_small):
                    got, want = folded_pair(product, n_small, d, D, m1, a1, m2, a2)
                    if not want or got != want:
                        failures.append((m1, a1, m2, a2))
    return failures


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("n_small, d, max_m, D", PRODUCT_SIZES)
def test_products_fold_onto_the_covered_ring(route, n_small, d, max_m, D):
    assert cover_failures(ROUTES[route], n_small, d, max_m, D) == []


@pytest.mark.parametrize("n_small, d", [(1, 2), (2, 2), (1, 4)])
def test_the_covering_law_sees_a_wrong_lambda_at_every_pair(monkeypatch, n_small, d):
    """+1 on slot 0 at k = 0 of lambda at both levels, the wrong formula
    that verify sees only through the direct count: every pair fails."""

    def wrong(good):
        def crooked(nn, m1, a1, m2, a2, k):
            exps = good(nn, m1, a1, m2, a2, k)
            return (exps[0] + 1,) + exps[1:] if k == 0 else exps

        return crooked

    max_m, D = 2, 5
    pairs = (3 * n_small) ** 2
    assert cover_failures(theta.theta_product, n_small, d, max_m, D) == []
    monkeypatch.setattr(plgeom, "lambda_exponents", lifted(plgeom.lambda_exponents, wrong))
    assert len(cover_failures(theta.theta_product, n_small, d, max_m, D)) == pairs


@st.composite
def covered_pairs(draw):
    n_small = draw(st.integers(1, 6))
    d = draw(st.integers(2, 12 // n_small))
    m1, m2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a1 = draw(st.integers(0, m1 * n_small - 1))
    a2 = draw(st.integers(0, m2 * n_small - 1))
    return n_small, d, draw(st.integers(0, 10)), m1, a1, m2, a2


@settings(derandomize=True, max_examples=150, deadline=None)
@given(covered_pairs(), st.sampled_from(sorted(ROUTES)))
@example((1, 12, 10, 4, 3, 4, 0), "theta")  # the widest cover
@example((6, 2, 10, 4, 23, 4, 17), "brion")
@example((4, 3, 10, 3, 5, 4, 15), "direct")
def test_the_covering_law_far_out(case, route):
    got, want = folded_pair(ROUTES[route], *case)
    assert got == want


def test_the_fold_sums_slots_by_their_residue():
    assert fold({(1, 2, 3, 4): 5, (0, 1, 0, 1): 1}, 2) == {(4, 6): 5, (0, 2): 1}
    assert fold({(1, 0): 2, (0, 1): -2}, 1) == {}
    assert fold({(2, 0, 1): 1}, 3) == {(2, 0, 1): 1}


@pytest.mark.parametrize("n_small, d, D", ROOT_SIZES)
def test_the_root_s_folds_onto_the_covered_root(n_small, d, D):
    s_big = moduli.solve_s(d * n_small, D)
    s_small = moduli.solve_s(n_small, D)
    assert fold(s_big.terms, n_small) == s_small.terms
    assert s_big.terms  # the fold is not 0 == 0 because both sides are empty
