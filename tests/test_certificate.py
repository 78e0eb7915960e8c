"""The row certificate: the three run kernels agree at every b2 of a row,
checked on a finite run.

Fix a row (n, m1, a1, m2), the label (m1, a1) against every label of
weight m2, and let g = m1*b2 - m2*a1, m3 = m1 + m2 and P = n*lcm(m2, m3).
The lemma: on each side of g = 0, each kernel's value at every slot is a
quadratic polynomial in b2 on every residue class mod P.  lambda and the
Brion count are quadratic on all of Z per class, since their floors k2
and k3 have periods m2*n and m3*n; the direct count exchanges (a1, m1)
and (b2, m2) at g = 0, so it needs the split.  Three values fix a
quadratic, so where the kernels agree on 3P consecutive b2 on each side,
starting at the boundary, and at the b2 with g = 0 when m1 divides
m2*a1, they agree at every b2: the routes' products are equal as
untruncated series, with no truncation D.  ``verify`` compares them only
on each row's run at one D.

The limit: the certificate proves that equality only given the lemma.
The lemma is a claim about each kernel's code, checked by reading it and
guarded here by a third-difference test over a wider range.  A fault
that breaks the quadratic form far outside the certificate's run is
still invisible to it.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirror_ring import floer, plgeom, theta

KERNELS = {
    "lambda": plgeom.lambda_exponents,
    "direct": floer._lifted_counts,
    "brion": floer._brion_counts,
}


def period(n: int, m1: int, m2: int) -> int:
    """P = n*lcm(m2, m3), the residue period of the lemma."""
    return n * math.lcm(m2, m1 + m2)


def sides(m1: int, a1: int, m2: int) -> tuple[int, int]:
    """(the last b2 with g < 0, the first b2 with g > 0)."""
    return -(-m2 * a1 // m1) - 1, m2 * a1 // m1 + 1


def certificate_run(n: int, m1: int, a1: int, m2: int) -> range:
    """3P consecutive b2 on each side of g = 0, from the boundary out, and
    the b2 with g = 0 between them when there is one: 6P or 6P + 1 b2."""
    P = period(n, m1, m2)
    below, above = sides(m1, a1, m2)
    return range(below - 3 * P + 1, above + 3 * P)


def rows(n: int, max_m: int):
    """Every row (n, m1, a1, m2) that ``mirror_verify(n, max_m, D)`` walks."""
    weights = range(1, max_m + 1)
    return [(n, m1, x.a, m2) for m1 in weights for m2 in weights for x in theta.basis_indices(n, m1)]


def certificate_failures(n: int, max_m: int) -> tuple[list, int]:
    """(the rows on whose certificate run the counts differ from lambda,
    the number of b2 checked over all rows)."""
    failing, checked = [], 0
    for row in rows(n, max_m):
        run = certificate_run(*row)
        checked += len(run)
        reference = plgeom.lambda_exponents(*row, run)
        if floer._lifted_counts(*row, run) != reference or floer._brion_counts(*row, run) != reference:
            failing.append(row)
    return failing, checked


def test_certificate_run_is_three_periods_each_side():
    for n, m1, a1, m2 in rows(4, 3):
        run, P = certificate_run(n, m1, a1, m2), period(n, m1, m2)
        g = [m1 * b2 - m2 * a1 for b2 in run]
        assert sum(x < 0 for x in g) == sum(x > 0 for x in g) == 3 * P
        assert g.count(0) == (1 if m2 * a1 % m1 == 0 else 0)
        assert g == sorted(g)


@pytest.mark.parametrize("n, max_m, b2s", [(3, 2, 1203), (4, 3, 11952)])
def test_the_kernels_agree_on_every_certificate_run(n, max_m, b2s):
    failing, checked = certificate_failures(n, max_m)
    assert checked == b2s
    assert failing == []


def test_the_certificate_sees_a_fault_beyond_every_verify_run(monkeypatch):
    """+1 on slot 0 of the direct count at b2 = 13 for m1 = m2 = 1 lies
    beyond every row's run at D = 6, so ``verify`` passes; the three rows
    with m1 = m2 = 1 reach b2 = 13 and fail their certificate."""
    real = floer._lifted_counts

    def far_fault(n, m1, a1, m2, b2s):
        out = real(n, m1, a1, m2, b2s)
        if m1 == m2 == 1:
            out = [(c[0] + 1,) + c[1:] if b2 == 13 else c for b2, c in zip(b2s, out)]
        return out

    monkeypatch.setattr(floer, "_lifted_counts", far_fault)
    assert floer.mirror_verify(3, 2, 6, jobs=1)["failures"] == []
    failing, _ = certificate_failures(3, 2)
    assert failing == [(3, 1, a1, 1) for a1 in range(3)]


@st.composite
def certificate_rows(draw):
    n = draw(st.integers(1, 6))
    m1, m2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a1 = draw(st.integers(-2 * m1 * n, 3 * m1 * n))
    return n, m1, a1, m2


def third_differences(values: list, step: int) -> set:
    """Every slot's third difference in steps of ``step`` along values."""
    return {
        v3[j] - 3 * v2[j] + 3 * v1[j] - v0[j]
        for v0, v1, v2, v3 in zip(values, values[step:], values[2 * step :], values[3 * step :])
        for j in range(len(v0))
    }


@settings(derandomize=True, max_examples=60, deadline=None)
@given(certificate_rows(), st.integers(0, 3))
def test_each_kernel_is_quadratic_per_residue_on_each_side(row, skip):
    """The lemma the certificate rests on: on each side of g = 0, beyond
    ``skip`` periods from the boundary, every third difference in steps of
    P vanishes at every slot, for each kernel."""
    n, m1, a1, m2 = row
    P = period(n, m1, m2)
    below, above = sides(m1, a1, m2)
    start = skip * P
    runs = (
        range(below - start, below - start - 4 * P, -1),
        range(above + start, above + start + 4 * P),
    )
    for name, kernel in KERNELS.items():
        for run in runs:
            assert third_differences(kernel(*row, run), P) == {0}, name
