"""Arithmetic of the truncated series ring."""

import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirror_ring.series import SeriesError, TruncSeries

SEED = int(os.environ.get("MIRROR_RING_SEED", "434019"))


def random_series(rng, n, D, nterms=6, unit=False):
    terms = {}
    for _ in range(nterms):
        e = [0] * n
        budget = rng.randrange(0, D + 1)
        for _ in range(budget):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = rng.randrange(-9, 10)
    s = TruncSeries(n, D, terms)
    if unit:
        one = TruncSeries.one(n, D)
        s = s.sub(TruncSeries(n, D, {(0,) * n: s.constant_term()}))
        s = s.add(one if rng.random() < 0.5 else one.neg())
    return s


def test_zero_and_one():
    z = TruncSeries.zero(3, 4)
    o = TruncSeries.one(3, 4)
    assert z.is_zero()
    assert o.constant_term() == 1
    assert o.mul(o) == o
    assert z.add(o) == o


def test_zero_coefficients_dropped():
    s = TruncSeries(2, 3, {(1, 0): 0, (0, 1): 2})
    assert s.terms == {(0, 1): 2}


def test_total_degree_truncation():
    s = TruncSeries(2, 2, {(3, 0): 5})
    assert s.is_zero()
    t = TruncSeries(2, 2, {(1, 1): 1})
    assert t.mul(t).is_zero()  # degree 4 > 2


def test_ring_laws_random():
    rng = random.Random(SEED)
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        D = rng.choice((2, 3, 4))
        a = random_series(rng, n, D)
        b = random_series(rng, n, D)
        c = random_series(rng, n, D)
        assert a.add(b) == b.add(a)
        assert a.mul(b) == b.mul(a)
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.sub(a).is_zero()


def test_invert_unit_round_trip():
    rng = random.Random(SEED + 2)
    for _ in range(20):
        n = rng.choice((1, 2, 3))
        u = random_series(rng, n, 4, unit=True)
        inv = u.invert_unit()
        assert u.mul(inv) == TruncSeries.one(n, 4)


def test_invert_requires_unit_constant():
    s = TruncSeries(2, 3, {(0, 0): 2})
    with pytest.raises(SeriesError):
        s.invert_unit()
    with pytest.raises(SeriesError):
        TruncSeries.zero(2, 3).invert_unit()


def test_rotate_cycles_and_composes():
    rng = random.Random(SEED + 3)
    for n in (1, 2, 4):
        a = random_series(rng, n, 4)
        assert a.rotate(n) == a
        assert a.rotate(1).rotate(2) == a.rotate(3)
        assert a.rotate(-1).rotate(1) == a
    # rotate(1) reads slot j from slot j+1
    m = TruncSeries(3, 4, {(0, 3, 0): 7})
    assert m.rotate(1) == TruncSeries(3, 4, {(3, 0, 0): 7})


def test_rotate_is_ring_map():
    rng = random.Random(SEED + 4)
    a = random_series(rng, 3, 4)
    b = random_series(rng, 3, 4)
    assert a.mul(b).rotate(1) == a.rotate(1).mul(b.rotate(1))


def test_mixed_context_rejected():
    a = TruncSeries.one(2, 3)
    b = TruncSeries.one(2, 4)
    c = TruncSeries.one(3, 3)
    with pytest.raises(SeriesError):
        a.add(b)
    with pytest.raises(SeriesError):
        a.mul(c)


def test_json_round_trip():
    rng = random.Random(SEED + 5)
    for _ in range(10):
        a = random_series(rng, 2, 4)
        assert TruncSeries.from_json_obj(a.to_json_obj()) == a
    obj = TruncSeries(3, 5, {(1, 0, 2): -3}).to_json_obj()
    assert obj["n"] == 3 and obj["D"] == 5
    assert obj["terms"] == [{"e": [1, 0, 2], "c": "-3"}]


def test_iter_terms_sorted_deterministically():
    s = TruncSeries(2, 4, {(0, 2): 1, (1, 0): 2, (0, 1): 3})
    assert [e for e, _ in s.iter_terms()] == sorted(s.terms)


# -- the product kernel against a naive reference ----------------------------


def naive_mul(a, b):
    """Every pair of terms, degrees recomputed per pair: the reference."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            if sum(ea) + sum(eb) <= a.D:
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
    return TruncSeries(a.n, a.D, out)


def geometric_inverse(a):
    """a = c0*(1 + r)  =>  a^-1 = c0 * sum_k (-r)^k, D terms of naive_mul."""
    c0 = a.constant_term()
    one = TruncSeries.one(a.n, a.D)
    r = a.scale(c0).sub(one)
    acc = one
    p = one
    for _ in range(a.D):
        p = naive_mul(p, r).neg()
        acc = acc.add(p)
    return acc.scale(c0)


COEFFS = st.one_of(
    st.integers(-3, 3), st.integers(-(2**80), 2**80), st.sampled_from((2**64, -(2**64) - 1))
)


@st.composite
def series_pairs(draw):
    """Two series sharing (n, D), n in 1..5 and D in 0..12, their terms
    drawn up to degree D so that products land on and past the cap."""
    n = draw(st.integers(1, 5))
    D = draw(st.integers(0, 12))

    def one_series():
        terms = {}
        for _ in range(draw(st.integers(0, 8))):
            e = [0] * n
            for _ in range(draw(st.integers(0, D))):
                e[draw(st.integers(0, n - 1))] += 1
            terms[tuple(e)] = draw(COEFFS)
        return TruncSeries(n, D, terms)

    return one_series(), one_series()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(series_pairs())
@example((TruncSeries(3, 5, {(0, 5, 0): 1}), TruncSeries(3, 5, {(0, 0, 0): 3})))  # exponent exactly D
@example((TruncSeries(3, 5, {(0, 5, 0): 1}), TruncSeries(3, 5, {(1, 0, 0): 3})))  # one past D
@example((TruncSeries(2, 6, {(2, 1): 2}), TruncSeries(2, 6, {(1, 2): 5, (0, 0): 1, (3, 0): 7})))
@example(  # (1 + t0)(1 - t0): the t0 coefficients cancel
    (TruncSeries(2, 4, {(0, 0): 1, (1, 0): 1}), TruncSeries(2, 4, {(0, 0): 1, (1, 0): -1}))
)
@example(  # coefficients past 64 bits on both sides, products exactly at D
    (
        TruncSeries(3, 4, {(1, 1, 0): 2**70, (0, 0, 2): -(2**65), (0, 0, 0): 3}),
        TruncSeries(3, 4, {(0, 1, 1): 2**66 + 1, (2, 0, 0): -(2**64), (4, 0, 0): 1}),
    )
)
def test_mul_matches_naive_reference(pair):
    a, b = pair
    got = a.mul(b)
    assert got == naive_mul(a, b)
    assert got == b.mul(a)
    assert all(got.terms.values()), "a zero coefficient was kept"
    assert all(sum(e) <= a.D for e in got.terms)


def test_mul_cancellation_and_cap_edges():
    x = TruncSeries(2, 4, {(0, 0): 1, (1, 0): 1})
    y = TruncSeries(2, 4, {(0, 0): 1, (1, 0): -1})
    assert x.mul(y).terms == {(0, 0): 1, (2, 0): -1}
    top = TruncSeries(3, 4, {(0, 0, 4): 1})
    assert top.mul(TruncSeries(3, 4, {(0, 0, 0): 2, (1, 0, 0): 1})).terms == {(0, 0, 4): 2}
    big = TruncSeries(1, 3, {(1,): 2**64, (2,): 1})
    assert big.mul(big).terms == {(2,): 2**128, (3,): 2**65}


@st.composite
def units(draw):
    """A series with constant term +1 or -1, n in 1..5 and D in 0..12."""
    a, _ = draw(series_pairs())
    c0 = draw(st.sampled_from((1, -1)))
    terms = dict(a.terms)
    terms[(0,) * a.n] = c0
    return TruncSeries(a.n, a.D, terms)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(units())
@example(TruncSeries(1, 0, {(0,): -1}))
@example(TruncSeries(1, 1, {(0,): 1, (1,): 2**70}))
@example(TruncSeries(1, 1, {(0,): -1, (1,): 3}))
@example(TruncSeries(3, 1, {(0, 0, 0): -1, (0, 1, 0): 1, (1, 0, 0): -(2**65)}))
@example(TruncSeries(1, 12, {(0,): 1, (1,): -1}))
def test_invert_unit_matches_geometric_series(a):
    inv = a.invert_unit()
    assert a.mul(inv) == TruncSeries.one(a.n, a.D)
    assert inv == geometric_inverse(a)
    assert all(inv.terms.values()), "a zero coefficient was kept"
