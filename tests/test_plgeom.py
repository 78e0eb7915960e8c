"""The convex profile, its supports, and the two exponent routes."""

import math
import os
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirror_ring import cli, floer, plgeom, theta
from mirror_ring.plgeom import (
    admissible_k_range,
    average_E,
    k_window,
    InvariantError,
    lambda_defect,
    lambda_exponents,
    phi,
    psi,
    t_exponent,
    b2_window,
    t_exponent_qr,
    total_t_exponent,
)
from run_kernels import at_k, floor_fault

SEED = int(os.environ.get("MIRROR_RING_SEED", "434019"))


def rand_frac(rng, lo=-8, hi=8, maxden=12):
    den = rng.randrange(1, maxden + 1)
    num = rng.randrange(lo * den, hi * den + 1)
    return Fraction(num, den)


def test_phi_pinned_values():
    assert phi(0) == 0
    assert phi(1) == 0
    assert phi(Fraction(3, 2)) == Fraction(1, 2)
    assert phi(Fraction(-1, 2)) == Fraction(1, 2)
    assert phi(2) == 1
    assert phi(-1) == 1
    assert phi(5) == 10


def test_phi_step_identity():
    for t in (Fraction(-7, 3), Fraction(0), Fraction(5, 2)):
        assert phi(t + 1) == phi(t) + t
    rng = random.Random(SEED)
    for _ in range(200):
        t = rand_frac(rng)
        assert phi(t + 1) == phi(t) + t


def test_phi_equals_max_of_supports():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        t = rand_frac(rng)
        window = range(math.floor(t) - 3, math.floor(t) + 4)
        assert phi(t) == max(psi(q, t) for q in window)


def test_phi_preserves_fractional_lattice():
    for m in range(1, 25):
        for a in range(-3 * m, 3 * m + 1):
            v = phi(Fraction(a, m))
            assert (v * m).denominator == 1


def test_average_between_endpoints():
    rng = random.Random(SEED + 2)
    for _ in range(100):
        a, b = rand_frac(rng), rand_frac(rng)
        m1, m2 = rng.randrange(1, 5), rng.randrange(1, 5)
        E = average_E(m1, a, m2, b)
        assert min(a, b) <= E <= max(a, b)
    with pytest.raises(ValueError):
        average_E(0, 0, 1, 1)


def test_lambda_nonnegative_and_zero_on_affine_stretch():
    rng = random.Random(SEED + 3)
    for _ in range(200):
        a, b = rand_frac(rng), rand_frac(rng)
        assert lambda_defect(rng.randrange(1, 4), a, rng.randrange(1, 4), b) >= 0
    # both points inside one linearity interval: defect vanishes
    assert lambda_defect(2, Fraction(1, 5), 3, Fraction(4, 5)) == 0
    assert lambda_defect(1, Fraction(7, 3), 1, Fraction(8, 3)) == 0


def sample_tuples(rng, count, nmax=4, mmax=3, kmax=6):
    for _ in range(count):
        n = rng.randrange(1, nmax + 1)
        m1 = rng.randrange(1, mmax + 1)
        m2 = rng.randrange(1, mmax + 1)
        p1 = Fraction(rng.randrange(0, m1 * n), m1)
        p2 = Fraction(rng.randrange(0, m2 * n), m2)
        k = rng.randrange(-kmax, kmax + 1)
        j = rng.randrange(0, n)
        yield n, m1, p1, m2, p2, k, j


def test_two_exponent_routes_agree():
    rng = random.Random(SEED + 4)
    for n, m1, p1, m2, p2, k, j in sample_tuples(rng, 600):
        a = t_exponent(n, m1, p1, m2, p2, k, j)
        b = t_exponent_qr(n, m1, p1, m2, p2, k, j)
        assert a == b, (n, m1, p1, m2, p2, k, j)
        assert a >= 0


def test_exponent_rejects_non_lattice_p():
    with pytest.raises(ValueError):
        t_exponent_qr(2, 2, Fraction(1, 3), 1, 0, 0, 0)


def test_exponent_shift_in_j_matches_shift_in_p():
    # moving both p's up by one step equals reading the next j slot
    rng = random.Random(SEED + 5)
    for n, m1, p1, m2, p2, k, j in sample_tuples(rng, 150):
        if j + 1 >= n:
            continue
        lhs = t_exponent(n, m1, p1 + 1, m2, p2 + 1, k, j)
        rhs = t_exponent(n, m1, p1, m2, p2, k, j + 1)
        assert lhs == rhs


def test_admissible_window_is_sufficient():
    """Everything outside the returned k-window has total degree > D."""
    rng = random.Random(SEED + 6)
    for _ in range(80):
        n = rng.randrange(1, 4)
        m1, m2 = rng.randrange(1, 4), rng.randrange(1, 4)
        p1 = Fraction(rng.randrange(0, m1 * n), m1)
        p2 = Fraction(rng.randrange(0, m2 * n), m2)
        D = rng.randrange(0, 7)
        window = admissible_k_range(n, m1, p1, m2, p2, D)
        k0 = math.floor((p1 - p2) / n + Fraction(1, 2))
        lo = min(window, default=k0) - 4
        hi = max(window, default=k0) + 4
        for k in range(lo, hi + 1):
            total = total_t_exponent(n, m1, p1, m2, p2, k)
            if total <= D:
                assert k in window, (n, m1, p1, m2, p2, D, k)


def walk_window(n, m1, p1, m2, p2, D):
    """The k-window by a walk in Fractions: out from the integer nearest
    (p1 - p2)/n, in both directions, while the quadratic bound holds."""
    m3 = m1 + m2
    gap = Fraction(p1) - Fraction(p2)
    bound = Fraction(2 * m3 * D, m1 * m2) + Fraction(m3 * m3, 4 * m1 * m2)

    def ok(k):
        return (gap - k * n) ** 2 <= bound

    k0 = math.floor(gap / n + Fraction(1, 2))
    ks = []
    k = k0
    while ok(k):
        ks.append(k)
        k += 1
    k = k0 - 1
    while ok(k):
        ks.append(k)
        k -= 1
    return sorted(ks)


@st.composite
def window_args(draw):
    n = draw(st.integers(1, 8))
    m1, m2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ps = []
    for m in (m1, m2):
        p = Fraction(draw(st.integers(-12 * m * n, 12 * m * n)), m)
        if p.denominator == 1 and draw(st.booleans()):
            p = int(p)
        ps.append(p)
    return n, m1, ps[0], m2, ps[1], draw(st.integers(-3, 60))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(window_args())
@example((1, 4, 0, 4, 0, -1))  # bound exactly 0: only k = gap/n
@example((2, 3, Fraction(1, 3), 5, Fraction(1, 5), -1))  # bound 0, gap off the grid
@example((3, 1, 0, 1, 0, -1))  # bound negative
@example((6, 5, Fraction(-59, 5), 5, Fraction(59, 5), 60))
@example((8, 3, Fraction(-95, 3), 4, Fraction(-1, 4), -2))  # n = 8, both a < 0, D < 0
@example((8, 1, -7, 2, Fraction(-5, 2), 0))
def test_closed_form_window_matches_fraction_walk(case):
    """k_window from the integer classes a = m*p, and its p-signature
    wrapper admissible_k_range, against the walk in Fractions."""
    n, m1, p1, m2, p2, D = case
    want = walk_window(*case)
    assert list(k_window(n, m1, int(m1 * p1), m2, int(m2 * p2), D)) == want
    assert admissible_k_range(*case) == want


def closed_form_k_window(n, m1, a1, m2, a2, D):
    """k_window as it was solved before the b2 run: the k between the
    roots of |a1*m2 - a2*m1 - k*n*m1*m2| <= s, a reference copy."""
    m3 = m1 + m2
    Q = m1 * m2
    P = a1 * m2 - a2 * m1
    rhs = (8 * m3 * D + m3 * m3) * Q
    if rhs < 0:
        return range(0)
    s = math.isqrt(rhs // 4)
    step = n * Q
    return range(-((s - P) // step), (P + s) // step + 1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(1, 10),
    m1=st.integers(1, 6),
    m2=st.integers(1, 6),
    D=st.integers(0, 30),
)
@example(n=10, m1=6, m2=6, D=30)
@example(n=1, m1=1, m2=1, D=0)
@example(n=10, m1=1, m2=6, D=0)  # a run shorter than m2*n: most windows empty
def test_row_windows_tile_the_b2_run(n, m1, m2, D):
    """For every a1 of weight m1, the run of b2 is the disjoint union over
    the classes a2 of weight m2 of a2 + m2*n*k, k in k_window: each window
    is the run's stride of b2 = a2 mod m2*n, as verify reads it.  And
    k_window, derived from the run, equals the closed form."""
    w = m2 * n
    for a1 in range(m1 * n):
        run = b2_window(m1, a1, m2, D)
        tiles = []
        for a2 in range(w):
            window = k_window(n, m1, a1, m2, a2, D)
            assert window == closed_form_k_window(n, m1, a1, m2, a2, D), (a1, a2)
            b2s = [a2 + w * k for k in window]
            assert b2s == list(run[(a2 - run.start) % w :: w]), (a1, a2)
            tiles += b2s
        assert sorted(tiles) == list(run) and len(set(tiles)) == len(tiles), a1


def test_window_total_is_convex_in_k():
    rng = random.Random(SEED + 7)
    for _ in range(60):
        n = rng.randrange(1, 4)
        m1, m2 = rng.randrange(1, 4), rng.randrange(1, 4)
        p1 = Fraction(rng.randrange(0, m1 * n), m1)
        p2 = Fraction(rng.randrange(0, m2 * n), m2)
        vals = [total_t_exponent(n, m1, p1, m2, p2, k) for k in range(-7, 8)]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert a + c >= 2 * b


def test_exponent_reference_example():
    # one-variable squared generator: the k=2 term carries exponent 1
    assert t_exponent(1, 1, 0, 1, 0, 2, 0) == 1
    assert plgeom.t_exponent_qr(1, 1, 0, 1, 0, 2, 0) == 1


THIRD = Fraction(1, 3)  # at weight 2, m*p = 2/3


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: theta._exponent(3, 2, THIRD, 1, 0, 0, 0), id="_exponent-p1"),
        pytest.param(lambda: theta._exponent(3, 1, 0, 2, THIRD, 0, 0), id="_exponent-p2"),
        pytest.param(lambda: theta.ThetaIndex.make(2, THIRD, 3), id="ThetaIndex.make"),
        pytest.param(lambda: floer.count_brion(3, 2, THIRD, 1, 0, 0, 0), id="count_brion-p1"),
        pytest.param(lambda: floer.count_brion(3, 1, 0, 2, THIRD, 0, 0), id="count_brion-p2"),
        pytest.param(lambda: t_exponent_qr(3, 2, THIRD, 1, 0, 0, 0), id="t_exponent_qr-p1"),
        pytest.param(lambda: t_exponent_qr(3, 1, 0, 2, THIRD, 0, 0), id="t_exponent_qr-p2"),
        pytest.param(lambda: floer.lift_triangle(3, 2, THIRD, 1, 0, 0), id="lift_triangle-p1"),
        pytest.param(lambda: floer.lift_triangle(3, 1, 0, 2, THIRD, 0), id="lift_triangle-p2"),
        pytest.param(lambda: admissible_k_range(3, 2, THIRD, 1, 0, 4), id="window-p1"),
        pytest.param(lambda: admissible_k_range(3, 1, 0, 2, THIRD, 4), id="window-p2"),
        pytest.param(
            lambda: floer.floer_product(3, 2, THIRD, 1, 0, 4, "direct"), id="direct-p1"
        ),
        pytest.param(
            lambda: floer.floer_product(3, 1, 0, 2, THIRD, 4, "direct"), id="direct-p2"
        ),
        pytest.param(
            lambda: floer.floer_product(3, 2, THIRD, 1, 0, 4, "brion"), id="brion-p1"
        ),
        pytest.param(
            lambda: floer.floer_product(3, 1, 0, 2, THIRD, 4, "brion"), id="brion-p2"
        ),
    ],
)
def test_every_entry_point_rejects_non_integral_m_p(call):
    """Each entry point that takes an index refuses m*p = 2/3 with
    ValueError, in either index slot."""
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("p", [0.5, 1.0, True, "1/2"], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda p: theta.ThetaIndex.make(2, p, 3), id="ThetaIndex.make"),
        pytest.param(lambda p: floer.count_brion(3, 2, p, 1, 0, 0, 0), id="count_brion-p1"),
        pytest.param(lambda p: floer.count_brion(3, 1, 0, 2, p, 0, 0), id="count_brion-p2"),
        pytest.param(lambda p: floer.floer_product(3, 2, p, 1, 0, 4, "direct"), id="direct-p1"),
        pytest.param(lambda p: floer.floer_product(3, 1, 0, 2, p, 4, "brion"), id="brion-p2"),
        pytest.param(lambda p: admissible_k_range(3, 2, p, 1, 0, 4), id="window-p1"),
        pytest.param(lambda p: admissible_k_range(3, 1, 0, 2, p, 4), id="window-p2"),
    ],
)
def test_every_entry_point_rejects_an_index_of_another_type(call, p):
    """An index that is neither an int nor a Fraction is refused with a
    ValueError naming it, even where m*p would be integral; bool is not
    taken for an int."""
    with pytest.raises(ValueError, match=re.escape(f"index p={p!r} is not an int or a Fraction")):
        call(p)


@pytest.mark.parametrize("m1, m2", [(0, 1), (1, 0), (1, -1)])
@pytest.mark.parametrize("call", [floer.count_brion, t_exponent_qr], ids=lambda f: f.__name__)
def test_one_slot_entry_points_reject_a_weight_below_one(call, m1, m2):
    """As floer_product does: a ValueError, not the ZeroDivisionError of
    dividing by a class width m*n = 0."""
    with pytest.raises(ValueError, match="weight must be >= 1"):
        call(3, m1, 0, m2, 0, 0, 0)


def test_one_slot_entry_points_read_slot_j_mod_n():
    """t_j is t_(j mod n): all four one-slot routes read slot j mod n for
    j in -n..2n-1, not an IndexError for j >= n."""
    n, m1, p1, m2, p2 = 3, 1, 0, 2, Fraction(1, 2)
    for k in range(-2, 3):
        eps = floer.default_eps(n, m1, m2, k)
        tri = floer.lift_triangle(n, m1, p1, m2, p2, k)
        slots = at_k(plgeom.lambda_exponents)(n, m1, m1 * p1, m2, int(m2 * p2), k)
        for j in range(-n, 2 * n):
            assert floer.count_direct(tri, n, j, eps) == slots[j % n], (k, j)
            assert t_exponent(n, m1, p1, m2, p2, k, j) == slots[j % n], (k, j)
            assert t_exponent_qr(n, m1, p1, m2, p2, k, j) == slots[j % n], (k, j)
            assert floer.count_brion(n, m1, p1, m2, p2, k, j) == slots[j % n], (k, j)
    # the slots differ, so a wrong slot would show
    assert len(set(at_k(plgeom.lambda_exponents)(n, m1, 0, m2, 1, 1))) > 1


@pytest.mark.parametrize("m1, m2", [(0, 1), (1, 0), (1, -1), (-1, 1)])
@pytest.mark.parametrize(
    "call", [admissible_k_range, floer.lift_triangle], ids=lambda f: f.__name__
)
def test_window_and_lifted_triangle_reject_a_weight_below_one(call, m1, m2):
    """The k-window and the Fraction triangle refuse a weight below 1 as
    scaled_index does: not with a ZeroDivisionError, nor a window for a
    negative weight."""
    with pytest.raises(ValueError, match=f"weight must be >= 1, got m={min(m1, m2)}"):
        call(3, m1, 0, m2, 0, 6)


def test_lift_triangle_converts_an_index_first():
    """The Fraction reference reads its indices through Fraction(p)."""
    want = floer.lift_triangle(3, 2, Fraction(1, 2), 1, 1, 0)
    for p in (0.5, "1/2"):
        assert floer.lift_triangle(3, 2, p, 1, True, 0) == want


@pytest.mark.parametrize(
    "n, m1, a1, m2, a2, k, j, text",
    [
        (1, 1, 0, 1, 0, 0, 0, "-1 for n=1 m=(1,1) p=(0,0) k=0 j=0"),
        (3, 1, 1, 2, 3, -1, 2, "-5 for n=3 m=(1,2) p=(1,3/2) k=-1 j=2"),
        (4, 2, 3, 1, 1, 1, 3, "-4 for n=4 m=(2,1) p=(3/2,1) k=1 j=3"),
    ],
)
def test_a_negative_lambda_exponent_names_its_site(n, m1, a1, m2, a2, k, j, text):
    """A run whose middle b2 = a2 + m2*n*k takes k2 one too large at slot j,
    where the exponent is 0, makes lambda_exponents raise InvariantError
    naming that b2 as p2 = a2/m2 and k, and the slot j; the run's first
    term is made before it, with no fault."""
    b2, w = a2 + m2 * n * k, m2 * n
    run = [b2 - w, floor_fault(b2, m2 * j), b2 + w]
    assert lambda_exponents(n, m1, a1, m2, [b2])[0][j] == 0
    with pytest.raises(InvariantError) as err:
        lambda_exponents(n, m1, a1, m2, run)
    assert str(err.value) == "t-exponent came out negative: " + text


def test_a_negative_lambda_exponent_exits_three(tmp_path, monkeypatch, capsys):
    """The same fault met by the theta table at n = 3, on the pair
    x_{1,0} * x_{2,1}, which is its orbit's first pair, is an internal
    fault: exit 3, one stderr line with the site, no report."""
    kernel = plgeom.lambda_exponents

    def faulty(n, m1, a1, m2, b2s):
        hit = (m1, a1, m2) == (1, 0, 2)
        return kernel(n, m1, a1, m2, [floor_fault(b2, 4) if hit and b2 == -4 else b2 for b2 in b2s])

    monkeypatch.setattr(plgeom, "lambda_exponents", faulty)
    out = tmp_path / "table.json"
    assert cli.main(["theta", "--n", "3", "--max-m", "2", "--trunc", "6", "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == (
        "mirror-ring: internal fault: t-exponent came out negative: "
        "-6 for n=3 m=(1,2) p=(0,1) k=-1 j=2\n"
    )
    assert list(tmp_path.iterdir()) == []
