"""Root series, marked-point residues, and the b/c coordinate series."""

import functools
import json
import os
import pathlib
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diagonal_oracle
import residue_oracle
import slice_oracle
from mirror_ring import moduli
from mirror_ring.cli import main
from mirror_ring.moduli import (
    ULaurent,
    coords_b,
    coords_c,
    d_log_derivative,
    eval_at_p0,
    residue_R,
    solve_s,
    theta_chart0,
    theta_full_chart0,
)
from mirror_ring.plgeom import InvariantError, phi
from mirror_ring.series import TruncSeries, _pack, _series
from mirror_ring.theta import ThetaIndex, basis_pairs, theta_product
from mirror_ring.toric import w_point

SEED = int(os.environ.get("MIRROR_RING_SEED", "434019"))
GOLDEN = pathlib.Path(__file__).parent / "golden"


def t_var(j, n, D):
    e = [0] * n
    e[j] = 1
    return TruncSeries(n, D, {tuple(e): 1})


def test_full_section_low_order_terms():
    n, D = 3, 3
    g = theta_full_chart0(n, D)
    terms = dict(g.iter_terms())
    one = TruncSeries.one(n, D)
    assert terms[0] == one
    assert terms[1] == one.neg()
    assert terms[-1] == t_var(0, n, D).neg()
    assert terms[2] == t_var(n - 1, n, D)
    assert terms[-2] == TruncSeries(n, D, {(2, 1, 0): 1})
    # u^3 carries t_{n-2} t_{n-1}^2 with a minus sign
    assert terms[3] == TruncSeries(n, D, {(0, 1, 2): -1})


def test_section_at_t0_is_one_minus_u():
    for n in (1, 2, 4):
        g = theta_full_chart0(n, 2)
        consts = {e: s.constant_term() for e, s in g.iter_terms() if s.constant_term()}
        assert consts == {0: 1, 1: -1}


def test_residue_part_zero_contains_unit():
    g = theta_chart0(0, 2, 3)
    terms = dict(g.iter_terms())
    assert terms[0].constant_term() == 1


def test_residue_parts_sum_to_full_section():
    n, D = 3, 4
    total = ULaurent(n, D)
    for l in range(n):
        total = total.add(theta_chart0(l, n, D))
    assert total == theta_full_chart0(n, D)


def test_negative_truncation_is_refused():
    """Not the IndexError of a root with no degree-0 bucket."""
    with pytest.raises(ValueError, match="truncation order must be >= 0, got D=-1"):
        moduli.solve_s(2, -1)


def test_chart_index_bounds():
    with pytest.raises(ValueError):
        theta_chart0(3, 3, 2)
    with pytest.raises(ValueError):
        theta_chart0(-1, 2, 2)


def test_d_log_examples():
    n, D = 2, 3
    g = theta_full_chart0(n, D)
    d = d_log_derivative(g)
    terms = dict(d.iter_terms())
    assert 0 not in terms  # the constant dies
    assert terms[1] == TruncSeries.one(n, D).neg()  # -u stays -u
    assert terms[-1] == t_var(0, n, D)  # -t0/u picks up the -1 exponent
    val = eval_at_p0(d, n, D)
    assert val.constant_term() == -1


def test_eval_is_ring_map():
    rng = random.Random(SEED)
    n, D = 2, 4
    s = solve_s(n, D)
    def rand_laurent():
        terms = {}
        for _ in range(4):
            e = rng.randrange(-2, 3)
            c = rng.randrange(-4, 5)
            coeff = TruncSeries(n, D, {tuple(rng.randrange(0, 2) for _ in range(n)): c})
            terms[e] = terms[e].add(coeff) if e in terms else coeff
        return ULaurent(n, D, terms)

    for _ in range(12):
        ga = rand_laurent()
        gb = rand_laurent()
        lhs = moduli._eval_at(ga.mul(gb), s)
        rhs = moduli._eval_at(ga, s).mul(moduli._eval_at(gb, s))
        assert lhs == rhs


def test_eval_basics():
    n, D = 2, 3
    s = solve_s(n, D)
    one = ULaurent(n, D, {0: TruncSeries.one(n, D)})
    u = ULaurent(n, D, {1: TruncSeries.one(n, D)})
    assert moduli._eval_at(one, s) == TruncSeries.one(n, D)
    assert moduli._eval_at(u, s) == TruncSeries.one(n, D).add(s)


def test_root_series_low_degrees():
    for n in (2, 3, 4):
        D = 4
        s = solve_s(n, D)
        t0 = t_var(0, n, D)
        tl = t_var(n - 1, n, D)
        deg1 = TruncSeries(n, D, {e: c for e, c in s.iter_terms() if sum(e) == 1})
        deg2 = TruncSeries(n, D, {e: c for e, c in s.iter_terms() if sum(e) == 2})
        assert deg1 == tl.sub(t0)
        assert deg2 == t0.add(tl.scale(2)).mul(tl.sub(t0))


def test_root_series_trivial_for_single_component():
    assert solve_s(1, 6).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_root_series_vanishes_on_the_diagonal(n):
    """With every t_j = t the chart-0 section is sum_i (-1)^i u^-i
    t^(i(i+1)/2), which Jacobi's triple product writes as
    prod_{m>=1} (1 - t^m)(1 - u t^(m-1))(1 - t^m / u): u = 1 is an exact
    root, so s restricted to the diagonal is 0.  Setting every t_j = t
    sums the coefficients of s degree by degree."""
    D = 9
    s = solve_s(n, D)
    assert not s.is_zero()
    by_degree = [0] * (D + 1)
    for e, c in s.iter_terms():
        by_degree[sum(e)] += c
    assert by_degree == [0] * (D + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_residue_on_the_diagonal_is_a_triple_product_quotient(n):
    """R_0(t,...,t) times prod(1 - t^m)^3 is theta_0's triple product at
    u = 1.  At D = 10 the x factor t^(n(n+1)/2) enters the window for
    n <= 4."""
    D = 10
    got = diagonal_oracle.diagonal(residue_R(0, n, D))
    lhs = diagonal_oracle.mul(got, diagonal_oracle.cube(D))
    assert lhs == diagonal_oracle.residue_times_cube(n, D)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_diagonal_b_on_the_diagonal_is_a_lambert_difference(n):
    D = 10
    got = diagonal_oracle.diagonal(coords_b(n, D)[1][0])
    assert got == diagonal_oracle.diagonal_b0(n, D)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_section_on_the_slice_is_the_oracle_polynomial(n):
    """On t_0 = 0 the section keeps 1 - u and the n - 1 summands c_K u^K,
    K = 2..n; D reaches the last one's degree n(n-1)/2."""
    D = n * (n - 1) // 2
    got = {}
    for e, s in theta_full_chart0(n, D).iter_terms():
        kept = {exps: c for exps, c in s.iter_terms() if exps[0] == 0}
        if kept:
            got[e] = kept
    assert got == slice_oracle.section(n)


@pytest.mark.parametrize("n, D", [(1, 10), (2, 10), (3, 10), (4, 10), (5, 10), (6, 8)])
def test_root_series_on_the_slice_is_the_oracle_fixed_point(n, D):
    got = {e: c for e, c in solve_s(n, D).iter_terms() if e[0] == 0}
    assert got == slice_oracle.root(n, D)


def _catalan(k):
    return comb(2 * k, k) // (k + 1)


def test_root_series_for_two_components_in_closed_form():
    """At n = 2 the slice t_0 = 0 gives s = t_1 (1 + s)^2, the Catalan
    series; on t_1 = 0 the section is 1 - u - t_0/u, so s = -t_0/(1 + s)
    and s is minus t_0 times the Catalan series in t_0."""
    D = 10
    s = dict(solve_s(2, D).iter_terms())
    assert {e: c for e, c in s.items() if e[0] == 0} == {
        (0, k): _catalan(k) for k in range(1, D + 1)
    }
    assert {e: c for e, c in s.items() if e[1] == 0} == {
        (k, 0): -_catalan(k - 1) for k in range(1, D + 1)
    }


def test_residue_parts_span_the_full_section():
    """Each summand of the section lies in exactly one residue part, and
    u d/du drops only u^0, so the parts sum to the full section, and
    they and their derivatives cover its u-span and no more: the sum of
    the parts' values on _point_data's one table is the section's value
    at the root."""
    for n in range(1, 8):
        for D in range(16):
            parts = [theta_chart0(l, n, D) for l in range(n)]
            parts += [d_log_derivative(g) for g in parts]
            full = theta_full_chart0(n, D)
            assert moduli._span(*parts) == moduli._span(full), (n, D)
            assert functools.reduce(ULaurent.add, parts[:n]) == full, (n, D)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lower_precision_is_a_truncation(n):
    """solve_s builds degree d from the degrees below it alone, so a
    series at D must agree with the one at d below degree d."""
    top = 8

    def values(D):
        return [solve_s(n, D), residue_R(0, n, D), coords_b(n, D)[1][0]]

    full = values(top)
    for d in range(top):
        cut = [TruncSeries(n, d, f.terms) for f in full]
        assert values(d) == cut, (n, d)


def test_eval_of_zero_is_zero():
    n, D = 3, 4
    zero = ULaurent(n, D)
    assert moduli._eval_at(zero, solve_s(n, D)) == TruncSeries.zero(n, D)


def test_final_check_catches_a_corrupt_last_step(monkeypatch):
    """The online solve never substitutes its answer back, so a wrong
    degree-D correction passes every step; the residue parts, evaluated
    on one power table built from s alone, must sum to zero, and that
    check is what proves the root."""
    n, D = 2, 4
    real_defect, real_powers = moduli._defect, moduli._powers
    steps, tables = [], []

    def drop_one(coeffs, pows, d):
        out = real_defect(coeffs, pows, d)
        steps.append(d)
        if d == D:
            assert out
            first = min(out)
            out = {k: c for k, c in out.items() if k != first}
        return out

    def spy(s, cuts):
        # s comes graded, one bucket per degree 0..D
        tables.append(len(s) - 1)
        return real_powers(s, cuts)

    moduli.solve_s.cache_clear()
    moduli._point_data.cache_clear()
    monkeypatch.setattr(moduli, "_defect", drop_one)
    monkeypatch.setattr(moduli, "_powers", spy)
    try:
        with pytest.raises(InvariantError, match="nonzero residual"):
            solve_s(n, D)
    finally:
        moduli.solve_s.cache_clear()
        moduli._point_data.cache_clear()
    # every degree stepped once, then one table was built, at D
    assert steps == list(range(1, D + 1))
    assert tables == [D]


def _triangular_cut(e, D):
    """D less the t-degree iota(iota+1)/2 of the section's u^e summand,
    e = -iota: the cut of (1 + s)^e in the section's chart, where that
    degree grows outward on both sides, and (1 + s)^0 reaches D."""
    return D - (-e) * (1 - e) // 2


def _plain_inverse_of_one_plus(s, n, D):
    """1/(1 + s) = sum_k (-s)^k through degree D, s with no constant term."""
    one = {(0,) * n: 1}
    neg = {e: -c for e, c in s.items()}
    out, power = dict(one), one
    for _ in range(D):
        power = _plain_mul(power, neg, D)
        for e, c in power.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _parts(n, D):
    parts = []
    for l in range(n):
        g = theta_chart0(l, n, D)
        parts += [g, d_log_derivative(g)]
    return parts


@pytest.mark.parametrize(
    "n, sizes",
    [pytest.param(n, range(11), id=f"{n}-D0..10") for n in range(1, 8)]
    + [pytest.param(3, [20], id="3-D20")],
)
def test_each_power_is_exact_through_its_cut(n, sizes):
    """_point_data's power table holds (1 + s)^e through its cut, D less
    the t-degree of the u^e summand, and not one bucket more: checked
    against powers of 1 + s formed with plain dict products."""
    for D in sizes:
        s = moduli._point_data(n, D)[-1]
        cuts = moduli._cuts(D, *_parts(n, D))
        assert cuts == {e: _triangular_cut(e, D) for e in cuts}, (n, D)
        pows = moduli._powers(s, cuts)
        assert set(pows) == set(cuts), (n, D)
        one = {(0,) * n: 1}
        terms = _series(s, n, D).terms
        step = {1: {**one, **terms}, -1: _plain_inverse_of_one_plus(terms, n, D)}
        for sign in (1, -1):
            want, e = one, 0
            while e + sign in cuts:
                e += sign
                want = _plain_mul(want, step[sign], cuts[e])
                got = pows[e]
                assert len(got) == cuts[e] + 1, (n, D, e)
                padded = got + [{}] * (D - cuts[e])
                assert _series(padded, n, D).terms == want, (n, D, e)
        assert len(pows[0]) == D + 1 and pows[0][0] == {0: 1} and not any(pows[0][1:])


def _outermost(cuts, side):
    return max(cuts) if side > 0 else min(cuts)


def _clear_moduli_caches():
    moduli.solve_s.cache_clear()
    moduli._point_data.cache_clear()


@pytest.mark.parametrize("n, D", [(2, 4), (4, 12), (3, 20)])
@pytest.mark.parametrize("side", [1, -1])
def test_a_short_cut_is_refused(tmp_path, monkeypatch, n, D, side):
    """One degree short on the outermost power of one side, in the cut
    table the solve and its proof share: _point_data raises
    InvariantError naming the power, not IndexError, and the moduli
    report exits 3 and writes nothing."""
    real = moduli._cuts

    def short(D, *parts):
        cuts = real(D, *parts)
        cuts[_outermost(cuts, side)] -= 1
        return cuts

    monkeypatch.setattr(moduli, "_cuts", short)
    e = _outermost(real(D, theta_full_chart0(n, D)), side)
    want = _triangular_cut(e, D)
    message = rf"\(1 \+ s\)\^{e} is cut at t-degree {want - 1}, short of the {want} "
    _clear_moduli_caches()
    try:
        with pytest.raises(InvariantError, match=message):
            moduli._point_data(n, D)
        out = tmp_path / "moduli.json"
        assert main(["moduli", "--n", str(n), "--trunc", str(D), "-o", str(out)]) == 3
        assert list(tmp_path.iterdir()) == []
    finally:
        _clear_moduli_caches()


@pytest.mark.parametrize("n, D", [(2, 4), (4, 12), (3, 20)])
@pytest.mark.parametrize("side", [1, -1])
def test_the_substitution_refuses_a_short_power(monkeypatch, n, D, side):
    """The root is solved on its own cuts; a power table one degree short
    on the outermost power of one side must not be read past its end."""
    real = moduli._powers

    def short(s, cuts):
        e = _outermost(cuts, side)
        return real(s, {**cuts, e: cuts[e] - 1})

    monkeypatch.setattr(moduli, "_powers", short)
    _clear_moduli_caches()
    try:
        with pytest.raises(InvariantError, match=r"short of the \d+ its u-coefficient"):
            moduli._point_data(n, D)
    finally:
        _clear_moduli_caches()


@pytest.mark.parametrize("n, D", [(2, 4), (4, 12), (3, 20)])
def test_a_long_cut_changes_no_byte(tmp_path, monkeypatch, n, D):
    """One degree more on the outermost power of each side reaches both
    the solve and the table, and changes no byte of the report."""
    argv = ["moduli", "--n", str(n), "--trunc", str(D), "-o"]
    _clear_moduli_caches()
    assert main(argv + [str(tmp_path / "want.json")]) == 0
    real, tables = moduli._cuts, []

    def long(D, *parts):
        cuts = real(D, *parts)
        for side in (1, -1):
            cuts[_outermost(cuts, side)] += 1
        tables.append(cuts)
        return cuts

    monkeypatch.setattr(moduli, "_cuts", long)
    _clear_moduli_caches()
    try:
        assert main(argv + [str(tmp_path / "got.json")]) == 0
    finally:
        _clear_moduli_caches()
    # the solve's cuts and the table's, each one longer at both ends
    assert len(tables) == 2
    got = (tmp_path / "got.json").read_bytes()
    assert got == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("n, D", [(2, 8), (3, 8), (4, 8), (5, 7), (6, 6)])
def test_residues_at_the_marked_points_sum_to_zero(n, D):
    """The residue theorem for theta_l/Theta and theta_l theta_m/Theta^2
    (tests/residue_oracle.py), on _point_data's values at p_0."""
    th, dth, dth_full, ddth_full = residue_oracle.values(n, D, moduli._point_data)
    assert residue_oracle.simple_pole_failures(n, D, th, dth_full) == []
    assert residue_oracle.double_pole_failures(n, D, th, dth, dth_full, ddth_full) == []


@pytest.mark.parametrize("n, D", [(2, 8), (3, 8), (4, 7)])
def test_the_double_pole_residues_see_a_corrupt_derivative_value(n, D):
    """theta'_0 swapped with theta'_(n-1), or + t_1 in one bucket of
    theta'_1: the simple poles read no theta'_l, and the double poles
    fail for every (l, m)."""
    th, dth, dth_full, ddth_full = residue_oracle.values(n, D, moduli._point_data)
    swapped = list(dth)
    swapped[0], swapped[n - 1] = dth[n - 1], dth[0]
    t1 = tuple(int(j == 1) for j in range(n))
    bumped = list(dth)
    bumped[1] = {**dth[1], t1: dth[1].get(t1, 0) + 1}
    pairs = [(l, m) for l in range(n) for m in range(l, n)]
    for bad in (swapped, bumped):
        assert bad != dth
        assert residue_oracle.double_pole_failures(n, D, th, bad, dth_full, ddth_full) == pairs


def test_substitute_back_vanishes():
    for n in (1, 2, 3, 4):
        D = 6
        g = theta_full_chart0(n, D)
        assert moduli._eval_at(g, solve_s(n, D)).is_zero()


def test_residues_are_units_with_rotation_symmetry():
    for n in (2, 3):
        D = 4
        r0 = residue_R(0, n, D)
        assert r0.constant_term() == 1
        for i in range(n):
            ri = residue_R(i, n, D)
            assert ri.constant_term() == 1
            assert ri == r0.rotate(-i)
        assert residue_R((n - 1), n, D).rotate(-1) == r0.rotate(-n)


def test_residue_rejects_bad_input():
    with pytest.raises(ValueError):
        residue_R(0, 1, 3)
    with pytest.raises(ValueError):
        residue_R(2, 2, 3)


@functools.lru_cache(maxsize=None)
def _sheared_exponents(iota, c, n):
    """t-exponents of the iota-th summand in chart c, in Fractions: the
    y-part of w_iota - w_c (toric.w_point), less the shear iota - c on the
    slots j < c."""
    w_iota, w_c = w_point(iota, n).y, w_point(c, n).y
    exps = [
        a - b - (iota - c if j < c else 0)
        for j, (a, b) in enumerate(zip(w_iota, w_c))
    ]
    assert all(g.denominator == 1 and g >= 0 for g in exps), (iota, c, n)
    return tuple(int(g) for g in exps)


def _sheared_chart(l, c, n, D):
    """Chart-c expansion of the residue-l part of the section (l=None: the
    full section), read from the sheared w-points, not from the package."""
    terms = {}
    reach = D + n + 2
    for iota in range(c - reach, c + reach + 1):
        if l is not None and (iota - l) % n:
            continue
        exps = _sheared_exponents(iota, c, n)
        if sum(exps) <= D:
            sign = -1 if (iota - c) % 2 else 1
            terms[c - iota] = TruncSeries(n, D, {exps: sign})
    return ULaurent(n, D, terms)


@pytest.mark.parametrize("n", range(1, 8))
def test_sheared_charts_are_the_rotated_base_chart(n):
    """Chart c of the sheared w-points is the package's base chart of
    residue (l - c) mod n with every coefficient rotated by -c, for every
    chart c < n, every residue l and the full section, and D <= 12."""
    for D in range(13):
        for c in range(n):
            for l in [*range(n), None]:
                base = theta_full_chart0(n, D) if l is None else theta_chart0((l - c) % n, n, D)
                want = ULaurent(n, D, {e: s.rotate(-c) for e, s in base.terms.items()})
                assert _sheared_chart(l, c, n, D) == want, (n, D, c, l)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(-(10 * n + 60), 10 * n + 60))
    )
)
@example((1, -70))
@example((12, 180))
@example((12, -180))
def test_chart_exponents_are_the_w_points_far_beyond_the_grid(case):
    """The integer exponents are w_iota - w_0 of toric.w_point, nonnegative,
    and of total degree iota(iota+1)/2, far beyond any chart's window."""
    n, iota = case
    exps = moduli._chart_term_exponents(iota, n)
    w, w0 = w_point(iota, n).y, w_point(0, n).y
    assert exps == tuple(a - b for a, b in zip(w, w0))
    assert all(type(g) is int and g >= 0 for g in exps)
    assert sum(exps) == iota * (iota + 1) // 2


@pytest.mark.parametrize(
    "shift, message", [(1, "not triangular"), (-1, "bad chart exponent")]
)
def test_chart_builder_checks_every_summand(monkeypatch, shift, message):
    """One slot of one summand's exponents off by one: the residue part and
    the full section both refuse it, by degree or by sign."""
    n, D, iota = 3, 6, 1
    good = moduli._chart_term_exponents
    assert good(iota, n) == (1, 0, 0)

    def crooked(i, nn):
        exps = good(i, nn)
        return exps[:-1] + (exps[-1] + shift,) if i == iota else exps

    monkeypatch.setattr(moduli, "_chart_term_exponents", crooked)
    with pytest.raises(InvariantError, match=message):
        theta_chart0(iota % n, n, D)
    with pytest.raises(InvariantError, match=message):
        theta_full_chart0(n, D)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_residue_cross_check_neighbor_chart(n):
    """Recompute R_1 and the diagonal b_1 inside the next chart and compare
    with the rotation route.  The neighboring chart sees the same point as
    its own base point with rotated gluing parameters, and there the
    residue parts 0 and 1 play the roles of n-1 and 0."""
    D = 3
    s1 = solve_s(n, D).rotate(-1)
    th1 = [_sheared_chart(l, 1, n, D) for l in range(n)]

    def ev(g):
        return moduli._eval_at(g, s1)

    # the point is a root of the full section in this chart too
    full = ULaurent(n, D)
    for g in th1:
        full = full.add(g)
    assert ev(full).is_zero()
    dfull = ev(d_log_derivative(full)).neg()
    r1_direct = ev(th1[1]).mul(dfull.invert_unit())
    assert r1_direct == residue_R(1, n, D)

    def dlog(g):
        return ev(d_log_derivative(g)).mul(ev(g).invert_unit())

    b1_direct = dlog(th1[0]).sub(dlog(th1[1]))
    assert b1_direct == coords_b(n, D)[1][1]


def _frame_units(n, D):
    """Units e(u) of the base chart: 1 + t_0 u, -1/u, u^2 (1 - t_{n-1} u^2)."""
    one = TruncSeries.one(n, D)
    return [
        ULaurent(n, D, {0: one, 1: t_var(0, n, D)}),
        ULaurent(n, D, {-1: one.neg()}),
        ULaurent(n, D, {2: one, 4: t_var(n - 1, n, D).neg()}),
    ]


def test_residues_and_diagonal_b_are_frame_independent(monkeypatch):
    """Multiplying every residue part by one unit e(u) moves the local
    frame, not the point: R_i and the diagonal b_i must not change.  The
    rescaled parts go through the package's own path via theta_chart0."""
    D = 5
    ns = (2, 3, 4, 5)
    want = {
        n: (
            moduli._point_data(n, D)[0],
            [residue_R(i, n, D) for i in range(n)],
            coords_b(n, D)[1],
        )
        for n in ns
    }
    orig = moduli.theta_chart0
    try:
        for n in ns:
            want_th, want_R, want_b = want[n]
            for e in _frame_units(n, D):
                monkeypatch.setattr(
                    moduli, "theta_chart0", lambda *a, _e=e: orig(*a).mul(_e)
                )
                moduli._point_data.cache_clear()
                # the frame did move: the residue parts take new values
                assert moduli._point_data(n, D)[0] != want_th, (n, e)
                assert [residue_R(i, n, D) for i in range(n)] == want_R, (n, e)
                assert coords_b(n, D)[1] == want_b, (n, e)
    finally:
        monkeypatch.undo()
        moduli._point_data.cache_clear()


def test_coords_b_shape_and_constants():
    for n, D in ((2, 4), (3, 3), (4, 2), (5, 2), (6, 1)):
        b_off, b_diag = coords_b(n, D)
        assert set(b_diag) == set(range(n))
        expected_off = {
            (i, j) for i in range(n) for j in range(n) if j not in (i, (i + 1) % n)
        }
        assert set(b_off) == expected_off
        for v in b_off.values():
            assert v.constant_term() == 0
        for v in b_diag.values():
            assert v.constant_term() == 1


def test_coords_b_rotation_covariance():
    for n in (2, 3, 4):
        b_off, b_diag = coords_b(n, 3)
        for (i, j), v in b_off.items():
            assert v.rotate(-1) == b_off[((i + 1) % n, (j + 1) % n)]
        for i, v in b_diag.items():
            assert v.rotate(-1) == b_diag[(i + 1) % n]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_coords_b_and_c_match_the_per_pair_formulas(n):
    """coords_b forms one b_(0,j) per rotation orbit and coords_c keeps one
    running sum per column, so rotation covariance holds by construction.
    Here every b_(i,j) is multiplied out on its own, as
    rot(theta'_l/Theta', -j) * rot(R_0^-1, -i) with l = i - j mod n and
    R_0^-1 inverted directly, and every c_(i,j) is summed from scratch."""
    D = 4
    parts = [theta_chart0(l, n, D) for l in range(n)]
    dth = [eval_at_p0(d_log_derivative(g), n, D) for g in parts]
    inv_dth_full = eval_at_p0(
        d_log_derivative(theta_full_chart0(n, D)), n, D
    ).invert_unit()
    r0_inv = residue_R(0, n, D).invert_unit()
    want_b = {}
    for i in range(n):
        for j in range(n):
            if j in (i, (i + 1) % n):
                continue
            lh = dth[(i - j) % n].mul(inv_dth_full)
            want_b[(i, j)] = lh.rotate(-j).mul(r0_inv.rotate(-i))
    b_off, b_diag = coords_b(n, D)
    assert b_off == want_b

    want_c = {}
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            if i == j:
                continue
            acc = TruncSeries.zero(n, D) if i < j else b_diag[j % n]
            for r in range(1, i):
                if r not in (j - 1, j):
                    acc = acc.add(want_b[(r % n, j % n)])
            want_c[(i, j)] = acc
    assert coords_c(n, D) == want_c


def test_coords_integer_coefficients():
    for n in (2, 3):
        b_off, b_diag = coords_b(n, 4)
        series = list(b_off.values()) + list(b_diag.values())
        if n >= 3:
            series += list(coords_c(n, 4).values())
        for v in series:
            for _, c in v.iter_terms():
                assert isinstance(c, int) or c.denominator == 1


def test_coords_c_case_formula_constants():
    for n in (3, 4, 5, 6):
        c = coords_c(n, 3)
        keys = {(i, j) for i in range(2, n + 1) for j in range(2, n + 1) if i != j}
        assert set(c) == keys
        for (i, j), v in c.items():
            assert v.constant_term() == (0 if i < j else 1)


def test_coords_c_degree_one_linearity():
    for n in (3, 4):
        for v in coords_c(n, 3).values():
            for e, coeff in v.iter_terms():
                if sum(e) == 1:
                    assert coeff == int(coeff)


def test_coords_c_needs_three_components():
    with pytest.raises(ValueError):
        coords_c(2, 3)


def test_moduli_against_golden():
    data = json.loads((GOLDEN / "moduli_series.json").read_text())
    for n in (2, 3, 4):
        D = 3
        block = data[str(n)]
        assert TruncSeries.from_json_obj(block["s"]) == solve_s(n, D)
        assert TruncSeries.from_json_obj(block["R_0"]) == residue_R(0, n, D)
        b_off, b_diag = coords_b(n, D)
        for key, obj in block["b_off"].items():
            i, j = map(int, key.split(","))
            assert TruncSeries.from_json_obj(obj) == b_off[(i, j)]
        for key, obj in block["b_diag"].items():
            assert TruncSeries.from_json_obj(obj) == b_diag[int(key)]
        if n >= 3:
            c = coords_c(n, D)
            for key, obj in block["c"].items():
                i, j = map(int, key.split(","))
                assert TruncSeries.from_json_obj(obj) == c[(i, j)]


def _theta_expansion(n, m, a, D):
    """theta[m, a](u) in chart 0, cut at t-degree D, as
    {(u-exponent, t-exponents): coefficient}: the sum over iota = a mod m*n
    of (-1)^iota u^(-iota) t^e(iota), e_j(iota) = m*n*(phi((j - iota/m)/n)
    - phi(j/n)), built from plgeom.phi alone.  The total degree is convex
    in iota, so once both ends of the scan lie above D nothing beyond does."""
    out = {}
    reach = m * n * (D + 2)
    for iota in range(a - reach, a + reach + 1, m * n):
        e = [m * n * (phi(Fraction(m * j - iota, m * n)) - phi(Fraction(j, n))) for j in range(n)]
        assert all(x.denominator == 1 and x >= 0 for x in e), (n, m, iota)
        if sum(e) <= D:
            assert abs(iota - a) < reach, "the scan is too short"
            out[(-iota, tuple(map(int, e)))] = -1 if iota % 2 else 1
    return out


def _expansion_mul(f, g, D):
    out = {}
    for (u1, e1), c1 in f.items():
        for (u2, e2), c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) <= D:
                out[(u1 + u2, e)] = out.get((u1 + u2, e), 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _identity_failures(n, max_m, D, reflect, negate=False):
    """The basis pairs where theta[m1, a1]*theta[m2, a2] differs from the
    sum over a3 of rho(C_a3)*theta[m3, a3], C_a3 the product table's
    series at class a3; rho sends t_j to t_(-j mod n), or is the identity
    when reflect is False.  With negate, C_a3 is instead the series at
    class -a3 of the table product at classes (-a1, -a2): each chart
    theta[m, a] is read as the table's class -a."""
    expansions = {}

    def expansion(m, a):
        if (m, a) not in expansions:
            expansions[m, a] = _theta_expansion(n, m, a, D)
        return expansions[m, a]

    def sign(label):
        return ThetaIndex(label.m, -label.a % (label.m * n)) if negate else label

    failed = []
    for x, y in basis_pairs(n, max_m):
        lhs = _expansion_mul(expansion(x.m, x.a), expansion(y.m, y.a), D)
        rhs = {}
        m3 = x.m + y.m
        for a3, series in theta_product(sign(x), sign(y), n, D).coeffs.items():
            coeff = {
                (0, tuple(e[-i % n] for i in range(n)) if reflect else e): c
                for e, c in series.iter_terms()
            }
            chart = expansion(m3, sign(ThetaIndex(m3, a3)).a)
            for key, c in _expansion_mul(coeff, chart, D).items():
                rhs[key] = rhs.get(key, 0) + c
        if lhs != {key: c for key, c in rhs.items() if c}:
            failed.append((x, y))
    return failed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weight_one_expansion_is_the_chart_section(n):
    """At m = 1 the expansion built from phi is theta_chart0, term for term."""
    D = 6
    for l in range(n):
        chart = {
            (e, exps): c
            for e, s in theta_chart0(l, n, D).iter_terms()
            for exps, c in s.iter_terms()
        }
        assert _theta_expansion(n, 1, l, D) == chart


@pytest.mark.parametrize(
    "n, max_m, D", [(1, 2, 6), (2, 2, 6), (3, 2, 6), (4, 2, 5), (5, 1, 5)]
)
def test_product_table_multiplies_the_chart_expansions(n, max_m, D):
    """theta[m1, a1]*theta[m2, a2] = sum over a3 of rho(C_a3)*theta[m3, a3]
    for every basis pair: the moduli chart and the product table agree on
    every variable's exponent once the table's t_j is read as the chart's
    t_(-j mod n).  At n >= 3 the identity fails without that reflection."""
    assert _identity_failures(n, max_m, D, reflect=True) == []
    if n >= 3:
        assert _identity_failures(n, max_m, D, reflect=False)


@pytest.mark.parametrize(
    "n, max_m, D", [(1, 2, 6), (2, 2, 6), (3, 2, 6), (4, 2, 5), (5, 1, 5), (6, 2, 5)]
)
def test_product_table_at_the_negated_classes_multiplies_the_chart_expansions(n, max_m, D):
    """The same identity with no reflection of t, read as a class sign:
    theta[m1, a1]*theta[m2, a2] = sum over a3 of C_a3*theta[m3, a3], with
    C_a3 the table product at classes (-a1, -a2) at its class -a3.  The
    ring's reflection (the inversion [-1]) turns one reading into the
    other.  At n >= 3 the class sign with the reflection of t as well
    fails, as the reflection alone does."""
    assert _identity_failures(n, max_m, D, reflect=False, negate=True) == []
    if n >= 3:
        assert _identity_failures(n, max_m, D, reflect=True, negate=True)


def _plain_mul(f, g, D):
    """Product of two term maps {exponents: coefficient}, cut at total
    degree D, zeros dropped: a reference that shares no code with the
    series kernels.  g is grouped by degree, so no pair above D is formed."""
    by_degree = {}
    for e, c in g.items():
        by_degree.setdefault(sum(e), []).append((e, c))
    out = {}
    for e1, c1 in f.items():
        room = D - sum(e1)
        for d2, terms in by_degree.items():
            if d2 <= room:
                for e2, c2 in terms:
                    e = tuple(x + y for x, y in zip(e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _inverted(terms):
    """A term map under the inversion tau, which sends t_j to t_(n-1-j)."""
    return {e[::-1]: c for e, c in terms.items()}


@pytest.mark.parametrize("n", range(2, 8))
def test_inversion_takes_the_root_to_its_reciprocal(n):
    """(1 + s)(1 + tau(s)) = 1: the inversion sends the marked point
    u = 1 + s to u = 1/(1 + s)."""
    D = 8
    s = _series(moduli._point_data(n, D)[-1], n, D).terms
    one = {(0,) * n: 1}
    assert _plain_mul({**one, **s}, {**one, **_inverted(s)}, D) == one


@pytest.mark.parametrize("n", range(2, 8))
def test_inversion_takes_R0_to_the_last_part_over_the_derivative(n):
    """tau(R_0) = theta_(n-1)/Theta' at p_0, where R_0 = -theta_0/Theta'."""
    D = 8
    th, _, _, inv_dth_full, r0, _ = moduli._point_data(n, D)
    rhs = _plain_mul(_series(th[n - 1], n, D).terms, _series(inv_dth_full, n, D).terms, D)
    assert _inverted(_series(r0, n, D).terms) == rhs


@pytest.mark.parametrize("n, D", [(3, 24), (4, 16)])
def test_inversion_identities_at_a_reach_size(n, D):
    """(1 + s)(1 + tau(s)) = 1 and tau(R_0) = theta_(n-1)/Theta' far
    beyond D = 8."""
    th, _, _, inv_dth_full, r0, s = moduli._point_data(n, D)
    s = _series(s, n, D)
    one = {(0,) * n: 1}
    assert _plain_mul({**one, **s.terms}, {**one, **_inverted(s.terms)}, D) == one
    rhs = _plain_mul(_series(th[n - 1], n, D).terms, _series(inv_dth_full, n, D).terms, D)
    assert _inverted(_series(r0, n, D).terms) == rhs


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inversion_fixes_the_diagonal_b0(n):
    """tau(b_0) = b_0, for b_0 = theta'_(n-1)/theta_(n-1) - theta'_0/theta_0
    at p_0: checked as b_0 theta_(n-1) theta_0 = theta'_(n-1) theta_0 -
    theta'_0 theta_(n-1), on the parts _point_data gives, with no
    inversion."""
    D = 12
    th, dth, *_ = moduli._point_data(n, D)
    part = {l: _series(th[l], n, D).terms for l in (0, n - 1)}
    dpart = {l: _series(dth[l], n, D).terms for l in (0, n - 1)}
    b0 = coords_b(n, D)[1][0].terms
    assert _inverted(b0) == b0
    want = _plain_mul(dpart[n - 1], part[0], D)
    for e, c in _plain_mul(dpart[0], part[n - 1], D).items():
        want[e] = want.get(e, 0) - c
    lhs = _plain_mul(_plain_mul(b0, part[n - 1], D), part[0], D)
    assert lhs == {e: c for e, c in want.items() if c}
