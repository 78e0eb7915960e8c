"""Root series, marked-point residues, and the b/c coordinate series."""

import json
import os
import pathlib
import random
from fractions import Fraction

import pytest

from mirror_ring import moduli
from mirror_ring.moduli import (
    ULaurent,
    coords_b,
    coords_c,
    d_log_derivative,
    diagonal_routes,
    eval_at_p0,
    residue_R,
    solve_s,
    theta_chart0,
    theta_full_chart0,
)
from mirror_ring.series import TruncSeries

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


def test_residue_cross_check_neighbor_chart():
    """Recompute R_1 for n=2 inside the next chart and compare with the
    rotation route.  The neighboring chart sees the same point as its own
    base point with rotated gluing parameters."""
    n, D = 2, 3
    s1 = solve_s(n, D).rotate(-1)
    th1 = [moduli._theta_chart(l, 1, n, D) for l in range(n)]

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


def test_coords_b_shape_and_constants():
    for n, D in ((2, 4), (3, 3), (4, 2)):
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


def test_coords_integer_coefficients():
    for n in (2, 3):
        b_off, b_diag = coords_b(n, 4)
        series = list(b_off.values()) + list(b_diag.values())
        if n >= 3:
            series += list(coords_c(n, 4).values())
        for v in series:
            for _, c in v.iter_terms():
                assert isinstance(c, int) or c.denominator == 1


def test_diagonal_routes_agree_exactly_for_two_components():
    r_main, r_alt = diagonal_routes(2, 6)
    assert r_main == r_alt


def test_diagonal_routes_split_at_first_order_beyond():
    """With three or more marked points the residue-weighted form and the
    ratio-difference form share only the constant term; the leading gap
    is pinned here so any change to it is visible."""
    r_main, r_alt = diagonal_routes(3, 3)
    diff = r_main.sub(r_alt)
    assert diff.constant_term() == 0
    assert not diff.is_zero()
    deg1 = TruncSeries(3, 3, {e: c for e, c in diff.iter_terms() if sum(e) == 1})
    assert deg1 == t_var(1, 3, 3).sub(t_var(0, 3, 3))


def test_coords_c_case_formula_constants():
    for n in (3, 4):
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
