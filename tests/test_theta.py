"""The graded product in the canonical basis: closed-form route."""

import json
import os
import pathlib
import random
from fractions import Fraction

import pytest

from mirror_ring import plgeom, theta
from mirror_ring.series import TruncSeries
from mirror_ring.theta import (
    RingElement,
    ThetaIndex,
    basis_indices,
    build_table,
    canonical_p,
    check_associativity,
    hilbert_dimension,
    specialize_ngon,
    theta_product,
)

SEED = int(os.environ.get("MIRROR_RING_SEED", "434019"))
GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_canonical_p():
    assert canonical_p(1, 5, 3) == 2
    assert canonical_p(2, Fraction(-1, 2), 2) == Fraction(3, 2)
    assert canonical_p(1, 0, 1) == 0
    with pytest.raises(ValueError):
        canonical_p(2, Fraction(1, 3), 2)


def test_basis_and_hilbert():
    assert hilbert_dimension(4, 1) == 4
    assert hilbert_dimension(3, 2) == 6
    assert hilbert_dimension(1, 7) == 7
    assert hilbert_dimension(5, 0) == 1
    with pytest.raises(ValueError):
        hilbert_dimension(2, -1)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            labels = basis_indices(n, m)
            assert len(labels) == hilbert_dimension(n, m)
            assert len(set(labels)) == len(labels)
            for lab in labels:
                assert 0 <= lab.p < n and (lab.m * lab.p).denominator == 1


def test_one_variable_square():
    """Weight-1 generator squared at n=1, low truncation."""
    a = ThetaIndex.make(1, 0, 1)
    out = theta_product(a, a, 1, 4)
    assert out.m == 2
    assert sorted(out.coeffs) == [Fraction(0), Fraction(1, 2)]
    assert out.coeffs[Fraction(0)] == TruncSeries(1, 4, {(0,): 1, (1,): 2, (4,): 2})
    assert out.coeffs[Fraction(1, 2)] == TruncSeries(1, 4, {(0,): 2, (2,): 2})


def test_weight_additivity():
    rng = random.Random(SEED)
    for _ in range(30):
        n = rng.randrange(1, 4)
        m1, m2 = rng.randrange(1, 3), rng.randrange(1, 3)
        a = ThetaIndex.make(m1, Fraction(rng.randrange(0, m1 * n), m1), n)
        b = ThetaIndex.make(m2, Fraction(rng.randrange(0, m2 * n), m2), n)
        out = theta_product(a, b, n, 3)
        assert out.m == m1 + m2
        for p in out.coeffs:
            assert 0 <= p < n


def test_truncation_zero_keeps_only_flat_terms():
    rng = random.Random(SEED + 1)
    for _ in range(25):
        n = rng.randrange(1, 4)
        a = ThetaIndex.make(1, rng.randrange(0, n), n)
        b = ThetaIndex.make(1, rng.randrange(0, n), n)
        flat = theta_product(a, b, n, 0)
        full = theta_product(a, b, n, 5)
        for p, s in flat.coeffs.items():
            assert s.constant_term() == full.coeffs[p].constant_term()
            assert all(sum(e) == 0 for e in s.terms)


def _product_with_extra_window(a, b, n, D, extra):
    """Same sum as theta_product but over an enlarged k-window."""
    base = plgeom.admissible_k_range(n, a.m, a.p, b.m, b.p, D)
    out = RingElement(a.m + b.m, n, D)
    for k in range(min(base) - extra, max(base) + extra + 1):
        exps = tuple(plgeom.t_exponent(n, a.m, a.p, b.m, b.p, k, j) for j in range(n))
        if sum(exps) > D:
            continue
        p3 = plgeom.average_E(a.m, a.p, b.m, b.p + k * n)
        out.add_term(p3, TruncSeries(n, D, {exps: 1}))
    return out


def test_window_doubling_changes_nothing():
    rng = random.Random(SEED + 2)
    for _ in range(30):
        n = rng.randrange(1, 4)
        m1, m2 = rng.randrange(1, 3), rng.randrange(1, 3)
        a = ThetaIndex.make(m1, Fraction(rng.randrange(0, m1 * n), m1), n)
        b = ThetaIndex.make(m2, Fraction(rng.randrange(0, m2 * n), m2), n)
        D = rng.randrange(0, 6)
        assert theta_product(a, b, n, D) == _product_with_extra_window(a, b, n, D, 6)


def test_table_counts_and_symmetry():
    table = build_table(2, 1, 2)
    assert len(table.entries) == 4
    for (a, b), elem in table.entries.items():
        assert elem.m == a.m + b.m
        assert elem == table.entries[(b, a)]


def test_table_symmetry_wider():
    table = build_table(3, 2, 3)
    for (a, b), elem in table.entries.items():
        assert elem == table.entries[(b, a)]


def test_rotation_equivariance_of_table():
    for n in (2, 3):
        table = build_table(n, 2, 4)
        for (a, b), elem in table.entries.items():
            a1 = ThetaIndex.make(a.m, a.p + 1, n)
            b1 = ThetaIndex.make(b.m, b.p + 1, n)
            shifted = table.entries[(a1, b1)]
            assert len(shifted.coeffs) == len(elem.coeffs)
            for p3, s in elem.coeffs.items():
                p3s = canonical_p(elem.m, p3 + 1, n)
                assert shifted.coeffs[p3s] == s.rotate(1), (n, a, b, p3)


def test_associativity_reports():
    rep = check_associativity(1, 5, (1, 1, 1))
    assert rep["failures"] == [] and rep["triples_checked"] == 1
    rep = check_associativity(3, 4, (1, 1, 1))
    assert rep["failures"] == [] and rep["triples_checked"] == 27


def test_associativity_detects_corruption(monkeypatch):
    good = plgeom.t_exponent

    def crooked(n, m1, p1, m2, p2, k, j):
        val = good(n, m1, p1, m2, p2, k, j)
        if (m1, m2, k, j) == (2, 1, 1, 0):
            return val + 1
        return val

    monkeypatch.setattr(theta, "_exponent", crooked)
    rep = check_associativity(1, 5, (1, 1, 1))
    assert rep["failures"], "corrupted exponent slipped through"


def test_associativity_one_product_per_pair(monkeypatch):
    calls = []
    real = theta.theta_product

    def counted(a, b, n, D):
        calls.append((a, b))
        return real(a, b, n, D)

    monkeypatch.setattr(theta, "theta_product", counted)
    rep = check_associativity(3, 4, (1, 2, 1))
    assert rep["failures"] == [] and rep["triples_checked"] == 3 * 6 * 3
    assert len(calls) == len(set(calls)), "a basis pair was multiplied twice"
    # the memo lives for one call only
    check_associativity(3, 4, (1, 2, 1))
    assert len(calls) == 2 * len(set(calls))


def test_commutativity_exhaustive_small():
    for n in (1, 2, 3):
        for m1 in (1, 2):
            for m2 in (1, 2):
                for a in basis_indices(n, m1):
                    for b in basis_indices(n, m2):
                        assert theta_product(a, b, n, 4) == theta_product(b, a, n, 4)


def test_specialize_one_variable():
    table = build_table(1, 1, 4)
    spec = specialize_ngon(table)
    a = ThetaIndex.make(1, 0, 1)
    assert spec[(a, a)] == {Fraction(0): 1, Fraction(1, 2): 2}


def test_specialize_rotation_invariance():
    table = build_table(3, 1, 2)
    spec = specialize_ngon(table)
    for (a, b), consts in spec.items():
        a1 = ThetaIndex.make(a.m, a.p + 1, 3)
        b1 = ThetaIndex.make(b.m, b.p + 1, 3)
        shifted = spec[(a1, b1)]
        assert shifted == {
            canonical_p(a.m + b.m, p + 1, 3): c for p, c in consts.items()
        }


def test_specialize_against_golden():
    data = json.loads((GOLDEN / "ngon_tables.json").read_text())
    for n in (1, 2, 3, 4):
        table = build_table(n, 2, 2)
        spec = specialize_ngon(table)
        got = {}
        for (a, b), consts in spec.items():
            key = f"{a.m},{a.p}|{b.m},{b.p}"
            got[key] = {str(p): c for p, c in sorted(consts.items())}
        assert got == data[str(n)], f"n-gon table drifted at n={n}"


def test_json_schema_shape():
    table = build_table(2, 1, 2)
    obj = table.to_json_obj()
    assert set(obj) == {"n", "D", "entries"}
    assert obj["n"] == 2 and obj["D"] == 2
    entry = obj["entries"][0]
    assert set(entry) == {"a", "b", "result"}
    assert set(entry["a"]) == {"m", "p"}
    assert isinstance(entry["a"]["p"], str) and "/" in entry["a"]["p"]
    part = entry["result"][0]
    assert set(part) == {"p", "series"}
    assert set(part["series"]) == {"n", "D", "terms"}
    # sorted by (m1, p1, m2, p2)
    keys = [
        (e["a"]["m"], e["a"]["p"], e["b"]["m"], e["b"]["p"]) for e in obj["entries"]
    ]
    parsed = [
        (m1, Fraction(p1), m2, Fraction(p2)) for m1, p1, m2, p2 in keys
    ]
    assert parsed == sorted(parsed)


def test_csv_layout():
    table = build_table(1, 1, 3)
    text = table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "m1,p1,m2,p2,p_out,exponents,coeff"
    assert all(line.count(",") == 6 for line in lines[1:])
