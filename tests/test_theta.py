"""The graded product in the canonical basis: closed-form route."""

import json
import math
import os
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirror_ring import cli, floer, plgeom, series, theta
from mirror_ring.series import TruncSeries, _pack, _unpack
from mirror_ring.theta import (
    RingElement,
    ThetaIndex,
    basis_indices,
    basis_pairs,
    build_table,
    check_associativity,
    class_text,
    hilbert_dimension,
    specialize_ngon,
    theta_product,
)
from run_kernels import lifted

SEED = int(os.environ.get("MIRROR_RING_SEED", "434019"))
GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_make_reduces_the_class():
    assert ThetaIndex.make(1, 5, 3) == ThetaIndex(1, 2)
    assert ThetaIndex.make(2, Fraction(-1, 2), 2) == ThetaIndex(2, 3)
    assert ThetaIndex.make(2, Fraction(-1, 2), 2).p == Fraction(3, 2)
    assert ThetaIndex.make(1, 0, 1) == ThetaIndex(1, 0)
    with pytest.raises(ValueError):
        ThetaIndex.make(2, Fraction(1, 3), 2)


def test_make_takes_int_and_fraction():
    """Ints and Fractions give the same label, whose class is
    p - n*floor(p/n), held as the integer m*p in [0, m*n)."""
    for m in range(1, 5):
        for n in range(1, 5):
            for a in range(-3 * m * n, 3 * m * n + 1):
                p = Fraction(a, m)
                want = p - n * math.floor(p / n)
                got = ThetaIndex.make(m, p, n)
                assert type(got.a) is int and 0 <= got.a < m * n
                assert type(got.p) is Fraction and got.p == want and got.a == m * want
                if p.denominator == 1:
                    assert ThetaIndex.make(m, a // m, n) == got
    for m, p in [(2, Fraction(1, 3)), (3, Fraction(-5, 6)), (1, Fraction(7, 2))]:
        with pytest.raises(ValueError):
            ThetaIndex.make(m, p, 4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    a=st.integers(-10**6, 10**6),
)
def test_make_reduces_any_class(m, n, a):
    """Beyond the grid: the integer class lands in [0, m*n), moves p by a
    multiple of n, and spells p as Fraction does."""
    p = Fraction(a, m)
    idx = ThetaIndex.make(m, p, n)
    assert type(idx.a) is int and 0 <= idx.a < m * n
    assert ((p - idx.p) / n).denominator == 1
    assert class_text(idx.a, m) == f"{idx.p.numerator}/{idx.p.denominator}"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(-10**6, 10**6)),
        max_size=30,
    )
)
def test_labels_sort_as_weight_then_class(triples):
    labels = [ThetaIndex.make(m, Fraction(a, m), n) for m, n, a in triples]
    assert sorted(labels) == sorted(labels, key=lambda x: (x.m, x.p))


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


def test_basis_needs_a_positive_weight():
    """A weight below 1 has no basis labels to give: it is refused, not
    read as an empty basis, so an associativity report at such a weight
    does not pass having checked no triple."""
    for m in (0, -1):
        with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
            basis_indices(2, m)
    for weights in [(0, 1, 1), (1, 1, 0), (1, -1, 1)]:
        m = min(weights)
        with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
            check_associativity(2, 3, weights)
    for max_m in (0, -1):
        with pytest.raises(ValueError, match=f"max_m must be >= 1, got {max_m}"):
            theta.associativity_sweep(2, max_m, 3)


@pytest.mark.parametrize("n", [0, -1, -2])
def test_basis_needs_a_positive_n(n):
    """With fewer than one marked point there is no basis either: the
    labels, a label with a p signature (not reduced mod m*n <= 0), an
    associativity report, a table and the rank of a graded piece refuse
    it rather than pass having checked nothing or count m*n <= 0: the
    associativity loops run over range(m*n), which would be empty."""
    with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
        basis_indices(n, 1)
    with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
        ThetaIndex.make(1, 0, n)
    with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
        check_associativity(n, 4, (1, 1, 1))
    with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
        theta.associativity_sweep(n, 2, 4)
    with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
        build_table(n, 1, 2)
    with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
        hilbert_dimension(n, 1)


def test_one_variable_square():
    """Weight-1 generator squared at n=1, low truncation."""
    a = ThetaIndex.make(1, 0, 1)
    out = theta_product(a, a, 1, 4)
    assert out.m == 2
    # the classes p = 0 and p = 1/2, held as a = m*p = 0 and 1
    assert sorted(out.coeffs) == [0, 1]
    assert out.coeffs[0] == TruncSeries(1, 4, {(0,): 1, (1,): 2, (4,): 2})
    assert out.coeffs[1] == TruncSeries(1, 4, {(0,): 2, (2,): 2})


def test_weight_additivity():
    rng = random.Random(SEED)
    for _ in range(30):
        n = rng.randrange(1, 4)
        m1, m2 = rng.randrange(1, 3), rng.randrange(1, 3)
        a = ThetaIndex.make(m1, Fraction(rng.randrange(0, m1 * n), m1), n)
        b = ThetaIndex.make(m2, Fraction(rng.randrange(0, m2 * n), m2), n)
        out = theta_product(a, b, n, 3)
        assert out.m == m1 + m2
        for a3 in out.coeffs:
            assert type(a3) is int and 0 <= a3 < out.m * n


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
    m3 = a.m + b.m
    classes = {}
    for k in range(min(base) - extra, max(base) + extra + 1):
        exps = tuple(plgeom.t_exponent(n, a.m, a.p, b.m, b.p, k, j) for j in range(n))
        if sum(exps) > D:
            continue
        p3 = plgeom.average_E(a.m, a.p, b.m, b.p + k * n)
        terms = classes.setdefault(plgeom.scaled_index(m3, p3) % (m3 * n), {})
        terms[exps] = terms.get(exps, 0) + 1
    out = RingElement(m3, n, D)
    out.coeffs = {a3: TruncSeries(n, D, terms) for a3, terms in classes.items()}
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


def every_pair(n, max_m, D, product=theta_product) -> dict:
    """Every ordered basis pair multiplied by the product itself.  A table
    from build_table derives most entries by commutativity and rotation,
    so the laws are read off this dict instead."""
    return {(a, b): product(a, b, n, D) for a, b in basis_pairs(n, max_m)}


def test_table_counts_and_symmetry():
    assert len(build_table(2, 1, 2).entries) == 4
    table = every_pair(2, 1, 2)
    assert len(table) == 4
    for (a, b), elem in table.items():
        assert elem.m == a.m + b.m
        assert elem == table[(b, a)]


def test_table_symmetry_wider():
    table = every_pair(3, 2, 3)
    for (a, b), elem in table.items():
        assert elem == table[(b, a)]


def test_rotation_equivariance_of_table():
    for n in (2, 3):
        table = every_pair(n, 2, 4)
        for (a, b), elem in table.items():
            a1 = ThetaIndex.make(a.m, a.p + 1, n)
            b1 = ThetaIndex.make(b.m, b.p + 1, n)
            shifted = table[(a1, b1)]
            assert len(shifted.coeffs) == len(elem.coeffs)
            for a3, s in elem.coeffs.items():
                a3s = ThetaIndex.make(elem.m, Fraction(a3, elem.m) + 1, n).a
                assert shifted.coeffs[a3s] == s.rotate(1), (n, a, b, a3)


def _route(mode):
    """The product of one route, with the (a, b, n, D) signature of
    build_table."""
    if mode == "theta":
        return theta_product

    def product(a, b, n, D):
        return floer.floer_product(n, a.m, a.p, b.m, b.p, D, mode)

    return product


@pytest.mark.parametrize("mode", ["theta", "direct", "brion"])
def test_orbit_table_equals_every_pair(mode):
    """The table derived from orbit representatives equals every ordered
    pair multiplied directly, entry for entry and in basis_pairs order."""
    product = _route(mode)
    for n in range(1, 5):
        for max_m in range(1, 4):
            table = build_table(n, max_m, 6, product=product)
            want = every_pair(n, max_m, 6, product)
            assert list(table.entries) == list(want), (mode, n, max_m)
            assert table.entries == want, (mode, n, max_m)


def test_build_table_multiplies_once_per_orbit():
    """product runs once per orbit of ordered pairs under the swap, the
    diagonal shift and the reflection, on the orbit's first pair in
    basis_pairs order, and (a, b) and (b, a) hold one element."""
    n, max_m = 5, 4
    calls = []

    def counted(a, b, nn, D):
        calls.append((a, b))
        return theta_product(a, b, nn, D)

    table = build_table(n, max_m, 2, product=counted)
    firsts, seen = [], set()
    for a, b in basis_pairs(n, max_m):
        if (a, b) in seen:
            continue
        firsts.append((a, b))
        for sign in (1, -1):
            for r in range(n):
                ar = ThetaIndex.make(a.m, sign * a.p + r, n)
                br = ThetaIndex.make(b.m, sign * b.p + r, n)
                seen |= {(ar, br), (br, ar)}
    assert len(calls) == 149
    assert calls == firsts
    for a, b in basis_pairs(n, max_m):
        assert table.entries[(a, b)] is table.entries[(b, a)]


def test_json_converts_each_entry_in_key_order():
    """Each entry is its labels' and its element's own conversion, in
    sorted key order, and (a, b) and (b, a) read equal results."""
    table = build_table(3, 2, 3)
    obj = table.to_json_obj()
    keys = table.sorted_keys()
    assert [(e["a"], e["b"]) for e in obj["entries"]] == [
        (a.to_json_obj(), b.to_json_obj()) for a, b in keys
    ]
    results = [entry["result"] for entry in obj["entries"]]
    assert results == [table.entries[key].to_json_obj() for key in keys]
    by_pair = {
        (e["a"]["m"], e["a"]["p"], e["b"]["m"], e["b"]["p"]): e["result"]
        for e in obj["entries"]
    }
    for (m1, p1, m2, p2), result in by_pair.items():
        assert by_pair[(m2, p2, m1, p1)] == result


def test_associativity_reports():
    rep = check_associativity(1, 5, (1, 1, 1))
    assert rep["failures"] == [] and rep["triples_checked"] == 1
    rep = check_associativity(3, 4, (1, 1, 1))
    assert rep["failures"] == [] and rep["triples_checked"] == 27


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: theta_product(ThetaIndex(1, 0), ThetaIndex(1, 1), 2, -1), id="theta_product"),
        pytest.param(lambda: build_table(2, 1, -1), id="build_table"),
        pytest.param(lambda: check_associativity(2, -1, (1, 1, 1)), id="check_associativity"),
        pytest.param(lambda: floer.floer_product(2, 1, 0, 1, 0, -1, "direct"), id="floer_product"),
        pytest.param(lambda: floer.mirror_verify(2, 1, -1), id="mirror_verify"),
    ],
)
def test_negative_truncation_is_refused(call):
    """D < 0 keeps no term: a ValueError naming D, not a table whose D
    TruncSeries refuses, nor triples or pairs checked with no failure."""
    with pytest.raises(ValueError, match="truncation order must be >= 0, got D=-1"):
        call()


def _bump_at_2_1_1(good):
    """Slot 0 of the k = 1 term of every (m1, m2) = (2, 1) product goes up
    by 1."""

    def crooked(n, m1, a1, m2, a2, k):
        exps = good(n, m1, a1, m2, a2, k)
        if (m1, m2, k) == (2, 1, 1):
            return (exps[0] + 1,) + exps[1:]
        return exps

    return crooked


def test_associativity_detects_corruption(monkeypatch):
    monkeypatch.setattr(
        plgeom, "lambda_exponents", lifted(plgeom.lambda_exponents, _bump_at_2_1_1)
    )
    rep = check_associativity(1, 5, (1, 1, 1))
    assert rep["failures"], "corrupted exponent slipped through"


def _counted_term_maps(monkeypatch):
    """Wrap the memo's term-map stage, theta.assemble, so each call
    appends its pair (m1, a1, m2, a2) to the list returned."""
    calls = []
    real = theta.assemble

    def counted(n, m1, a1, m2, a2, D, kernel):
        calls.append((m1, a1, m2, a2))
        return real(n, m1, a1, m2, a2, D, kernel)

    monkeypatch.setattr(theta, "assemble", counted)
    return calls


def test_associativity_one_product_per_pair(monkeypatch):
    calls = _counted_term_maps(monkeypatch)
    rep = check_associativity(3, 4, (1, 2, 1))
    assert rep["failures"] == [] and rep["triples_checked"] == 3 * 6 * 3
    assert calls, "no term map was made"
    assert len(calls) == len(set(calls)), "a basis pair was multiplied twice"
    # the memo lives for one call only
    check_associativity(3, 4, (1, 2, 1))
    assert len(calls) == 2 * len(set(calls))
    # a sweep makes each weight pair's table once: 459 term maps at (3, 2, 6)
    calls.clear()
    assert all(rep["failures"] == [] for rep in theta.associativity_sweep(3, 2, 6))
    assert len(calls) == len(set(calls)) == 459


def test_passing_sweep_builds_no_series(monkeypatch):
    """The memo packs each kernel term map straight from assemble: a
    passing sweep makes no RingElement and no TruncSeries, which only a
    failure entry needs."""

    def refuse(*args, **kwargs):
        raise AssertionError("a passing sweep built a product")

    monkeypatch.setattr(theta, "_element", refuse)
    monkeypatch.setattr(TruncSeries, "_raw", classmethod(refuse))
    monkeypatch.setattr(TruncSeries, "__init__", refuse)
    monkeypatch.setattr(RingElement, "__init__", refuse)
    reps = theta.associativity_sweep(3, 2, 6)
    assert len(reps) == 8 and all(rep["failures"] == [] for rep in reps)


def _weight_triples(max_m):
    weights = range(1, max_m + 1)
    return [(m1, m2, m3) for m1 in weights for m2 in weights for m3 in weights]


def _swept_and_one_by_one(n, max_m, D):
    one_by_one = [check_associativity(n, D, weights) for weights in _weight_triples(max_m)]
    return theta.associativity_sweep(n, max_m, D), one_by_one


@pytest.mark.parametrize("n, max_m, D", [(1, 3, 8), (3, 2, 6), (4, 2, 5)])
def test_associativity_sweep_is_check_associativity_per_triple(n, max_m, D):
    swept, one_by_one = _swept_and_one_by_one(n, max_m, D)
    assert swept == one_by_one and len(swept) == max_m ** 3
    assert all(rep["failures"] == [] for rep in swept)


def test_associativity_sweep_reports_the_same_failures(monkeypatch):
    """Under the crooked exponents of test_associativity_detects_corruption
    the shared memo changes no report, failure entries included."""
    monkeypatch.setattr(
        plgeom, "lambda_exponents", lifted(plgeom.lambda_exponents, _bump_at_2_1_1)
    )
    for n, max_m, D in [(1, 3, 8), (2, 2, 5)]:
        swept, one_by_one = _swept_and_one_by_one(n, max_m, D)
        assert swept == one_by_one
        assert any(rep["failures"] for rep in swept)


# The associativity check the package used before each basis product
# became one flat row list coded by class, kept here as the tests' own
# reference: a term map packed class by class, a memo keyed by the four
# integers (m1, a1, m2, a2), and a compose that loops over the classes of
# both factors and reads the second through a callable.


def _ref_packed(classes, D):
    base = D + 1
    out = {}
    for a3, terms in classes.items():
        rows = []
        for exps, c in terms.items():
            k = 0
            for x in exps:
                k = k * base + x
            rows.append((sum(exps), k, c))
        rows.sort()
        out[a3] = rows
    return out


def _ref_compose(first, second, D):
    out = {}
    for x, outer in first.items():
        for a3, inner in second(x).items():
            acc = None
            for d1, k1, c1 in outer:
                room = D - d1
                for d2, k2, c2 in inner:
                    if d2 > room:
                        break
                    if acc is None:
                        acc = out.setdefault(a3, {})
                    k = k1 + k2
                    acc[k] = acc.get(k, 0) + c1 * c2
    return out


def _ref_memo(n, D):
    memo = {}

    def terms(m1, a1, m2, a2):
        key = (m1, a1, m2, a2)
        if key not in memo:
            classes = theta.assemble(n, m1, a1, m2, a2, D, plgeom.lambda_exponents)
            memo[key] = _ref_packed(classes, D)
        return memo[key]

    return terms


def _ref_side(m, n, D, classes):
    return theta._element(m, n, D, {a3: _unpack([k], n, D) for a3, k in classes.items()})


def _ref_associativity(n, D, weights, terms):
    m1, m2, m3 = weights
    m12, m23 = m1 + m2, m2 + m3
    failures = []
    checked = 0
    for a in range(m1 * n):
        for b in range(m2 * n):
            ab = terms(m1, a, m2, b)
            for c in range(m3 * n):
                left = _ref_compose(ab, lambda x: terms(m12, x, m3, c), D)
                right = _ref_compose(terms(m2, b, m3, c), lambda x: terms(m1, a, m23, x), D)
                checked += 1
                if left != right:
                    failures.append(
                        {
                            "a": ThetaIndex(m1, a).to_json_obj(),
                            "b": ThetaIndex(m2, b).to_json_obj(),
                            "c": ThetaIndex(m3, c).to_json_obj(),
                            "left": _ref_side(m12 + m3, n, D, left).to_json_obj(),
                            "right": _ref_side(m12 + m3, n, D, right).to_json_obj(),
                        }
                    )
    return {
        "n": n,
        "D": D,
        "weights": list(weights),
        "triples_checked": checked,
        "failures": failures,
    }


def _moved_term(good):
    """theta.assemble with one term of the pair x_{1,0} * x_{1,0} moved to
    the next class up, mod 2n, its exponents unchanged: the term of least
    exponents in the least class."""

    def crooked(n, m1, a1, m2, a2, D, kernel):
        classes = {a3: dict(terms) for a3, terms in good(n, m1, a1, m2, a2, D, kernel).items()}
        if (m1, a1, m2, a2) == (1, 0, 1, 0):
            a3 = min(classes)
            exps = min(classes[a3])
            c = classes[a3].pop(exps)
            if not classes[a3]:
                del classes[a3]
            terms = classes.setdefault((a3 + 1) % (2 * n), {})
            terms[exps] = terms.get(exps, 0) + c
        return classes

    return crooked


@pytest.mark.parametrize("fault", ["none", "bump_at_2_1_1", "moved_term"])
@pytest.mark.parametrize("n, max_m, D", [(1, 3, 8), (2, 2, 5), (3, 2, 6), (4, 2, 7)])
def test_associativity_matches_the_grouped_reference(monkeypatch, fault, n, max_m, D):
    """associativity_sweep and check_associativity give the reference's
    reports, failure entries included, with the true exponents, under the
    crooked exponents of test_associativity_detects_corruption, and with
    one term of one product moved to another class."""
    if fault == "bump_at_2_1_1":
        crooked = lifted(plgeom.lambda_exponents, _bump_at_2_1_1)
        monkeypatch.setattr(plgeom, "lambda_exponents", crooked)
    elif fault == "moved_term":
        monkeypatch.setattr(theta, "assemble", _moved_term(theta.assemble))
    triples = _weight_triples(max_m)
    terms = _ref_memo(n, D)
    expect = [_ref_associativity(n, D, weights, terms) for weights in triples]
    assert theta.associativity_sweep(n, max_m, D) == expect
    assert [check_associativity(n, D, weights) for weights in triples] == expect
    assert any(rep["failures"] for rep in expect) == (fault != "none")


@pytest.mark.parametrize("n, max_m, D", [(1, 3, 8), (3, 2, 6)])
def test_memo_rows_read_back_to_the_term_maps(monkeypatch, n, max_m, D):
    """Every memo row of every product a sweep reads, split by
    divmod(key, B) into its class and series._pack key and that key read
    by series._exponents, gives back theta.assemble's term map, with its
    class below (m1+m2)*n and its degree the row's.  At n = 1 a slot
    reaches D, the largest digit, where a carry would first show."""
    made = {}
    real = theta._product_memo

    def recording(n, D):
        products = real(n, D)

        def record(m1, m2):
            made[m1, m2] = products(m1, m2)
            return made[m1, m2]

        return record

    monkeypatch.setattr(theta, "_product_memo", recording)
    theta.associativity_sweep(n, max_m, D)
    weights = range(1, max_m + 1)
    pairs = {(m1, m2) for m1 in weights for m2 in weights}
    pairs |= {(m1 + m2, m3) for m1, m2 in pairs for m3 in weights}
    pairs |= {(m1, m2 + m3) for m1 in weights for m2 in weights for m3 in weights}
    assert set(made) == pairs
    B = (D + 1) ** n
    top = 0
    for (m1, m2), table in made.items():
        assert len(table) == m1 * n and all(len(row) == m2 * n for row in table)
        for a1, row in enumerate(table):
            for a2, rows in enumerate(row):
                assert rows == sorted(rows)
                classes = {}
                for d, k, c in rows:
                    a3, key = divmod(k, B)
                    exps = series._exponents(key, n, D + 1)
                    assert a3 < (m1 + m2) * n and sum(exps) == d
                    classes.setdefault(a3, {})[exps] = c
                    top = max(top, *exps)
                assert classes == theta.assemble(n, m1, a1, m2, a2, D, plgeom.lambda_exponents)
    if n == 1:
        assert top == D


def _class_moved_at_k1(n, m1, a1, m2, D, b2s, row):
    """theta.product_terms with the term at k = 1 landing on its class
    moved by m3 = m1 + m2, that is p3 moved by 1: a fault that every route
    shares, since each makes its product there."""
    m3, w = m1 + m2, m2 * n
    classes = {}
    for b2, exps in zip(b2s, row):
        if sum(exps) <= D:
            terms = classes.setdefault((a1 + b2 + m3 * (b2 // w == 1)) % (m3 * n), {})
            terms[exps] = terms.get(exps, 0) + 1
    return classes


@pytest.mark.parametrize("n, max_m, D", [(2, 2, 5), (3, 2, 6)])
def test_assoc_sees_an_output_class_moved_at_one_k(monkeypatch, tmp_path, n, max_m, D):
    """The fault-matrix seed fault of the output class in product_terms
    moved by m3 at one k: the assoc report fails.  At n = 1 a move by m3
    is the identity mod m3*n, so there is no fault to see."""
    monkeypatch.setattr(theta, "product_terms", _class_moved_at_k1)
    out = tmp_path / "assoc.json"
    argv = ["assoc", "--n", str(n), "--max-m", str(max_m), "--trunc", str(D), "-o", str(out)]
    assert cli.main(argv) == 1
    reports = json.loads(out.read_text())["reports"]
    assert sum(len(rep["failures"]) for rep in reports) > 0


def test_assoc_run_makes_one_product_per_pair(monkeypatch, tmp_path):
    """One assoc run makes each ordered basis pair's term map once across
    all its weight triples: 459 at (3, 2, 6), where a memo per triple
    made 927.  The library sweep, whose memo is keyed by the integers
    (m1, a1, m2, a2), calls theta.assemble as often."""
    calls = _counted_term_maps(monkeypatch)
    out = tmp_path / "assoc.json"
    argv = ["assoc", "--n", "3", "--max-m", "2", "--trunc", "6", "-o", str(out)]
    assert cli.main(argv) == 0
    assert len(calls) == len(set(calls)) == 459
    calls.clear()
    assert all(rep["failures"] == [] for rep in theta.associativity_sweep(3, 2, 6))
    assert len(calls) == len(set(calls)) == 459
    with pytest.raises(ValueError, match="max_m must be >= 1, got 0"):
        theta.associativity_sweep(3, 0, 6)


def _expanded(first, second, n, D):
    """sum_x first[x] * second(x) as the series arithmetic spells it: each
    class of first times each class of a basis product by TruncSeries.mul,
    summed into its output class by .add, a class that sums to zero
    dropped; returned as a term map."""
    out = {}
    for x, outer in first.items():
        s = TruncSeries(n, D, outer)
        for a3, inner in second(x).items():
            prod = TruncSeries(n, D, inner).mul(s)
            acc = out[a3].add(prod) if a3 in out else prod
            if acc.is_zero():
                out.pop(a3, None)
            else:
                out[a3] = acc
    return {a3: s.terms for a3, s in out.items()}


def _random_term_map(rng, n, D, classes):
    """Up to four terms with counts 1..3 in each of the given classes."""
    out = {}
    for a in classes:
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            e = [0] * n
            for _ in range(rng.randrange(0, D + 1)):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = rng.randrange(1, 4)
        out[a] = terms
    return out


@st.composite
def term_maps(draw):
    """(n, D, term map): up to four classes of up to six terms each, every
    exponent vector of total degree <= D, counts 1..5."""
    n, D = draw(st.integers(1, 6)), draw(st.integers(0, 12))
    raw = st.lists(st.integers(0, D), min_size=n, max_size=n)

    def capped(xs):
        out, room = [], D
        for x in xs:
            out.append(min(x, room))
            room -= out[-1]
        return tuple(out)

    terms = st.dictionaries(raw.map(capped), st.integers(1, 5), min_size=1, max_size=6)
    return n, D, draw(st.dictionaries(st.integers(0, 40), terms, max_size=4))


def _rows(classes, n, D):
    """A term map {a3: {exponents: count}} as the memo's rows: every term
    as (degree, a3*B + key, count), B = (D+1)**n and key the term's
    series._pack key, sorted by degree."""
    B = (D + 1) ** n
    return sorted(
        (d, a3 * B + k, c)
        for a3, terms in classes.items()
        for d, bucket in enumerate(_pack(terms, D))
        for k, c in bucket.items()
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(term_maps())
def test_packed_rows_are_the_pack_buckets_in_degree_order(case):
    """The memo gives each product the (degree, key, count) rows of
    series._pack's buckets of every class, the class a3 as the digit above
    the key, in degree order; theta._unpacked, which reads failure entries
    back through series._unpack, returns the terms from the keys."""
    n, D, classes = case
    B = (D + 1) ** n
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theta, "assemble", lambda *args: classes)
        table = theta._product_memo(n, D)(1, 1)
    assert len(table) == n and all(len(row) == n for row in table)
    for rows in (rows for row in table for rows in row):
        degrees = [d for d, _, _ in rows]
        assert degrees == sorted(degrees)
        assert rows == _rows(classes, n, D)
        elem = theta._unpacked(2, n, D, B, {k: c for _, k, c in rows})
        assert {a3: s.terms for a3, s in elem.coeffs.items()} == classes


def _composed(first, second, n, D):
    """theta._compose on tuple-keyed term maps: both factors as memo rows,
    second(x) in a list at index x, the flat result read back to
    {a3: {exponents: count}} by theta._unpacked."""
    B = (D + 1) ** n
    factors = [[] for _ in range(max(first) + 1)]
    for x in first:
        factors[x] = _rows(second(x), n, D)
    got = theta._compose(_rows(first, n, D), factors, D, B)
    return {a3: s.terms for a3, s in theta._unpacked(1, n, D, B, got).coeffs.items()}


def test_compose_matches_the_series_expansion():
    """The packed term-map product check_associativity composes, unpacked,
    equals the expansion through TruncSeries.mul and .add, on seeded
    random term maps.  Class 0 of every second factor is one term of
    degree D and, for D > 0, no outer term is constant, so every term of
    class 0 truncates away and the class is not made."""
    rng = random.Random(SEED + 11)
    for n in range(1, 5):
        for D in range(0, 9):
            for _ in range(6):
                first = _random_term_map(rng, n, D, rng.sample(range(6), 3))
                factors = {x: _random_term_map(rng, n, D, range(1, 4)) for x in first}
                for x in first:
                    if D:
                        kept = {e: c for e, c in first[x].items() if any(e)}
                        first[x] = kept or {(1,) + (0,) * (n - 1): 1}
                    factors[x][0] = {(0,) * (n - 1) + (D,): 2}
                got = _composed(first, factors.__getitem__, n, D)
                assert got == _expanded(first, factors.__getitem__, n, D)
                assert (0 in got) == (D == 0)
            # and (a*b)*c over the products themselves
            m1, m2 = rng.randrange(1, 3), rng.randrange(1, 3)
            a, b = rng.choice(basis_indices(n, m1)), rng.choice(basis_indices(n, m2))
            c = rng.choice(basis_indices(n, rng.randrange(1, 3)))
            ab = {a3: s.terms for a3, s in theta_product(a, b, n, D).coeffs.items()}

            def times_c(x):
                elem = theta_product(ThetaIndex(m1 + m2, x), c, n, D)
                return {a3: s.terms for a3, s in elem.coeffs.items()}

            assert _composed(ab, times_c, n, D) == _expanded(ab, times_c, n, D)


@pytest.mark.parametrize("n", [1, 3])
def test_compose_keeps_degree_room_and_drops_room_plus_one(n):
    """With an outer term of degree 2 at D = 5, room is 3: an inner term
    of degree 3 is kept and one of degree 4 beside it drops, however the
    exponents sit in the packed key.  At D = 0 every term is a constant
    and the classes sum."""
    D = 5
    t = [(0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n)]

    def power(j, d):
        return tuple(d * x for x in t[j])

    first = {0: {power(n - 1, 2): 2}}
    inner = {7: {power(0, 3): 3, power(n - 1, 4): 5}, 8: {power(0, 4): 1}}
    got = _composed(first, {0: inner}.__getitem__, n, D)
    expect = {7: {tuple(map(sum, zip(power(n - 1, 2), power(0, 3)))): 6}}
    assert got == expect == _expanded(first, {0: inner}.__getitem__, n, D)
    # the degree-4 term drops even when it is listed first
    inner = {7: {power(n - 1, 4): 5, power(0, 3): 3}}
    assert _composed(first, {0: inner}.__getitem__, n, D) == expect

    zero = (0,) * n
    first = {0: {zero: 2}, 1: {zero: 1}}
    factors = {0: {4: {zero: 3}}, 1: {4: {zero: 5}, 6: {zero: 1}}}
    expect = {4: {zero: 11}, 6: {zero: 1}}
    assert _composed(first, factors.__getitem__, n, 0) == expect
    assert _expanded(first, factors.__getitem__, n, 0) == expect


def test_associativity_makes_no_series_product(monkeypatch):
    calls = []
    real = TruncSeries.mul

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(TruncSeries, "mul", counted)
    rep = check_associativity(3, 4, (1, 2, 1))
    assert rep["failures"] == [] and rep["triples_checked"] == 3 * 6 * 3
    assert calls == []


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
            ThetaIndex.make(a.m + b.m, p + 1, 3).p: c for p, c in consts.items()
        }


def ngon_block(table) -> dict:
    """specialize_ngon of a table, keyed as in ngon_tables.json."""
    block = {}
    for (a, b), consts in specialize_ngon(table).items():
        key = f"{a.m},{a.p}|{b.m},{b.p}"
        block[key] = {str(p): c for p, c in sorted(consts.items())}
    return block


@pytest.mark.parametrize("n, max_m, D", [(1, 3, 6), (4, 3, 8), (5, 4, 12), (6, 2, 6)])
def test_specialize_reads_the_orbit_list(n, max_m, D):
    """specialize_ngon moves only the classes of each orbit product's
    constant terms: it leaves the derived _values and entries unbuilt, and
    gives every pair's constant terms as read from its full product, in
    basis_pairs key order and ascending class order."""
    table = build_table(n, max_m, D)
    spec = specialize_ngon(table)
    assert "_values" not in vars(table) and "entries" not in vars(table)
    want = {
        key: {Fraction(a3, elem.m): c for a3, s in elem.items() if (c := s.constant_term())}
        for key, elem in table.entries.items()
    }
    assert list(spec) == list(want) == basis_pairs(n, max_m)
    assert [list(v.items()) for v in spec.values()] == [list(v.items()) for v in want.values()]
    assert len({id(v) for v in spec.values()}) == len(spec), "two pairs share one dict"


def test_specialize_against_golden():
    data = json.loads((GOLDEN / "ngon_tables.json").read_text())
    for n in (1, 2, 3, 4):
        got = ngon_block(build_table(n, 2, 2))
        assert got == data[str(n)], f"n-gon table drifted at n={n}"


def ngon_rule(n: int, a: ThetaIndex, b: ThetaIndex) -> dict:
    """The product x_a * x_b on the n-gon, read from the supports alone.

    A weight-m class a/m is a tent on the circle R/nZ, cut at the integers
    into the n components.  Two sections multiply to a nonzero section
    only where their supports share a component: the term of the lift
    b2 = a2 + m2*n*k is +1 at class (a1 + b2) mod (m3*n) when a1/m1 and
    b2/m2 lie in one closed interval [i, i + 1].
    """
    m3 = a.m + b.m
    out: dict[Fraction, int] = {}
    for k in range(-2, 3):
        b2 = b.a + b.m * n * k
        lo, hi = sorted((Fraction(a.a, a.m), Fraction(b2, b.m)))
        if hi <= math.floor(lo) + 1:
            p3 = Fraction((a.a + b2) % (m3 * n), m3)
            out[p3] = out.get(p3, 0) + 1
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_ngon_fiber_matches_support_rule(n):
    """The t = 0 fiber against a rule that reads no exponent kernel."""
    spec = specialize_ngon(build_table(n, 3, 0))
    assert spec == {(a, b): ngon_rule(n, a, b) for a, b in basis_pairs(n, 3)}


@pytest.mark.parametrize("n", range(4, 8))
def test_ngon_weight_one_products_vanish_on_non_adjacent_pairs(n):
    """x_i * x_j = 0 at t = 0 exactly when i and j are not neighbours on
    the n-gon: the n(n-3)/2 quadrics that cut it out of P^(n-1)."""
    spec = specialize_ngon(build_table(n, 1, 0))
    vanish = {frozenset((a.a, b.a)) for (a, b), consts in spec.items() if not consts}
    apart = {
        frozenset((i, j)) for i in range(n) for j in range(n)
        if (i - j) % n not in (0, 1, n - 1)
    }
    assert vanish == apart
    assert len(vanish) == n * (n - 3) // 2


@pytest.mark.parametrize("n", range(3, 7))
def test_ngon_weight_one_products_reach_every_weight_two_class(n):
    """At t = 0 the weight-1 products follow the support rule and reach
    all 2n weight-2 classes: x_i^2 lands on class i, and x_i * x_(i+1) on
    class i + 1/2, each with coefficient 1."""
    spec = specialize_ngon(build_table(n, 1, 0))
    assert spec == {(a, b): ngon_rule(n, a, b) for a, b in basis_pairs(n, 1)}
    reached = {}
    for (a, b), consts in spec.items():
        for p3, c in consts.items():
            reached.setdefault(p3, set()).add(frozenset((a.a, b.a)))
            assert c == 1
    assert reached == {
        Fraction(a3, 2): {frozenset((a3 // 2, (a3 + 1) // 2 % n))} for a3 in range(2 * n)
    }


def test_integer_exponent_matches_fraction_reference():
    """theta._exponent equals plgeom.t_exponent for every slot j and every
    admissible k at D = 12, over every basis pair with n <= 5, m <= 4."""
    D = 12
    for n in range(1, 6):
        for m1 in range(1, 5):
            for m2 in range(1, 5):
                for a in basis_indices(n, m1):
                    for b in basis_indices(n, m2):
                        args = (n, m1, a.p, m2, b.p)
                        for k in plgeom.admissible_k_range(*args, D):
                            for j in range(n):
                                got = theta._exponent(*args, k, j)
                                assert got == plgeom.t_exponent(*args, k, j), (args, k, j)


def test_integer_exponent_takes_int_and_fraction_p():
    for n, m1, p1, m2, p2, k, j in [
        (3, 1, 2, 2, Fraction(3, 2), 1, 0),
        (4, 2, 3, 3, 0, -2, 3),
        (1, 1, 0, 1, 0, 5, 0),
    ]:
        want = plgeom.t_exponent(n, m1, p1, m2, p2, k, j)
        for q1 in (p1, Fraction(p1)):
            for q2 in (p2, Fraction(p2)):
                got = theta._exponent(n, m1, q1, m2, q2, k, j)
                assert type(got) is int and got == want
    with pytest.raises(ValueError):
        theta._exponent(3, 2, Fraction(1, 3), 1, 0, 0, 0)


def test_theta_route_is_independent_of_the_other_routes(monkeypatch):
    """With every other exponent route made to raise, the counting kernels
    that the counted routes ship among them, the theta tables come out as
    before."""
    before = build_table(3, 2, 6).entries
    golden = json.loads((GOLDEN / "ngon_tables.json").read_text())["3"]

    def forbidden(*args, **kwargs):
        raise RuntimeError("the theta route called another route")

    for name in ("t_exponent", "t_exponent_qr", "phi", "lambda_defect"):
        monkeypatch.setattr(plgeom, name, forbidden)
    for name in ("count_brion", "count_direct", "_brion_counts", "_lifted_counts"):
        monkeypatch.setattr(floer, name, forbidden)
    assert build_table(3, 2, 6).entries == before
    assert ngon_block(build_table(3, 2, 2)) == golden


def test_json_schema_shape():
    """The keys of the table report, read back from the text it writes."""
    table = build_table(2, 1, 2)
    obj = json.loads(cli._json_text(table.to_json_obj()))
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
