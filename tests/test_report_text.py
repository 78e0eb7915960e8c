"""Report text: cli._json_text against the stdlib encoder it replaces."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirror_ring import cli, plgeom, theta
from mirror_ring.cli import main
from mirror_ring.series import GradedSeries, TruncSeries, _series
from run_kernels import lifted


def plain(obj):
    """obj with every TruncSeries and StructureTable replaced by its
    to_json_obj(), and every GradedSeries by that of its TruncSeries, all
    the way down."""
    if isinstance(obj, TruncSeries):
        return obj.to_json_obj()
    if isinstance(obj, GradedSeries):
        return _series(obj.buckets, obj.n, obj.D).to_json_obj()
    if isinstance(obj, theta.StructureTable):
        return plain(obj.to_json_obj())
    if isinstance(obj, list):
        return [plain(x) for x in obj]
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    return obj


def reference(obj) -> str:
    return json.dumps(plain(obj), indent=2, sort_keys=True) + "\n"


# quotes, backslashes, control characters, non-ASCII and a lone surrogate
TRICKY = '"\\/\x00\x07\x1f\x7f\b\f\n\r\t é€ \ud800😀'
texts = st.text(st.sampled_from(TRICKY) | st.characters(), max_size=8)
big = st.integers(min_value=-(2**80), max_value=2**80)


@st.composite
def series(draw):
    """A series with n 1..5 and D 0..6; terms above D drop, so some are
    empty, and coefficients reach past 2**64 on both sides."""
    n = draw(st.integers(1, 5))
    D = draw(st.integers(0, 6))
    exps = st.tuples(*[st.integers(0, D)] * n)
    return TruncSeries(n, D, draw(st.dictionaries(exps, big, max_size=6)))


scalars = st.none() | st.booleans() | big | texts | series()
trees = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(st.integers(), max_size=5)
    | st.dictionaries(texts, kids, max_size=5),
    max_leaves=40,
)


@st.composite
def shared_trees(draw):
    """A tree holding one list object twice at one depth and once deeper,
    as a table holds one result list for (a, b) and (b, a)."""
    shared = draw(st.lists(trees, min_size=1, max_size=3))
    return [shared, {"deeper": [shared, draw(trees)]}, shared]


SERIES = TruncSeries(3, 4, {(0, 1, 2): -(2**70), (0, 0, 0): 1, (4, 0, 0): 2**64 + 1})
SHARED = [{"p": "1/2", "series": SERIES}, SERIES]
# at D = 0 two of its entries have no terms, so their result is []
TABLE = theta.build_table(2, 2, 0)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(trees | shared_trees())
@example([])
@example({})
@example({"": [[], {}, [[]], {"a": {}}]})
@example([1, True, -2, False, None])
@example({"k\"\\\n": -(2**70), "é": 2**64, "\x00": [2**64 + 1, -1, 0]})
@example(TruncSeries(2, 0))
@example({"s": SERIES, "empty": TruncSeries(1, 3), "t": [TruncSeries(5, 6, {(1,) * 5: -1})]})
@example({"a": SHARED, "b": SHARED, "c": [SHARED, {"d": SHARED}]})
@example({"t": [TABLE, {"u": TABLE}], "v": TABLE})
# one exponent vector at two indents and at two D, then at one indent in
# series of two n
@example({"a": TruncSeries(2, 3, {(1, 2): 5}), "b": [TruncSeries(2, 4, {(1, 2): -7, (0, 0): 1})]})
@example([TruncSeries(1, 4, {(2,): 3}), TruncSeries(3, 4, {(2, 0, 0): 1, (0, 0, 2): -2})])
def test_json_text_matches_stdlib_encoder(tree):
    assert cli._json_text(tree) == reference(tree)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 6))
@example(1, 1, 0)
@example(2, 2, 0)
@example(4, 3, 0)
@example(1, 3, 6)
@example(2, 3, 8)
def test_table_text_matches_its_json_obj(n, max_m, D):
    """A table is written straight from its entries, in the text of its
    to_json_obj(); at D = 0 some results are empty and written []."""
    table = theta.build_table(n, max_m, D)
    obj = table.to_json_obj()
    assert cli._json_text(table) == cli._json_text(obj) == reference(obj)


def test_table_text_writes_series_of_several_terms():
    """At n = 1, max-m = 4, D = 12 many series have several terms and some
    coefficients exceed 1, so the text pins the parts that hold a series
    written by the series writer, beside the one-term parts."""
    table = theta.build_table(1, 4, 12)
    obj = plain(table.to_json_obj())
    assert cli._json_text(table) == reference(obj)
    series = [part["series"] for entry in obj["entries"] for part in entry["result"]]
    assert any(len(s["terms"]) >= 2 for s in series)
    assert any(int(term["c"]) >= 2 for s in series for term in s["terms"])


def odd_table(n, r, sign=1):
    """A table at n with the orbit value of its second pair replaced by
    (odd, r, sign): odd holds a series at another (n, D), an empty one,
    and one-term and multi-term series at the table's (n, D)."""
    table = theta.build_table(n, 1, 3)
    odd = theta.RingElement(2, n, 3)
    odd.coeffs = {
        1: SERIES,
        3: TruncSeries(n, 3, {(1, 0, 2)[:n]: 5}),
        0: TruncSeries(1, 0),
        2: TruncSeries(n, 3, {(2, 1, 0)[:n]: 7, (0, 1, 0)[:n]: -1}),
    }
    key = table.sorted_keys()[1]
    table.orbits[1] = (odd, r, sign)
    return table, key, odd


def test_table_text_writes_a_series_at_its_own_size():
    """A table's series share one set of templates for the table's (n, D);
    a series held at another (n, D) is still written at its own."""
    table, key, odd = odd_table(2, 0)
    assert cli._json_text(table) == reference(table)
    assert table.entries[key] is odd


def test_table_text_writes_an_orbit_value_at_its_shift():
    """At shift r = 1 the odd element's classes move by its weight, its
    one-term part is written through the rotated template fill and every
    other part through the series writer, rotated."""
    table, key, odd = odd_table(2, 1)
    assert cli._json_text(table) == reference(table)
    shifted = table.entries[key]
    assert sorted(shifted.coeffs) == [0, 1, 2, 3]
    assert shifted.coeffs[3] == SERIES.rotate(1)
    assert shifted.coeffs[1] == TruncSeries(2, 3, {(0, 1): 5})
    assert shifted.coeffs[0] == TruncSeries(2, 3, {(1, 2): 7, (1, 0): -1})


@pytest.mark.parametrize("r", [0, 1, 2])
def test_table_text_writes_an_orbit_value_reflected(r):
    """Under the move (r, -1) at n = 3 the odd element's class a3 goes to
    (2*r - a3) mod 6 and slot j of each exponent takes slot -j before the
    rotation by r: the one-term part through the template fill, the
    multi-term, empty and other-size parts through the series writer."""
    table, key, odd = odd_table(3, r, -1)
    assert cli._json_text(table) == reference(table)
    moved = table.entries[key]
    assert sorted(moved.coeffs) == sorted((2 * r - a3) % 6 for a3 in odd.coeffs)
    assert moved.coeffs[(2 * r) % 6] == TruncSeries(1, 0)
    if r == 1:
        assert moved.coeffs[5] == TruncSeries(3, 3, {(2, 0, 1): 5})
        assert moved.coeffs[0] == TruncSeries(3, 3, {(0, 1, 2): 7, (0, 1, 0): -1})
        want = {(2, 1, 0): -(2**70), (0, 0, 0): 1, (0, 0, 4): 2**64 + 1}
        assert moved.coeffs[1] == TruncSeries(3, 4, want)


def test_table_text_makes_only_the_orbit_products():
    """Writing the (5, 4, 12) table reads its orbit list alone: 149
    products for 2500 pairs, and no entry is derived."""
    calls = []

    def counted(a, b, n, D):
        calls.append((a, b))
        return theta.theta_product(a, b, n, D)

    table = theta.build_table(5, 4, 12, product=counted)
    text = cli._json_text(table)
    assert text.count('"result": ') == 2500
    assert len(calls) == 149
    assert "entries" not in vars(table) and "_values" not in vars(table)


@pytest.mark.parametrize(
    "bad",
    [
        1.5,
        (1, 2),
        {1: "x"},
        {"a": [0, 1.0]},
        [{"b": (3,)}],
        {"c": {2: 0}},
        theta.RingElement(1, 2, 3),
        {"r": [theta.RingElement(2, 1, 0)]},
        {"a": theta.build_table(1, 1, 2), "b": theta.RingElement(2, 1, 2)},
    ],
)
def test_json_text_refuses_other_types(bad):
    with pytest.raises(TypeError):
        cli._json_text(bad)


SMALL = [
    ["theta", "--n", "2", "--max-m", "2", "--trunc", "4"],
    ["floer-direct", "--n", "2", "--max-m", "2", "--trunc", "4"],
    ["floer-brion", "--n", "2", "--max-m", "2", "--trunc", "4"],
    ["verify", "--n", "2", "--max-m", "2", "--trunc", "4", "--jobs", "1"],
    ["moduli", "--n", "3", "--trunc", "3"],
    ["quiver", "--n", "3"],
    ["assoc", "--n", "2", "--max-m", "2", "--trunc", "3"],
]


def assert_stdlib_text(path, rc, want_rc=0):
    assert rc == want_rc
    text = path.read_text()
    assert text == reference(json.loads(text))


@pytest.mark.parametrize("argv", SMALL, ids=lambda argv: argv[0])
def test_every_report_is_stdlib_text(tmp_path, argv):
    out = tmp_path / "report.json"
    assert_stdlib_text(out, main(argv + ["-o", str(out)]))


@pytest.fixture
def crooked_lambda(monkeypatch):
    """lambda_exponents with 1 added to slot 0 at k = 1, so the routes disagree."""

    def fault(good):
        def crooked(n, m1, a1, m2, a2, k):
            exps = good(n, m1, a1, m2, a2, k)
            return (exps[0] + 1,) + exps[1:] if k == 1 and exps[0] else exps

        return crooked

    monkeypatch.setattr(plgeom, "lambda_exponents", lifted(plgeom.lambda_exponents, fault))


def test_failing_verify_report_is_stdlib_text(tmp_path, crooked_lambda):
    out = tmp_path / "verify.json"
    assert_stdlib_text(out, main(SMALL[3] + ["-o", str(out)]), want_rc=1)
    assert json.loads(out.read_text())["failures"]


def test_failing_assoc_report_is_stdlib_text(tmp_path, crooked_lambda):
    """Its failures hold series deeper than a moduli report's, and each
    failure's left and right sides share exponent vectors.  The digest
    pins every failure entry's bytes."""
    out = tmp_path / "assoc.json"
    assert_stdlib_text(out, main(SMALL[6] + ["-o", str(out)]), want_rc=1)
    reports = json.loads(out.read_text())["reports"]
    assert sum(len(rep["failures"]) for rep in reports) == 135
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "c44f808cee33ed5447ed37f2cd9d7939eef3877a179722c6ed1466434ac62964"


def test_reports_in_sequence_share_no_exponent_text(tmp_path):
    """Two reports hold the same exponent vectors at different indents;
    each is written at its own.  A third holds one packed key, 5, at three
    (n, D) at one indent, where it spells (1, 0), (0, 5) and (0, 1, 0):
    each series gets its own exponent block, so the writer's tails are
    keyed by (n, D) as well as by indent."""
    first = {"s": SERIES, "t": [TruncSeries(2, 5, {(1, 0): 3, (0, 2): -1})]}
    second = [{"u": [SERIES]}, {"v": TruncSeries(2, 5, {(0, 2): 4, (1, 0): 1})}]
    third = {
        "p": GradedSeries(2, 4, [{}, {5: 2}, {}, {}, {}]),
        "q": GradedSeries(2, 6, [{0: 1}, {}, {}, {}, {}, {5: -1}, {}]),
        "r": GradedSeries(3, 4, [{}, {5: 7}, {}, {}, {}]),
        "s": TruncSeries(2, 4, {(1, 0): 3}),
    }
    terms = {key: reference(value) for key, value in third.items()}
    assert [list(json.loads(text)["terms"][-1]["e"]) for text in terms.values()] == [
        [1, 0], [0, 5], [0, 1, 0], [1, 0]
    ]
    for report in (first, second, third, first, third):
        assert cli._json_text(report) == reference(report)
    for name, report in (("a.json", first), ("b.json", second), ("c.json", third)):
        cli._emit(str(tmp_path / name), report)
        assert (tmp_path / name).read_text() == reference(report)
