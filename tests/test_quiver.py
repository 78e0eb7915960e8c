"""Path algebra of the star quiver: normal forms, dimensions, products."""

import os
import random

import pytest

from mirror_ring import quiver
from mirror_ring.plgeom import InvariantError
from mirror_ring.quiver import (
    AlgebraElement,
    PathWord,
    basis_registry,
    check_basis_associativity,
    graded_dims,
    hom_table,
    multiplication_table,
    multiply,
    node_dual_hilbert,
    normal_form,
)

SEED = int(os.environ.get("MIRROR_RING_SEED", "434019"))


def word(*arrows):
    return PathWord(tuple(arrows))


def bas(n, sym):
    return AlgebraElement.basis(n, sym)


# The label-tuple reduction the package used before words were coded as
# signed ints, kept here as the tests' own reference: a breadth-first
# search over ("A", i) / ("B", i) words that checks a rewrite for a mixed
# pair only when it is taken off the frontier.


def _label_mixed_pair(arrows):
    """True when some display-adjacent A_x B_y has x != y."""
    for left, right in zip(arrows, arrows[1:]):
        if left[0] == "A" and right[0] == "B" and left[1] != right[1]:
            return True
    return False


def _label_swap_sites(arrows):
    """Positions of display-adjacent B_i A_i pairs."""
    return [
        t
        for t in range(len(arrows) - 1)
        if arrows[t][0] == "B"
        and arrows[t + 1][0] == "A"
        and arrows[t][1] == arrows[t + 1][1]
    ]


def _label_swapped(arrows, t, j):
    return arrows[:t] + (("B", j), ("A", j)) + arrows[t + 2:]


def _label_symbol(arrows):
    if len(arrows) == 1:
        label, i = arrows[0]
        return f"{label}_{i}"
    if len(arrows) == 2:
        if arrows[0][0] == "B":
            return "c"
        i = arrows[0][1]
        return f"A_{i}B_{i}"
    raise InvariantError(f"irreducible word of length {len(arrows)}: {arrows}")


def _label_reduce(arrows, n):
    seen = {arrows}
    frontier = [arrows]
    while frontier:
        nxt = []
        for w in frontier:
            if _label_mixed_pair(w):
                return None
            for t in _label_swap_sites(w):
                for j in range(1, n + 1):
                    cand = _label_swapped(w, t, j)
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return _label_symbol(arrows)


def _label_words(n, max_len):
    """Every composable label chain of length 1..max_len, display order."""
    alphabet = [("A", i) for i in range(1, n + 1)] + [
        ("B", i) for i in range(1, n + 1)
    ]
    by_source = {v: [] for v in range(n + 1)}
    for a in alphabet:
        by_source[quiver._arrow_ends(a)[0]].append(a)
    chains = [(a,) for a in alphabet]
    yield from chains
    for _ in range(max_len - 1):
        chains = [
            (a,) + c for c in chains for a in by_source[quiver._arrow_ends(c[0])[1]]
        ]
        yield from chains


def _coded(arrows):
    """A_i as i, B_i as -i."""
    return tuple(i if label == "A" else -i for label, i in arrows)


def test_loop_at_center_is_central_element():
    for n in (2, 3):
        for i in range(1, n + 1):
            nf = normal_form(word(("B", i), ("A", i)), n)
            assert nf == AlgebraElement(n, {"c": 1})


def test_mixed_loops_die():
    n = 3
    assert normal_form(word(("A", 1), ("B", 2)), n).is_zero()
    assert normal_form(word(("A", 3), ("B", 1)), n).is_zero()
    # same-index loops at a spoke survive as their own basis symbol
    assert normal_form(word(("A", 2), ("B", 2)), n) == bas(n, "A_2B_2")


def test_longer_words_reduce_through_the_relations():
    n = 2
    # B_1 A_1 B_1 rewrites through B_2 A_2 B_1, which contains no mixed
    # pair either, but A_1 B_1 A_1 exposes one after a swap
    assert normal_form(word(("A", 1), ("B", 1), ("A", 1)), n).is_zero()
    assert normal_form(word(("B", 1), ("A", 1), ("B", 1)), n).is_zero()
    # the double central loop dies: c*c = B_1 (A_1 B_2) A_2 ... after swap
    assert normal_form(
        word(("B", 1), ("A", 1), ("B", 1), ("A", 1)), n
    ).is_zero()


def test_unit_laws():
    n = 2
    e0 = bas(n, "e_0")
    e1 = bas(n, "e_1")
    a1 = bas(n, "A_1")
    # A_1 goes from vertex 0 to vertex 1, so e_1 * A_1 = A_1 = A_1 * e_0
    assert multiply(e1, a1) == a1
    assert multiply(a1, e0) == a1
    assert multiply(e0, a1).is_zero()
    assert multiply(a1, e1).is_zero()
    unit = AlgebraElement(n, {f"e_{v}": 1 for v in range(n + 1)})
    for sym in basis_registry(n):
        x = bas(n, sym)
        assert multiply(unit, x) == x
        assert multiply(x, unit) == x


def test_product_reference_values():
    n = 2
    assert multiply(bas(n, "B_1"), bas(n, "A_1")) == bas(n, "c")
    assert multiply(bas(n, "B_2"), bas(n, "A_2")) == bas(n, "c")
    assert multiply(bas(n, "A_1"), bas(n, "B_2")).is_zero()
    assert multiply(bas(n, "A_1"), bas(n, "B_1")) == bas(n, "A_1B_1")
    assert multiply(bas(n, "c"), bas(n, "c")).is_zero()
    for i in (1, 2):
        sq = multiply(bas(n, f"A_{i}B_{i}"), bas(n, f"A_{i}B_{i}"))
        assert sq.is_zero()
    # degree-1 element times degree-1 element always lands in degree 2 = 0
    assert multiply(bas(n, "c"), bas(n, "B_1")).is_zero()
    assert multiply(bas(n, "A_1B_1"), bas(n, "A_1")) == multiply(
        bas(n, "A_1"), bas(n, "c")
    )


def test_graded_dims_by_enumeration():
    for n in range(2, 7):
        assert graded_dims(hom_table(n)) == (2 * n + 1, 2 * n + 1, 4 * n + 2)


def test_hom_table():
    for n in (2, 4):
        table = hom_table(n)
        expected = {(0, 0): [1, 1]}
        for i in range(1, n + 1):
            expected[(0, i)] = [1, 0]
            expected[(i, 0)] = [0, 1]
            expected[(i, i)] = [1, 1]
        assert table == expected


def test_node_dual_hilbert_sequence():
    assert [node_dual_hilbert(d) for d in range(8)] == [1, 2, 2, 2, 2, 2, 2, 2]
    with pytest.raises(ValueError):
        node_dual_hilbert(-1)


def test_single_spoke_refused():
    with pytest.raises(ValueError):
        hom_table(1)
    with pytest.raises(ValueError):
        normal_form(word(("A", 1)), 1)


def test_word_validation():
    with pytest.raises(ValueError):
        word(("A", 1), ("A", 2))  # target 2 feeds source 0: not composable
    with pytest.raises(ValueError):
        word(("B", 1), ("B", 1))
    with pytest.raises(ValueError):
        PathWord(())  # empty word with no vertex
    with pytest.raises(ValueError):
        PathWord((("A", 1),), vertex=0)
    with pytest.raises(ValueError):
        normal_form(word(("A", 5)), 3)  # index beyond the spoke count
    w = word(("B", 2), ("A", 2))
    assert (w.source, w.target, w.degree) == (0, 0, 1)


def _random_single_path_reduce(arrows, n, rng):
    """Reduce a word by one randomized rewrite path instead of the full
    graph search, with a visited guard so the walk terminates."""
    seen = {arrows}
    cur = arrows
    while True:
        if _label_mixed_pair(cur):
            return AlgebraElement(n, {})
        moves = [
            (t, j)
            for t in _label_swap_sites(cur)
            for j in range(1, n + 1)
            if _label_swapped(cur, t, j) not in seen
        ]
        if not moves:
            return AlgebraElement(n, {_label_symbol(cur): 1})
        t, j = rng.choice(moves)
        cur = _label_swapped(cur, t, j)
        seen.add(cur)


def test_rewrite_order_does_not_matter():
    rng = random.Random(SEED)
    for n in (2, 3):
        words = list(_label_words(n, 6))
        rng.shuffle(words)
        for arrows in words[:300]:
            expect = normal_form(PathWord(arrows), n)
            for _ in range(3):
                assert _random_single_path_reduce(arrows, n, rng) == expect


@pytest.mark.parametrize("n", (2, 3, 4))
def test_coded_reduction_matches_the_label_reference(n):
    words = list(_label_words(n, 6))
    assert len(set(words)) == len(words)
    for arrows in words:
        assert quiver._reduce(_coded(arrows), n) == _label_reduce(arrows, n), arrows


def test_coded_irreducible_words_name_their_symbol():
    assert quiver._word_symbol((3,)) == "A_3"
    assert quiver._word_symbol((-3,)) == "B_3"
    assert quiver._word_symbol((-2, 2)) == "c"
    assert quiver._word_symbol((2, -2)) == "A_2B_2"
    with pytest.raises(InvariantError, match="length 3"):
        quiver._word_symbol((-1, 1, -1))


def test_hom_table_reduces_every_composable_word(monkeypatch):
    reduced = []
    reference = quiver._reduce

    def counted(word, n):
        reduced.append(word)
        return reference(word, n)

    monkeypatch.setattr(quiver, "_reduce", counted)
    hom_table(12)
    assert len(reduced) == 2340
    assert reduced == [_coded(arrows) for arrows in _label_words(12, 4)]


def test_every_short_word_reduces_to_basis_or_zero():
    n = 3
    reg = basis_registry(n)
    for arrows in _label_words(n, 4):
        nf = normal_form(PathWord(arrows), n)
        for sym in nf.terms:
            assert sym in reg


def test_multiplication_table_shape():
    n = 2
    table = multiplication_table(n)
    syms = list(basis_registry(n))
    assert len(table) == len(syms) ** 2
    assert table["B_1*A_1"] == {"c": 1}
    assert table["A_1*B_2"] == {}
    assert table["e_0*e_0"] == {"e_0": 1}
    assert table["e_0*e_1"] == {}


@pytest.mark.parametrize("n", range(2, 6))
def test_multiplication_table_matches_multiply(monkeypatch, n):
    """Every entry is multiply's product of the two basis elements, and
    every composable pair that is not two idempotents is reduced by
    _reduce, so nothing is wired in."""
    reg = basis_registry(n)
    reduced = []
    reference = quiver._reduce

    def counted(word, n):
        reduced.append(word)
        return reference(word, n)

    monkeypatch.setattr(quiver, "_reduce", counted)
    table = multiplication_table(n)
    composable = [
        _coded(w1.arrows + w2.arrows)
        for w1 in reg.values()
        for w2 in reg.values()
        if w1.source == w2.target and (w1.arrows or w2.arrows)
    ]
    assert reduced == composable
    monkeypatch.setattr(quiver, "_reduce", reference)
    assert len(table) == len(reg) ** 2
    for s1 in reg:
        for s2 in reg:
            expect = multiply(bas(n, s1), bas(n, s2)).terms
            assert table[f"{s1}*{s2}"] == expect
    assert basis_registry(3) is basis_registry(3)
    with pytest.raises(TypeError):
        basis_registry(3)["c"] = PathWord((("B", 2), ("A", 2)))


def test_associativity_over_all_basis_triples():
    assert check_basis_associativity(2) == 10 ** 3
    assert check_basis_associativity(3) == 14 ** 3


def test_element_arithmetic():
    n = 2
    x = AlgebraElement(n, {"A_1": 1, "A_2": 3})
    y = AlgebraElement(n, {"B_1": 1, "B_2": 1})
    # (A_1 + 3 A_2)(B_1 + B_2) keeps only the matched pairs
    prod = multiply(x, y)
    assert prod == AlgebraElement(n, {"A_1B_1": 1, "A_2B_2": 3})
    # a coefficient that cancels to 0 is dropped
    assert AlgebraElement(n, {s: c - c for s, c in x.terms.items()}).is_zero()
    with pytest.raises(ValueError):
        multiply(x, AlgebraElement.basis(3, "A_1"))


@pytest.mark.parametrize(
    "arrows, vertex",
    [
        ((("A", 1.5),), None),
        ((("A", True),), None),
        ((("B", False),), None),
        ((("A", "2"),), None),
        ((), 1.0),
        ((), True),
        ((), "0"),
    ],
    ids=["float-index", "bool-index", "bool-index-zero", "str-index",
         "float-vertex", "bool-vertex", "str-vertex"],
)
def test_word_refuses_non_int_indices(arrows, vertex):
    with pytest.raises(ValueError):
        PathWord(arrows, vertex)


def test_multiply_refuses_unknown_symbols():
    n = 3
    with pytest.raises(ValueError, match="'zz'"):
        multiply(AlgebraElement(n, {"zz": 1}), bas(n, "A_1"))
    with pytest.raises(ValueError, match="'A_4'"):
        multiply(bas(n, "B_1"), AlgebraElement(n, {"A_4": 2}))


def _validated_product(w1, w2, n):
    """A basis-word product through the public, validating path."""
    if w1.source != w2.target:
        return AlgebraElement(n, {})
    if not (w1.arrows or w2.arrows):
        return normal_form(w1, n)
    return normal_form(PathWord(w1.arrows + w2.arrows), n)


@pytest.mark.parametrize("n", range(2, 7))
def test_unvalidated_core_matches_normal_form(n):
    # hom_table reduces raw coded chains; redo it with
    # a checked PathWord and normal_form per word
    reg = basis_registry(n)
    found = {f"e_{v}" for v in range(n + 1)}
    for arrows in _label_words(n, 4):
        found.update(normal_form(PathWord(arrows), n).terms)
    expect = {}
    for sym in found:
        w = reg[sym]
        expect.setdefault((w.source, w.target), [0, 0])[w.degree] += 1
    assert hom_table(n) == expect

    table = multiplication_table(n)
    for s1, w1 in reg.items():
        for s2, w2 in reg.items():
            assert table[f"{s1}*{s2}"] == _validated_product(w1, w2, n).terms

    rng = random.Random(SEED + n)
    syms = list(reg)
    for _ in range(40):
        x = AlgebraElement(n, {s: rng.randint(-3, 3) for s in rng.sample(syms, 4)})
        y = AlgebraElement(n, {s: rng.randint(-3, 3) for s in rng.sample(syms, 4)})
        expect = {}
        for s1, c1 in x.terms.items():
            for s2, c2 in y.terms.items():
                for sym, c in _validated_product(reg[s1], reg[s2], n).terms.items():
                    expect[sym] = expect.get(sym, 0) + c1 * c2 * c
        assert multiply(x, y) == AlgebraElement(n, expect)
