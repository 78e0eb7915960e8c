"""Path algebra of the star quiver: normal forms, dimensions, products."""

import os
import random

import pytest

from mirror_ring import quiver
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
    unit = AlgebraElement.zero(n)
    for v in range(n + 1):
        unit = unit.add(bas(n, f"e_{v}"))
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
        assert graded_dims(n) == (2 * n + 1, 2 * n + 1, 4 * n + 2)


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
        graded_dims(1)
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
        if quiver._mixed_pair(cur):
            return AlgebraElement(n, {})
        moves = [
            (t, j)
            for t in quiver._swap_sites(cur)
            for j in range(1, n + 1)
            if quiver._swapped(cur, t, j) not in seen
        ]
        if not moves:
            return AlgebraElement(n, {quiver._word_symbol(cur): 1})
        t, j = rng.choice(moves)
        cur = quiver._swapped(cur, t, j)
        seen.add(cur)


def test_rewrite_order_does_not_matter():
    rng = random.Random(SEED)
    for n in (2, 3):
        words = list(quiver._composable_words(n, 6))
        rng.shuffle(words)
        for arrows in words[:300]:
            expect = normal_form(PathWord(arrows), n)
            for _ in range(3):
                assert _random_single_path_reduce(arrows, n, rng) == expect


def test_every_short_word_reduces_to_basis_or_zero():
    n = 3
    reg = basis_registry(n)
    for arrows in quiver._composable_words(n, 4):
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


def test_multiplication_table_goes_through_multiply(monkeypatch):
    calls = []
    reference = quiver.multiply

    def counted(a, b):
        calls.append((a, b))
        return reference(a, b)

    monkeypatch.setattr(quiver, "multiply", counted)
    multiplication_table(2)
    assert len(calls) == len(basis_registry(2)) ** 2 == 100
    assert basis_registry(3) is basis_registry(3)
    with pytest.raises(TypeError):
        basis_registry(3)["c"] = PathWord((("B", 2), ("A", 2)))


def test_associativity_over_all_basis_triples():
    assert check_basis_associativity(2) == 10 ** 3
    assert check_basis_associativity(3) == 14 ** 3


def test_element_arithmetic():
    n = 2
    x = bas(n, "A_1").add(bas(n, "A_2").scale(3))
    y = bas(n, "B_1").add(bas(n, "B_2"))
    # (A_1 + 3 A_2)(B_1 + B_2) keeps only the matched pairs
    prod = multiply(x, y)
    assert prod == bas(n, "A_1B_1").add(bas(n, "A_2B_2").scale(3))
    assert x.add(x.scale(-1)).is_zero()
    with pytest.raises(ValueError):
        multiply(x, AlgebraElement.basis(3, "A_1"))
