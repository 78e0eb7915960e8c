"""The immutable value types are tuples: frozen, hashable, ordered by
their fields, and picklable; the one mutable type stays unhashable."""

import pathlib
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import mirror_ring
from mirror_ring.floer import Triangle, lift_triangle
from mirror_ring.quiver import AlgebraElement, PathWord
from mirror_ring.theta import ThetaIndex, basis_indices
from mirror_ring.toric import MPoint


@pytest.mark.parametrize(
    "value, field",
    [
        (ThetaIndex(2, 3), "a"),
        (PathWord((("B", 1), ("A", 1))), "arrows"),
        (MPoint(1, (0, 2)), "x"),
        (lift_triangle(3, 1, 0, 2, 1, 1), "A"),
    ],
    ids=["ThetaIndex", "PathWord", "MPoint", "Triangle"],
)
def test_fields_cannot_be_set(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    assert not hasattr(value, "__dict__")


def test_equal_values_hash_equal():
    pairs = [
        (ThetaIndex(3, 5), ThetaIndex.make(3, Fraction(5, 3), 4)),
        (PathWord([["B", 2], ["A", 2]]), PathWord((("B", 2), ("A", 2)))),
        (PathWord((), 0), PathWord(vertex=0)),
        (MPoint(1, [2, 0]), MPoint(Fraction(1), (Fraction(2), Fraction(0)))),
        (lift_triangle(3, 1, 0, 2, 1, 1), lift_triangle(3, 1, Fraction(0), 2, Fraction(1), 1)),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    assert type(MPoint(1, [2]).y) is tuple and type(MPoint(1, [2]).x) is Fraction
    assert type(lift_triangle(3, 1, 0, 2, 1, 1)) is Triangle


def test_labels_across_weights_sort_by_weight_then_class():
    labels = [x for m in (1, 2, 3) for x in basis_indices(4, m)]
    shuffled = labels[:]
    random.Random(5).shuffle(shuffled)
    assert sorted(shuffled) == labels == sorted(labels, key=lambda x: (x.m, x.a))


@pytest.mark.parametrize(
    "value", [ThetaIndex(4, 7), PathWord((("A", 3), ("B", 3))), PathWord((), 2)]
)
def test_pickle_round_trip(value):
    back = pickle.loads(pickle.dumps(value))
    assert back == value and type(back) is type(value)


def test_unpickling_a_word_validates_it_again():
    bad = tuple.__new__(PathWord, ((("A", 1),), 0))
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(bad))


def test_make_and_replace_validate_and_convert():
    """namedtuple's own _make, which _replace calls, would skip __new__."""
    with pytest.raises(ValueError):
        PathWord._make([(("A", 1),), 0])
    for point in (MPoint(1, (2,))._replace(x=0.5), MPoint._make([1, [2, 3]])):
        assert type(point.x) is Fraction and type(point.y) is tuple
        assert all(type(v) is Fraction for v in point.y)
    assert MPoint(1, (2,))._replace(x=0.5).x == Fraction(1, 2)


def test_algebra_element_drops_zero_terms_and_is_unhashable():
    x = AlgebraElement(2, {"c": 0, "e_0": 1, "A_1": 0})
    assert x.terms == {"e_0": 1}
    assert x == AlgebraElement(2, {"e_0": 1})
    with pytest.raises(TypeError):
        hash(x)


def test_cli_import_leaves_dataclasses_unloaded():
    src = pathlib.Path(mirror_ring.__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import mirror_ring.cli; "
        "print('dataclasses' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
