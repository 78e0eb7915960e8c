"""The finite graded path algebra on one central vertex and n spokes.

Quiver: vertices 0, 1, .., n; arrows A_i from 0 to i in degree 0 and B_i
from i to 0 in degree 1.  Relations: every loop B_i A_i equals a common
central element c, and the mixed loops A_i B_j vanish for i != j.

Composition is right to left throughout: a word is displayed as it acts,
so B_i A_i means "apply A_i, then B_i" and is a loop at the central
vertex.  Normal forms are found by exploring the rewrite graph (swap one
B_i A_i pair for another, kill mixed pairs), never by consulting a
precomputed table, and the dimension counts come from enumerating all
composable words up to length four and reducing each one.

Inside the module a word is coded as a tuple of signed ints, A_i as i
and B_i as -i, so a mixed pair is a positive x followed by a negative
y != -x and a swap site is a negative x followed by -x.  The reduction
core, ``_reduce``, walks the rewrite graph breadth first on coded words
and stops at the first rewrite that shows a mixed pair.  Words are
validated at the public edge (``PathWord``, ``normal_form``), which
keeps label tuples and codes a word once; ``hom_table``, ``multiply``
and ``multiplication_table`` pass coded chains composable by
construction to ``_reduce``.  ``multiplication_table`` codes each
registry word once and makes no ``AlgebraElement``; ``multiply`` is the
public bilinear product it is tested against.

The n = 1 algebra is refused: with a single spoke the displayed
relations say nothing and the structure is pinned down elsewhere by
different means.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from types import MappingProxyType

from .plgeom import InvariantError


def _ensure_spokes(n: int):
    if n < 2:
        raise ValueError(f"the spoke algebra needs n >= 2 spokes, got {n}")


def _arrow_ends(arrow) -> tuple[int, int]:
    """(source, target) of a single arrow."""
    label, i = arrow
    if label == "A":
        return 0, i
    if label == "B":
        return i, 0
    raise ValueError(f"unknown arrow label {label!r}")


class PathWord(namedtuple("PathWord", "arrows vertex")):
    """A composable chain of arrows, or a lone idempotent.

    ``arrows`` is stored in display order, leftmost factor applied last.
    An empty chain must name its vertex; a nonempty one must not.
    """

    __slots__ = ()

    def __new__(cls, arrows=(), vertex=None):
        arrows = tuple(tuple(a) for a in arrows)
        if not arrows:
            if type(vertex) is not int or vertex < 0:
                raise ValueError(f"an empty word needs an int vertex >= 0: {vertex!r}")
        elif vertex is not None:
            raise ValueError("a nonempty word must not carry a vertex label")
        for a in arrows:
            label, i = a
            if label not in ("A", "B") or type(i) is not int or i < 1:
                raise ValueError(f"bad arrow {a!r}")
        for left, right in zip(arrows, arrows[1:]):
            if _arrow_ends(right)[1] != _arrow_ends(left)[0]:
                raise ValueError(
                    f"arrows {right!r} then {left!r} do not compose"
                )
        return super().__new__(cls, arrows, vertex)

    @classmethod
    def _make(cls, iterable):  # namedtuple's skips __new__; _replace calls it
        return cls(*iterable)

    @property
    def source(self) -> int:
        if not self.arrows:
            return self.vertex
        return _arrow_ends(self.arrows[-1])[0]

    @property
    def target(self) -> int:
        if not self.arrows:
            return self.vertex
        return _arrow_ends(self.arrows[0])[1]

    @property
    def degree(self) -> int:
        return sum(1 for label, _ in self.arrows if label == "B")

    def __repr__(self) -> str:
        if not self.arrows:
            return f"e_{self.vertex}"
        return "".join(f"{label}_{i}" for label, i in self.arrows)


def _code(arrows: tuple) -> tuple:
    """A label chain as a coded word: A_i becomes i and B_i becomes -i."""
    return tuple(i if label == "A" else -i for label, i in arrows)


def _mixed_pair(word: tuple) -> bool:
    """True when some display-adjacent A_x B_y has x != y."""
    x = word[0]
    for y in word[1:]:
        if x > 0 and y < 0 and x != -y:
            return True
        x = y
    return False


def _word_symbol(word: tuple) -> str:
    """Basis symbol of an irreducible coded word (no mixed pair, no swap
    site that matters).  Only lengths <= 2 can reach this point."""
    if len(word) == 1:
        x = word[0]
        return f"A_{x}" if x > 0 else f"B_{-x}"
    if len(word) == 2:
        x = word[0]
        return "c" if x < 0 else f"A_{x}B_{x}"
    raise InvariantError(f"irreducible word of length {len(word)}: {word}")


def _reduce(word: tuple, n: int):
    """Basis symbol of a nonempty composable coded word with indices in
    1..n (unchecked), or None when it lies in the ideal.

    Walks the rewrite graph breadth first: each B_i A_i pair (a swap site,
    -i then i) may be replaced by any B_j A_j.  Each rewrite is tested for
    a mixed pair as soon as it is made, and the first one found means the
    word maps to zero.  Otherwise the surviving word is one of the
    finitely many basis shapes.
    """
    if _mixed_pair(word):
        return None
    seen = {word}
    frontier = [word]
    spokes = range(1, n + 1)
    while frontier:
        nxt = []
        for w in frontier:
            for t in range(len(w) - 1):
                x = w[t]
                if x < 0 and w[t + 1] == -x:
                    head, tail = w[:t], w[t + 2:]
                    for j in spokes:
                        cand = head + (-j, j) + tail
                        if cand not in seen:
                            if _mixed_pair(cand):
                                return None
                            seen.add(cand)
                            nxt.append(cand)
        frontier = nxt
    # no representative hits the ideal: the word itself is already basic
    return _word_symbol(word)


def normal_form(w: PathWord, n: int) -> "AlgebraElement":
    """Image of a path word in the canonical basis, after checking its
    indices against the spoke count."""
    _ensure_spokes(n)
    for _, i in w.arrows:
        if i > n:
            raise ValueError(f"arrow index {i} exceeds the spoke count {n}")
    if not w.arrows:
        if w.vertex > n:
            raise ValueError(f"vertex {w.vertex} exceeds the spoke count {n}")
        return AlgebraElement(n, {f"e_{w.vertex}": 1})
    sym = _reduce(_code(w.arrows), n)
    return AlgebraElement(n, {} if sym is None else {sym: 1})


@functools.lru_cache(maxsize=None)
def basis_registry(n: int) -> MappingProxyType:
    """Ordered map from basis symbol to a representative word.

    Cached per n and shared by every caller, hence read-only.
    """
    _ensure_spokes(n)
    reg = {}
    for v in range(n + 1):
        reg[f"e_{v}"] = PathWord((), v)
    for i in range(1, n + 1):
        reg[f"A_{i}"] = PathWord((("A", i),))
    for i in range(1, n + 1):
        reg[f"B_{i}"] = PathWord((("B", i),))
    reg["c"] = PathWord((("B", 1), ("A", 1)))
    for i in range(1, n + 1):
        reg[f"A_{i}B_{i}"] = PathWord((("A", i), ("B", i)))
    return MappingProxyType(reg)


class AlgebraElement:
    """Integer combination of canonical basis symbols."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = {s: c for s, c in terms.items() if c != 0}

    @classmethod
    def basis(cls, n: int, sym: str) -> "AlgebraElement":
        if sym not in basis_registry(n):
            raise ValueError(f"unknown basis symbol {sym!r} for n={n}")
        return cls(n, {sym: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            (f"{c}*{s}" if c != 1 else s) for s, c in sorted(self.terms.items())
        )


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear product; words with mismatched endpoints contribute zero."""
    if a.n != b.n:
        raise ValueError("mixed spoke counts")
    n = a.n
    reg = basis_registry(n)
    out: dict[str, int] = {}
    try:  # only the registry lookups raise KeyError; no cost per pair
        for s1, c1 in a.terms.items():
            w1 = reg[s1]
            source = w1.source
            for s2, c2 in b.terms.items():
                w2 = reg[s2]
                if source != w2.target:
                    continue
                word = _code(w1.arrows + w2.arrows)
                # two idempotents meet only at one vertex, where e_v e_v = e_v
                sym = _reduce(word, n) if word else s1
                if sym is not None:
                    out[sym] = out.get(sym, 0) + c1 * c2
    except KeyError as exc:
        raise ValueError(f"unknown basis symbol {exc.args[0]!r} for n={n}") from None
    return AlgebraElement(n, out)


def hom_table(n: int) -> dict:
    """Per-vertex-pair dimensions: (u, v) -> [deg-0 count, deg-1 count].

    Walks every composable coded word up to length four, reduces each to
    the basis, and buckets the distinct nonzero images together with the
    idempotents by source and target.  Nothing about the expected answer
    is wired in.  A word grows leftward: only B_i can follow A_i, and any
    A_j can follow B_i.
    """
    reg = basis_registry(n)
    found = {f"e_{v}" for v in range(n + 1)}
    spokes = range(1, n + 1)
    words = [(i,) for i in spokes] + [(-i,) for i in spokes]
    found.update(_reduce(w, n) for w in words)
    for _ in range(3):  # lengths 2, 3 and 4
        words = [(x,) + w for w in words for x in (spokes if w[0] < 0 else (-w[0],))]
        found.update(_reduce(w, n) for w in words)
    found.discard(None)
    table = {}
    for sym in found:
        w = reg[sym]
        table.setdefault((w.source, w.target), [0, 0])[w.degree] += 1
    return table


def graded_dims(table: dict) -> tuple[int, int, int]:
    """(dimension in degree 0, in degree 1, total), summed over a
    ``hom_table``."""
    slots = table.values()
    d0 = sum(s[0] for s in slots)
    d1 = sum(s[1] for s in slots)
    return d0, d1, d0 + d1


def node_dual_hilbert(d: int) -> int:
    """Dimension of the degree-d part of the two-generator dual algebra
    with both squares zero: alternating words in the two letters.

    Counted by a two-state recursion on the last letter, not by formula.
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    if d == 0:
        return 1
    end_u, end_v = 1, 1
    for _ in range(d - 1):
        end_u, end_v = end_v, end_u
    return end_u + end_v


def multiplication_table(n: int) -> dict:
    """Full basis-by-basis product table, keyed "x*y" in registry order.

    Reads each basis word once from the registry: a pair that composes is
    reduced by ``_reduce``, two idempotents give the first, and a pair
    that does not compose gives {}; each entry is what ``multiply`` makes
    of the two basis elements.
    """
    words = [
        (s, _code(w.arrows), w.source, w.target)
        for s, w in basis_registry(n).items()
    ]
    out = {}
    for s1, word1, source, _ in words:
        prefix = s1 + "*"
        for s2, word2, _, target in words:
            if source != target:
                out[prefix + s2] = {}
                continue
            word = word1 + word2
            # two idempotents meet only at one vertex, where e_v e_v = e_v
            sym = _reduce(word, n) if word else s1
            out[prefix + s2] = {} if sym is None else {sym: 1}
    return out


def check_basis_associativity(n: int) -> int:
    """(x*y)*z == x*(y*z) over all basis triples; returns the number of
    triples checked, raising on the first failure."""
    syms = [AlgebraElement(n, {s: 1}) for s in basis_registry(n)]
    checked = 0
    for x, y, z in itertools.product(syms, repeat=3):
        left = multiply(multiply(x, y), z)
        right = multiply(x, multiply(y, z))
        if left != right:
            raise InvariantError(f"associativity fails at {x}, {y}, {z}")
        checked += 1
    return checked
