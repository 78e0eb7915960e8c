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

The n = 1 algebra is refused: with a single spoke the displayed
relations say nothing and the structure is pinned down elsewhere by
different means.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from types import MappingProxyType


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


@dataclasses.dataclass(frozen=True)
class PathWord:
    """A composable chain of arrows, or a lone idempotent.

    ``arrows`` is stored in display order, leftmost factor applied last.
    An empty chain must name its vertex; a nonempty one must not.
    """

    arrows: tuple = ()
    vertex: int | None = None

    def __post_init__(self):
        arrows = tuple(tuple(a) for a in self.arrows)
        object.__setattr__(self, "arrows", arrows)
        if not arrows:
            if self.vertex is None or self.vertex < 0:
                raise ValueError("an empty word needs a vertex label >= 0")
            return
        if self.vertex is not None:
            raise ValueError("a nonempty word must not carry a vertex label")
        for a in arrows:
            label, i = a
            if label not in ("A", "B") or i < 1:
                raise ValueError(f"bad arrow {a!r}")
        for left, right in zip(arrows, arrows[1:]):
            if _arrow_ends(right)[1] != _arrow_ends(left)[0]:
                raise ValueError(
                    f"arrows {right!r} then {left!r} do not compose"
                )

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


def _mixed_pair(arrows: tuple) -> bool:
    """True when some display-adjacent A_x B_y has x != y."""
    for left, right in zip(arrows, arrows[1:]):
        if left[0] == "A" and right[0] == "B" and left[1] != right[1]:
            return True
    return False


def _swap_sites(arrows: tuple) -> list:
    """Positions of display-adjacent B_i A_i pairs."""
    out = []
    for t in range(len(arrows) - 1):
        if (
            arrows[t][0] == "B"
            and arrows[t + 1][0] == "A"
            and arrows[t][1] == arrows[t + 1][1]
        ):
            out.append(t)
    return out


def _swapped(arrows: tuple, t: int, j: int) -> tuple:
    return arrows[:t] + (("B", j), ("A", j)) + arrows[t + 2:]


def _word_symbol(arrows: tuple) -> str:
    """Basis symbol of an irreducible word (no mixed pair, no swap site
    that matters).  Only lengths <= 2 can reach this point."""
    if len(arrows) == 1:
        label, i = arrows[0]
        return f"{label}_{i}"
    if len(arrows) == 2:
        if arrows[0][0] == "B":
            return "c"
        i = arrows[0][1]
        return f"A_{i}B_{i}"
    raise AssertionError(f"irreducible word of length {len(arrows)}: {arrows}")


def normal_form(w: PathWord, n: int) -> "AlgebraElement":
    """Image of a path word in the canonical basis.

    Explores every rewrite of the word (replacing one central loop
    representative by another); if any rewrite exposes a mixed pair the
    word lies in the ideal and maps to zero.  Otherwise the surviving
    word is one of the finitely many basis shapes.
    """
    _ensure_spokes(n)
    for _, i in w.arrows:
        if i > n:
            raise ValueError(f"arrow index {i} exceeds the spoke count {n}")
    if not w.arrows:
        if w.vertex > n:
            raise ValueError(f"vertex {w.vertex} exceeds the spoke count {n}")
        return AlgebraElement(n, {f"e_{w.vertex}": 1})
    seen = {w.arrows}
    frontier = [w.arrows]
    while frontier:
        nxt = []
        for word in frontier:
            if _mixed_pair(word):
                return AlgebraElement(n, {})
            for t in _swap_sites(word):
                for j in range(1, n + 1):
                    cand = _swapped(word, t, j)
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    # no representative hits the ideal: the word itself is already basic
    return AlgebraElement(n, {_word_symbol(w.arrows): 1})


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


def symbol_degree(sym: str) -> int:
    if sym.startswith("e_") or (sym.startswith("A_") and "B" not in sym):
        return 0
    return 1


@dataclasses.dataclass
class AlgebraElement:
    """Integer combination of canonical basis symbols."""

    n: int
    terms: dict

    def __post_init__(self):
        self.terms = {s: c for s, c in self.terms.items() if c != 0}

    @classmethod
    def zero(cls, n: int) -> "AlgebraElement":
        return cls(n, {})

    @classmethod
    def basis(cls, n: int, sym: str) -> "AlgebraElement":
        if sym not in basis_registry(n):
            raise ValueError(f"unknown basis symbol {sym!r} for n={n}")
        return cls(n, {sym: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.n != other.n:
            raise ValueError("mixed spoke counts")
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0) + c
        return AlgebraElement(self.n, out)

    def scale(self, c: int) -> "AlgebraElement":
        return AlgebraElement(self.n, {s: c * v for s, v in self.terms.items()})

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
    out = AlgebraElement.zero(n)
    for s1, c1 in a.terms.items():
        w1 = reg[s1]
        for s2, c2 in b.terms.items():
            w2 = reg[s2]
            if w1.source != w2.target:
                continue
            arrows = w1.arrows + w2.arrows
            if not arrows:
                word = PathWord((), w1.vertex)
            else:
                word = PathWord(arrows)
            out = out.add(normal_form(word, n).scale(c1 * c2))
    return out


def _composable_words(n: int, max_len: int):
    """Every composable arrow chain of length 1..max_len, display order."""
    alphabet = [("A", i) for i in range(1, n + 1)] + [
        ("B", i) for i in range(1, n + 1)
    ]
    chains = [[a] for a in alphabet]
    for chain in chains:
        yield tuple(chain)
    for _ in range(max_len - 1):
        nxt = []
        for chain in chains:
            tgt = _arrow_ends(chain[0])[1]
            for a in alphabet:
                if _arrow_ends(a)[0] == tgt:
                    nxt.append([a] + chain)
        for chain in nxt:
            yield tuple(chain)
        chains = nxt


def hom_table(n: int) -> dict:
    """Per-vertex-pair dimensions: (u, v) -> [deg-0 count, deg-1 count].

    Walks every composable word up to length four, reduces each to the
    basis, and buckets the distinct nonzero images together with the
    idempotents by source and target.  Nothing about the expected answer
    is wired in.
    """
    reg = basis_registry(n)
    found = {f"e_{v}" for v in range(n + 1)}
    for arrows in _composable_words(n, 4):
        found.update(normal_form(PathWord(arrows), n).terms)
    table = {}
    for sym in found:
        w = reg[sym]
        key = (w.source, w.target)
        slot = table.setdefault(key, [0, 0])
        slot[symbol_degree(sym)] += 1
    return table


def graded_dims(n: int) -> tuple[int, int, int]:
    """(dimension in degree 0, in degree 1, total), summed over hom_table."""
    slots = hom_table(n).values()
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
    """Full basis-by-basis product table, keyed "x*y" in registry order."""
    out = {}
    for s1, s2 in itertools.product(basis_registry(n), repeat=2):
        prod = multiply(AlgebraElement(n, {s1: 1}), AlgebraElement(n, {s2: 1}))
        out[f"{s1}*{s2}"] = dict(sorted(prod.terms.items()))
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
            raise AssertionError(f"associativity fails at {x}, {y}, {z}")
        checked += 1
    return checked
