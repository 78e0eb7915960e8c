"""The graded section ring in its canonical basis, with the closed-form
product.

Basis elements are indexed by a weight m >= 1 and a class p in (1/m)Z
taken mod n, held as the integer a = m*p in [0, m*n) from the label to
the report; p = a/m is spelled only in report text and in the
p-signature wrappers.  The product of two of them is a finite
sum of basis elements at weight m1+m2 whose coefficients are monomials
in t_0..t_{n-1} with exponents n*lambda.  This route takes them from the
one integer kernel ``plgeom.lambda_exponents``, all n slots of every term
of a run of b2 = a2 + m2*n*k from the integer classes;
``plgeom.t_exponent_qr`` (alias ``_exponent`` here) reads one slot of it
with a p signature, and ``plgeom.t_exponent`` is the Fraction reference
it is tested against.  Every route's product is made by
``product_terms``, the one place for the degree cut and the output
class, from integer classes, a run of b2 and the route's row of
exponents over it; ``assemble`` reads the pair's window as a stride of
``plgeom.b2_window`` and hands the kernel's row over it straight to
``product_terms``, and ``_element`` wraps a returned product's classes
as series.  Everything is exact over Z.

``build_table`` relies on three laws of the ring that every route's
product must meet: it is commutative; rotating the n marked points is a
symmetry, so shifting both input classes by r shifts every output class
by r and rotates every series by ``rotate(r)``; and the inversion
[-1] is one, so negating both input classes negates every output class
and sends t_j to t_(-j mod n) in every series.  It multiplies one pair
per orbit of this dihedral action and the swap, and keeps only that: a
``StructureTable`` holds a flat list, indexed by label position, of each
ordered pair's orbit product and the move (r, sign) that carries the
orbit's first pair to it.  The report writer reads the list;
``StructureTable.entries`` derives every pair's element on first use,
for the plain conversions and the tests.  ``floer.mirror_verify`` and
the ``assoc`` memo compute every ordered pair and rely on none of the
laws.

Associativity is checked on term maps, with no series built.  The memo
makes every basis product of a weight pair (m1, m2) on the pair's first
use, in a 2-D list indexed by the two integer classes.  A product is one
list of (degree, a3*B + key, count) rows sorted by degree, B = (D+1)^n
and key the base-(D+1) exponent key of ``series._pack``, so the output
class a3 is the digit above the exponents.  ``_compose`` makes each side
of a triple as one flat dict: a monomial product is one integer add, the
degree cut ends an inner loop, and each row's middle class, read by
divmod, indexes the second factors, a column of the (m1+m2, m3) table
for (a*b)*c and a row of the (m1, m2+m3) table for a*(b*c).  A side is
split back into classes, and a ThetaIndex made, only for a failure
entry.  ``check_associativity`` makes each basis product once per call,
``associativity_sweep`` once per ``assoc`` report.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from . import plgeom
from .plgeom import InvariantError
from .series import TruncSeries, _unpack


# slot j of the kernel with a p signature; the benchmark under bench/ wraps
# this name, and nothing in the package calls it
_exponent = plgeom.t_exponent_qr


def class_text(a: int, m: int) -> str:
    """The class p = a/m as a report spells it: "num/den" in lowest terms."""
    g = math.gcd(a, m)
    return f"{a // g}/{m // g}"


class ThetaIndex(NamedTuple):
    """Weight-m basis label with class p = a/m, held as the integer
    0 <= a < m*n; labels are (m, a) tuples and order by (m, a), which is
    the order of (m, p)."""

    m: int
    a: int

    @property
    def p(self) -> Fraction:
        return Fraction(self.a, self.m)

    @classmethod
    def make(cls, m: int, p, n: int) -> "ThetaIndex":
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return cls(m, plgeom.scaled_index(m, p) % (m * n))

    def to_json_obj(self) -> dict:
        return {"m": self.m, "p": class_text(self.a, self.m)}


class RingElement:
    """Finite combination sum_a (series in t) * basis(m, a/m), fixed weight
    m, keyed by the integer class 0 <= a < m*n."""

    __slots__ = ("m", "n", "D", "coeffs")

    def __init__(self, m: int, n: int, D: int):
        self.m = m
        self.n = n
        self.D = D
        self.coeffs: dict[int, TruncSeries] = {}

    def items(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and (self.m, self.n, self.D) == (other.m, other.n, other.D)
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        parts = [f"({s}) * th[{self.m},{Fraction(a, self.m)}]" for a, s in self.items()]
        return " + ".join(parts) if parts else "0"

    def to_json_obj(self) -> list:
        return [
            {"p": class_text(a, self.m), "series": s}
            for a, s in self.items()
        ]


def basis_indices(n: int, m: int) -> list[ThetaIndex]:
    """All m*n basis labels of weight m; the label of class a is at index a."""
    _check_basis(n, m)
    return [ThetaIndex(m, a) for a in range(m * n)]


def _check_basis(n: int, m: int) -> None:
    """Refuse n < 1 or a weight m < 1, which have no basis labels: they are
    not read as an empty basis, which every loop over it would pass."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def hilbert_dimension(n: int, m: int) -> int:
    """Rank of the weight-m graded piece: 1 for m=0, else m*n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"weight must be >= 0, got m={m}")
    return 1 if m == 0 else m * n


def _check_run(n: int, b2s, row) -> None:
    """Refuse a kernel's row that is not one n-tuple per b2 of the run b2s,
    a fault of the kernel, with InvariantError."""
    if len(row) != len(b2s):
        raise InvariantError(f"a kernel returned {len(row)} terms for a run of {len(b2s)}")
    if not {n}.issuperset(map(len, row)):
        width = min(len(exps) for exps in row if len(exps) != n)
        raise InvariantError(f"a kernel returned a term of {width} slots at n={n}")


def product_terms(n: int, m1: int, a1: int, m2: int, D: int, b2s, row) -> dict:
    """What the product of x_{m1,a1/m1} and x_{m2,a2/m2} is made of, given
    the run b2s of b2 = a2 + m2*n*k over the pair's k-window and a route's
    row over it: {a3: {exponents: count}}.

    row holds the n t-exponents of the term at each b2 of b2s, as the
    route's kernel gives them from a1 = m1*p1; a row of another length or
    a term not n wide is refused (``_check_run``).  The term at b2 lands on
    the class E(p1, p2 + k*n) mod n, kept as its integer
    a3 = (a1 + b2) mod (m3*n); terms of total degree > D drop.  Every term
    has coefficient +1 and nothing cancels, so two products are equal
    exactly when their term maps are.
    """
    _check_run(n, b2s, row)
    width = (m1 + m2) * n
    classes: dict[int, dict] = {}
    for b2, exps in zip(b2s, row):
        if sum(exps) <= D:
            terms = classes.setdefault((a1 + b2) % width, {})
            terms[exps] = terms.get(exps, 0) + 1
    return classes


def assemble(n: int, m1: int, a1: int, m2: int, a2: int, D: int, kernel) -> dict:
    """The term map {a3: {exponents: count}} of x_{m1,a1/m1} * x_{m2,a2/m2},
    given the route's kernel: ``product_terms`` of its row over the pair's
    window, the run b2 = a2 + m2*n*k, k in ``plgeom.k_window``.  That is
    the stride of ``plgeom.b2_window`` at b2 = a2 mod m2*n, read here as a
    slice of it.  ``_element`` wraps it as a product."""
    if D < 0:
        raise ValueError(f"truncation order must be >= 0, got D={D}")
    run = plgeom.b2_window(m1, a1, m2, D)
    w = m2 * n
    b2s = run[(a2 - run.start) % w :: w]
    return product_terms(n, m1, a1, m2, D, b2s, kernel(n, m1, a1, m2, b2s))


def _element(m: int, n: int, D: int, classes: dict) -> RingElement:
    """The weight-m RingElement of a term map {a3: {exponents: count}}."""
    out = RingElement(m, n, D)
    out.coeffs = {a3: TruncSeries._raw(n, D, terms) for a3, terms in classes.items()}
    return out


def theta_product(a: ThetaIndex, b: ThetaIndex, n: int, D: int) -> RingElement:
    """Product of two basis elements as a weight-(m1+m2) RingElement, with
    the exponents of the integer kernel ``plgeom.lambda_exponents``, read
    from its module at each call."""
    return _element(a.m + b.m, n, D, assemble(n, a.m, a.a, b.m, b.a, D, plgeom.lambda_exponents))


def moved_series(s: TruncSeries, r: int, sign: int) -> TruncSeries:
    """s under the orbit move (r, sign): when sign is -1 reflected, slot j
    taking the exponent of slot -j mod n, then rotated by ``rotate(r)``."""
    if sign < 0:
        s = TruncSeries._raw(s.n, s.D, {e[:1] + e[:0:-1]: c for e, c in s.terms.items()})
    return s.rotate(r)


def _moved(elem: RingElement, r: int, sign: int, n: int, D: int) -> RingElement:
    """elem under the orbit move (r, sign) at (n, D): every class a3 goes to
    (sign*a3 + r*m3) mod (m3*n) and every series to ``moved_series``."""
    m3 = elem.m
    out = RingElement(m3, n, D)
    out.coeffs = {
        (sign * a3 + r * m3) % (m3 * n): moved_series(s, r, sign) for a3, s in elem.coeffs.items()
    }
    return out


def _offset(n: int, m: int) -> int:
    """Position of the label (m, 0) among all labels in (m, a) order."""
    return n * m * (m - 1) // 2


def _labels(n: int, max_m: int) -> list[ThetaIndex]:
    """Every basis label of weights 1..max_m in (m, a) order; the label
    (m, a) is at position ``_offset(n, m)`` + a."""
    return [x for m in range(1, max_m + 1) for x in basis_indices(n, m)]


class StructureTable:
    """All pairwise basis products with both weights <= max_m, at
    truncation D, as the orbit list ``build_table`` makes.

    orbits[i*L + j], with L labels in (m, a) order, is the pair
    (labels[i], labels[j]) as (elem, r, sign): elem is the product made
    for the first pair (x, y) of its orbit in ``basis_pairs`` order, and
    the move (r, sign), 0 <= r < n and sign = +1 or -1, carries (x, y) to
    the classes (sign*x.a + r*x.m, sign*y.a + r*y.m), each taken mod m*n,
    which are the pair's own or its swap's, holding the same value.  The
    product at the pair is ``_moved(elem, r, sign)``.
    """

    def __init__(self, n: int, D: int, max_m: int, orbits: list):
        self.n = n
        self.D = D
        self.max_m = max_m
        self.orbits: list[tuple[RingElement, int, int]] = orbits

    @functools.cached_property
    def _values(self) -> list[RingElement]:
        """Every pair's product in the order of orbits, derived once per
        (elem, r, sign): pairs that hold one orbit value share one element,
        and a pair at the move (0, 1) holds elem itself."""
        n, D = self.n, self.D
        made: dict[tuple[int, int, int], RingElement] = {}
        out = []
        for elem, r, sign in self.orbits:
            key = (id(elem), r, sign)
            got = made.get(key)
            if got is None:
                got = made[key] = elem if r == 0 and sign == 1 else _moved(elem, r, sign, n, D)
            out.append(got)
        return out

    @functools.cached_property
    def entries(self) -> dict[tuple[ThetaIndex, ThetaIndex], RingElement]:
        """Every pair's product keyed by its labels, in ``basis_pairs``
        order, read from the orbit list."""
        return self._by_pair(self._values)

    def _by_pair(self, values: list) -> dict:
        """values, one per slot in the order of orbits, keyed by each slot's
        pair of labels in ``basis_pairs`` order."""
        labels = self.labels
        size = len(labels)
        position = {x: i for i, x in enumerate(labels)}
        return {
            (x, y): values[position[x] * size + position[y]]
            for x, y in basis_pairs(self.n, self.max_m)
        }

    @property
    def labels(self) -> list[ThetaIndex]:
        """Every basis label up to the table's weight cap, in (m, a) order."""
        return _labels(self.n, self.max_m)

    def sorted_keys(self) -> list[tuple[ThetaIndex, ThetaIndex]]:
        """Every pair in label order, the sorted order of its keys and the
        order of orbits."""
        labels = self.labels
        return [(a, b) for a in labels for b in labels]

    def to_json_obj(self) -> dict:
        """The table's report data, each sorted entry converted on its own:
        the plain reference that cli's table writer is tested against."""
        entries = [
            {"a": a.to_json_obj(), "b": b.to_json_obj(), "result": elem.to_json_obj()}
            for (a, b), elem in zip(self.sorted_keys(), self._values)
        ]
        return {"n": self.n, "D": self.D, "entries": entries}

    def to_csv(self) -> str:
        """One monomial per row: flat, diff-friendly dump of the table."""
        lines = ["m1,p1,m2,p2,p_out,exponents,coeff"]
        for (a, b), elem in zip(self.sorted_keys(), self._values):
            for a3, s in elem.items():
                head = f"{a.m},{a.p},{b.m},{b.p},{Fraction(a3, elem.m)},"
                lines += [f"{head}{' '.join(map(str, e))},{c}" for e, c in s.iter_terms()]
        return "\n".join(lines) + "\n"


def basis_pairs(n: int, max_m: int) -> list[tuple[ThetaIndex, ThetaIndex]]:
    """Every ordered pair of basis labels with both weights <= max_m, by
    weight, then by class."""
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    by_weight = [basis_indices(n, m) for m in range(1, max_m + 1)]
    return [(a, b) for xs in by_weight for ys in by_weight for a in xs for b in ys]


def build_table(n: int, max_m: int, D: int, product=None) -> StructureTable:
    """Products of all basis pairs with both weights <= max_m.

    ``product`` defaults to theta_product; any callable with the same
    signature (a, b, n, D) -> RingElement may stand in, which is how the
    independently counted tables are built for comparison.

    The product must obey three laws.  It is commutative, b*a = a*b.  It
    is rotation-equivariant: the product at classes (p1 + r, p2 + r) is
    the one at (p1, p2) with every output class moved by r and every
    series rotated by ``rotate(r)``.  And it is reflection-equivariant:
    the product at (-p1, -p2) is the one at (p1, p2) with every output
    class negated and t_j sent to t_(-j mod n).  So ``product`` is called
    once per orbit of ordered pairs under the swap, the diagonal shift and
    the reflection, on the orbit's first pair in ``basis_pairs`` order, and
    nothing else is computed.  The orbit list is filled by index
    arithmetic on label positions: each pair of the orbit, and its swap,
    holds that product and the move (r, sign) that carries the first
    pair to it, the unreflected move with the least r where several do.
    ``floer.mirror_verify`` relies on none of the laws: it computes every
    ordered pair.
    """
    if product is None:
        product = theta_product
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    labels = _labels(n, max_m)
    size = len(labels)
    orbits: list = [None] * (size * size)
    # the last move written wins: sign +1 over -1, then the least r
    moves = [(sign, r) for sign in (-1, 1) for r in range(n - 1, -1, -1)]
    for m1 in range(1, max_m + 1):
        o1, w1 = _offset(n, m1), m1 * n
        # the first pair of every orbit has m1 <= m2
        for m2 in range(m1, max_m + 1):
            o2, w2 = _offset(n, m2), m2 * n
            for a1 in range(w1):
                row = (o1 + a1) * size + o2
                for a2 in range(w2):
                    if orbits[row + a2] is not None:
                        continue
                    elem = product(labels[o1 + a1], labels[o2 + a2], n, D)
                    for sign, r in moves:
                        i = o1 + (sign * a1 + r * m1) % w1
                        j = o2 + (sign * a2 + r * m2) % w2
                        orbits[i * size + j] = orbits[j * size + i] = (elem, r, sign)
    return StructureTable(n, D, max_m, orbits)


def specialize_ngon(table: StructureTable) -> dict:
    """Constant terms of the whole table: the product table of the t=0 fiber.

    Returns {(a, b): {p3: integer coefficient}}, keyed in ``basis_pairs``
    order, each output class p3 a Fraction in ascending order, with zero
    entries dropped.  It reads the orbit list, taking each distinct
    (elem, r, sign) once: a move only permutes the slots of each exponent
    vector, so it fixes every constant term, and only elem's classes move,
    a3 to (sign*a3 + r*m3) mod (m3*n).  No pair's full product is derived.
    """
    n = table.n
    made: dict[tuple[int, int, int], dict] = {}
    fibers = []
    for elem, r, sign in table.orbits:
        key = (id(elem), r, sign)
        got = made.get(key)
        if got is None:
            m3 = elem.m
            moved = sorted(
                ((sign * a3 + r * m3) % (m3 * n), c)
                for a3, s in elem.coeffs.items()
                if (c := s.constant_term())
            )
            got = made[key] = {Fraction(a3, m3): c for a3, c in moved}
        fibers.append(got.copy())
    return table._by_pair(fibers)


def _unpacked(m: int, n: int, D: int, B: int, side: dict) -> RingElement:
    """The weight-m RingElement of a composed side {a3*B + key: count},
    each key split back into its class a3 and its ``series._pack`` key."""
    classes: dict[int, dict] = {}
    for k, c in side.items():
        a3, key = divmod(k, B)
        classes.setdefault(a3, {})[key] = c
    return _element(m, n, D, {a3: _unpack([keys], n, D) for a3, keys in classes.items()})


def _compose(first: list, second: list, D: int, B: int) -> dict:
    """One side of a triple: the sum over x of the part of first in the
    middle class x times second[x], truncated at D, as one flat dict
    {a3*B + key: count} with B = (D+1)**n.  first and every second[x] are
    memo rows of basis products; a row of first reads its class x and its
    key as divmod(key, B).  Keys add and counts multiply; no digit can
    carry, because every kept term has total degree <= D, so the output
    class of second[x]'s row stays the digit above the exponents.  Rows
    are sorted by degree, so a term of total degree > D drops and ends
    the inner loop; a class none of whose terms survives has no key."""
    out: dict[int, int] = {}
    for d1, k1, c1 in first:
        x, k1 = divmod(k1, B)
        room = D - d1
        for d2, k2, c2 in second[x]:
            if d2 > room:
                break
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return out


def _associativity(n: int, D: int, weights, products) -> dict:
    """The associativity report at one weight triple, reading every basis
    product from the memo's tables, products(m1, m2)[a1][a2].  n and the
    weights are checked once, here, as ``basis_indices`` checks them.
    (a*b)*c composes a*b with column c of the (m1+m2, m3) table, and
    a*(b*c) composes b*c with row a of the (m1, m2+m3) table."""
    for m in weights:
        _check_basis(n, m)
    m1, m2, m3 = weights
    B = (D + 1) ** n
    ab_table, bc_table = products(m1, m2), products(m2, m3)
    columns = list(zip(*products(m1 + m2, m3)))
    failures = []
    for a, (ab_row, row) in enumerate(zip(ab_table, products(m1, m2 + m3))):
        for b, (ab, bc_row) in enumerate(zip(ab_row, bc_table)):
            for c, (column, bc) in enumerate(zip(columns, bc_row)):
                left = _compose(ab, column, D, B)
                right = _compose(bc, row, D, B)
                if left != right:
                    m = m1 + m2 + m3
                    failures.append(
                        {
                            "a": ThetaIndex(m1, a).to_json_obj(),
                            "b": ThetaIndex(m2, b).to_json_obj(),
                            "c": ThetaIndex(m3, c).to_json_obj(),
                            "left": _unpacked(m, n, D, B, left).to_json_obj(),
                            "right": _unpacked(m, n, D, B, right).to_json_obj(),
                        }
                    )
    return {
        "n": n,
        "D": D,
        "weights": list(weights),
        "triples_checked": m1 * m2 * m3 * n**3,
        "failures": failures,
    }


def _product_memo(n: int, D: int):
    """products(m1, m2): the basis products x_{m1,a1/m1} * x_{m2,a2/m2}
    of one weight pair, the term maps ``assemble`` reads from
    ``plgeom.lambda_exponents``, as a 2-D list indexed by the integer
    classes a1 and a2.  Each pair's list is made in full on its first use
    and kept for this memo's life; callers share it, and no series is
    built.  A product is one list of rows (degree, a3*B + key, count),
    B = (D+1)**n, sorted by degree: key is the ``series._pack`` key of the
    term's exponents, and the class a3 < (m1+m2)*n is the digit above
    them, since the same base-(D+1) sum starts from a3."""
    base = D + 1
    memo: dict[tuple[int, int], list] = {}

    def rows(m1: int, a1: int, m2: int, a2: int) -> list:
        out = []
        for a3, terms in assemble(n, m1, a1, m2, a2, D, plgeom.lambda_exponents).items():
            for exps, c in terms.items():
                k = a3
                for x in exps:
                    k = k * base + x
                out.append((sum(exps), k, c))
        out.sort()
        return out

    def products(m1: int, m2: int) -> list:
        got = memo.get((m1, m2))
        if got is None:
            got = memo[m1, m2] = [
                [rows(m1, a1, m2, a2) for a2 in range(m2 * n)] for a1 in range(m1 * n)
            ]
        return got

    return products


def check_associativity(n: int, D: int, weights) -> dict:
    """Compare (a*b)*c with a*(b*c) over all basis triples at given weights.

    Each side is one flat term map keyed by class and exponents together,
    ``_compose``d from the memo rows of basis products.  Every structure
    constant is a sum of +1 monomials and nothing cancels, so the two
    sides are equal exactly when their term maps are, the comparison
    ``floer.mirror_verify`` makes.  A RingElement is made only for a
    failure entry.  Each basis product is made once for this call.

    Returns a report dict with the number of triples checked and a list of
    failures (empty when the ring laws hold at truncation D).
    """
    return _associativity(n, D, weights, _product_memo(n, D))


def associativity_sweep(n: int, max_m: int, D: int) -> list[dict]:
    """``check_associativity`` at every weight triple (m1, m2, m3) with
    weights in 1..max_m, in lexicographic order, sharing one product memo
    across the triples: each weight pair's table, and so each ordered
    basis pair, is made once per sweep."""
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    products = _product_memo(n, D)
    weights = range(1, max_m + 1)
    return [
        _associativity(n, D, (m1, m2, m3), products)
        for m1 in weights
        for m2 in weights
        for m3 in weights
    ]
