"""The graded section ring in its canonical basis, with the closed-form
product.

Basis elements are indexed by a weight m >= 1 and a class p in (1/m)Z
taken mod n; the product of two of them is a finite sum of basis elements
at weight m1+m2 whose coefficients are monomials in t_0..t_{n-1} with
exponents given by ``plgeom.t_exponent``.  Everything is exact over Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import plgeom
from .series import TruncSeries

# module-level alias so tests can corrupt the theta route without touching
# the independently counted route in floer
_exponent = plgeom.t_exponent


def canonical_p(m: int, p, n: int) -> Fraction:
    """Reduce p mod n into [0, n); requires m*p integral."""
    p = Fraction(p)
    if (m * p).denominator != 1:
        raise ValueError(f"index p={p} does not satisfy m*p integral for m={m}")
    return p - n * plgeom.floor_frac(p / n)


@dataclass(frozen=True)
class ThetaIndex:
    """Weight-m basis label with canonical class 0 <= p < n."""

    m: int
    p: Fraction

    @classmethod
    def make(cls, m: int, p, n: int) -> "ThetaIndex":
        if m < 1:
            raise ValueError(f"weight must be >= 1, got m={m}")
        return cls(m, canonical_p(m, p, n))

    def to_json_obj(self) -> dict:
        return {"m": self.m, "p": f"{self.p.numerator}/{self.p.denominator}"}

    def sort_key(self):
        return (self.m, self.p)


class RingElement:
    """Finite combination sum_p (series in t) * basis(m, p), fixed weight m."""

    __slots__ = ("m", "n", "D", "coeffs")

    def __init__(self, m: int, n: int, D: int):
        self.m = m
        self.n = n
        self.D = D
        self.coeffs: dict[Fraction, TruncSeries] = {}

    def add_term(self, p, series: TruncSeries):
        p = canonical_p(self.m, p, self.n)
        cur = self.coeffs.get(p)
        acc = series if cur is None else cur.add(series)
        if acc.is_zero():
            self.coeffs.pop(p, None)
        else:
            self.coeffs[p] = acc

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
        parts = [f"({s}) * th[{self.m},{p}]" for p, s in self.items()]
        return " + ".join(parts) if parts else "0"

    def to_json_obj(self) -> list:
        return [
            {"p": f"{p.numerator}/{p.denominator}", "series": s.to_json_obj()}
            for p, s in self.items()
        ]


def basis_indices(n: int, m: int) -> list[ThetaIndex]:
    """All m*n canonical basis labels of weight m."""
    return [ThetaIndex(m, Fraction(i, m)) for i in range(m * n)]


def hilbert_dimension(n: int, m: int) -> int:
    """Rank of the weight-m graded piece: 1 for m=0, else m*n."""
    if m < 0:
        raise ValueError(f"weight must be >= 0, got m={m}")
    return 1 if m == 0 else m * n


def theta_product(a: ThetaIndex, b: ThetaIndex, n: int, D: int) -> RingElement:
    """Product of two basis elements as a weight-(m1+m2) RingElement.

    For each shift k in the admissible window the term lands on the class
    E(p1, p2 + k*n) mod n with coefficient prod_j t_j^(exponent); the
    exponents are computed at the un-reduced representative and only then
    is the output class canonicalized.  Terms of total degree > D drop.
    """
    m1, p1, m2, p2 = a.m, a.p, b.m, b.p
    out = RingElement(m1 + m2, n, D)
    for k in plgeom.admissible_k_range(n, m1, p1, m2, p2, D):
        exps = tuple(_exponent(n, m1, p1, m2, p2, k, j) for j in range(n))
        if sum(exps) > D:
            continue
        p3 = plgeom.average_E(m1, p1, m2, p2 + k * n)
        out.add_term(p3, TruncSeries(n, D, {exps: 1}))
    return out


def _mul_with_basis(
    elem: RingElement, b: ThetaIndex, product, basis_left: bool
) -> RingElement:
    """elem * b, or b * elem when basis_left, expanded over elem's terms;
    product(x, y) is the basis product x * y."""
    out = RingElement(elem.m + b.m, elem.n, elem.D)
    for p, s in elem.coeffs.items():
        e = ThetaIndex(elem.m, p)
        prod = product(b, e) if basis_left else product(e, b)
        for p3, s3 in prod.coeffs.items():
            out.add_term(p3, s3.mul(s))
    return out


class StructureTable:
    """All pairwise basis products up to a weight cap, at truncation D."""

    def __init__(self, n: int, D: int, entries: dict):
        self.n = n
        self.D = D
        self.entries: dict[tuple[ThetaIndex, ThetaIndex], RingElement] = entries

    def sorted_keys(self):
        return sorted(self.entries, key=lambda ab: ab[0].sort_key() + ab[1].sort_key())

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "D": self.D,
            "entries": [
                {
                    "a": a.to_json_obj(),
                    "b": b.to_json_obj(),
                    "result": self.entries[(a, b)].to_json_obj(),
                }
                for a, b in self.sorted_keys()
            ],
        }

    def to_csv(self) -> str:
        """One monomial per row: flat, diff-friendly dump of the table."""
        lines = ["m1,p1,m2,p2,p_out,exponents,coeff"]
        for a, b in self.sorted_keys():
            for p3, s in self.entries[(a, b)].items():
                for e, c in s.iter_terms():
                    lines.append(
                        f"{a.m},{a.p},{b.m},{b.p},{p3},{' '.join(map(str, e))},{c}"
                    )
        return "\n".join(lines) + "\n"


def build_table(n: int, max_m: int, D: int, product=None) -> StructureTable:
    """Products of all basis pairs with both weights <= max_m.

    ``product`` defaults to theta_product; any callable with the same
    signature (a, b, n, D) -> RingElement may stand in, which is how the
    independently counted tables are built for comparison.
    """
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    if product is None:
        product = theta_product
    entries = {}
    for m1 in range(1, max_m + 1):
        for m2 in range(1, max_m + 1):
            for a in basis_indices(n, m1):
                for b in basis_indices(n, m2):
                    entries[(a, b)] = product(a, b, n, D)
    return StructureTable(n, D, entries)


def specialize_ngon(table: StructureTable) -> dict:
    """Constant terms of the whole table: the product table of the t=0 fiber.

    Returns {(a, b): {p3: integer coefficient}} with zero entries dropped.
    """
    out = {}
    for key, elem in table.entries.items():
        consts = {p: s.constant_term() for p, s in elem.items() if s.constant_term()}
        out[key] = consts
    return out


def check_associativity(n: int, D: int, weights) -> dict:
    """Compare (a*b)*c with a*(b*c) over all basis triples at given weights.

    Returns a report dict with the number of triples checked and a list of
    failures (empty when the ring laws hold at truncation D).
    """
    m1, m2, m3 = weights
    # every basis pair recurs across triples; results are never mutated,
    # so one product per ordered pair is shared for this call only
    memo: dict[tuple[ThetaIndex, ThetaIndex], RingElement] = {}

    def product(x: ThetaIndex, y: ThetaIndex) -> RingElement:
        got = memo.get((x, y))
        if got is None:
            got = memo[(x, y)] = theta_product(x, y, n, D)
        return got

    failures = []
    checked = 0
    for a in basis_indices(n, m1):
        for b in basis_indices(n, m2):
            ab = product(a, b)
            for c in basis_indices(n, m3):
                left = _mul_with_basis(ab, c, product, basis_left=False)
                bc = product(b, c)
                right = _mul_with_basis(bc, a, product, basis_left=True)
                checked += 1
                if left != right:
                    failures.append(
                        {
                            "a": a.to_json_obj(),
                            "b": b.to_json_obj(),
                            "c": c.to_json_obj(),
                            "left": left.to_json_obj(),
                            "right": right.to_json_obj(),
                        }
                    )
    return {
        "n": n,
        "D": D,
        "weights": list(weights),
        "triples_checked": checked,
        "failures": failures,
    }
