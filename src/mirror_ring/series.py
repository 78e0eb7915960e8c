"""Sparse truncated power series over Z in n cyclically indexed variables.

A TruncSeries holds finitely many monomials c * t_0^e0 ... t_{n-1}^e(n-1)
with integer coefficients, truncated at a fixed total degree D: every
operation silently discards monomials of total degree > D.  Coefficients
are exact big integers; there is no floating point anywhere in this
module.  All operations return new objects; instances are never mutated
after construction.
"""

from __future__ import annotations

from typing import Iterator


class SeriesError(ValueError):
    """Structural misuse of a series: bad exponents, mixed (n, D), non-unit."""


def _check_expvec(e, n):
    if len(e) != n:
        raise SeriesError(f"exponent vector {e!r} has length {len(e)}, expected {n}")
    for x in e:
        if type(x) is not int or x < 0:
            raise SeriesError(f"exponent vector {e!r} must hold nonnegative ints")


class TruncSeries:
    __slots__ = ("n", "D", "terms")

    def __init__(self, n: int, D: int, terms: dict | None = None):
        if type(n) is not int or n < 1:
            raise SeriesError(f"need an int number of variables >= 1, got n={n!r}")
        if type(D) is not int or D < 0:
            raise SeriesError(f"truncation order must be an int >= 0, got D={D!r}")
        self.n = n
        self.D = D
        clean: dict[tuple, int] = {}
        if terms:
            for e, c in terms.items():
                e = tuple(e)
                _check_expvec(e, n)
                if not isinstance(c, int):
                    raise SeriesError(f"coefficient {c!r} is not an int")
                if c != 0 and sum(e) <= D:
                    clean[e] = clean.get(e, 0) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, D: int) -> "TruncSeries":
        return cls(n, D)

    @classmethod
    def one(cls, n: int, D: int) -> "TruncSeries":
        return cls(n, D, {(0,) * n: 1})

    @classmethod
    def _raw(cls, n: int, D: int, terms: dict) -> "TruncSeries":
        # internal fast path: terms already normalized
        obj = object.__new__(cls)
        obj.n = n
        obj.D = D
        obj.terms = terms
        return obj

    # -- predicates and accessors ---------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.n, 0)

    def iter_terms(self) -> Iterator[tuple[tuple, int]]:
        for e in sorted(self.terms):
            yield e, self.terms[e]

    def _compat(self, other: "TruncSeries"):
        if not isinstance(other, TruncSeries):
            raise SeriesError(f"expected TruncSeries, got {type(other).__name__}")
        if self.n != other.n or self.D != other.D:
            raise SeriesError(
                f"mixed series: (n={self.n}, D={self.D}) vs (n={other.n}, D={other.D})"
            )

    # -- ring operations -------------------------------------------------

    def add(self, other: "TruncSeries") -> "TruncSeries":
        self._compat(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e, 0) + c
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        return TruncSeries._raw(self.n, self.D, out)

    def neg(self) -> "TruncSeries":
        return TruncSeries._raw(self.n, self.D, {e: -c for e, c in self.terms.items()})

    def sub(self, other: "TruncSeries") -> "TruncSeries":
        return self.add(other.neg())

    def scale(self, c: int) -> "TruncSeries":
        if not isinstance(c, int):
            raise SeriesError(f"scalar must be int, got {c!r}")
        if c == 0:
            return TruncSeries.zero(self.n, self.D)
        return TruncSeries._raw(self.n, self.D, {e: c * v for e, v in self.terms.items()})

    def mul(self, other: "TruncSeries") -> "TruncSeries":
        """The product truncated at D, by the graded kernel ``_gmul`` for
        any operands; its one caller in the package is ``ULaurent.mul``."""
        self._compat(other)
        D = self.D
        return _series(_gmul(_pack(self.terms, D), _pack(other.terms, D), D), self.n, D)

    def invert_unit(self) -> "TruncSeries":
        """Multiplicative inverse; requires constant term +1 or -1."""
        return _series(_ginv(_pack(self.terms, self.D), self.D), self.n, self.D)

    def rotate(self, shift: int) -> "TruncSeries":
        """Cyclic substitution of variables: new exponent of t_j is the old
        exponent of t_{(j+shift) mod n}."""
        s = shift % self.n
        if s == 0:
            return self
        out = {e[s:] + e[:s]: c for e, c in self.terms.items()}
        return TruncSeries._raw(self.n, self.D, out)

    # -- operator sugar ---------------------------------------------------

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.n == other.n
            and self.D == other.D
            and self.terms == other.terms
        )

    __hash__ = None  # mutable-dict payload; structural equality only

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.iter_terms():
            factors = []
            if abs(c) != 1 or not any(e):
                factors.append(str(abs(c)))
            for j, k in enumerate(e):
                if k == 1:
                    factors.append(f"t{j}")
                elif k > 1:
                    factors.append(f"t{j}^{k}")
            mono = "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + mono)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"TruncSeries(n={self.n}, D={self.D}, {self})"

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "D": self.D,
            "terms": [
                {"e": list(e), "c": str(c)} for e, c in self.iter_terms()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TruncSeries":
        try:
            n, D, rows = obj["n"], obj["D"], obj["terms"]
            terms = {tuple(t["e"]): _int_from_json(t["c"]) for t in rows}
            if len(terms) != len(rows):
                raise ValueError("an exponent vector is repeated")
        except (KeyError, TypeError, ValueError) as exc:
            raise SeriesError(f"malformed series object: {exc}") from exc
        return cls(n, D, terms)


def _int_from_json(c) -> int:
    """A coefficient as the writers spell it, an int or its str(); a float,
    a bool, None or other int() text ("+5", "007") is refused, not truncated."""
    if type(c) is int or isinstance(c, str) and str(int(c)) == c:
        return int(c)
    raise TypeError(f"coefficient {c!r} is not an int")


# -- the product kernel ------------------------------------------------------
#
# Inside a product, terms are held graded: a list indexed by total degree
# 0..D of dicts mapping the exponent vector, packed as one base-(D+1)
# integer with t_0 in the most significant digit, to its coefficient.
# Adding packed keys multiplies monomials.  No digit can carry, because
# a kept product has total degree <= D, so each of its exponents is < D+1;
# the degree of a product is the sum of the bucket indices, so it is never
# recomputed from the exponents.  Packed keys order like the exponent
# tuples, so _unpack, and the report writer, sort ints to put the terms in
# ascending exponent order.
#
# _gmul and _ginv are the one product and inverse kernel, _gsum and _gneg
# add and negate, _grotate rotates, and _series makes a TruncSeries: mul
# and invert_unit are _pack, a kernel and _series, and the moduli layer
# keeps its series graded with these helpers from the root to the report
# text, which a GradedSeries carries.  No bucket they return holds a zero
# coefficient.


def _pack(terms: dict, D: int) -> list[dict]:
    base = D + 1
    graded: list[dict] = [{} for _ in range(D + 1)]
    for e, c in terms.items():
        k = 0
        for x in e:
            k = k * base + x
        graded[sum(e)][k] = c
    return graded


def _exponents(k: int, n: int, base: int) -> tuple[int, ...]:
    """The exponent vector of the packed key k."""
    e = [0] * n
    for j in range(n - 1, 0, -1):
        k, e[j] = divmod(k, base)
    e[0] = k
    return tuple(e)


def _flat(graded: list[dict]) -> dict:
    """The packed terms of a graded series in one dict; a key lies in one
    bucket only, that of its degree."""
    flat: dict = {}
    for bucket in graded:
        flat.update(bucket)
    return flat


def _unpack(graded: list[dict], n: int, D: int) -> dict:
    """The terms of a graded series, as a dict in ascending exponent order."""
    base = D + 1
    flat = _flat(graded)
    return {_exponents(k, n, base): flat[k] for k in sorted(flat)}


def _degree(a: list[dict], b: list[dict], d: int, lo: int = 0, acc: dict | None = None) -> dict:
    """The degree-d bucket of the product of two graded operands: the sum
    of a[da] * b[d - da] over da = lo..d, skipping empty buckets, added
    into acc when one is given.  It reads a[lo..d] and b[0..d - lo] only.

    Coefficients that cancel stay in the result as zeros.
    """
    if acc is None:
        acc = {}
    get = acc.get
    for da in range(lo, d + 1):
        ta, tb = a[da], b[d - da]
        if not ta or not tb:
            continue
        if len(ta) > len(tb):
            # the longer bucket in the inner loop
            ta, tb = tb, ta
        for ka, ca in ta.items():
            for kb, cb in tb.items():
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
    return acc


def _nonzero(bucket: dict) -> dict:
    """bucket without its zero coefficients."""
    return {k: c for k, c in bucket.items() if c} if 0 in bucket.values() else bucket


def _gmul(a: list[dict], b: list[dict], D: int) -> list[dict]:
    """The graded product of two graded series, truncated at D."""
    return [_nonzero(_degree(a, b, d)) for d in range(D + 1)]


def _ginv(a: list[dict], D: int) -> list[dict]:
    """The graded inverse of a graded series with constant term +1 or -1.

    a * y = 1 degree by degree: y_0 = c0, y_d = -c0 * sum_{k>=1} a_k y_(d-k).
    """
    c0 = a[0].get(0, 0)
    if c0 not in (1, -1):
        raise SeriesError(f"series with constant term {c0} is not invertible over Z")
    y = [{0: c0}]
    for d in range(1, D + 1):
        y.append({k: -c0 * c for k, c in _degree(a, y, d, 1).items() if c})
    return y


def _gsum(*parts: list[dict]) -> list[dict]:
    """The bucket-wise sum of graded series, cancelled keys dropped."""
    out = []
    for buckets in zip(*parts):
        acc = dict(buckets[0])
        for bucket in buckets[1:]:
            for k, c in bucket.items():
                acc[k] = acc.get(k, 0) + c
        out.append(_nonzero(acc))
    return out


def _gneg(g: list[dict]) -> list[dict]:
    return [{k: -c for k, c in bucket.items()} for bucket in g]


def _grotate(g: list[dict], shift: int, n: int, D: int) -> list[dict]:
    """TruncSeries.rotate on a graded series.  t_0 is the key's top digit,
    so the top s = shift mod n digits move to the bottom: k becomes
    (k mod B^(n-s)) B^s + k div B^(n-s), B = D + 1.  The digits only move,
    so each key stays in its degree bucket."""
    s = shift % n
    if s == 0:
        return g
    low = (D + 1) ** (n - s)
    up = (D + 1) ** s
    return [{k % low * up + k // low: c for k, c in bucket.items()} for bucket in g]


def _series(g: list[dict], n: int, D: int) -> TruncSeries:
    """The TruncSeries of a graded series, its terms in exponent order."""
    return TruncSeries._raw(n, D, _unpack(g, n, D))


class GradedSeries:
    """A graded series at (n, D), held as the kernels return it, for a
    report: the writer gives it the text of _series(buckets, n, D) with
    no exponent tuple built for a term."""

    __slots__ = ("n", "D", "buckets")

    def __init__(self, n: int, D: int, buckets: list[dict]):
        self.n = n
        self.D = D
        self.buckets = buckets
