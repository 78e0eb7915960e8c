"""Sparse truncated power series over Z in n cyclically indexed variables.

A TruncSeries holds finitely many monomials c * t_0^e0 ... t_{n-1}^e(n-1)
with integer coefficients, truncated at a fixed total degree D: every
operation silently discards monomials of total degree > D.  Coefficients
are exact big integers; there is no floating point anywhere in this
module.  All operations return new objects; instances are never mutated
after construction.
"""

from __future__ import annotations

import operator
from typing import Iterator


class SeriesError(ValueError):
    """Structural misuse of a series: bad exponents, mixed (n, D), non-unit."""


def _check_expvec(e, n):
    if len(e) != n:
        raise SeriesError(f"exponent vector {e!r} has length {len(e)}, expected {n}")
    for x in e:
        if not isinstance(x, int) or x < 0:
            raise SeriesError(f"exponent vector {e!r} must hold nonnegative ints")


class TruncSeries:
    __slots__ = ("n", "D", "terms")

    def __init__(self, n: int, D: int, terms: dict | None = None):
        if n < 1:
            raise SeriesError(f"need at least one variable, got n={n}")
        if D < 0:
            raise SeriesError(f"truncation order must be >= 0, got D={D}")
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
        self._compat(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return TruncSeries.zero(self.n, self.D)
        D = self.D
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial times a series, too small to repay packing; distinct
            # terms of b give distinct products, so nothing cancels
            ((ea, ca),) = a.items()
            room = D - sum(ea)
            out = {
                tuple(map(operator.add, ea, eb)): ca * cb
                for eb, cb in b.items()
                if sum(eb) <= room
            }
            return TruncSeries._raw(self.n, D, out)
        prod = _graded_mul(_pack(a, D), _pack(b, D), D)
        return TruncSeries._raw(self.n, D, _unpack(prod, self.n, D))

    def invert_unit(self) -> "TruncSeries":
        """Multiplicative inverse; requires constant term +1 or -1."""
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise SeriesError(f"series with constant term {c0} is not invertible over Z")
        # Newton doubling y <- y + y*(1 - a*y): when a*y = 1 through degree
        # prec, 1 - a*y starts at degree prec+1, so the new y is the old one
        # through prec and -(y * (a*y restricted above prec)) above it, and
        # a*y_new = 1 - (1 - a*y)^2 holds through degree 2*prec+1.
        D = self.D
        a = _pack(self.terms, D)
        y = _pack({(0,) * self.n: c0}, D)
        prec = 0
        while prec < D:
            new = min(2 * prec + 1, D)
            ay = _graded_mul(a, y, new)
            err = [{}] * (prec + 1) + [
                {k: -c for k, c in ay[d].items() if c} for d in range(prec + 1, new + 1)
            ]
            y = y[: prec + 1] + _graded_mul(y, err, new)[prec + 1 :]
            prec = new
        return TruncSeries._raw(self.n, D, _unpack(y, self.n, D))

    def rotate(self, shift: int) -> "TruncSeries":
        """Cyclic substitution of variables: new exponent of t_j is the old
        exponent of t_{(j+shift) mod n}."""
        s = shift % self.n
        if s == 0:
            return self
        n = self.n
        out = {
            tuple(e[(j + s) % n] for j in range(n)): c for e, c in self.terms.items()
        }
        return TruncSeries._raw(n, self.D, out)

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
            n, D = obj["n"], obj["D"]
            terms = {tuple(t["e"]): int(t["c"]) for t in obj["terms"]}
        except (KeyError, TypeError) as exc:
            raise SeriesError(f"malformed series object: {exc}") from exc
        return cls(n, D, terms)


# -- the product kernel ------------------------------------------------------
#
# Inside a product, terms are held graded: a list indexed by total degree
# 0..D of dicts mapping the exponent vector, packed as one base-(D+1)
# integer with t_0 in the most significant digit, to its coefficient.
# Adding packed keys multiplies monomials.  No digit can carry, because
# a kept product has total degree <= D, so each of its exponents is < D+1;
# the degree of a product is the sum of the bucket indices, so it is never
# recomputed from the exponents.


def _pack(terms: dict, D: int) -> list[dict]:
    base = D + 1
    graded: list[dict] = [{} for _ in range(D + 1)]
    for e, c in terms.items():
        k = 0
        for x in e:
            k = k * base + x
        graded[sum(e)][k] = c
    return graded


def _unpack(graded: list[dict], n: int, D: int) -> dict:
    base = D + 1
    digits = range(n - 1, 0, -1)
    out = {}
    for bucket in graded:
        for k, c in bucket.items():
            if not c:
                continue
            e = [0] * n
            for j in digits:
                k, e[j] = divmod(k, base)
            e[0] = k
            out[tuple(e)] = c
    return out


def _graded_mul(a: list[dict], b: list[dict], cap: int) -> list[dict]:
    """Product of two graded operands, keeping total degrees <= cap.

    Coefficients that cancel stay in the result as zeros; _unpack drops
    them.
    """
    out: list[dict] = [{} for _ in range(cap + 1)]
    for da in range(min(len(a) - 1, cap) + 1):
        ta = a[da]
        if not ta:
            continue
        for db in range(min(len(b) - 1, cap - da) + 1):
            tb = b[db]
            if not tb:
                continue
            acc = out[da + db]
            get = acc.get
            for ka, ca in ta.items():
                for kb, cb in tb.items():
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
    return out

