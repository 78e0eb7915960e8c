"""Marked points, residues, and moduli coordinates of the degenerating
family, computed as exact power series in the gluing parameters.

Everything happens in a single affine chart.  The canonical section is
expanded there as a Laurent series in the chart coordinate u with
t-series coefficients, its distinguished root u = 1 + s(t) is found
degree by degree, and all point evaluations reduce to substituting that
root and cyclically rotating variable indices.  The b and c coordinate
functions come out of unit-denominator expressions only; no 0/0 ratio is
ever formed.

Sign convention: the logarithmic vector field is oriented as -u d/du in
the residue and coordinate computations, which makes every residue a
series with constant term +1.  The raw derivative helper keeps the bare
e*u^e action.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import plgeom
from .series import TruncSeries


def _window(n: int, D: int) -> int:
    return D + n + 1


class ULaurent:
    """Laurent polynomial in u with TruncSeries coefficients.

    The u-exponent window is |e| <= D + n + 1; the constructions used
    here keep every discarded exponent's coefficient at t-degree > D, so
    the window loses nothing.  That containment is asserted, not assumed.
    """

    __slots__ = ("n", "D", "terms")

    def __init__(self, n: int, D: int, terms: dict | None = None):
        self.n = n
        self.D = D
        self.terms: dict[int, TruncSeries] = {}
        if terms:
            for e, s in terms.items():
                if s.is_zero():
                    continue
                if (s.n, s.D) != (n, D):
                    raise ValueError("coefficient context mismatch")
                if abs(e) > _window(n, D):
                    raise AssertionError(
                        f"u-exponent {e} outside window +-{_window(n, D)}"
                    )
                self.terms[e] = self.terms[e].add(s) if e in self.terms else s

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "ULaurent") -> "ULaurent":
        if (self.n, self.D) != (other.n, other.D):
            raise ValueError("context mismatch")
        out = dict(self.terms)
        for e, s in other.terms.items():
            acc = out[e].add(s) if e in out else s
            if acc.is_zero():
                out.pop(e, None)
            else:
                out[e] = acc
        return ULaurent(self.n, self.D, out)

    def mul(self, other: "ULaurent") -> "ULaurent":
        if (self.n, self.D) != (other.n, other.D):
            raise ValueError("context mismatch")
        acc: dict[int, TruncSeries] = {}
        for e1, s1 in self.terms.items():
            for e2, s2 in other.terms.items():
                p = s1.mul(s2)
                if p.is_zero():
                    continue
                e = e1 + e2
                acc[e] = acc[e].add(p) if e in acc else p
        return ULaurent(self.n, self.D, acc)

    def iter_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ULaurent)
            and (self.n, self.D) == (other.n, other.D)
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        parts = [f"({s})*u^{e}" for e, s in self.iter_terms()]
        return " + ".join(parts) if parts else "0"


def _chart_term_exponents(iota: int, c: int, n: int) -> tuple[int, ...]:
    """t-exponents of the iota-th summand expanded in chart c."""
    exps = []
    for j in range(n):
        g = (
            n * plgeom.phi(Fraction(j - iota, n))
            - n * plgeom.phi(Fraction(j - c, n))
            - (iota - c) * (1 if j <= c - 1 else 0)
        )
        assert g.denominator == 1 and g >= 0, f"bad chart exponent at {iota}, {c}, {j}"
        exps.append(int(g))
    return tuple(exps)


def _theta_chart(l: int | None, c: int, n: int, D: int) -> ULaurent:
    """Chart-c expansion of the residue-l part of the canonical section.

    l=None gives the full section.  Each retained summand is the monomial
    (-1)^(iota-c) u^(c-iota) times a t-monomial of nonnegative exponents;
    summands of t-degree > D are dropped (their u-powers stay inside the
    window for exactly that reason).
    """
    terms: dict[int, TruncSeries] = {}
    reach = D + n + 2
    for iota in range(c - reach, c + reach + 1):
        if l is not None and (iota - l) % n != 0:
            continue
        exps = _chart_term_exponents(iota, c, n)
        if sum(exps) > D:
            continue
        sign = -1 if (iota - c) % 2 else 1
        mono = TruncSeries(n, D, {exps: sign})
        e = c - iota
        terms[e] = terms[e].add(mono) if e in terms else mono
    return ULaurent(n, D, terms)


def theta_chart0(i: int, n: int, D: int) -> ULaurent:
    """Residue-i part of the section in the base chart.

    The summand at index iota carries t-degree exactly iota(iota+1)/2,
    which is asserted; that quadratic growth is what keeps the Laurent
    window finite.
    """
    if not 0 <= i < n:
        raise ValueError(f"index i must be in [0, {n}), got {i}")
    g = _theta_chart(i, 0, n, D)
    for e, s in g.terms.items():
        iota = -e
        for exps, _ in s.iter_terms():
            assert sum(exps) == iota * (iota + 1) // 2, (
                f"t-degree of summand {iota} is not triangular"
            )
    return g


def theta_full_chart0(n: int, D: int) -> ULaurent:
    """The full section in the base chart: all residues summed."""
    return _theta_chart(None, 0, n, D)


def d_log_derivative(g: ULaurent) -> ULaurent:
    """Apply u d/du termwise: u^e goes to e u^e."""
    return ULaurent(g.n, g.D, {e: s.scale(e) for e, s in g.terms.items() if e != 0})


def _eval_at(g: ULaurent, s: TruncSeries) -> TruncSeries:
    """Substitute u = 1 + s into g, exactly, truncating at the shared D."""
    n, D = g.n, g.D
    one = TruncSeries.one(n, D)
    base = one.add(s)
    pows = {0: one}
    out = TruncSeries.zero(n, D)
    exps = sorted(g.terms)
    pos = [e for e in exps if e > 0]
    negs = [-e for e in exps if e < 0]
    if pos:
        cur = one
        for e in range(1, max(pos) + 1):
            cur = cur.mul(base)
            pows[e] = cur
    if negs:
        inv = base.invert_unit()
        cur = one
        for e in range(1, max(negs) + 1):
            cur = cur.mul(inv)
            pows[-e] = cur
    for e, coeff in g.terms.items():
        out = out.add(coeff.mul(pows[e]))
    return out


def _hpart(s: TruncSeries, d: int) -> TruncSeries:
    return TruncSeries(s.n, s.D, {e: c for e, c in s.terms.items() if sum(e) == d})


@functools.lru_cache(maxsize=None)
def solve_s(n: int, D: int) -> TruncSeries:
    """The unique no-constant-term series s with the section vanishing at
    u = 1 + s, found degree by degree.

    At each degree d the defect of the current partial solution is itself
    the homogeneous correction s_d, because the u-derivative of the
    section at u=1 has constant term -1.
    """
    th = theta_full_chart0(n, D)
    s = TruncSeries.zero(n, D)
    for d in range(1, D + 1):
        residual = _eval_at(th, s)
        assert all(sum(e) >= d for e in residual.terms), "lower defect survived"
        s = s.add(_hpart(residual, d))
    assert _eval_at(th, s).is_zero(), "root substitution left a nonzero residual"
    return s


def eval_at_p0(g: ULaurent, n: int, D: int) -> TruncSeries:
    """Evaluate a chart-0 Laurent series at the distinguished base point."""
    if (g.n, g.D) != (n, D):
        raise ValueError("context mismatch")
    return _eval_at(g, solve_s(n, D))


def _ensure_multi(n: int):
    if n < 2:
        raise ValueError(
            "residues and moduli coordinates need at least two components (n >= 2)"
        )


@functools.lru_cache(maxsize=None)
def _point_data(n: int, D: int):
    """Evaluations at the base point of every residue part and its
    logarithmic derivative, plus the full-section derivative."""
    th = []
    dth = []
    for l in range(n):
        g = theta_chart0(l, n, D)
        th.append(eval_at_p0(g, n, D))
        dth.append(eval_at_p0(d_log_derivative(g), n, D))
    dth_full = TruncSeries.zero(n, D)
    for s in dth:
        dth_full = dth_full.add(s)
    return th, dth, dth_full


def residue_R(i: int, n: int, D: int) -> TruncSeries:
    """Residue of the i-th normalized ratio at the i-th marked point.

    A unit with constant term +1 under the -u d/du orientation; the i-th
    value is the rotation of the 0-th.
    """
    _ensure_multi(n)
    if not 0 <= i < n:
        raise ValueError(f"index i must be in [0, {n}), got {i}")
    th, _, dth_full = _point_data(n, D)
    r0 = th[0].mul(dth_full.neg().invert_unit())
    assert r0.constant_term() == 1, "residue is not 1 at t=0"
    return r0.rotate(-i) if i else r0


def coords_b(n: int, D: int):
    """Off-diagonal values b_(i,j) and diagonal values b_i of the chart
    transition functions at the marked points.

    Keys are 0-based mod n: b_off[(i,j)] for j distinct from i and i+1,
    b_diag[i] for every i.  Every evaluation is a ratio whose denominator
    is a unit; where the raw value sits over a vanishing constant term,
    the derivative substitute is used instead, once, in fixed form.  The
    residue parts away from their own two points vanish at t = 0 but not
    identically, so the diagonal value keeps its ratio-difference form;
    see diagonal_routes for the residue-weighted alternative.
    """
    _ensure_multi(n)
    th, dth, dth_full = _point_data(n, D)
    for l in range(1, n - 1):
        assert th[l].constant_term() == 0, (
            f"residue-{l} part has a nonzero value at t=0 at the base point"
        )
    inv_dth_full = dth_full.invert_unit()
    core_lh = {
        l: dth[l].mul(inv_dth_full) for l in range(1, n - 1)
    }
    # R_i is R_0 rotated and rotation is a ring automorphism, so the
    # inverse of R_i is the same rotation of the inverse of R_0
    r0_inv = residue_R(0, n, D).invert_unit()
    b_off = {}
    for i in range(n):
        r_inv = r0_inv.rotate(-i)
        for j in range(n):
            if j == i or j == (i + 1) % n:
                continue
            l = (i - j) % n
            val = core_lh[l].rotate(-j).mul(r_inv)
            assert val.constant_term() == 0, "off-diagonal value at t=0 is nonzero"
            b_off[(i, j)] = val
    core_diag, core_diag_alt = diagonal_routes(n, D)
    if n == 2:
        # with only two marked points the two displayed forms coincide
        assert core_diag == core_diag_alt, "diagonal routes disagree at n=2"
    assert core_diag.constant_term() == 1, "diagonal value at t=0 is not 1"
    b_diag = {i: core_diag.rotate(-i) for i in range(n)}
    return b_off, b_diag


def diagonal_routes(n: int, D: int) -> tuple[TruncSeries, TruncSeries]:
    """Both published forms of the diagonal b value at the base point.

    First the logarithmic ratio difference of the two adjacent residue
    parts (the form coords_b returns), then the residue-weighted
    combination it is usually simplified from.  The simplification step
    divides by an evaluation that vanishes only at t = 0 once n >= 3, so
    the two agree identically just for n = 2; beyond that they share the
    constant term and diverge at first order.  Both are exact series and
    both are exposed so the divergence itself stays under test.
    """
    _ensure_multi(n)
    th, dth, dth_full = _point_data(n, D)
    r0 = residue_R(0, n, D)
    r_prev = r0.rotate(1)  # the (n-1)-st residue
    core_diag = dth[n - 1].mul(th[n - 1].invert_unit()).sub(
        dth[0].mul(th[0].invert_unit())
    )
    numer = r0.mul(dth[n - 1]).add(r_prev.mul(dth[0]))
    denom = r_prev.mul(r0).mul(dth_full)
    core_diag_alt = numer.mul(denom.invert_unit())
    assert core_diag.constant_term() == core_diag_alt.constant_term() == 1
    return core_diag, core_diag_alt


def coords_c(n: int, D: int) -> dict:
    """The generating coordinate functions c_(i,j), 1-based labels.

    Defined for 2 <= i, j <= n with i distinct from j, as the appropriate
    partial sums of b-values; indices inside the sums are taken mod n.
    Needs n >= 3.
    """
    if n < 3:
        raise ValueError("the c coordinate system is unsupported for n < 3")
    return coords_c_from_b(n, D, *coords_b(n, D))


def coords_c_from_b(n: int, D: int, b_off: dict, b_diag: dict) -> dict:
    """coords_c from the (b_off, b_diag) values coords_b(n, D) returned."""

    def boff(r: int, j: int) -> TruncSeries:
        return b_off[(r % n, j % n)]

    out = {}
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            if i == j:
                continue
            if i < j:
                acc = TruncSeries.zero(n, D)
                for r in range(1, i):
                    acc = acc.add(boff(r, j))
            else:
                acc = b_diag[j % n]
                for r in range(1, i):
                    if r in (j - 1, j):
                        continue
                    acc = acc.add(boff(r, j))
            out[(i, j)] = acc
    return out
