"""Marked points, residues, and moduli coordinates of the degenerating
family, computed as exact power series in the gluing parameters.

Everything happens in a single affine chart.  The canonical section is
expanded there as a Laurent series in the chart coordinate u with
t-series coefficients of integer exponents; its distinguished root
u = 1 + s(t) is solved online, one degree at a time on the graded powers
of 1 + s.  One power table of 1 + s then evaluates every residue part,
and the parts' sum, the section's value, must vanish: that is the proof
of the root.  The u^e coefficient of the section has t-degree
iota(iota+1)/2, e = -iota, so (1 + s)^e is built and read only through
D less that degree, its cut (_cuts); no bucket above the cut can reach
degree D of a value.  All point evaluations reduce to
substituting that root and cyclically rotating variable indices.  The b
and c coordinate functions come out of unit-denominator expressions
only; no 0/0 ratio is ever formed.

From the root to the report text, series stay graded, as lists of
D + 1 buckets of packed exponent keys, handled by series.py's graded
helpers.  The root, the power table, every substituted residue part, the
residual check, the full-section derivative and its inverse, R_0, the
products of coords_b, every rotation (series._grotate) and the running
sums of c are all formed that way, by one core: _point_data, _residue,
_coords_b and _coords_c.  The moduli report reads the core and writes
its text from the packed keys, with no exponent tuple built.  The public
solve_s, residue_R, coords_b, coords_c and coords_c_from_b are thin
wrappers over the core that make a TruncSeries (series._series) of each
value they return.

Sign convention: the logarithmic vector field is oriented as -u d/du in
the residue and coordinate computations, which makes every residue a
series with constant term +1.  The raw derivative helper keeps the bare
e*u^e action.
"""

from __future__ import annotations

import functools

from .plgeom import InvariantError
from .series import (
    TruncSeries,
    _degree,
    _ginv,
    _gmul,
    _gneg,
    _grotate,
    _gsum,
    _nonzero,
    _pack,
    _series,
)


def _window(n: int, D: int) -> int:
    return D + n + 1


class ULaurent:
    """Laurent polynomial in u with TruncSeries coefficients.

    The u-exponent window is |e| <= D + n + 1; the constructions used
    here keep every discarded exponent's coefficient at t-degree > D, so
    the window loses nothing.  That containment is checked, not assumed.
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
                    raise InvariantError(
                        f"u-exponent {e} outside window +-{_window(n, D)}"
                    )
                self.terms[e] = s

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


def _chart_term_exponents(iota: int, n: int) -> tuple[int, ...]:
    """t-exponents of the iota-th summand in the base chart: slot j is
    n*phi((j - iota)/n) = kappa*N - n*kappa*(kappa+1)/2, N = j - iota and
    kappa = N // n, as the theta route's kernel writes it but never calls
    it.  toric.w_point(iota, n).y is its Fraction reference in the tests."""
    exps = []
    for j in range(n):
        N = j - iota
        kappa = N // n
        exps.append(kappa * N - n * kappa * (kappa + 1) // 2)
    return tuple(exps)


def _theta_chart(l: int | None, n: int, D: int) -> ULaurent:
    """Base-chart expansion of the residue-l part of the canonical section;
    l=None gives the full section.

    Each retained summand is (-1)^iota u^(-iota) times a t-monomial whose
    exponents are checked nonnegative and of degree exactly iota(iota+1)/2;
    that quadratic growth keeps the Laurent window finite, and summands of
    t-degree > D are dropped (their u-powers stay inside the window for
    exactly that reason).  Chart c's residue-l part is the residue-(l - c)
    part here with every coefficient rotated by -c.
    """
    terms: dict[int, TruncSeries] = {}
    reach = D + n + 2
    for iota in range(-reach, reach + 1):
        if l is not None and (iota - l) % n != 0:
            continue
        exps = _chart_term_exponents(iota, n)
        if min(exps) < 0:
            raise InvariantError(f"bad chart exponent at {iota}: {exps}")
        deg = sum(exps)
        if deg != iota * (iota + 1) // 2:
            raise InvariantError(f"t-degree of summand {iota} is not triangular")
        if deg > D:
            continue
        terms[-iota] = TruncSeries._raw(n, D, {exps: -1 if iota % 2 else 1})
    return ULaurent(n, D, terms)


def theta_chart0(i: int, n: int, D: int) -> ULaurent:
    """Residue-i part of the section in the base chart, from the integer
    exponents of _chart_term_exponents, every summand checked."""
    if not 0 <= i < n:
        raise ValueError(f"index i must be in [0, {n}), got {i}")
    return _theta_chart(i, n, D)


def theta_full_chart0(n: int, D: int) -> ULaurent:
    """The full section in the base chart: all residues summed."""
    return _theta_chart(None, n, D)


def d_log_derivative(g: ULaurent) -> ULaurent:
    """Apply u d/du termwise: u^e goes to e u^e."""
    return ULaurent(g.n, g.D, {e: s.scale(e) for e, s in g.terms.items() if e != 0})


def _span(*parts: ULaurent) -> tuple[int, int]:
    """The u-exponent range lo <= 0 <= hi that covers every part."""
    exps = [0, *(e for g in parts for e in g.terms)]
    return min(exps), max(exps)


def _cuts(D: int, *parts: ULaurent) -> dict[int, int]:
    """The cut of (1 + s)^e for every e in the parts' u-span: D less the
    lowest t-degree of any u^e coefficient, raised to the cut of every
    power further out on the same side, through which the chain e -> e+1
    or e -> e-1 passes.  (1 + s)^0 is cut at 0 at least.

    A coefficient c of lowest degree low meets the power only in products
    c_a p_b with a >= low and a + b <= D, so no bucket of the power above
    D - low can reach degree D.  In the section's chart every u^e
    coefficient of t-degree iota(iota+1)/2, e = -iota, cuts (1 + s)^e
    that much short of D.
    """
    need: dict[int, int] = {}
    for g in parts:
        for e, c in g.terms.items():
            need[e] = max(need.get(e, -1), D - min(map(sum, c.terms)))
    lo, hi = _span(*parts)
    cuts = {}
    for side in (range(hi, 0, -1), range(lo, 0)):
        run = -1
        for e in side:
            run = cuts[e] = max(run, need.get(e, -1))
    cuts[0] = max(need.get(0, 0), cuts.get(1, 0), cuts.get(-1, 0))
    return cuts


def _low(c: list[dict]) -> int:
    """The lowest degree of a nonzero graded series."""
    return next(d for d, bucket in enumerate(c) if bucket)


def _powers(s: list[dict], cuts: dict[int, int]) -> dict[int, list[dict]]:
    """The graded (1 + s)^e for every e of cuts, each through its cut
    (_cuts) and no further, from the graded s, one inversion at most, at
    the cut of (1 + s)^-1.  A bucket above the cut would meet the u^e
    coefficients only above degree D.

    Each power is one product of the power next inward, which is cut no
    shorter, with 1 + s or its inverse, so it is exact through its cut."""
    base = [{0: 1}, *s[1:]]
    pows = {0: [{0: 1}] + [{} for _ in range(cuts[0])]}
    cur = pows[0]
    for e in range(1, max(cuts) + 1):
        cur = pows[e] = _gmul(cur, base, cuts[e])
    if -1 in cuts:
        inv = _ginv(base, cuts[-1])
        cur = pows[0]
        for e in range(1, -min(cuts) + 1):
            cur = pows[-e] = _gmul(cur, inv, cuts[-e])
    return pows


def _substitute(g: ULaurent, pows: dict[int, list[dict]]) -> list[dict]:
    """g at u = 1 + s, graded: each u-coefficient of g, of any number of
    terms, times its graded power from a table _powers built.  A
    coefficient of lowest degree low reads its power through D - low only,
    so a power cut there loses no bucket of the value; a power cut shorter
    is refused, naming e, rather than read past its end.  It does not
    reuse _defect, which solves the root, so that a fault there cannot
    reach both the root and the substitution that proves it."""
    D = g.D
    coeffs = []
    for e, c in g.terms.items():
        packed = _pack(c.terms, D)
        low, p = _low(packed), pows[e]
        if len(p) <= D - low:
            raise InvariantError(
                f"(1 + s)^{e} is cut at t-degree {len(p) - 1}, "
                f"short of the {D - low} its u-coefficient reaches"
            )
        coeffs.append((packed, p, low))
    out = []
    for d in range(D + 1):
        acc: dict = {}
        for c, p, low in coeffs:
            _degree(c, p, d, low, acc)
        out.append(_nonzero(acc))
    return out


def _eval_at(g: ULaurent, s: TruncSeries) -> TruncSeries:
    """Substitute u = 1 + s into g, exactly, truncating at the shared D."""
    pows = _powers(_pack(s.terms, s.D), _cuts(g.D, g))
    return _series(_substitute(g, pows), g.n, g.D)


def _defect(coeffs: dict, pows: dict, d: int) -> dict:
    """Bucket d of sum_e c_e (1 + s)^e, from each graded c_e with its
    lowest degree and the graded powers, cancelled keys dropped."""
    acc: dict = {}
    for e, (c, low) in coeffs.items():
        _degree(c, pows[e], d, low, acc)
    return _nonzero(acc)


def _online_root(th: ULaurent) -> list[dict]:
    """The graded no-constant-term root s of th, one degree at a time, on
    the graded buckets of (1 + s)^e for every e in th's u-span.

    At degree d, bucket d of each power is first formed with s_d still 0:
    upward from (1 + s)^(e-1) (1 + s), and downward by solving
    (1 + s)^e (1 + s) = (1 + s)^(e+1) for (1 + s)^e.  Each is one
    _degree call, which reads s only through degree d and the power only
    below d.  The defect at degree d is then s_d itself, because the
    u-derivative of th at u = 1 has constant term -1, and s_d enters
    bucket d of (1 + s)^e as e s_d.  Only s is returned, so the buckets
    are gone before anyone checks it.

    Chain e stops once d passes its cut (_cuts): the defect reads
    (1 + s)^e through D - low only, low the lowest t-degree of th's
    u^e coefficient, and a chain further in is cut no shorter.  A cut
    short of that is refused before the first step.
    """
    D = th.D
    coeffs = {}
    for e, c in th.terms.items():
        packed = _pack(c.terms, D)
        coeffs[e] = packed, _low(packed)
    cuts = _cuts(D, th)
    for e, (_, low) in coeffs.items():
        if cuts[e] < D - low:
            raise InvariantError(
                f"(1 + s)^{e} is cut at t-degree {cuts[e]}, "
                f"short of the {D - low} its u-coefficient reaches"
            )
    s: list[dict] = [{} for _ in range(D + 1)]
    pows = {e: [{0: 1}] for e in cuts}
    lo, hi = min(cuts), max(cuts)
    for d in range(1, D + 1):
        if cuts[0] >= d:
            pows[0].append({})
        for e in range(1, hi + 1):
            if cuts[e] < d:
                break
            below = pows[e - 1]
            pows[e].append(_degree(s, below, d, 1, dict(below[d])))
        for e in range(-1, lo - 1, -1):
            if cuts[e] < d:
                break
            acc = dict(pows[e + 1][d])
            for k, c in _degree(s, pows[e], d, 1).items():
                acc[k] = acc.get(k, 0) - c
            pows[e].append(acc)
        s[d] = _defect(coeffs, pows, d)
        for e, p in pows.items():
            if len(p) > d:
                bucket = p[d]
                for k, c in s[d].items():
                    bucket[k] = bucket.get(k, 0) + e * c
                p[d] = _nonzero(bucket)
    return s


@functools.lru_cache(maxsize=None)
def solve_s(n: int, D: int) -> TruncSeries:
    """The unique no-constant-term series s with the section vanishing at
    u = 1 + s, read from _point_data, which finds it and proves it.  At
    n = 1 the root is u = 1 and s is zero."""
    return _series(_point_data(n, D)[-1], n, D)


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
    """At u = 1 + s, every residue part and its logarithmic derivative,
    the full-section derivative and its inverse, the residue R_0 that
    every R_i rotates and the root s, all graded.

    _online_root finds s and never substitutes it back.  Here one power
    table built from s alone takes all 2n values, and the residue parts'
    sum is the full section's value, so its vanishing proves the root.
    The table's cuts come from the parts' own coefficients, and
    _substitute refuses a power cut short of what it reads.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if D < 0:
        raise ValueError(f"truncation order must be >= 0, got D={D}")
    s = _online_root(theta_full_chart0(n, D))
    parts = []
    for l in range(n):
        g = theta_chart0(l, n, D)
        parts += [g, d_log_derivative(g)]
    # each summand of the section lies in one residue part and u d/du
    # drops only u^0, so the parts span exactly the section's u-exponents
    pows = _powers(s, _cuts(D, *parts))
    vals = [_substitute(g, pows) for g in parts]
    th, dth = vals[0::2], vals[1::2]
    if any(_gsum(*th)):
        raise InvariantError("root substitution left a nonzero residual")
    dth_full = _gsum(*dth)
    inv_dth_full = _ginv(dth_full, D)
    r0 = _gneg(_gmul(th[0], inv_dth_full, D))
    # at n = 1 the one part is the whole section, so R is undefined
    if n > 1 and r0[0].get(0, 0) != 1:
        raise InvariantError("residue is not 1 at t=0")
    return th, dth, dth_full, inv_dth_full, r0, s


def residue_R(i: int, n: int, D: int) -> TruncSeries:
    """Residue of the i-th normalized ratio at the i-th marked point.

    A unit with constant term +1 under the -u d/du orientation; the i-th
    value is the rotation of the 0-th.
    """
    return _series(_residue(i, n, D), n, D)


def _residue(i: int, n: int, D: int) -> list[dict]:
    """residue_R(i, n, D), graded."""
    _ensure_multi(n)
    if not 0 <= i < n:
        raise ValueError(f"index i must be in [0, {n}), got {i}")
    return _grotate(_point_data(n, D)[4], -i, n, D)


def _unpacked(values: dict, n: int, D: int) -> dict:
    """A dict of graded series with each value made a TruncSeries."""
    return {key: _series(g, n, D) for key, g in values.items()}


def coords_b(n: int, D: int):
    """Off-diagonal values b_(i,j) and diagonal values b_i of the chart
    transition functions at the marked points.

    Keys are 0-based mod n: b_off[(i,j)] for j distinct from i and i+1,
    b_diag[i] for every i.  Every evaluation is a ratio whose denominator
    is a unit; where the raw value sits over a vanishing constant term,
    the derivative substitute is used instead, once, in fixed form.

    b_0 is the logarithmic derivative u d/du log(theta_{n-1}/theta_0) of
    the two residue parts that meet at the base point, evaluated there;
    b_i is its rotation by i.  Multiplying every residue part by one unit
    e(u) changes the local frame but not the point, and leaves b_i as it
    is: the log-derivative of e cancels in the ratio.

    b_(0,j) is the rotation by -j of theta'_l/Theta' with l = n - j, times
    the inverse of R_0 = -theta_0/Theta', which is -Theta'/theta_0 and so
    needs no inversion of its own.  Rotation is a ring automorphism, so
    b_(i,j) is b_(0,j-i) rotated by -i: only the n - 2 products b_(0,j)
    are formed.
    """
    b_off, b_diag = _coords_b(n, D)
    return _unpacked(b_off, n, D), _unpacked(b_diag, n, D)


def _coords_b(n: int, D: int):
    """coords_b(n, D), graded: every product, rotation and check on the
    packed keys, from _point_data's graded values."""
    _ensure_multi(n)
    th, dth, dth_full, inv_dth_full, *_ = _point_data(n, D)
    for l in range(1, n - 1):
        if th[l][0]:
            raise InvariantError(
                f"residue-{l} part has a nonzero value at t=0 at the base point"
            )
    th0_inv = _ginv(th[0], D)
    r0_inv = _gneg(_gmul(dth_full, th0_inv, D))
    b_off = {}
    for j in range(2, n):
        rotated = _grotate(_gmul(dth[n - j], inv_dth_full, D), -j, n, D)
        b0j = _gmul(rotated, r0_inv, D)
        # a rotation keeps the constant term, the key 0 of bucket 0
        if b0j[0]:
            raise InvariantError("off-diagonal value at t=0 is nonzero")
        for i in range(n):
            b_off[(i, (i + j) % n)] = _grotate(b0j, -i, n, D)
    core = _gsum(
        _gmul(dth[n - 1], _ginv(th[n - 1], D), D), _gneg(_gmul(dth[0], th0_inv, D))
    )
    if core[0].get(0, 0) != 1:
        raise InvariantError("diagonal value at t=0 is not 1")
    b_diag = {i: _grotate(core, -i, n, D) for i in range(n)}
    return b_off, b_diag


def coords_c(n: int, D: int) -> dict:
    """The generating coordinate functions c_(i,j), 1-based labels.

    Defined for 2 <= i, j <= n with i distinct from j, as the appropriate
    partial sums of b-values; indices inside the sums are taken mod n.
    Needs n >= 3.
    """
    if n < 3:
        raise ValueError("the c coordinate system is unsupported for n < 3")
    return _unpacked(_coords_c(n, D, *_coords_b(n, D)), n, D)


def coords_c_from_b(n: int, D: int, b_off: dict, b_diag: dict) -> dict:
    """coords_c from the (b_off, b_diag) values coords_b(n, D) returned."""
    zero = TruncSeries.zero(n, D)
    for v in (*b_off.values(), *b_diag.values()):
        zero._compat(v)
    packed = [{key: _pack(v.terms, D) for key, v in b.items()} for b in (b_off, b_diag)]
    return _unpacked(_coords_c(n, D, *packed), n, D)


def _coords_c(n: int, D: int, b_off: dict, b_diag: dict) -> dict:
    """coords_c from graded b values, graded.

    Each column j is one running sum: c_(i,j) is c_(i-1,j) plus
    b_(i-1,j), a term that is absent for i - 1 = j - 1 and is the
    diagonal b_j for i - 1 = j.
    """
    out = {}
    for j in range(2, n + 1):
        acc = [{} for _ in range(D + 1)]
        for i in range(2, n + 1):
            r = i - 1
            if r == j:
                acc = _gsum(acc, b_diag[j % n])
            elif r != j - 1:
                acc = _gsum(acc, b_off[(r, j % n)])
            if i != j:
                out[(i, j)] = acc
    return out
