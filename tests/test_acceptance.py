"""End-to-end acceptance gates.

One test per criterion, each printing a single PASS or FAIL line (visible
with pytest -s).  Every comparison is exact; there are no tolerances
anywhere in this file.
"""

import functools
import json
import math
import pathlib
import random
import time
from fractions import Fraction

import diagonal_oracle
from mirror_ring import floer, moduli, plgeom, quiver, theta, toric
from mirror_ring.series import TruncSeries
from mirror_ring.theta import ThetaIndex, basis_indices, build_table
from run_kernels import at_k

SEED = 434019


def _verdict(num: int, label: str, failures: list):
    ok = not failures
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({label})")
    assert ok, f"criterion {num} failed, first cases: {failures[:3]}"


def _canonical_ps(m: int, n: int) -> list[Fraction]:
    return [idx.p for idx in basis_indices(n, m)]


@functools.lru_cache(maxsize=1)
def _triple_grid():
    """Exhaustive route evaluation grid shared by criteria 2 and 9.

    At each point the shipped kernels (slot j of plgeom.lambda_exponents,
    read through theta._exponent and t_exponent_qr, count_brion and slot
    j of floer._lifted_counts) must equal both Fraction references,
    t_exponent and count_direct on lift_triangle.
    Returns (points, route_mismatches, eps_mismatches).  Any internal
    consistency assertion firing inside the routes aborts the run, which
    fails both criteria; that is intended.
    """
    points = 0
    route_bad = []
    eps_bad = []
    for n in (1, 2, 3):
        for m1 in (1, 2, 3):
            for m2 in (1, 2, 3):
                for p1 in _canonical_ps(m1, n):
                    for p2 in _canonical_ps(m2, n):
                        for k in range(-5, 6):
                            tri = floer.lift_triangle(n, m1, p1, m2, p2, k)
                            eps = floer.default_eps(n, m1, m2, k)
                            frame = at_k(floer._lifted_counts)(
                                n, m1, int(m1 * p1), m2, int(m2 * p2), k
                            )
                            for j in range(n):
                                te = plgeom.t_exponent(n, m1, p1, m2, p2, k, j)
                                th = theta._exponent(n, m1, p1, m2, p2, k, j)
                                qr = plgeom.t_exponent_qr(n, m1, p1, m2, p2, k, j)
                                cb = floer.count_brion(n, m1, p1, m2, p2, k, j)
                                cd = floer.count_direct(tri, n, j, eps)
                                cd7 = floer.count_direct(tri, n, j, eps / 7)
                                points += 1
                                case = (n, m1, p1, m2, p2, k, j)
                                got = (te, th, qr, cb, frame[j], cd)
                                if len(set(got)) != 1:
                                    route_bad.append((case, got))
                                if cd7 != cd:
                                    eps_bad.append((case, cd, cd7))
    return points, route_bad, eps_bad


def _every_pair(n: int, max_m: int, D: int, product) -> dict:
    """Every ordered basis pair multiplied by the product itself.  A table
    from build_table derives most entries by commutativity and rotation,
    so the laws are checked on this dict instead."""
    return {(a, b): product(a, b, n, D) for a, b in theta.basis_pairs(n, max_m)}


def test_criterion_1_mirror_identity():
    start = time.monotonic()
    failures = []
    pairs = 0
    for n in (1, 2, 3, 4):
        reference = _every_pair(n, 2, 6, theta.theta_product)
        for mode in ("direct", "brion"):

            def product(a, b, nn, D, _mode=mode):
                return floer.floer_product(nn, a.m, a.p, b.m, b.p, D, mode=_mode)

            counted = _every_pair(n, 2, 6, product)
            for key, elem in reference.items():
                pairs += 1
                if counted[key] != elem:
                    failures.append((n, mode, key))
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        failures.append(("runtime", elapsed))
    _verdict(
        1,
        f"mirror identity, both counting modes, {pairs} products, "
        f"D=6, {elapsed:.1f}s",
        failures,
    )


def test_criterion_2_four_route_agreement():
    points, route_bad, _ = _triple_grid()
    label = f"shipped kernels against both references on {points} grid points"
    _verdict(2, label, route_bad)


def test_criterion_3_root_series_and_residues():
    failures = []
    for n in (2, 3, 4):
        D = 6
        s = moduli.solve_s(n, D)
        t0 = TruncSeries(n, D, {tuple(1 if i == 0 else 0 for i in range(n)): 1})
        tl = TruncSeries(n, D, {tuple(1 if i == n - 1 else 0 for i in range(n)): 1})
        deg1 = TruncSeries(n, D, {e: c for e, c in s.iter_terms() if sum(e) == 1})
        deg2 = TruncSeries(n, D, {e: c for e, c in s.iter_terms() if sum(e) == 2})
        if deg1 != tl.sub(t0):
            failures.append((n, "degree-1 part"))
        if deg2 != t0.add(tl.scale(2)).mul(tl.sub(t0)):
            failures.append((n, "degree-2 part"))
        full = moduli.theta_full_chart0(n, D)
        if not moduli._eval_at(full, s).is_zero():
            failures.append((n, "section does not vanish at the root"))
        for i in range(n):
            if moduli.residue_R(i, n, D).constant_term() != 1:
                failures.append((n, i, "residue constant"))
    # closed forms on the diagonal, at a D where the triple products' x
    # factor t^(n(n+1)/2) enters the window
    D = 10
    for n in (2, 3, 4):
        r0 = diagonal_oracle.diagonal(moduli.residue_R(0, n, D))
        if diagonal_oracle.mul(r0, diagonal_oracle.cube(D)) != (
            diagonal_oracle.residue_times_cube(n, D)
        ):
            failures.append((n, "R_0 on the diagonal"))
        b0 = diagonal_oracle.diagonal(moduli.coords_b(n, D)[1][0])
        if b0 != diagonal_oracle.diagonal_b0(n, D):
            failures.append((n, "b_0 on the diagonal"))
    _verdict(
        3,
        "root series closed forms, vanishing, residue units, diagonal R_0 and b_0",
        failures,
    )


def test_criterion_4_ring_laws():
    failures = []
    for n in (1, 2, 3):
        for weights in ((1, 1, 1), (1, 1, 2)):
            rep = theta.check_associativity(n, 5, weights)
            if rep["failures"]:
                failures.append((n, weights, rep["failures"][:1]))
        table = _every_pair(n, 2, 5, theta.theta_product)
        for (a, b), elem in table.items():
            if table[(b, a)] != elem:
                failures.append((n, "commutativity", a, b))
            a1 = ThetaIndex.make(a.m, a.p + 1, n)
            b1 = ThetaIndex.make(b.m, b.p + 1, n)
            shifted = table[(a1, b1)]
            # class p3 + 1 mod n, at a3 = m3*p3
            want = {
                (a3 + elem.m) % (elem.m * n): s.rotate(1)
                for a3, s in elem.coeffs.items()
            }
            if shifted.coeffs != want:
                failures.append((n, "rotation equivariance", a, b))
    _verdict(4, "associativity, commutativity, rotation equivariance", failures)


def test_criterion_5_toric_layer():
    failures = []
    for n in (1, 2, 3, 4, 5):
        for i in range(-20, 21):
            lhs = toric.tau_apply(toric.w_point(i, n))
            if lhs != toric.w_point(i - 1, n):
                failures.append((n, i, "shift"))
    rng = random.Random(SEED)
    for _ in range(200):
        n = rng.randrange(1, 6)
        p = Fraction(rng.randrange(-240, 241), rng.randrange(1, 13))
        if not toric.in_delta(toric.w_point(p, n), n):
            failures.append((n, p, "w outside the region"))
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for a in range(-2 * m * n, 2 * m * n + 1):
                x = Fraction(a, m)
                base = toric.w_point(-x, n)
                delta = Fraction(1, m)
                for jj in range(n):
                    above = tuple(
                        base.y[t] + (delta if t == jj else 0) for t in range(n)
                    )
                    below = tuple(
                        base.y[t] - (delta if t == jj else 0) for t in range(n)
                    )
                    if not toric.in_delta(toric.MPoint(x, above), n):
                        failures.append((n, m, x, jj, "cone point excluded"))
                    if toric.in_delta(toric.MPoint(x, below), n):
                        failures.append((n, m, x, jj, "sub-floor point included"))
                grid_rng = random.Random(SEED + a + 100 * m + 10000 * n)
                for _ in range(12):
                    y = tuple(
                        base.y[t] + Fraction(grid_rng.randrange(-3 * m, 4 * m), m)
                        for t in range(n)
                    )
                    v = toric.MPoint(x, y)
                    inside = toric.in_delta(v, n)
                    in_cone = all(y[t] >= base.y[t] for t in range(n))
                    if inside != in_cone:
                        failures.append((n, m, x, y, "fiber mismatch"))
    _verdict(5, "shift action, section membership, box decomposition", failures)


def test_criterion_6_profile_identities():
    failures = []
    rng = random.Random(SEED)
    for _ in range(10_000):
        t = Fraction(rng.randrange(-4000, 4001), rng.randrange(1, 41))
        if plgeom.phi(t + 1) - plgeom.phi(t) != t:
            failures.append((t, "quasi-periodicity"))
    for _ in range(2000):
        t = Fraction(rng.randrange(-400, 401), rng.randrange(1, 25))
        kc = math.floor(t)
        best = max(
            Fraction(k) * t - Fraction(k * (k + 1), 2) for k in range(kc - 4, kc + 5)
        )
        if plgeom.phi(t) != best:
            failures.append((t, "max formula"))
    for m in range(1, 25):
        for j in range(-3 * m, 3 * m + 1):
            val = plgeom.phi(Fraction(j, m))
            if (val * m).denominator != 1:
                failures.append((m, j, "lattice stability"))
    _verdict(6, "quasi-periodicity, max formula, lattice stability", failures)


def test_criterion_7_quiver():
    failures = []
    for n in range(2, 7):
        table = quiver.hom_table(n)
        if quiver.graded_dims(table) != (2 * n + 1, 2 * n + 1, 4 * n + 2):
            failures.append((n, "dims"))
        expected = {(0, 0): [1, 1]}
        for i in range(1, n + 1):
            expected[(0, i)] = [1, 0]
            expected[(i, 0)] = [0, 1]
            expected[(i, i)] = [1, 1]
        if table != expected:
            failures.append((n, "hom table"))
    if [quiver.node_dual_hilbert(d) for d in range(10)] != [1] + [2] * 9:
        failures.append(("node dual hilbert",))
    _verdict(7, "graded dimensions by enumeration, hom ranks", failures)


def test_criterion_8_hilbert_and_specialization():
    failures = []
    for n in (1, 2, 3, 4):
        for m in range(1, 6):
            if theta.hilbert_dimension(n, m) != m * n:
                failures.append((n, m, "hilbert"))
    golden = json.loads(
        (pathlib.Path(__file__).parent / "golden" / "ngon_tables.json").read_text()
    )
    for n in (1, 2, 3, 4):
        spec = theta.specialize_ngon(build_table(n, 2, 2))
        got = {}
        for (a, b), consts in spec.items():
            for c in consts.values():
                if not (isinstance(c, int) and c >= 0):
                    failures.append((n, a, b, "non-integer or negative"))
            got[f"{a.m},{a.p}|{b.m},{b.p}"] = {
                str(p): c for p, c in sorted(consts.items())
            }
        if got != golden[str(n)]:
            failures.append((n, "golden drift"))
    _verdict(8, "weight-m dimensions m*n, frozen specialization tables", failures)


def test_criterion_9_eps_robustness():
    points, _, eps_bad = _triple_grid()
    _verdict(9, f"count_direct stable under eps/7 on {points} grid points", eps_bad)
