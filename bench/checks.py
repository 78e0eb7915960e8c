"""Independent checks of the reports the subcommands write.

Nothing here calls into mirror_ring: each check re-derives a quantity
with its own arithmetic, or tests a property the method must have.  No
check compares against a stored copy of an earlier report.  Every check
returns a list of problems, empty when the report is right; the checks
use explicit comparisons, so they also hold under ``python -O``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


# -- shared helpers ---------------------------------------------------------


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _terms(series_obj: dict) -> dict[tuple, int]:
    return {tuple(t["e"]): int(t["c"]) for t in series_obj["terms"]}


def _by_degree(terms: dict[tuple, int], D: int) -> list[int]:
    """Specialize every t_j to one variable q: coefficients of q^0..q^D."""
    out = [0] * (D + 1)
    for e, c in terms.items():
        out[sum(e)] += c
    return out


def _rotated(terms: dict[tuple, int], i: int, n: int) -> dict[tuple, int]:
    """Cyclic relabelling t_j -> t_(j+i): exponent of t_j becomes that of t_(j-i)."""
    return {tuple(e[(j - i) % n] for j in range(n)): c for e, c in terms.items()}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if not out[e]:
            del out[e]
    return out


# -- mirror: product tables and verification ---------------------------------


def pair_grid(n: int, max_m: int) -> list[tuple]:
    """Every basis pair (m1, p1, m2, p2) of the product tables."""
    return [
        (m1, Fraction(i1, m1), m2, Fraction(i2, m2))
        for m1 in range(1, max_m + 1)
        for m2 in range(1, max_m + 1)
        for i1 in range(m1 * n)
        for i2 in range(m2 * n)
    ]


def defect_sample(n: int, max_m: int, seed: int, size: int) -> list[tuple]:
    """The seeded sample of pairs whose degrees are recomputed."""
    return random.Random(seed).sample(pair_grid(n, max_m), size)


def _phi(t: Fraction) -> Fraction:
    """The convex profile as the upper envelope of its supporting lines
    q*t - q*(q+1)/2, taken over the integers q next to t."""
    fl = t.numerator // t.denominator
    return max(q * t - Fraction(q * (q + 1), 2) for q in (fl - 1, fl, fl + 1))


def expected_degrees(n: int, D: int, m1, p1, m2, p2) -> list[tuple]:
    """Sorted (output class, total degree) of every monomial of a product.

    The k-th term has total degree m1*phi(p1) + m2*phi(p2+kn) - (m1+m2)*phi(E)
    with E the weighted average of p1 and p2+kn, and lands on E mod n.
    k runs over a window far wider than any admissible one; the degree
    grows like k^2, and both window edges are checked to lie above D.
    """
    m3 = m1 + m2
    reach = D + 4 + int(abs(p1 - p2))
    out = []
    for k in range(-reach, reach + 1):
        q = p2 + k * n
        E = (m1 * p1 + m2 * q) / m3
        deg = m1 * _phi(p1) + m2 * _phi(q) - m3 * _phi(E)
        if abs(k) == reach and deg <= D:
            raise ValueError(f"degree window too narrow at k={k}")
        if deg <= D:
            out.append((E - n * (E.numerator // (E.denominator * n)), deg))
    return out


def _entry_key(entry: dict) -> tuple:
    a, b = entry["a"], entry["b"]
    return a["m"], _frac(a["p"]), b["m"], _frac(b["p"])


def check_table(text: str, n: int, max_m: int, D: int, sample: list[tuple]) -> list[str]:
    """Structure table: complete grid, commutative, sampled degrees right."""
    problems = []
    report = json.loads(text)
    if (report["n"], report["D"]) != (n, D):
        problems.append(f"header n={report['n']} D={report['D']}")
    table = {_entry_key(e): e["result"] for e in report["entries"]}
    grid = pair_grid(n, max_m)
    if sorted(table) != sorted(grid):
        problems.append(f"{len(table)} entries, expected the {len(grid)} grid pairs")
        return problems
    for (m1, p1, m2, p2), result in table.items():
        if table[(m2, p2, m1, p1)] != result:
            problems.append(f"entry ({m1},{p1})*({m2},{p2}) differs from its commuted entry")
            break
    for m1, p1, m2, p2 in sample:
        got = []
        for term in table[(m1, p1, m2, p2)]:
            p3 = _frac(term["p"])
            for e, c in _terms(term["series"]).items():
                # a coefficient c >= 1 stands for c terms of that degree
                got.extend([(p3, Fraction(sum(e)))] * c if c > 0 else [(p3, Fraction(-1))])
        want = expected_degrees(n, D, m1, p1, m2, p2)
        if sorted(got) != sorted(want):
            problems.append(f"degrees of ({m1},{p1})*({m2},{p2}): {sorted(got)} != {want}")
    return problems


def check_same_bytes(text: str, reference: str | None, label: str) -> list[str]:
    if reference is None:
        return [f"no {label} report to compare with"]
    if text != reference:
        return [f"report differs from the {label} report"]
    return []


def check_verify(text: str, n: int, max_m: int, D: int) -> list[str]:
    report = json.loads(text)
    problems = []
    if report["failures"]:
        problems.append(f"{len(report['failures'])} verification failures")
    weights = sum(range(1, max_m + 1))
    want = 2 * weights * weights * n * n
    if report["pairs_checked"] != want:
        problems.append(f"pairs_checked {report['pairs_checked']} != {want}")
    if (report["n"], report["D"]) != (n, D):
        problems.append(f"header n={report['n']} D={report['D']}")
    return problems


# -- moduli ------------------------------------------------------------------


def _jacobi_residue_side(n: int, D: int) -> list[int]:
    """sum over iota = 0 mod n of (-1)^iota q^(iota(iota+1)/2), to degree D."""
    out = [0] * (D + 1)
    iota = -2 * (D + 1)
    while iota <= 2 * (D + 1):
        d = iota * (iota + 1) // 2
        if iota % n == 0 and d <= D:
            out[d] += -1 if iota % 2 else 1
        iota += 1
    return out


def _times_eta_cubed(a: list[int]) -> list[int]:
    """a(q) * prod_{k>=1} (1 - q^k)^3, truncated to the length of a."""
    D = len(a) - 1
    out = list(a)
    for k in range(1, D + 1):
        for _ in range(3):
            for d in range(D, k - 1, -1):
                out[d] -= out[d - k]
    return out


def check_moduli(text: str, n: int, D: int) -> list[str]:
    """Jacobi-identity specializations, constant terms, cyclic symmetry,
    and the c values re-summed from the report's own b values."""
    report = json.loads(text)
    problems = []
    if (report["n"], report["D"]) != (n, D):
        problems.append(f"header n={report['n']} D={report['D']}")
    s = _terms(report["s"])
    if any(_by_degree(s, D)):
        problems.append("s(q,...,q) is not zero")
    unit = [tuple(1 if t == j else 0 for t in range(n)) for j in range(n)]
    linear = {e: c for e, c in s.items() if sum(e) == 1}
    if linear != {unit[n - 1]: 1, unit[0]: -1}:
        problems.append(f"degree-1 part of s is {linear}")

    residues = [_terms(report[f"R_{i}"]) for i in range(n)]
    want = _jacobi_residue_side(n, D)
    for i, r in enumerate(residues):
        if _times_eta_cubed(_by_degree(r, D)) != want:
            problems.append(f"R_{i}(q,...,q) * prod(1-q^k)^3 is not the theta sum")
        if r != _rotated(residues[0], i, n):
            problems.append(f"R_{i} is not the rotation of R_0")

    zero = (0,) * n
    b_off = {
        (i, j): _terms(report[f"b_{i}_{j}"])
        for i in range(n)
        for j in range(n)
        if j not in (i, (i + 1) % n)
    }
    b_diag = {i: _terms(report[f"b_{i}"]) for i in range(n)}
    for (i, j), v in b_off.items():
        if v.get(zero, 0) != 0:
            problems.append(f"b_{i}_{j} has a nonzero constant term")
        nxt = ((i + 1) % n, (j + 1) % n)
        if b_off[nxt] != _rotated(v, 1, n):
            problems.append(f"b_{nxt[0]}_{nxt[1]} is not the rotation of b_{i}_{j}")
    for i, v in b_diag.items():
        if v.get(zero, 0) != 1:
            problems.append(f"b_{i} has constant term {v.get(zero, 0)}")
        if v != _rotated(b_diag[0], i, n):
            problems.append(f"b_{i} is not the rotation of b_0")

    if n >= 3:
        for i in range(2, n + 1):
            for j in range(2, n + 1):
                if i == j:
                    continue
                acc = {} if i < j else dict(b_diag[j % n])
                for r in range(1, i):
                    if i > j and r in (j - 1, j):
                        continue
                    acc = _add(acc, b_off[(r % n, j % n)])
                if _terms(report[f"c_{i}_{j}"]) != acc:
                    problems.append(f"c_{i}_{j} is not its sum of b values")
    return problems


# -- laws: associativity sweep and the quiver algebra --------------------------


def check_assoc(text: str, n: int, max_m: int, D: int) -> list[str]:
    report = json.loads(text)
    problems = []
    reports = report["reports"]
    if len(reports) != max_m**3:
        problems.append(f"{len(reports)} weight triples, expected {max_m**3}")
    bad = sum(len(r["failures"]) for r in reports)
    if bad:
        problems.append(f"{bad} associativity failures")
    weights = sum(range(1, max_m + 1))
    want = weights**3 * n**3
    got = sum(r["triples_checked"] for r in reports)
    if got != want:
        problems.append(f"triples_checked {got} != {want}")
    if (report["n"], report["D"]) != (n, D):
        problems.append(f"header n={report['n']} D={report['D']}")
    return problems


def check_quiver(text: str, n: int) -> list[str]:
    """Closed-form dimensions and hom ranks, and associativity of the
    reported table recomputed from its own structure constants."""
    report = json.loads(text)
    problems = []
    dims = report["dims"]
    if (dims["deg0"], dims["deg1"], dims["total"]) != (2 * n + 1, 2 * n + 1, 4 * n + 2):
        problems.append(f"dims {dims}")
    hom = {"0,0": [1, 1]}
    for i in range(1, n + 1):
        hom[f"0,{i}"] = [1, 0]
        hom[f"{i},0"] = [0, 1]
        hom[f"{i},{i}"] = [1, 1]
    if report["hom"] != hom:
        problems.append("hom table differs from the closed form")
    if report["node_dual_hilbert"] != [1] + [2] * 7:
        problems.append(f"node_dual_hilbert {report['node_dual_hilbert']}")

    table = report["table"]
    syms = []
    for key in table:
        x = key.split("*")[0]
        if x not in syms:
            syms.append(x)
    if len(syms) != 4 * n + 2 or len(table) != len(syms) ** 2:
        problems.append(f"table over {len(syms)} symbols with {len(table)} products")
        return problems

    def times(left: dict, right: dict) -> dict:
        out = {}
        for s1, c1 in left.items():
            for s2, c2 in right.items():
                for s3, c3 in table[f"{s1}*{s2}"].items():
                    out[s3] = out.get(s3, 0) + c1 * c2 * c3
        return {s: c for s, c in out.items() if c}

    basis = {s: {s: 1} for s in syms}
    for x in syms:
        for y in syms:
            xy = table[f"{x}*{y}"]
            for z in syms:
                if times(xy, basis[z]) != times(basis[x], table[f"{y}*{z}"]):
                    problems.append(f"({x}*{y})*{z} != {x}*({y}*{z})")
                    return problems
    return problems
