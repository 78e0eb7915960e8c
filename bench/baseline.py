"""The ROADMAP baseline table, regenerated by one command:

    python3 bench/run.py --baseline [--out baseline.json]

Each item is timed REPEATS times and reported as the median, both as
wall time and at the reference CPU speed of clock.py.  The exponent
routes are timed per call over one fixed list of arguments.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import checks
import clock
import workloads
from mirror_ring import cli, floer, moduli, plgeom, theta


def _exponent_args(n: int = 4, max_m: int = 3, D: int = 10) -> list[tuple]:
    """(n, m1, p1, m2, p2, k, j) for every admissible term of a table."""
    args = []
    for m1, p1, m2, p2 in checks.pair_grid(n, max_m):
        for k in plgeom.admissible_k_range(n, m1, p1, m2, p2, D):
            args.extend((n, m1, p1, m2, p2, k, j) for j in range(n))
    return args


def _route_calls(route: str, args: list[tuple]):
    """A closure making every call of one exponent route over `args`."""
    if route == "count_direct":
        prepared = []
        for n, m1, p1, m2, p2, k, j in args:
            tri = floer.lift_triangle(n, m1, p1, m2, p2, k)
            prepared.append((tri, n, j, floer.default_eps(n, m1, m2, k)))
        return lambda: [floer.count_direct(*a) for a in prepared]
    fn = {
        "t_exponent": plgeom.t_exponent,
        "t_exponent_qr": plgeom.t_exponent_qr,
        "count_brion": floer.count_brion,
    }[route]
    return lambda: [fn(*a) for a in args]


def _table(route: str):
    if route == "theta":
        return lambda: theta.build_table(5, 4, 12)
    mode = route.split("-")[1]

    def product(a, b, n, D):
        return floer.floer_product(n, a.m, a.p, b.m, b.p, D, mode=mode)

    return lambda: theta.build_table(5, 4, 12, product=product)


def _coords_c():
    workloads.clear_caches()
    moduli.solve_s(4, 12)
    workloads.CACHES["moduli.point_data"].cache_clear()
    return lambda: moduli.coords_c(4, 12)


def _solve_s():
    workloads.clear_caches()
    return lambda: moduli.solve_s(4, 12)


def _verify(workdir: Path, jobs: int):
    argv = ["verify", "--n", "4", "--max-m", "3", "--trunc", "10", "--jobs", str(jobs)]
    argv += ["-o", str(workdir / "baseline_verify.json")]

    def call():
        if cli.main(argv) != 0:
            raise RuntimeError(f"mirror-ring {' '.join(argv)} reported failures")

    return call


REPEATS = 3


def main(workdir: Path, out: str | None) -> int:
    args = _exponent_args()
    items = [
        (f"build_table(5, 4, 12) {route}", lambda r=route: _table(r), 1, True)
        for route in ("theta", "floer-brion", "floer-direct")
    ]
    items += [
        ("solve_s(4, 12)", _solve_s, 1, True),
        ("coords_c(4, 12), after solve_s is cached", _coords_c, 1, True),
    ]
    items += [
        (f"per exponent call: {route}", lambda r=route: _route_calls(r, args), len(args), True)
        for route in ("t_exponent", "t_exponent_qr", "count_brion", "count_direct")
    ]
    # the timer signal stays off while worker processes share the cores
    items += [
        (f"verify --n 4 --max-m 3 --trunc 10 --jobs {jobs}", lambda j=jobs: _verify(workdir, j), 1, jobs == 1)
        for jobs in (1, 2)
    ]
    rows = []
    print(f"{'item':<44} {'wall':>12} {'reference':>12}   (median of {REPEATS})")
    for label, prepare, per, interrupt in items:
        wall, ref = [], []
        for _ in range(REPEATS):
            call = prepare()
            with clock.Timed(interrupt) as timed:
                call()
            wall.append(timed.seconds / per)
            ref.append(timed.ref_seconds / per)
        row = {"item": label, "calls": per, "wall_s": statistics.median(wall), "ref_s": statistics.median(ref)}
        rows.append(row)
        unit, scale = ("us", 1e6) if per > 1 else ("s", 1)
        print(f"{label:<44} {row['wall_s'] * scale:>9.2f} {unit:<2} {row['ref_s'] * scale:>9.2f} {unit}")
    if out:
        Path(out).write_text(json.dumps({"baseline": rows, "repeats": REPEATS}, indent=1) + "\n")
    return 0
