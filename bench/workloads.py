"""The three workloads and the loop that runs one round of a workload.

An operation is one ``mirror-ring`` subcommand, run in this process
through ``mirror_ring.cli.main`` with ``-o`` into a scratch directory,
followed by the independent checks of the report it wrote.  A round runs
every operation of a workload once, in order, as a closed loop with one
caller: each subcommand starts when the previous one and its checks are
done.  Only the subcommand itself is timed.
"""

from __future__ import annotations

import dataclasses
import gc
import traceback
from pathlib import Path
from typing import Callable

import checks
import clock
from mirror_ring import cli, moduli

# the lru caches of the moduli layer, held before a tracer wraps the
# module functions, so they can be cleared and read in every mode
CACHES = {"moduli.solve_s": moduli.solve_s, "moduli.point_data": moduli._point_data}

MIRROR = {"n": 5, "max_m": 4, "D": 12}
MODULI = {"n": 4, "D": 12}
ASSOC = {"n": 3, "max_m": 2, "D": 6}
QUIVER_N = 12
DEFECT_SAMPLE = 40  # pairs per run whose degrees are recomputed from phi


@dataclasses.dataclass(frozen=True)
class Step:
    op: str  # the operation's name in the results
    argv: tuple[str, ...]  # subcommand and flags, without -o
    check: Callable[[str, dict], list[str]]  # (report text, round context) -> problems
    metric: str  # per-subcommand metric name
    work: int | None = None  # items per invocation: metric is a rate; None: seconds


def _size_flags(n: int, D: int, max_m: int | None = None) -> tuple[str, ...]:
    flags = ("--n", str(n), "--trunc", str(D))
    return flags if max_m is None else flags + ("--max-m", str(max_m))


def _mirror_steps() -> list[Step]:
    n, max_m, D = MIRROR["n"], MIRROR["max_m"], MIRROR["D"]
    size = _size_flags(n, D, max_m)
    weights = sum(range(1, max_m + 1))
    pairs = weights * weights * n * n

    def theta_check(text, ctx):
        ctx["theta"] = text
        return checks.check_table(text, n, max_m, D, ctx["sample"])

    def same_as_theta(text, ctx):
        return checks.check_same_bytes(text, ctx.get("theta"), "theta")

    def verify_check(text, ctx):
        return checks.check_verify(text, n, max_m, D)

    return [
        Step("theta", ("theta",) + size, theta_check, "theta_products_per_s", pairs),
        Step("floer-direct", ("floer-direct",) + size, same_as_theta, "direct_products_per_s", pairs),
        Step("floer-brion", ("floer-brion",) + size, same_as_theta, "brion_products_per_s", pairs),
        Step(
            "verify",
            ("verify",) + size + ("--jobs", "1"),
            verify_check,
            "verify_pairs_per_s",
            2 * pairs,
        ),
    ]


def _moduli_steps() -> list[Step]:
    n, D = MODULI["n"], MODULI["D"]
    return [
        Step(
            "moduli",
            ("moduli",) + _size_flags(n, D),
            lambda text, ctx: checks.check_moduli(text, n, D),
            "moduli_s",
        )
    ]


def _laws_steps() -> list[Step]:
    n, max_m, D = ASSOC["n"], ASSOC["max_m"], ASSOC["D"]
    weights = sum(range(1, max_m + 1))
    return [
        Step(
            "assoc",
            ("assoc",) + _size_flags(n, D, max_m),
            lambda text, ctx: checks.check_assoc(text, n, max_m, D),
            "assoc_triples_per_s",
            weights**3 * n**3,
        ),
        Step(
            "quiver",
            ("quiver", "--n", str(QUIVER_N)),
            lambda text, ctx: checks.check_quiver(text, QUIVER_N),
            "quiver_s",
        ),
    ]


WORKLOADS = {"mirror": _mirror_steps, "moduli": _moduli_steps, "laws": _laws_steps}


def round_context(workload: str, seed: int) -> dict:
    """Per-run inputs drawn from the seed: only the mirror defect sample."""
    if workload != "mirror":
        return {}
    n, max_m = MIRROR["n"], MIRROR["max_m"]
    return {"sample": checks.defect_sample(n, max_m, seed, DEFECT_SAMPLE)}


@dataclasses.dataclass
class Outcome:
    op: str
    seconds: float  # wall time of the subcommand
    ref_seconds: float  # the same at the reference CPU speed (see clock.py)
    wrong: bool  # the subcommand wrote a report that fails its checks
    report_bytes: int
    problems: list[str]


def clear_caches():
    for cache in CACHES.values():
        cache.cache_clear()


def run_step(step: Step, workdir: Path, ctx: dict) -> Outcome:
    """Run one subcommand from cold moduli caches, then check its report."""
    out = workdir / f"{step.op}.out"
    out.unlink(missing_ok=True)
    clear_caches()
    gc.collect()
    problems = []
    with clock.Timed() as timed:
        try:
            rc = cli.main(list(step.argv) + ["-o", str(out)])
        except Exception as exc:  # a fault inside the program fails this operation only
            traceback.print_exc()
            rc = f"{type(exc).__name__}: {exc}"
    if rc != 0:
        problems.append(f"exit {rc}")
    if not out.exists():
        problems.append("no report written")
        return Outcome(step.op, timed.seconds, timed.ref_seconds, False, 0, problems)
    text = out.read_text()
    try:
        found = step.check(text, ctx)
    except (KeyError, TypeError, ValueError) as exc:
        found = [f"malformed report: {type(exc).__name__}: {exc}"]
    problems.extend(found)
    return Outcome(step.op, timed.seconds, timed.ref_seconds, bool(found), len(text.encode()), problems)


def run_round(steps: list[Step], workdir: Path, ctx: dict) -> list[Outcome]:
    ctx = dict(ctx)
    return [run_step(step, workdir, ctx) for step in steps]
