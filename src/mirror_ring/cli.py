"""Batch front-end: build tables, run verifications, export reports.

Every mode writes one deterministic artifact (JSON by default, CSV for
the product tables) to stdout or to the path given with -o.  The -o file
is replaced atomically, so a run that fails leaves an earlier report as
it was.  Exit codes: 0 on success, 1 when a verification report contains
failures, 2 on bad usage, including an -o path that cannot be written.
Each subcommand accepts only the flags it reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial

from . import floer, moduli, quiver, theta

# every flag once, by its argparse destination
FLAGS = {
    "n": (("--n",), {"type": int, "default": 1, "help": "number of components"}),
    "trunc": (("--trunc",), {"type": int, "default": 6, "help": "total-degree truncation D"}),
    "max_m": (("--max-m",), {"type": int, "default": 1, "help": "weight cap"}),
    "eps": (("--eps",), {"type": Fraction, "help": "direct-count offset, a rational like 1/100"}),
    "jobs": (("--jobs",), {"type": int, "default": 0, "help": "workers, 0 = all usable cores"}),
    "fmt": (("--format",), {"choices": ("json", "csv"), "default": "json"}),
    "output": (("-o", "--output"), {"help": "output path"}),
}

# smallest accepted value of each integer flag
LOWEST = {"n": 1, "trunc": 0, "max_m": 1, "jobs": 0}


def _check_ranges(args: argparse.Namespace):
    for dest, low in LOWEST.items():
        value = getattr(args, dest, low)
        if value < low:
            raise ValueError(f"{FLAGS[dest][0][0]} must be >= {low}, got {value}")
    eps = getattr(args, "eps", None)
    if eps is not None and eps <= 0:
        raise ValueError(f"--eps must be positive, got {eps}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(path: str | None, text: str):
    """Write text to stdout, or replace the file at path atomically: the
    text goes to a temporary file beside it, which is then renamed."""
    if not path:
        sys.stdout.write(text)
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _run_table(mode: str | None, args) -> int:
    """Product table by the series route (mode None) or a counting route."""
    if mode is None:
        product = theta.theta_product
    else:
        eps = args.eps if mode == "direct" else None

        def product(a, b, n, D):
            return floer.floer_product(n, a.m, a.p, b.m, b.p, D, mode, eps=eps)

    table = theta.build_table(args.n, args.max_m, args.trunc, product=product)
    text = table.to_csv() if args.fmt == "csv" else _json_text(table.to_json_obj())
    _emit(args.output, text)
    return 0


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_verify(args) -> int:
    report = floer.mirror_verify(
        args.n, args.max_m, args.trunc, eps=args.eps, jobs=args.jobs or _usable_cpus()
    )
    _emit(args.output, _json_text(report))
    return 1 if report["failures"] else 0


def _run_moduli(args) -> int:
    n, D = args.n, args.trunc
    out = {"n": n, "D": D, "s": moduli.solve_s(n, D).to_json_obj()}
    if n >= 2:
        for i in range(n):
            out[f"R_{i}"] = moduli.residue_R(i, n, D).to_json_obj()
        b_off, b_diag = moduli.coords_b(n, D)
        for (i, j), v in b_off.items():
            out[f"b_{i}_{j}"] = v.to_json_obj()
        for i, v in b_diag.items():
            out[f"b_{i}"] = v.to_json_obj()
        if n >= 3:
            for (i, j), v in moduli.coords_c_from_b(n, D, b_off, b_diag).items():
                out[f"c_{i}_{j}"] = v.to_json_obj()
    _emit(args.output, _json_text(out))
    return 0


def _run_quiver(args) -> int:
    d0, d1, total = quiver.graded_dims(args.n)
    out = {
        "n": args.n,
        "dims": {"deg0": d0, "deg1": d1, "total": total},
        "hom": {
            f"{u},{v}": list(c)
            for (u, v), c in sorted(quiver.hom_table(args.n).items())
        },
        "node_dual_hilbert": [quiver.node_dual_hilbert(d) for d in range(8)],
        "table": quiver.multiplication_table(args.n),
    }
    _emit(args.output, _json_text(out))
    return 0


def _run_assoc(args) -> int:
    weights = range(1, args.max_m + 1)
    reports = [
        theta.check_associativity(args.n, args.trunc, (m1, m2, m3))
        for m1 in weights
        for m2 in weights
        for m3 in weights
    ]
    _emit(args.output, _json_text({"n": args.n, "D": args.trunc, "reports": reports}))
    return 1 if any(rep["failures"] for rep in reports) else 0


TABLE_FLAGS = ("n", "trunc", "max_m", "fmt", "output")

# subcommand: (handler, help, the flags it reads)
SUBCOMMANDS = {
    "theta": (
        partial(_run_table, None),
        "product table from the closed series formula",
        TABLE_FLAGS,
    ),
    "floer-direct": (
        partial(_run_table, "direct"),
        "product table from direct lattice point counts",
        TABLE_FLAGS + ("eps",),
    ),
    "floer-brion": (
        partial(_run_table, "brion"),
        "product table from vertex generating functions",
        TABLE_FLAGS,
    ),
    "verify": (
        _run_verify,
        "compare both counting tables against the series table",
        ("n", "trunc", "max_m", "eps", "jobs", "output"),
    ),
    "moduli": (
        _run_moduli,
        "root series, residues, and b/c coordinate report",
        ("n", "trunc", "output"),
    ),
    "quiver": (
        _run_quiver,
        "graded dimensions and multiplication table of the path algebra",
        ("n", "output"),
    ),
    "assoc": (
        _run_assoc,
        "associativity report over all weight triples up to max-m",
        ("n", "trunc", "max_m", "output"),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirror-ring",
        description=(
            "Exact structure constants of the degenerating elliptic curve "
            "ring, two independent ways, with verification reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest in flags:
            option_strings, settings = FLAGS[dest]
            p.add_argument(*option_strings, dest=dest, **settings)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = SUBCOMMANDS[args.command][0]
    try:
        _check_ranges(args)
        return handler(args)
    except ValueError as exc:
        print(f"mirror-ring: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
