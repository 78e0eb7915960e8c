"""Batch front-end: build tables, run verifications, export reports.

Every mode writes one deterministic artifact (JSON by default, CSV for
the product tables) to stdout or to the path given with -o.  The -o file
is replaced atomically, so a run that fails leaves an earlier report as
it was.  Exit codes: 0 on success, 1 when a verification report contains
failures, 2 on bad usage, including an -o path that cannot be written
or a failed write to stdout, and 3 on an internal fault: a checked
invariant of the package failed (``InvariantError``), which is reported
on one stderr line and leaves any -o file as it was.  The invariants
are explicit raises, so they hold under ``python -O`` too.
An -o path that exists but is not a regular file once links are followed
(a FIFO, device node or socket) is refused with exit code 2 before
anything is written.  An -o path through a symbolic link writes the
link's target and leaves the link in place.
Each subcommand accepts only the flags it reads.
The parser is built once per process, on the first call of ``main``, and
every later call parses with that same parser; callers must not modify
it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial

from . import floer, moduli, quiver, theta
from .plgeom import InvariantError
from .series import GradedSeries, TruncSeries, _exponents, _flat, _pack

# the C escaper json.dumps uses for str with ensure_ascii
_escape = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}

# every flag once, by its argparse destination
FLAGS = {
    "n": (("--n",), {"type": int, "default": 1, "help": "number of components"}),
    "trunc": (("--trunc",), {"type": int, "default": 6, "help": "total-degree truncation D"}),
    "max_m": (("--max-m",), {"type": int, "default": 1, "help": "weight cap"}),
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


def _json_text(obj) -> str:
    """The text json.dumps gives obj with a two-space indent and sorted
    keys, plus a newline, where each TruncSeries and each StructureTable
    stands for its ``to_json_obj()``, and each GradedSeries for that of
    the TruncSeries it holds.

    With an indent, json.dumps runs its pure-Python encoder; this writer
    joins each container's items once and escapes strings with the same
    C escaper.  A series is written from its packed keys (a TruncSeries
    is packed first), sorted as ints, which order like the exponent
    vectors: a term is the head of the term template, the coefficient
    and a tail that holds the exponent block.  A report's series share
    few exponent vectors, as most are rotations or sums of a few, so each
    tail is built once per packed key, indent and (n, D), the pair that
    fixes what the key spells, and kept in a dict that lives for this
    call only.  A table is written from its orbit list through one
    template, with no dict tree and no derived entry.  It takes only what
    the reports hold: dicts with str keys, lists, StructureTable,
    TruncSeries, GradedSeries, str, int, bool and None.  Anything else
    raises TypeError.
    """
    return _json_value(obj, "\n", {}) + "\n"


def _json_value(obj, newline: str, tails: dict) -> str:
    """The text of obj at this indent; tails is _series_text's."""
    kind = type(obj)
    if kind is str:
        return _escape(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is GradedSeries:
        return _series_text(obj.n, obj.D, obj.buckets, newline, tails)
    if kind is TruncSeries:
        return _series_text(obj.n, obj.D, _pack(obj.terms, obj.D), newline, tails)
    # a container is one join of its pieces, so an item's text is copied
    # once, into the container's
    if kind is list:
        if not obj:
            return "[]"
        inner = newline + "  "
        pieces = ["," + inner] * (2 * len(obj) + 1)
        pieces[0] = "[" + inner
        pieces[1::2] = [_json_value(x, inner, tails) for x in obj]
        pieces[-1] = newline + "]"
        return "".join(pieces)
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        pieces = []
        for key in sorted(obj):
            # the escaper raises TypeError on a key that is not a str
            pieces += ("," + inner, _escape(key), ": ", _json_value(obj[key], inner, tails))
        pieces[0] = "{" + inner
        pieces.append(newline + "}")
        return "".join(pieces)
    if kind is theta.StructureTable:
        return _table_text(obj, newline, tails)
    if obj is None or kind is bool:
        return _LITERALS[obj]
    raise TypeError(f"cannot write {kind.__name__} to a report")


def _series_text(n: int, D: int, graded: list[dict], newline: str, tails: dict) -> str:
    """The text of _series(graded, n, D).to_json_obj() at this indent,
    from the packed keys, with one int sort.  tails maps (indent, n, D) to
    the pieces of the series layout there and two memos: of each packed
    key's text, its exponent block and the next term's head, and of each
    coefficient's str."""
    got = tails.get((newline, n, D))
    if got is None:
        empty, opening, head, tail, sep, closing = _series_templates(n, D, newline)
        joint, base = sep + head, D + 1
        texts = _Memo(lambda k: tail % _exponents(k, n, base) + joint)
        got = tails[newline, n, D] = (empty, opening + head, joint, closing, texts, _Memo(str))
    empty, start, joint, closing, texts, spelled = got
    flat = _flat(graded)
    if not flat:
        return empty
    keys = sorted(flat)
    # the opening and the first head, then each coefficient and its key's text
    pieces = [start] * (2 * len(keys) + 1)
    pieces[1::2] = map(spelled.__getitem__, map(flat.__getitem__, keys))
    pieces[2::2] = map(texts.__getitem__, keys)
    pieces[-1] = pieces[-1][: -len(joint)] + closing
    return "".join(pieces)


class _Memo(dict):
    """f(key) by key, each computed on its first lookup."""

    __slots__ = ("f",)

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, key):
        value = self[key] = self.f(key)
        return value


def _series_templates(n: int, D: int, newline: str) -> tuple:
    """(empty, opening, head, tail, sep, closing): the text of a series'
    to_json_obj() at (n, D) and this indent, keys "D", "n", "terms", each
    term's keys "c" (its coefficient quoted) and "e" (one exponent a
    line), is opening, its sorted terms, each head + str(c) + tail % e,
    joined by sep, and closing; or empty, when it has no terms."""
    i2 = newline + "  "
    i4, i6, i8 = (i2 + "  " * k for k in range(1, 4))
    top = "{" + i2 + f'"D": {D},' + i2 + f'"n": {n},' + i2 + '"terms": '
    # str(c) is digits and a sign, which need no escape
    exps = ("," + i8).join(["%d"] * n)
    head = "{" + i6 + '"c": "'
    tail = '",' + i6 + '"e": [' + i8 + exps + i6 + "]" + i4 + "}"
    return top + "[]" + newline + "}", top + "[" + i4, head, tail, "," + i4, i2 + "]" + newline + "}"


def _table_text(table: theta.StructureTable, newline: str, tails: dict) -> str:
    """The text of table.to_json_obj(), read from the table's orbit list
    in its order, which is label order: each label's text built once, and
    each (elem, r, sign) result list written once, with elem's classes
    moved to (sign*a3 + r*m3) mod (m3*n) and in ascending order.

    A part whose series has one term at the table's (n, D), the shape of
    nearly every part, is three pieces: the text up to the coefficient,
    built once per output class and weight, the coefficient, and the text
    after it, built once per exponent vector moved by (r, sign).  Any
    other part holds the text of ``theta.moved_series`` from _json_value,
    the one writer of the series layout.  A class text is digits and "/",
    which need no escape.  The entries' pieces are joined once, with no
    string per entry."""
    n, D = table.n, table.D
    i2 = newline + "  "
    i4, i6, i8, i10 = (i2 + "  " * k for k in range(1, 5))
    label = "{" + i8 + '"m": %d,' + i8 + '"p": "%s"' + i6 + "}"
    head = "{" + i10 + '"p": "%s",' + i10 + '"series": '
    _, opening, term_head, term_tail, _, closing = _series_templates(n, D, i10)
    term_end = term_tail + closing + i8 + "}"
    a_key, b_key, r_key = "{" + i6 + '"a": ', "," + i6 + '"b": ', "," + i6 + '"result": '
    spell = theta.class_text
    # (part head, the one-term part's text up to its coefficient) by (a3, m3)
    heads: dict[tuple[int, int], tuple[str, str]] = {}
    # the one-term part's text after its coefficient, by exponent vector
    ends: dict[tuple[int, ...], str] = {}
    results: dict[tuple[int, int, int], str] = {}
    orbits = iter(table.orbits)
    labels = table.labels
    texts = [label % (x.m, spell(x.a, x.m)) for x in labels]
    out = ["{" + i2 + '"D": %d,' % D + i2 + '"entries": ']
    opener = "[" + i4 + a_key
    for a_text in texts:
        for b_text in texts:
            elem, r, sign = next(orbits)
            result = results.get((id(elem), r, sign))
            if result is None:
                m3 = elem.m
                if r or sign < 0:
                    size, shift = m3 * n, r * m3
                    items = [((sign * a3 + shift) % size, s) for a3, s in elem.coeffs.items()]
                    items.sort()
                else:
                    items = elem.items()
                parts = []
                for a3, s in items:
                    got = heads.get((a3, m3))
                    if got is None:
                        h = head % spell(a3, m3)
                        got = heads[a3, m3] = (h, h + opening + term_head)
                    if len(s.terms) == 1 and s.n == n and s.D == D:
                        [(e, c)] = s.terms.items()
                        if sign < 0:
                            e = e[:1] + e[:0:-1]
                        e = e[r:] + e[:r]
                        end = ends.get(e)
                        if end is None:
                            end = ends[e] = term_end % e
                        parts.append(got[1] + str(c) + end)
                    else:
                        moved = theta.moved_series(s, r, sign)
                        parts.append(got[0] + _json_value(moved, i10, tails) + i8 + "}")
                result = "[" + i8 + ("," + i8).join(parts) + i6 + "]" if parts else "[]"
                results[id(elem), r, sign] = result
            out += (opener, a_text, b_key, b_text, r_key, result, i4 + "}")
            opener = "," + i4 + a_key
    out.append((i2 + "]" if labels else "[]") + "," + i2 + '"n": %d' % n + newline + "}")
    return "".join(out)


def _emit(path: str | None, report):
    """Write a report to stdout when path is None, else replace the file at
    path atomically: the text goes to a temporary file beside it, then renamed.

    A str report is written as it is.  Any other report is written as
    _json_text(report), in two pieces, its value and the closing newline,
    so the whole text is never copied once more to end it."""
    pieces = (report,) if type(report) is str else (_json_value(report, "\n", {}), "\n")
    if path is None:
        try:
            for piece in pieces:
                sys.stdout.write(piece)
            sys.stdout.flush()
        except OSError as exc:
            raise ValueError(f"cannot write stdout: {exc.strerror or exc}") from exc
        return
    # a link is written through, so the rename lands on its final target
    real = os.path.realpath(path)
    if os.path.isdir(real):
        raise ValueError(f"cannot write {path}: Is a directory")
    if os.path.exists(real) and not os.path.isfile(real):
        raise ValueError(f"cannot write {path}: not a regular file")
    head, tail = os.path.split(real)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, real)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _run_table(mode: str | None, args) -> int:
    """Product table by the series route (mode None) or a counting route."""
    product = theta.theta_product if mode is None else partial(floer.counted_product, mode=mode)
    table = theta.build_table(args.n, args.max_m, args.trunc, product=product)
    _emit(args.output, table.to_csv() if args.fmt == "csv" else table)
    return 0


def _run_verify(args) -> int:
    report = floer.mirror_verify(args.n, args.max_m, args.trunc, jobs=args.jobs)
    _emit(args.output, report)
    return 1 if report["failures"] else 0


def _run_moduli(args) -> int:
    """The moduli report, read from the graded core of the moduli layer
    and written from its packed keys: the values of solve_s, residue_R,
    coords_b and coords_c, with no TruncSeries made."""
    n, D = args.n, args.trunc
    graded = partial(GradedSeries, n, D)
    out = {"n": n, "D": D, "s": graded(moduli._point_data(n, D)[-1])}
    if n >= 2:
        for i in range(n):
            out[f"R_{i}"] = graded(moduli._residue(i, n, D))
        b_off, b_diag = moduli._coords_b(n, D)
        for (i, j), v in b_off.items():
            out[f"b_{i}_{j}"] = graded(v)
        for i, v in b_diag.items():
            out[f"b_{i}"] = graded(v)
        if n >= 3:
            for (i, j), v in moduli._coords_c(n, D, b_off, b_diag).items():
                out[f"c_{i}_{j}"] = graded(v)
    _emit(args.output, out)
    return 0


def _run_quiver(args) -> int:
    hom = quiver.hom_table(args.n)
    d0, d1, total = quiver.graded_dims(hom)
    out = {
        "n": args.n,
        "dims": {"deg0": d0, "deg1": d1, "total": total},
        "hom": {f"{u},{v}": list(c) for (u, v), c in sorted(hom.items())},
        "node_dual_hilbert": [quiver.node_dual_hilbert(d) for d in range(8)],
        "table": quiver.multiplication_table(args.n),
    }
    _emit(args.output, out)
    return 0


def _run_assoc(args) -> int:
    reports = theta.associativity_sweep(args.n, args.max_m, args.trunc)
    _emit(args.output, {"n": args.n, "D": args.trunc, "reports": reports})
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
        TABLE_FLAGS,
    ),
    "floer-brion": (
        partial(_run_table, "brion"),
        "product table from vertex generating functions",
        TABLE_FLAGS,
    ),
    "verify": (
        _run_verify,
        "compare both counting tables against the series table",
        ("n", "trunc", "max_m", "jobs", "output"),
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


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of the process: built on first use, then shared by every
    call of main.  parse_args makes a fresh Namespace each time and the
    defaults are ints and None, so one call leaves nothing for the next;
    callers must not add to or change the parser."""
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
    except InvariantError as exc:
        print(f"mirror-ring: internal fault: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"mirror-ring: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
