"""Spans and counters recorded around calls into the mirror_ring layers.

A Tracer swaps public functions and methods of the package modules for
timing wrappers while it is installed and puts the originals back when
it is removed; nothing inside the package changes.  Spans are kept as
per-name aggregates (calls, self time, inclusive time) rather than one
record per call, because a traced round makes millions of calls.

Self time is a span's duration minus the durations of the spans it
caused.  The bookkeeping a wrapper does after the call (counting term
pairs, bounding-box cells and so on) is charged to the wrapper itself,
so it never shows up as self time of the caller.  Inclusive time is
added only when the outermost span of a name closes, so a recursive or
re-entrant call is not counted twice.
"""

from __future__ import annotations

import time
from fractions import Fraction

from mirror_ring import cli, floer, moduli, plgeom, quiver, series, theta


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [span name, seconds of child spans]
        self._depth: dict[str, int] = {}
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.incl_s.clear()
        self.counts.clear()

    def count(self, name: str, value: int = 1):
        self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value: int):
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _patch(self, owner, attr: str, replacement):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, after=None):
        """Time every call of owner.attr as span `name`.

        `after(result, args, kwargs)` runs once the call has returned, for
        counters that need the operands or the result.
        """
        original = getattr(owner, attr)
        stack, depth = self._stack, self._depth
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            start = clock()
            try:
                result = original(*args, **kwargs)
                dur = clock() - start
            except BaseException:
                dur = clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += dur
                raise
            stack.pop()
            depth[name] -= 1
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - frame[1]
            if not depth[name]:
                incl_s[name] = incl_s.get(name, 0.0) + dur
            if after is not None:
                after(result, args, kwargs)
            if stack:
                stack[-1][1] += clock() - start
            return result

        self._patch(owner, attr, wrapper)

    def counter(self, owner, attr: str, name: str):
        """Count calls of owner.attr without timing them."""
        original = getattr(owner, attr)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the layer map ---------------------------------------------------

    def install(self):
        """Wrap the public functions behind every per-layer metric."""
        ts = series.TruncSeries

        def mul_after(result, args, kwargs):
            a, b = args
            self.count("series.mul.term_pairs", len(a.terms) * len(b.terms))
            self.count("series.mul.terms_out", len(result.terms))
            if result.terms:
                bits = max(abs(c) for c in result.terms.values()).bit_length()
                self.maximum("series.coeff_max_bits", bits)

        self.span(ts, "mul", "series.mul", mul_after)
        # the operator alias was bound to the original method at class creation
        self._patch(ts, "__mul__", ts.__dict__["mul"])
        self.span(ts, "invert_unit", "series.invert_unit")
        self.counter(ts, "__init__", "series.TruncSeries")

        self.span(plgeom, "t_exponent", "plgeom.t_exponent")
        # theta bound its own alias of t_exponent at import
        self._patch(theta, "_exponent", plgeom.t_exponent)

        def k_range_after(result, args, kwargs):
            self.count("plgeom.admissible_k_range.k_total", len(result))
            if self.parent() == "theta.theta_product":
                self.count("theta.k_candidates", len(result))

        self.span(plgeom, "admissible_k_range", "plgeom.admissible_k_range", k_range_after)

        def product_after(result, args, kwargs):
            kept = sum(c for s in result.coeffs.values() for c in s.terms.values())
            self.count("theta.terms_kept", kept)

        self.span(theta, "theta_product", "theta.theta_product", product_after)
        self.span(theta, "build_table", "theta.build_table")
        self.span(theta, "check_associativity", "theta.check_associativity")

        def cells_after(result, args, kwargs):
            self.count("floer.count_direct.cells", bounding_box_cells(*args[:4]))

        self.span(floer, "floer_product", "floer.floer_product")
        self.span(floer, "count_direct", "floer.count_direct", cells_after)
        self.span(floer, "count_brion", "floer.count_brion")
        self.span(floer, "mirror_verify", "floer.mirror_verify")

        self.span(moduli, "solve_s", "moduli.solve_s")
        self.span(moduli, "residue_R", "moduli.residue_R")
        self.span(moduli, "coords_b", "moduli.coords_b")
        self.span(moduli, "coords_c", "moduli.coords_c")
        self.span(moduli.ULaurent, "mul", "moduli.ULaurent.mul")
        self.span(moduli, "eval_at_p0", "moduli.eval_at_p0")

        self.span(quiver, "normal_form", "quiver.normal_form")
        self.span(quiver, "multiply", "quiver.multiply")
        self.span(quiver, "basis_registry", "quiver.basis_registry")
        self.span(quiver, "multiplication_table", "quiver.multiplication_table")

        # every serializer shares one span name: only the outermost counts
        self.span(cli, "_json_text", "cli.serialize")
        self.span(cli, "_emit", "cli.serialize")
        for cls in (series.TruncSeries, theta.RingElement, theta.StructureTable):
            self.span(cls, "to_json_obj", "cli.serialize")


def bounding_box_cells(t, n: int, j: int, eps) -> int:
    """Lattice cells in the perturbed bounding box of t that count_direct
    scans for variable j; 0 for a degenerate triangle, which it skips."""
    (ax, ay), (bx, by), (cx, cy) = t.A, t.B, t.C
    if (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):
        return 0
    eps = Fraction(eps)
    dx = eps - Fraction(j, n)
    xs = [ax - dx, bx - dx, cx - dx]
    ys = [ay - eps, by - eps, cy - eps]
    width = _floor(max(xs)) + _floor(-min(xs)) + 1
    height = _floor(max(ys)) + _floor(-min(ys)) + 1
    return max(width, 0) * max(height, 0)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced round, by name."""
    c, s, i, k = tr.calls, tr.self_s, tr.incl_s, tr.counts
    candidates = k.get("theta.k_candidates", 0)
    out = {}
    for name in (
        "series.mul",
        "series.invert_unit",
        "plgeom.t_exponent",
        "theta.theta_product",
        "floer.floer_product",
        "floer.count_direct",
        "floer.count_brion",
        "moduli.ULaurent.mul",
        "quiver.normal_form",
    ):
        out[f"{name}.calls"] = c.get(name, 0)
        out[f"{name}.self_s"] = s.get(name, 0.0)
    for name in (
        "plgeom.admissible_k_range",
        "series.TruncSeries",
        "moduli.residue_R",
        "moduli.coords_b",
        "moduli.eval_at_p0",
        "quiver.multiply",
        "quiver.basis_registry",
    ):
        out[f"{name}.calls"] = c.get(name, 0)
    for name in (
        "theta.build_table",
        "theta.check_associativity",
        "floer.mirror_verify",
        "moduli.solve_s",
        "moduli.coords_b",
        "moduli.coords_c",
        "quiver.multiplication_table",
        "cli.serialize",
    ):
        out[f"{name}.s"] = i.get(name, 0.0)
    for name in (
        "series.mul.term_pairs",
        "series.mul.terms_out",
        "series.coeff_max_bits",
        "plgeom.admissible_k_range.k_total",
        "floer.count_direct.cells",
    ):
        out[name] = k.get(name, 0)
    out["theta.terms_kept_ratio"] = k.get("theta.terms_kept", 0) / candidates if candidates else 0.0
    return out
