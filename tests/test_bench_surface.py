"""What the benchmark under bench/ needs from the package.

The benchmark wraps package functions by name and calls others directly,
so renaming or deleting one breaks it without failing any other test.
"""

import pathlib

from mirror_ring import floer, moduli, plgeom, quiver, series, theta

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_removes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    def wrapped():
        return quiver.multiply, moduli.ULaurent.mul, series.TruncSeries.mul, theta._exponent

    originals = wrapped()
    tr = tracer.Tracer()
    try:
        tr.install()
        assert quiver.multiply is not originals[0]
    finally:
        tr.remove()
    assert wrapped() == originals


def test_names_the_benchmark_calls_exist():
    for cached in (moduli.solve_s, moduli._point_data):
        assert callable(cached.cache_clear)
    for fn in (
        floer.lift_triangle,
        floer.default_eps,
        floer.count_direct,
        floer.count_brion,
        plgeom.t_exponent_qr,
        moduli.coords_c,
        theta.build_table,
    ):
        assert callable(fn)
