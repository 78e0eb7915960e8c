"""Command line behavior: determinism, exit codes, report shapes."""

import argparse
import errno
import hashlib
import json
import os
import pathlib
import stat
import subprocess
import sys

import pytest

import mirror_ring
import pinned_reports
from mirror_ring import cli, floer, moduli, plgeom
from mirror_ring.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["-o", str(out)])
    return rc, out.read_text()


def test_table_output_is_deterministic(tmp_path):
    argv = ["theta", "--n", "2", "--max-m", "2", "--trunc", "4",
            "--format", "csv"]
    rc1, text1 = run_to_file(tmp_path, "a.csv", argv)
    rc2, text2 = run_to_file(tmp_path, "b.csv", argv)
    assert rc1 == rc2 == 0
    assert text1 == text2
    assert text1 == (GOLDEN / "cli_theta_n2.csv").read_text()
    assert text1.splitlines()[0] == "m1,p1,m2,p2,p_out,exponents,coeff"


def test_verify_parallel_matches_serial(tmp_path):
    base = ["verify", "--n", "2", "--max-m", "1", "--trunc", "4"]
    rc1, text1 = run_to_file(tmp_path, "j1.json", base + ["--jobs", "1"])
    rc2, text2 = run_to_file(tmp_path, "j2.json", base + ["--jobs", "2"])
    assert rc1 == rc2 == 0
    assert text1 == text2
    assert text1 == (GOLDEN / "cli_verify_n2.json").read_text()
    report = json.loads(text1)
    assert report["failures"] == []
    # both counting styles contribute, so the pair count is doubled
    assert report["pairs_checked"] == 2 * (2 * 1) ** 2


def test_moduli_report_matches_golden(tmp_path):
    rc, text = run_to_file(
        tmp_path, "m.json", ["moduli", "--n", "3", "--trunc", "3"]
    )
    assert rc == 0
    assert text == (GOLDEN / "cli_moduli_n3.json").read_text()
    report = json.loads(text)
    assert {"s", "R_0", "R_1", "R_2", "b_0", "b_0_2", "c_2_3"} <= set(report)


@pytest.mark.parametrize(
    "argv, digest", pinned_reports.PINS, ids=["_".join(argv) for argv, _ in pinned_reports.PINS]
)
def test_pinned_report(argv, digest):
    pinned_reports.check(argv, digest)


def test_every_subcommand_is_pinned():
    """Pruning the manifest must not drop a subcommand, or CSV, from the
    reports checked under python -O."""
    commands = [tuple(argv) for argv, _ in pinned_reports.PINS]
    assert len(set(commands)) == len(commands)
    assert {argv[0] for argv in commands} == set(cli.SUBCOMMANDS)
    assert any(argv[-2:] == ("--format", "csv") for argv in commands)


def test_stdout_of_a_process_is_pinned():
    """The manifest redirects stdout in-process; a real process's stdout
    must give the same bytes."""
    argv = ["moduli", "--n", "6", "--trunc", "12"]
    [digest] = [d for a, d in pinned_reports.PINS if a == argv]
    src = str(pathlib.Path(mirror_ring.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "mirror_ring.cli", *argv],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_moduli_single_component_has_only_root_series(capsys):
    assert main(["moduli", "--n", "1", "--trunc", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"n", "D", "s"}
    assert report["s"]["terms"] == []


@pytest.mark.parametrize("n, D", [(1, 4), (2, 6), (3, 0), (3, 8), (5, 6)])
def test_moduli_report_is_the_public_values(capsys, n, D):
    """The report, read from the graded core and written from its packed
    keys, is the stdlib text of the TruncSeries that solve_s, residue_R,
    coords_b and coords_c return: the wrappers and the core agree."""
    want = {"n": n, "D": D, "s": moduli.solve_s(n, D)}
    if n >= 2:
        want.update({f"R_{i}": moduli.residue_R(i, n, D) for i in range(n)})
        b_off, b_diag = moduli.coords_b(n, D)
        want.update({f"b_{i}_{j}": v for (i, j), v in b_off.items()})
        want.update({f"b_{i}": v for i, v in b_diag.items()})
        if n >= 3:
            c = moduli.coords_c(n, D)
            assert c == moduli.coords_c_from_b(n, D, b_off, b_diag)
            want.update({f"c_{i}_{j}": v for (i, j), v in c.items()})
    plain = {key: v if type(v) is int else v.to_json_obj() for key, v in want.items()}
    assert main(["moduli", "--n", str(n), "--trunc", str(D)]) == 0
    assert capsys.readouterr().out == json.dumps(plain, indent=2, sort_keys=True) + "\n"


def test_quiver_report(capsys):
    assert main(["quiver", "--n", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dims"] == {"deg0": 5, "deg1": 5, "total": 10}
    assert report["hom"]["0,0"] == [1, 1]
    assert report["hom"]["1,0"] == [0, 1]
    assert report["node_dual_hilbert"] == [1, 2, 2, 2, 2, 2, 2, 2]
    golden = json.loads((GOLDEN / "quiver_table_n2.json").read_text())
    assert report["table"] == golden


def test_assoc_report(capsys):
    assert main(["assoc", "--n", "2", "--max-m", "2", "--trunc", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["reports"]) == 8
    for rep in report["reports"]:
        assert rep["failures"] == []


def test_usage_errors_exit_two(capsys):
    assert main(["theta", "--n", "0"]) == 2
    assert main(["quiver", "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert "mirror-ring:" in err
    for argv in (
        ["no-such-mode"],
        ["moduli", "--format", "csv"],
        ["theta", "--eps=1/2"],
        ["floer-direct", "--eps=1/100"],
        ["verify", "--eps=1/100"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_unwritable_output_exits_two(tmp_path, capsys):
    assert main(["theta", "--n", "1", "-o", str(tmp_path)]) == 2
    assert main(["theta", "--n", "1", "-o", str(tmp_path) + "/"]) == 2
    assert main(["theta", "--n", "1", "-o", str(tmp_path / "missing" / "x.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith("mirror-ring: cannot write ") for line in err)
    assert all(line.endswith(": Is a directory") for line in err[:2])
    assert list(tmp_path.iterdir()) == []


def test_empty_output_path_exits_two(tmp_path, monkeypatch, capsys):
    # an empty path names no file: it is refused, not taken for stdout
    monkeypatch.chdir(tmp_path)
    assert main(["theta", "--n", "1", "-o", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mirror-ring: cannot write : Is a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no mkfifo on this platform")
def test_non_regular_output_exits_two(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    link = tmp_path / "link"
    link.symlink_to(fifo)
    for target in (fifo, link):
        assert main(["theta", "--n", "1", "-o", str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"mirror-ring: cannot write {t}: not a regular file" for t in (fifo, link)]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert link.is_symlink()
    # no temporary file was made beside either target
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "pipe"]


def test_output_through_symlink_writes_target(tmp_path, capsys):
    real = tmp_path / "real"
    real.mkdir()
    target = real / "r.json"
    target.write_text("old\n")
    link = tmp_path / "l.json"
    link.symlink_to(target)
    assert main(["theta", "--n", "1", "-o", str(link)]) == 0
    assert link.is_symlink()
    assert main(["theta", "--n", "1"]) == 0
    assert target.read_text() == capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["l.json", "real"]
    assert [p.name for p in real.iterdir()] == ["r.json"]


def test_failed_write_keeps_earlier_report(tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.json"
    assert main(["theta", "--n", "1", "-o", str(out)]) == 0
    before = out.read_bytes()

    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", full_disk)
    assert main(["theta", "--n", "2", "-o", str(out)]) == 2
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert "No space left on device" in capsys.readouterr().err


def test_failed_stdout_write_exits_two(monkeypatch, capsys):
    def full_disk(text):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys.stdout, "write", full_disk)
    assert main(["theta", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "mirror-ring: cannot write stdout: No space left on device\n"


# the flags each subcommand reads; every other flag is refused
READS = {
    "theta": {"--n", "--trunc", "--max-m", "--format", "-o"},
    "floer-direct": {"--n", "--trunc", "--max-m", "--format", "-o"},
    "floer-brion": {"--n", "--trunc", "--max-m", "--format", "-o"},
    "verify": {"--n", "--trunc", "--max-m", "--jobs", "-o"},
    "moduli": {"--n", "--trunc", "-o"},
    "quiver": {"--n", "-o"},
    "assoc": {"--n", "--trunc", "--max-m", "-o"},
}
# --eps is read by no subcommand: each one refuses it
SAMPLE_VALUES = {
    "--n": "2",
    "--trunc": "3",
    "--max-m": "2",
    "--eps": "1/100",
    "--jobs": "1",
    "--format": "json",
    "-o": "report.json",
}


def test_settable_values_per_subcommand():
    assert set(cli.SUBCOMMANDS) == set(READS)
    assert sum(len(flags) for _, _, flags in cli.SUBCOMMANDS.values()) == 29


@pytest.mark.parametrize(
    "command,flag", [(c, f) for c in READS for f in SAMPLE_VALUES]
)
def test_subcommand_takes_only_the_flags_it_reads(command, flag):
    argv = [command, flag, SAMPLE_VALUES[flag]]
    if flag in READS[command]:
        args = cli._build_parser().parse_args(argv)
        assert args.command == command
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_verification_failure_exits_one(tmp_path, monkeypatch):
    def fake_verify(n, max_m, D, jobs=1):
        return {
            "n": n,
            "D": D,
            "pairs_checked": 2,
            "failures": [{"mode": "direct", "a": "x"}, {"mode": "brion", "a": "x"}],
        }

    monkeypatch.setattr(floer, "mirror_verify", fake_verify)
    out = tmp_path / "bad.json"
    rc = main(["verify", "--n", "2", "-o", str(out)])
    assert rc == 1
    report = json.loads(out.read_text())
    assert report == fake_verify(2, 1, 6)


def test_invariant_failure_exits_three(tmp_path, monkeypatch, capsys):
    """A root substitution that leaves a residual breaks _point_data's
    check: exit 3, one stderr line, no report."""
    real = moduli._substitute

    def leaky(g, pows):
        # the value comes graded: add 1 to its constant bucket
        value = real(g, pows)
        return [{0: value[0].get(0, 0) + 1}, *value[1:]]

    moduli.solve_s.cache_clear()
    moduli._point_data.cache_clear()
    monkeypatch.setattr(moduli, "_substitute", leaky)
    out = tmp_path / "moduli.json"
    try:
        assert main(["moduli", "--n", "2", "--trunc", "3", "-o", str(out)]) == 3
    finally:
        moduli.solve_s.cache_clear()
        moduli._point_data.cache_clear()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("mirror-ring: internal fault: ")
    assert "nonzero residual" in err
    assert list(tmp_path.iterdir()) == []


def _narrow_terms(good):
    """Every term of the run cut to its first slot."""
    return lambda n, m1, a1, m2, b2s: [exps[:1] for exps in good(n, m1, a1, m2, b2s)]


def _short_run(good):
    """The run's last term dropped."""
    return lambda n, m1, a1, m2, b2s: good(n, m1, a1, m2, b2s)[:-1]


@pytest.mark.parametrize(
    "cmd, owner, kernel, fault",
    [
        ("theta", plgeom, "lambda_exponents", _narrow_terms),
        ("theta", plgeom, "lambda_exponents", _short_run),
        ("verify", plgeom, "lambda_exponents", _narrow_terms),
        ("verify", plgeom, "lambda_exponents", _short_run),
        ("verify", floer, "_lifted_counts", _short_run),
        ("verify", floer, "_brion_counts", _narrow_terms),
    ],
    ids=lambda v: getattr(v, "__name__", v) if callable(v) else v,
)
def test_malformed_kernel_result_exits_three(
    tmp_path, monkeypatch, capsys, cmd, owner, kernel, fault
):
    """A kernel that returns a run of the wrong length, or a term not n
    wide, is an internal fault at n = 2: exit 3, one stderr line naming
    it, no report; never the exit 1 of a verification failure, a
    TypeError from the writer or a term silently cut."""
    monkeypatch.setattr(owner, kernel, fault(getattr(owner, kernel)))
    out = tmp_path / "report.json"
    extra = ["--jobs", "1"] if cmd == "verify" else []
    assert main([cmd, "--n", "2", "--max-m", "2", "--trunc", "4", *extra, "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("mirror-ring: internal fault: a kernel returned ")
    assert list(tmp_path.iterdir()) == []


def test_moduli_report_finds_and_proves_the_root_once(tmp_path, monkeypatch):
    """One moduli report runs the online solve once and builds one power
    table, which both proves the root and evaluates the residue parts."""
    calls = {"_online_root": 0, "_powers": 0}
    for name in calls:
        real = getattr(moduli, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(moduli, name, counted)
    moduli.solve_s.cache_clear()
    moduli._point_data.cache_clear()
    try:
        argv = ["moduli", "--n", "4", "--trunc", "12", "-o", str(tmp_path / "m.json")]
        assert main(argv) == 0
    finally:
        moduli.solve_s.cache_clear()
        moduli._point_data.cache_clear()
    assert calls == {"_online_root": 1, "_powers": 1}


# the same break in a python -O interpreter, where a bare assert is gone
OPTIMIZED_BREAK = """
import sys
from mirror_ring import cli, moduli
from mirror_ring.plgeom import InvariantError
if __debug__:
    sys.exit("not running under -O")
real = moduli._substitute
def leaky(g, pows):
    # the value comes graded: add 1 to its constant bucket
    value = real(g, pows)
    return [{0: value[0].get(0, 0) + 1}, *value[1:]]
moduli._substitute = leaky
try:
    moduli.solve_s(2, 3)
except InvariantError as exc:
    print(exc)
sys.exit(cli.main(["moduli", "--n", "2", "--trunc", "3"]))
"""


def test_invariant_failure_survives_python_O():
    src = str(pathlib.Path(mirror_ring.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_BREAK],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "root substitution left a nonzero residual\n"
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("mirror-ring: internal fault: ")


def record_pool_sizes(monkeypatch) -> list:
    """Swap in a pool that maps in-process and records the worker count
    it is sized for: a pool starts every worker it is sized for."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


# 18 rows of pairs at n = 3, max-m = 2: more than any pool these tests size
VERIFY_N3 = ["verify", "--n", "3", "--max-m", "2", "--trunc", "4"]


def test_jobs_zero_uses_cpu_affinity(tmp_path, monkeypatch):
    sizes = record_pool_sizes(monkeypatch)
    monkeypatch.setattr(floer.os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    monkeypatch.setattr(floer.os, "cpu_count", lambda: 64)
    for jobs in ("0", "2"):
        assert main(VERIFY_N3 + ["--jobs", jobs, "-o", str(tmp_path / "v.json")]) == 0
    assert sizes == [3, 2]


def test_jobs_zero_falls_back_to_cpu_count(tmp_path, monkeypatch):
    sizes = record_pool_sizes(monkeypatch)
    monkeypatch.delattr(floer.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(floer.os, "cpu_count", lambda: 5)
    assert main(VERIFY_N3 + ["-o", str(tmp_path / "v.json")]) == 0
    # no count known: one worker, in-process, with no pool
    monkeypatch.setattr(floer.os, "cpu_count", lambda: None)
    assert main(VERIFY_N3 + ["-o", str(tmp_path / "v.json")]) == 0
    assert sizes == [5]


def test_verify_caps_workers_at_usable_cpus(tmp_path, monkeypatch):
    """--jobs beyond the usable CPUs must not reach the pool, from the
    command line or from a library caller."""
    sizes = record_pool_sizes(monkeypatch)
    monkeypatch.setattr(floer, "_usable_cpus", lambda: 3)
    for jobs in ("3000", "0", "2", "1"):
        assert main(VERIFY_N3 + ["--jobs", jobs, "-o", str(tmp_path / "v.json")]) == 0
    assert floer.mirror_verify(3, 2, 4, jobs=3000)["failures"] == []
    assert sizes == [3, 3, 2, 3]


def test_value_checks_through_main(capsys):
    for argv in (["nope"], ["verify", "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert main(["theta", "--trunc", "-1"]) == 2
    assert main(["assoc", "--max-m", "0"]) == 2
    assert main(["verify", "--jobs", "-1"]) == 2
    capsys.readouterr()
    assert main(["theta", "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["D"] == 6


def test_counting_table_agrees_with_series_table(tmp_path):
    series = run_to_file(
        tmp_path, "s.json", ["theta", "--n", "2", "--max-m", "1", "--trunc", "3"]
    )[1]
    counted = run_to_file(
        tmp_path,
        "c.json",
        ["floer-brion", "--n", "2", "--max-m", "1", "--trunc", "3"],
    )[1]
    assert series == counted


# one tiny run of each subcommand, without -o
TINY = {
    "theta": ["--n", "1", "--max-m", "1", "--trunc", "0"],
    "floer-direct": ["--n", "1", "--max-m", "1", "--trunc", "0"],
    "floer-brion": ["--n", "1", "--max-m", "1", "--trunc", "0"],
    "verify": ["--n", "1", "--max-m", "1", "--trunc", "0", "--jobs", "1"],
    "moduli": ["--n", "1", "--trunc", "0"],
    "quiver": ["--n", "2"],
    "assoc": ["--n", "1", "--max-m", "1", "--trunc", "0"],
}


@pytest.fixture
def fresh_parser():
    """main's parser uncached before the test, so the test sees the
    first build, and after it, so later tests get a real parser."""
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


def test_one_parser_per_process(tmp_path, monkeypatch, capsys, fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    # the subparsers are ArgumentParsers too.  argparse's own __init__
    # names its class through the module, so the count wraps __init__
    # rather than putting a subclass in the module's place
    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert set(TINY) == set(cli.SUBCOMMANDS)
    for command, flags in TINY.items():
        assert main([command, *flags, "-o", str(tmp_path / f"{command}.out")]) == 0
    for argv, code in ((["theta", "--eps=1/2"], 2), (["--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    # the top parser and one subparser per subcommand, built once
    assert len(built) == 1 + len(cli.SUBCOMMANDS) == 8


def test_calls_through_the_shared_parser_stay_independent(tmp_path, monkeypatch, capsys):
    parse = cli._build_parser().parse_args
    assert main(["verify", *TINY["verify"], "-o", str(tmp_path / "v.json")]) == 0
    args = parse(["theta"])
    assert (args.n, args.trunc, args.max_m, args.fmt, args.output) == (1, 6, 1, "json", None)
    assert not hasattr(args, "jobs")

    argv = ["theta", "--n", "2", "--max-m", "1", "--trunc", "2"]
    with pytest.raises(SystemExit) as exc:
        main(["theta", "--n", "2", "--eps=1/2"])
    assert exc.value.code == 2
    assert main(argv + ["-o", str(tmp_path / "in.json")]) == 0
    src = str(pathlib.Path(mirror_ring.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "mirror_ring.cli", *argv, "-o", str(tmp_path / "fresh.json")],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "in.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()

    # the help formatter reads the width when it formats, not at build time
    helps = []
    for columns in ("52", "52", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["--help"], ["verify", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert main(["quiver", "--n", "2", "-o", str(tmp_path / "q.json")]) == 0
    assert helps[0:2] == helps[2:4]
    assert helps[0] != helps[4] and helps[1] != helps[5]
