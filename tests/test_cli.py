"""Command line behavior: determinism, exit codes, report shapes."""

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
from mirror_ring import cli, floer, moduli
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


# sha256 of the reports at sizes above the goldens' D = 3, where solve_s
# takes more steps than the goldens exercise; at (3, 20) the power table
# is most of the round, and at (10, 8) a packed exponent key reaches
# 8 * 9**9 > 2**30, so it takes a many-digit int; at (6, 12) the 57
# series hold about nine terms per distinct exponent vector
@pytest.mark.parametrize(
    "n, D, digest",
    [
        (4, 8, "c126f1c92cc31e89d8d91afc389ce8c737b3968ceffff0656fc7d584d8147eb3"),
        (5, 6, "dab199e57e27f0039e416b941cc6cb1efcb082f9bc4a1868d2104767328f4b7a"),
        (3, 20, "605a43b6e6546e5cc03813b4981f555bed4532c7157e6ea94fa69bbec668b651"),
        (10, 8, "79c15f3a36e2aac027ac3f7ae1ab40e64e36c4b35b720af2a8ca27063483f28c"),
        (6, 12, "43b001cbd39810340332653a80f61fd1c8b68a87fa039b9e13c34b9754000ba0"),
    ],
)
def test_moduli_report_digest_above_golden_size(tmp_path, n, D, digest):
    argv = ["moduli", "--n", str(n), "--trunc", str(D)]
    rc, text = run_to_file(tmp_path, "m.json", argv)
    assert rc == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


TABLE_DIGEST = "a07ca24b20df5525a1105513eb58ff97bc844496a30e882ff41bceb129896a30"


# sha256 of the reports at the benchmark's own sizes
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["theta", "--n", "5", "--max-m", "4", "--trunc", "12"], TABLE_DIGEST),
        (["floer-direct", "--n", "5", "--max-m", "4", "--trunc", "12"], TABLE_DIGEST),
        (["floer-brion", "--n", "5", "--max-m", "4", "--trunc", "12"], TABLE_DIGEST),
        (
            ["theta", "--n", "5", "--max-m", "4", "--trunc", "12", "--format", "csv"],
            "f0be530b6320cea17c7e0bd8b0ec54b356b5c364806a687269b23be85704c5c8",
        ),
        (
            ["theta", "--n", "1", "--max-m", "4", "--trunc", "12"],
            "af723612e6a554d7d4f1ab409ab08fa1161b02b88ccf00c6e63ce571ea02b0c0",
        ),
        (
            ["theta", "--n", "1", "--max-m", "4", "--trunc", "12", "--format", "csv"],
            "86a4f581eda8867e364599ee8770af7217c6da1f44b586fd8d4d29d3ae33b244",
        ),
        (
            ["floer-direct", "--n", "7", "--max-m", "3", "--trunc", "20"],
            "cedc9c4751d996ff1361206f2c3e7c3dcc15dd5f03a7f562589fde9f7a1fde70",
        ),
        (
            ["floer-brion", "--n", "7", "--max-m", "3", "--trunc", "20"],
            "cedc9c4751d996ff1361206f2c3e7c3dcc15dd5f03a7f562589fde9f7a1fde70",
        ),
        (
            ["floer-direct", "--n", "1", "--max-m", "4", "--trunc", "12"],
            "af723612e6a554d7d4f1ab409ab08fa1161b02b88ccf00c6e63ce571ea02b0c0",
        ),
        (
            ["floer-brion", "--n", "1", "--max-m", "4", "--trunc", "12"],
            "af723612e6a554d7d4f1ab409ab08fa1161b02b88ccf00c6e63ce571ea02b0c0",
        ),
        (
            ["moduli", "--n", "4", "--trunc", "12"],
            "a93d79c6777265e5d468ead85082c05d7cb49468c97a9dc7a78def723d852b6b",
        ),
        (
            ["assoc", "--n", "3", "--max-m", "2", "--trunc", "6"],
            "842800deda101497f9d2c97325969cef30cce745b8f955f0a24fb7f712db519e",
        ),
        (
            ["assoc", "--n", "1", "--max-m", "3", "--trunc", "8"],
            "b49fcc80a279ae796421789af7d4dd6c63deb8ea27d66423c4121c97d318de95",
        ),
        (
            ["quiver", "--n", "12"],
            "389650de49988822ce9c308be8f92e5925735a3a4ad4f0862368fd3794b96d0f",
        ),
        (
            ["quiver", "--n", "2"],
            "c7e81cf0ee74ea2d30c517ec48022748222d2349e41b53ffab1cba156294dcde",
        ),
        (
            ["quiver", "--n", "3"],
            "6ff4c519434ee359d1abf84b68f466a930803b1ca7eb479bed224673d1434e4b",
        ),
        (
            ["quiver", "--n", "7"],
            "0b498bf5b39666507bcf5c871b958e93838a32f5259da9a4a29104b53b110e9d",
        ),
        (
            ["verify", "--n", "5", "--max-m", "4", "--trunc", "12", "--jobs", "1"],
            "6b0ab9293e9a5862a9beb03721add4c41f395ed829d5b7c4d1f7a7ff501cb5b2",
        ),
    ],
    ids=[
        "theta", "floer-direct", "floer-brion", "theta-csv", "theta-n1", "theta-n1-csv",
        "floer-direct-wide", "floer-brion-wide", "floer-direct-n1", "floer-brion-n1",
        "moduli", "assoc", "assoc-n1", "quiver", "quiver-n2", "quiver-n3", "quiver-n7", "verify",
    ],
)
def test_report_digest_at_benchmark_size(tmp_path, argv, digest):
    rc, text = run_to_file(tmp_path, "r.out", argv)
    assert rc == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_moduli_single_component_has_only_root_series(capsys):
    assert main(["moduli", "--n", "1", "--trunc", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"n", "D", "s"}
    assert report["s"]["terms"] == []


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


def record_verify_jobs(monkeypatch) -> list:
    seen = []

    def fake_verify(n, max_m, D, jobs=1):
        seen.append(jobs)
        return {"n": n, "D": D, "pairs_checked": 0, "failures": []}

    monkeypatch.setattr(floer, "mirror_verify", fake_verify)
    return seen


def test_jobs_zero_uses_cpu_affinity(tmp_path, monkeypatch):
    seen = record_verify_jobs(monkeypatch)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert main(["verify", "--jobs", "0", "-o", str(tmp_path / "v.json")]) == 0
    assert main(["verify", "--jobs", "2", "-o", str(tmp_path / "v.json")]) == 0
    assert seen == [3, 2]


def test_jobs_zero_falls_back_to_cpu_count(tmp_path, monkeypatch):
    seen = record_verify_jobs(monkeypatch)
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 5)
    assert main(["verify", "-o", str(tmp_path / "v.json")]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert main(["verify", "-o", str(tmp_path / "v.json")]) == 0
    assert seen == [5, 1]


def test_verify_caps_workers_at_usable_cpus(tmp_path, monkeypatch):
    """A pool starts every worker it is sized for, so --jobs beyond the
    usable CPUs must not reach it; the fake pool maps in-process."""
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
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    base = ["verify", "--n", "3", "--trunc", "4", "-o", str(tmp_path / "v.json")]
    for jobs in ("3000", "0", "2", "1"):
        assert main(base + ["--jobs", jobs]) == 0
    assert sizes == [3, 3, 2]


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
