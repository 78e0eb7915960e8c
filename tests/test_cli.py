"""Command line behavior: determinism, exit codes, report shapes."""

import json
import pathlib

import pytest

from mirror_ring import cli, floer
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
    assert main(["floer-direct", "--eps=-1/2"]) == 2
    assert main(["verify", "--eps=-1/2"]) == 2
    err = capsys.readouterr().err
    assert "mirror-ring:" in err
    for argv in (["no-such-mode"], ["moduli", "--format", "csv"], ["theta", "--eps=1/2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_unwritable_output_exits_two(tmp_path, capsys):
    assert main(["theta", "--n", "1", "-o", str(tmp_path)]) == 2
    assert main(["theta", "--n", "1", "-o", str(tmp_path / "missing" / "x.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("mirror-ring: cannot write ") for line in err)
    assert list(tmp_path.iterdir()) == []


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


# the flags each subcommand reads; every other flag is refused
READS = {
    "theta": {"--n", "--trunc", "--max-m", "--format", "-o"},
    "floer-direct": {"--n", "--trunc", "--max-m", "--format", "-o", "--eps"},
    "floer-brion": {"--n", "--trunc", "--max-m", "--format", "-o"},
    "verify": {"--n", "--trunc", "--max-m", "--eps", "--jobs", "-o"},
    "moduli": {"--n", "--trunc", "-o"},
    "quiver": {"--n", "-o"},
    "assoc": {"--n", "--trunc", "--max-m", "-o"},
}
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
    assert sum(len(flags) for _, _, flags in cli.SUBCOMMANDS.values()) == 31


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
    def fake_verify(n, max_m, D, eps=None, jobs=1):
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


def record_verify_jobs(monkeypatch) -> list:
    seen = []

    def fake_verify(n, max_m, D, eps=None, jobs=1):
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


def test_counting_modes_accept_eps_override(tmp_path):
    base = ["floer-direct", "--n", "2", "--max-m", "1", "--trunc", "3"]
    _, plain = run_to_file(tmp_path, "p.json", base)
    _, tweaked = run_to_file(tmp_path, "t.json", base + ["--eps", "1/1000"])
    assert plain == tweaked
    verify = ["verify", "--n", "2", "--max-m", "1", "--trunc", "4"]
    _, verified = run_to_file(tmp_path, "v.json", verify + ["--eps", "1/1000"])
    assert verified == (GOLDEN / "cli_verify_n2.json").read_text()


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
