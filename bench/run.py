"""Benchmark of the mirror-ring subcommands, run from a source checkout.

    python3 bench/run.py --workload mirror --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload laws --seed 1 --seconds 20 --trace 1 --out runs.json
    python3 bench/run.py --compare old.json new.json
    python3 bench/run.py --baseline

A workload run repeats whole rounds of its subcommands until --seconds
have passed and prints every metric by name and unit, then, as its last
line, one JSON object with the operation counts and the metrics named in
BENCHMARK.json: the end-to-end ones with --trace 0, the per-layer ones
from a traced run with --trace 1.  --out appends the run, with its
provenance, to a results file; --compare reads two such files.  The
package is imported from ./src of this checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 9
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from mirror_ring.cli import main; sys.exit(main(['--help']))"
)


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Put ./src first on the path and make sure the package comes from it.

    The modules of this directory that import mirror_ring (workloads,
    tracer, baseline) are imported only after this has run.
    """
    if not (SRC / "mirror_ring" / "__init__.py").is_file():
        fail(f"no mirror_ring package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mirror_ring

    if Path(mirror_ring.__file__).resolve().parent != (SRC / "mirror_ring").resolve():
        fail(f"mirror_ring imported from {mirror_ring.__file__}, not from {SRC}")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


@contextlib.contextmanager
def scratch_dir():
    """A temporary directory for the reports, inside the checkout."""
    parent = ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as path:
            yield Path(path)
    finally:
        with contextlib.suppress(OSError):
            parent.rmdir()


def setup_seconds() -> tuple[float, float]:
    """Median wall time of `mirror-ring --help` in a fresh interpreter:
    start-up, import of mirror_ring.cli and building its parser.  Returns
    (reference-speed seconds, wall seconds)."""
    import clock

    ref, wall = [], []
    for _ in range(SETUP_REPEATS):
        with clock.Timed(interrupt=False) as timed:
            proc = subprocess.run(
                [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        if proc.returncode != 0:
            fail(f"set-up run exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        ref.append(timed.ref_seconds)
        wall.append(timed.seconds)
    return statistics.median(ref), statistics.median(wall)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(steps, workdir, ctx, seconds, after_round=None):
    """Whole rounds until `seconds` have passed (at least one)."""
    import workloads

    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workloads.run_round(steps, workdir, ctx))
        if after_round:
            after_round(rounds[-1])
        if time.perf_counter() - start >= seconds:
            return rounds


def tally(outcomes) -> dict:
    """Per-operation attempted and failed counts, and the first problems."""
    ops: dict[str, dict] = {}
    problems = []
    for o in outcomes:
        slot = ops.setdefault(o.op, {"attempted": 0, "failed": 0})
        slot["attempted"] += 1
        if o.problems:
            slot["failed"] += 1
            problems.append(f"{o.op}: {'; '.join(o.problems)[:400]}")
    return {"operations": ops, "problems": problems[:10]}


def untraced_run(steps, workdir, ctx, seconds) -> tuple[dict, dict, list]:
    """The end-to-end metrics, with tracing off."""
    setup_ref, setup_wall = setup_seconds()
    rounds = run_rounds(steps, workdir, ctx, seconds)

    def summary(attr: str) -> dict:
        step_s = {
            s.op: statistics.median(getattr(r[i], attr) for r in rounds)
            for i, s in enumerate(steps)
        }
        out = {
            "run_s": statistics.median(sum(getattr(o, attr) for o in r) for r in rounds),
            "step_geomean_s": math.exp(statistics.fmean(math.log(t) for t in step_s.values())),
        }
        for s in steps:
            t = step_s[s.op]
            out[s.metric] = s.work / t if s.work else t
        return out

    ref, wall = summary("ref_seconds"), summary("seconds")
    metrics = {"setup_s": setup_ref, **ref, "peak_rss_mib": peak_rss_mib()}
    detail = {
        "subcommands": {
            s.metric: {"value": ref[s.metric], "unit": "1/s" if s.work else "s"} for s in steps
        },
        "wall": {"setup_s": setup_wall, **wall},
        "step_s": {s.op: [r[i].seconds for r in rounds] for i, s in enumerate(steps)},
        "step_ref_s": {s.op: [r[i].ref_seconds for r in rounds] for i, s in enumerate(steps)},
    }
    return metrics, detail, [o for r in rounds for o in r]


def traced_run(steps, workdir, ctx, seconds) -> tuple[dict, dict, list]:
    """The per-layer metrics: one untraced round, then traced rounds."""
    import tracer as tracing
    import workloads

    plain = workloads.run_round(steps, workdir, ctx)
    plain_s = sum(o.ref_seconds for o in plain)
    tr = tracing.Tracer()
    per_round = []
    spans = {}  # the last traced round's spans, for the results file

    def collect(outcomes):
        m = tracing.layer_metrics(tr)
        for name, cache in workloads.CACHES.items():
            m[f"{name}.cache_hits"] = cache.cache_info().hits
        m["cli.report_bytes"] = sum(o.report_bytes for o in outcomes)
        per_round.append(m)
        spans.clear()
        spans.update(
            (name, {"calls": tr.calls[name], "self_s": tr.self_s.get(name), "s": tr.incl_s.get(name)})
            for name in sorted(tr.calls)
        )
        tr.reset()

    tr.install()
    try:
        rounds = run_rounds(steps, workdir, ctx, seconds, collect)
    finally:
        tr.remove()
    # counts repeat exactly from round to round; times take the lower median
    metrics = {k: statistics.median_low(m[k] for m in per_round) for k in per_round[0]}

    outcomes = plain + [o for r in rounds for o in r]
    metrics["floer.mirror_verify.jobs2_speedup"] = 0.0
    for i, s in enumerate(steps):
        if s.op == "verify":
            argv = list(s.argv)
            argv[argv.index("--jobs") + 1] = "2"
            two = workloads.run_step(dataclasses.replace(s, argv=tuple(argv)), workdir, ctx)
            outcomes.append(two)
            metrics["floer.mirror_verify.jobs2_speedup"] = plain[i].seconds / two.seconds
    traced_s = statistics.median(sum(o.ref_seconds for o in r) for r in rounds)
    detail = {
        "untraced_round_s": plain_s,
        "traced_round_s": traced_s,
        "trace_overhead": traced_s / plain_s - 1,
        "spans": spans,
    }
    return metrics, detail, outcomes


def run_workload(args, spec: dict) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    steps = workloads.WORKLOADS[args.workload]()
    ctx = workloads.round_context(args.workload, args.seed)
    measure = traced_run if args.trace else untraced_run
    with scratch_dir() as workdir:
        values, detail, outcomes = measure(steps, workdir, ctx, args.seconds)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail(f"no measurement for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    counts = tally(outcomes)
    failed = sum(op["failed"] for op in counts["operations"].values())
    # every operation with a problem failed; a written report that fails
    # its checks is also a wrong answer, which a crash without one is not
    correct = not any(o.wrong for o in outcomes)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(outcomes)} operations, {failed} failed")
    for p in counts["problems"]:
        print(f"  problem: {p}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    for name, m in detail.get("subcommands", {}).items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    for name, v in detail.get("wall", {}).items():
        print(f"  wall {name} = {v!r}")
    if args.trace:
        print(f"  at reference speed: untraced round {detail['untraced_round_s']:.3f} s, traced "
              f"round {detail['traced_round_s']:.3f} s, overhead {detail['trace_overhead']:+.1%}")

    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            **provenance(),
            "attempted": len(outcomes),
            "failed": failed,
            **counts,
            "metrics": metrics,
            **detail,
        }
        append_result(Path(args.out), record)

    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def append_result(path: Path, record: dict):
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].append(record)
    path.write_text(json.dumps(data, indent=1) + "\n")


def compare(old_path: str, new_path: str, spec: dict) -> int:
    """Median of every metric per workload in two results files, with the
    ratio new/old and whether the change stays within the metric's bound."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def load(path):
        groups: dict[tuple, dict[str, list]] = {}
        for run in json.loads(Path(path).read_text())["runs"]:
            g = groups.setdefault((run["workload"], run["trace"]), {})
            for name, m in {**run["metrics"], **run.get("subcommands", {})}.items():
                g.setdefault(name, []).append(m["value"])
        return groups

    old, new = load(old_path), load(new_path)
    worse = 0
    print(f"{'workload':<8} {'metric':<40} {'old':>12} {'new':>12} {'new/old':>8}  verdict")
    for key in sorted(set(old) & set(new)):
        for name in sorted(set(old[key]) & set(new[key])):
            a = statistics.median(old[key][name])
            b = statistics.median(new[key][name])
            ratio = b / a if a else math.inf if b else 1.0
            m = declared.get(name, {})
            bound = m.get("bound")
            better = m.get("better") or ("lower" if name.endswith("_s") else "higher")
            if bound is None:
                verdict = "no bound"
            elif (ratio <= 1 + bound) if better == "lower" else (ratio >= 1 - bound):
                verdict = f"within {bound:.0%}"
            else:
                verdict = f"WORSE than {bound:.0%}"
                worse += 1
            label = f"{key[0]}{' (traced)' if key[1] else ''}"
            print(f"{label:<8} {name:<40} {a:>12.5g} {b:>12.5g} {ratio:>8.3f}  {verdict}")
    only = sorted(set(old) ^ set(new))
    if only:
        print(f"in one file only: {only}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="mirror, moduli or laws")
    parser.add_argument("--seed", type=int, default=0, help="picks the defect re-check sample")
    parser.add_argument("--seconds", type=float, default=20, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run to a results file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--baseline", action="store_true", help="the ROADMAP baseline table")
    args = parser.parse_args(argv)
    if not SPEC.is_file():
        fail(f"no {SPEC.name} at {ROOT}")
    spec = json.loads(SPEC.read_text())
    if args.compare:
        return compare(*args.compare, spec)
    import_package()
    if args.baseline:
        import baseline

        with scratch_dir() as workdir:
            return baseline.main(workdir, args.out)
    if not args.workload:
        parser.error("--workload, --compare or --baseline is required")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
