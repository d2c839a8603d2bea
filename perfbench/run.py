"""stokes-stab benchmark: python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1, from the root of a source checkout.

Runs the real `stokes-stab` commands from `src/` in fresh worker
processes, started one after another, with the libraries' default
threading. With --trace 0, measuring processes start until --seconds
is used (at least MIN_PROCESSES); each sets up and makes one
in-process cli.main(argv) call. It reports the end-to-end metrics:

  setup_s      median over the processes (at least SETUP_REPEATS) of
               `import stokes_stab` plus the case's problem()
  wall_s       median time of the cli.main(argv) calls
  peak_rss_mb  median of the measuring processes' ru_maxrss

and prints error_rate, failed calls over attempted calls. A call fails
on a nonzero exit code, a missing artifact, a table.csv value more than
1e-10 relative from the stored reference, any artifact whose sha256
differs from the first call's, or an audit that does not pass with the
generated mesh's counts. With --trace 1 one process makes a warm-up
call, then an untraced and a traced call twice, and reports the
per-layer metrics (spans.py).

Standard error gets a readable summary; the last line of standard
output is the JSON result. Every run also writes a result file with
the samples and the software environment under .perfbench_out/results.
--workload all runs the four workloads in turn.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import auditmesh
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
MIN_PROCESSES = 2      # measuring processes per untraced run
SETUP_REPEATS = 3      # set-ups per untraced run, topped up if needed
TIME_LIMIT_S = 170     # per workload; each run must end within 180 s
RESERVE_S = 10         # no measuring process starts this close to it


class BenchError(Exception):
    pass


def _worker(mode, deadline, result, *extra):
    """Run worker.py to completion and return its result JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    cmd = [sys.executable, str(BENCH / "worker.py"), mode,
           "--result", str(result), *map(str, extra)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=remaining,
                              check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(Path(result).read_text())


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30,
                          check=False)
    return proc.stdout.strip() or None


def _measure(seconds, trace, deadline, run_dir, common, extra):
    """Start measuring processes one after another until `seconds` is used.

    Each process sets up afresh and makes one call, so every sample pays
    what a user's `stokes-stab` invocation pays. With trace, one process
    makes the warm-up, untraced and traced calls.
    """
    results, durations = [], []
    start = time.monotonic()
    while True:
        k = len(results)
        began = time.monotonic()
        results.append(_worker(
            "measure", deadline, run_dir / f"measure{k}.json", *common,
            "--trace", trace, "--out", run_dir / f"calls{k}", *extra))
        durations.append(time.monotonic() - began)
        now = time.monotonic()
        typical = statistics.median(durations)
        if (trace or now + typical > deadline - RESERVE_S
                or (len(results) >= MIN_PROCESSES
                    and now - start + typical > seconds)):
            return results


def run_workload(name, seed, seconds, trace):
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    run_dir = OUT / name / f"seed{seed}_trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", name, "--seed", seed]
    problems = []

    extra = []
    if WORKLOADS[name].is_audit:
        text, expect, gen_problems = auditmesh.generate_checked(seed)
        problems += gen_problems
        mesh, expect_file = run_dir / "audit_mesh.txt", run_dir / "expect.json"
        mesh.write_text(text)
        expect_file.write_text(json.dumps(expect))
        extra = ["--mesh", mesh, "--expect", expect_file]

    results = _measure(seconds, trace, deadline, run_dir, common, extra)
    setups = [r["setup_s"] for r in results]
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(_worker("setup", deadline,
                              run_dir / f"setup{len(setups)}.json",
                              *common)["setup_s"])

    calls = [c for r in results for c in r["calls"]]
    first = calls[0]["hashes"]
    for call in calls[1:]:
        differ = sorted(k for k in first.keys() | call["hashes"].keys()
                        if first.get(k) != call["hashes"].get(k))
        if differ:
            call["problems"].append(
                f"outputs differ from the first call's: {differ}")
    failed = sum(1 for c in calls if c["problems"])
    for r in results:
        problems += r.get("trace_problems", [])
    for k, call in enumerate(calls):
        problems += [f"call {k}: {p}" for p in call["problems"]]

    if trace:
        metrics = results[0]["layers"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(c["wall_s"] for c in calls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in results),
        }
    summary = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "correct": not problems, "attempted": len(calls), "failed": failed,
        "error_rate": failed / len(calls), "metrics": metrics,
        "setup_samples_s": setups,
        "wall_samples_s": [c["wall_s"] for c in calls],
        "peak_rss_samples_mb": [r["peak_rss_mb"] for r in results],
        "problems": problems,
        "commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "environment": results[0]["environment"],
        "run_s": time.monotonic() - started,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}_seed{seed}_trace{trace}.json").write_text(
        json.dumps(summary, indent=1))
    return summary


def _units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def report(summary, units):
    lines = [f"{summary['workload']}  seed {summary['seed']}  "
             f"trace {summary['trace']}"]
    n = summary["attempted"]
    notes = {"setup_s": f"median of {len(summary['setup_samples_s'])} "
                        "set-ups",
             "wall_s": f"median of {n} call{'s' if n > 1 else ''}"}
    for name, value in summary["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:32s} {value:14.6g} {units.get(name, '')}{note}")
    lines.append(f"  {'error_rate':32s} {summary['error_rate']:14.6g} "
                 f"failed/attempted  ({summary['failed']} of {n})")
    lines += [f"  problem: {p}" for p in summary["problems"][:20]]
    print("\n".join(lines), file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(
        description="Benchmark the stokes-stab CLI; see perfbench/README.md.")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in [ROOT / "src" / "stokes_stab" / "cli.py"]
               + [w.reference for w in WORKLOADS.values() if not w.is_audit]
               if not p.is_file()]
    if missing:
        print(f"run.py: not a stokes-stab checkout, missing "
              f"{', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = _units()
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args.seed, args.seconds,
                                          args.trace))
            report(summaries[-1], units)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}/{k}": v for s in summaries
                   for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {k: {"value": v, "unit": units.get(k.split("/")[-1], "")}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
