"""Paired runs of one stokes-stab command from two source trees.

    python tools/ab.py TREE_A TREE_B [--pairs N] -- CLI ARGS

Runs `stokes-stab CLI ARGS --out DIR` N times from each tree's `src/`,
each call in a fresh interpreter, A and B in pairs; the side that goes
first alternates from pair to pair (A first in pairs 1, 3, ...), so a
drift of the host reaches both sides alike. Per call it records the
wall time from start to exit and, from os.wait4, the process's CPU
time (ru_utime + ru_stime), peak resident set (ru_maxrss) and minor
page faults (ru_minflt). It prints, per metric, each side's median and
quartiles and in how many pairs B was lower than A; for wall time and
peak, the median and quartiles of the per-pair ratio B/A; then the
comparison of the two sides' last table.csv by tools/compare_outputs.py.
Each side writes into its own directory, with the standard output and
error of its last call beside its --out directory.

Exits 0 when every call of both sides exited with the same code in
each pair and the tables agree within TABLE_TOLERANCE relative in every
column (or neither side wrote one), 1 otherwise, 2 on a usage error.
Tables that are not identical also get their largest drift printed.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the largest relative drift of a table.csv column that counts as the
# same answer
TABLE_TOLERANCE = 1e-10
RUN = "import sys; from stokes_stab import cli; sys.exit(cli.main(sys.argv[1:]))"


def _compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", HERE / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# each metric run_once records, in its order: name, print format, and
# whether its per-pair ratio B/A is printed
METRICS = (("wall_s", ".4g", True), ("peak_rss_mb", ".4g", True),
           ("cpu_s", ".4g", False), ("minflt", ".0f", False))


def run_once(tree, cli_args, side_dir):
    """(exit code, (wall s, peak RSS MB, CPU s, minor faults)) of one
    call of the command from tree's src/, its outputs in side_dir/out."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(Path(tree).resolve() / "src")
    argv = [sys.executable, "-c", RUN, *cli_args,
            "--out", str(side_dir / "out")]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    files = [(os.POSIX_SPAWN_OPEN, fd, str(side_dir / name), flags, 0o644)
             for fd, name in ((1, "stdout.txt"), (2, "stderr.txt"))]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=files)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), (
        wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime,
        usage.ru_minflt)


def _spread(values, fmt=".4g"):
    """Median [lower quartile, upper quartile] as text."""
    if len(values) < 2:
        return f"{values[0]:{fmt}}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:{fmt}} [{q1:{fmt}}, {q3:{fmt}}]"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    cut = argv.index("--")
    parser = argparse.ArgumentParser(prog="ab.py")
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv[:cut])
    cli_args = argv[cut + 1:]
    if args.pairs < 1 or "--out" in cli_args:
        print("ab.py: --pairs must be at least 1, and the command gets "
              "its --out from ab.py", file=sys.stderr)
        return 2

    trees = {"A": args.tree_a, "B": args.tree_b}
    samples = {side: [] for side in trees}
    same_codes = True
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        dirs = {side: Path(tmp) / side for side in trees}
        for d in dirs.values():
            d.mkdir()
        for k in range(args.pairs):
            order = "AB" if k % 2 == 0 else "BA"
            codes = {side: None for side in trees}
            for side in order:
                codes[side], sample = run_once(trees[side], cli_args,
                                               dirs[side])
                samples[side].append(sample)
            if codes["A"] != codes["B"] or codes["A"] != 0:
                print(f"pair {k + 1}: exit codes A {codes['A']}, "
                      f"B {codes['B']}")
            same_codes = same_codes and codes["A"] == codes["B"]

        print(f"{args.pairs} pairs of: stokes-stab {' '.join(cli_args)}")
        print(f"A: {trees['A']}\nB: {trees['B']}")
        for m, (name, fmt, ratio) in enumerate(METRICS):
            a = [s[m] for s in samples["A"]]
            b = [s[m] for s in samples["B"]]
            lower = sum(y < x for x, y in zip(a, b))
            print(f"{name}: A {_spread(a, fmt)}  B {_spread(b, fmt)}  "
                  f"B lower in {lower}/{args.pairs}")
            if ratio:
                print(f"{name} B/A per pair: "
                      f"{_spread([y / x for x, y in zip(a, b)])}")

        tables = [dirs[side] / "out" / "table.csv" for side in trees]
        report, within = "neither side wrote one", True
        if any(t.exists() for t in tables):
            tool = _compare_outputs()
            report = dict(tool.compare(dirs["A"] / "out",
                                       dirs["B"] / "out"))[Path("table.csv")]
            drifts = None
            if report != "identical" and all(t.exists() for t in tables):
                drifts = tool.table_drifts(*tables)
            if drifts is not None:
                largest = max(drifts.values(), default=0.0)
                within = largest <= TABLE_TOLERANCE
                report += (f"; largest drift {largest:.3g}, "
                           f"{'within' if within else 'above'} "
                           f"{TABLE_TOLERANCE:g}")
            else:
                within = report == "identical"
        print(f"table.csv: {report}")
    ok = same_codes and within
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
