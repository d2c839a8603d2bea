"""One benchmark process; run.py starts it and reads its result file.

Modes:
  setup     import stokes_stab and build the case's problem(), timed
  measure   set up, then call cli.main(argv) in process once, checking
            the call's outputs; with --trace 1 a warm-up call, then
            TRACED_CALLS untraced calls alternating with TRACED_CALLS
            calls that record per-layer spans, every one checked
  reference store the workload's table.csv as its reference, from a
            run of the program at the current source tree

Only the standard library and the benchmark's own stdlib-only modules
are imported before set-up is timed.
"""

import argparse
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import spans
from workloads import WORKLOADS, artifact_hashes, check_call, read_table

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CALLS = 2       # the self-check compares two traced calls


def set_up(workload):
    """Time `import stokes_stab` plus the case's problem(); return both."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import stokes_stab
    from stokes_stab import cli, study
    if workload.case is not None:
        study.get_case(workload.case).problem()
    setup_s = time.perf_counter() - start
    if Path(stokes_stab.__file__).resolve().parent != SRC / "stokes_stab":
        raise SystemExit(f"imported stokes_stab from {stokes_stab.__file__}, "
                         f"not from {SRC}")
    return setup_s, cli


def run_call(cli, argv):
    """One in-process CLI call: exit code, wall time, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = "uncaught exception"
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
    return rc, wall, out.getvalue(), err.getvalue()


def environment():
    import numpy
    import scipy
    import sympy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]
        except (TypeError, KeyError):
            text = io.StringIO()
            with redirect_stdout(text):
                module.show_config()
            return text.getvalue()

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
    }


def measure(args):
    workload = WORKLOADS[args.workload]
    setup_s, cli = set_up(workload)
    expect = json.loads(Path(args.expect).read_text()) if args.expect else None
    calls, layers, trace_problems = [], [], []
    # the warm-up call pays the first-call costs (cached quadratures,
    # lazily loaded libraries), so the calls after it all run warm;
    # untraced and traced calls alternate, so a drift of the host's
    # speed during the process moves both medians alike
    kinds = (["warm-up"] + ["untraced", "traced"] * TRACED_CALLS
             if args.trace else ["untraced"])
    for k, kind in enumerate(kinds):
        traced = kind == "traced"
        out_dir = Path(args.out) / f"call{k}"
        argv = workload.argv(args.seed, out_dir, args.mesh)
        if traced:
            tracer = spans.Tracer()
            patches = spans.Patches(tracer)
            try:
                rc, wall, stdout, stderr = run_call(cli, argv)
            finally:
                not_restored = patches.restore()
            if not_restored:
                trace_problems.append(f"wrappers left in place: {not_restored}")
        else:
            rc, wall, stdout, stderr = run_call(cli, argv)

        problems = check_call(workload, rc, out_dir, stdout, expect)
        if problems and stderr:
            problems.append(f"stderr: {stderr.strip()[-2000:]}")
        if traced:
            rows = (len(read_table(out_dir / "table.csv"))
                    if (out_dir / "table.csv").is_file() else 0)
            layers.append(spans.layer_metrics(tracer, patches.installed, rows))
        calls.append({"wall_s": wall, "kind": kind, "rc": rc,
                      "problems": problems,
                      "hashes": artifact_hashes(out_dir, stdout)})
        shutil.rmtree(out_dir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        result["layers"] = layer_summary(calls, layers, trace_problems)
        result["trace_problems"] = trace_problems
    result["environment"] = environment()
    Path(args.result).write_text(json.dumps(result, indent=1))


def layer_summary(calls, layers, trace_problems):
    """Median of each layer metric over the traced calls; counts must agree."""
    if len(layers) < 2:
        trace_problems.append(f"{len(layers)} traced calls; the self-check "
                              "needs two")
    if not layers:
        return {}
    out = {}
    for name in layers[0]:
        values = [m.get(name) for m in layers]
        if name in spans.EXACT_METRICS:
            if len(set(values)) > 1:
                trace_problems.append(f"{name} differs between traced "
                                      f"calls: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    traced = [c["wall_s"] for c in calls if c["kind"] == "traced"]
    untraced = [c["wall_s"] for c in calls if c["kind"] == "untraced"]
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(
        untraced)
    return out


def setup(args):
    setup_s, _ = set_up(WORKLOADS[args.workload])
    Path(args.result).write_text(json.dumps({"setup_s": setup_s}))


def reference(args):
    workload = WORKLOADS[args.workload]
    _, cli = set_up(workload)
    out_dir = ROOT / ".perfbench_out" / "reference" / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    rc, _, _, stderr = run_call(cli, workload.argv(0, out_dir))
    if rc != 0:
        raise SystemExit(f"{workload.name} exited with {rc}: {stderr}")
    workload.reference.parent.mkdir(exist_ok=True)
    shutil.copyfile(out_dir / "table.csv", workload.reference)
    print(f"wrote {workload.reference}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode",
                        choices=("setup", "measure", "reference"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the calls' outputs")
    parser.add_argument("--mesh", help="audit mesh file")
    parser.add_argument("--expect", help="JSON of the audit mesh's counts")
    parser.add_argument("--result", help="where to write the result JSON")
    args = parser.parse_args()
    {"setup": setup, "measure": measure,
     "reference": reference}[args.mode](args)


if __name__ == "__main__":
    main()
