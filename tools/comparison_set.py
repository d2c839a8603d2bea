"""Run a fixed set of stokes-stab commands in process, each into its
own directory, so that the outputs of two source trees can be compared
file by file. Run from the root of a source checkout, which supplies
the package:

    python tools/comparison_set.py OUT

The set is 22 commands: 8 `uniform-study` runs (4 cases x 2 pairs,
n0 4, 3 levels), a P2P1 `uniform-study` of NEUMANN_STRIP on the
non-dyadic unit_square(6) (rounding splits its 72 elements into 32
shape classes, some of which differ in their last bits alone), 3
`solve` runs at the default alpha, 2 equal-order `solve` runs at a
tiny alpha (1e-6 takes the fronts' refinement step, 1e-8 falls back to
COLAMD), one at alpha 0, which both factorizations reject (exit 4),
the 3 study commands of the benchmark, a P2P1 `adaptive-study` of
LSHAPE_PEAK (Dirichlet midpoint nodes and the mean-pressure border on
graded meshes), `audit --case LSHAPE_PEAK` and the audits of two mesh
files in tests/data: a conforming graded L-shape, and a mesh with
hanging nodes, comments, blank lines and a byte-order mark (exit 3).
Command NAME writes into OUT/NAME/, with its standard output in
OUT/NAME/stdout.txt, its standard error in OUT/NAME/stderr.txt and
its exit code in OUT/NAME/exit.txt. Two trees are then compared with

    python tools/compare_outputs.py OUT_A OUT_B

Exits 0 when every command exits with its expected code (EXIT, else
0), 1 otherwise.
"""

import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stokes_stab import cli  # noqa: E402

CASES = ("SMOOTH_SQUARE", "NEUMANN_STRIP", "NONZERO_G", "LSHAPE_PEAK")

# (directory name, CLI arguments without --out)
COMMANDS = (
    *((f"uniform_{case}_{pair}",
       ("uniform-study", "--case", case, "--pair", pair, "--n0", "4",
        "--levels", "3"))
      for case in CASES for pair in ("P1P1", "P2P1")),
    ("uniform_NEUMANN_STRIP_P2P1_n0_6",
     ("uniform-study", "--case", "NEUMANN_STRIP", "--pair", "P2P1",
      "--n0", "6", "--levels", "2")),
    *((f"solve_{case}_{pair}_n0_{n0}",
       ("solve", "--case", case, "--pair", pair, "--n0", n0))
      for case, pair, n0 in (("SMOOTH_SQUARE", "P1P1", "16"),
                             ("NEUMANN_STRIP", "P2P1", "16"),
                             ("NONZERO_G", "P2P1", "8"))),
    *((f"solve_SMOOTH_SQUARE_P1P1_n0_16_alpha_{alpha}",
       ("solve", "--case", "SMOOTH_SQUARE", "--pair", "P1P1", "--n0", "16",
        "--alpha", alpha))
      for alpha in ("1e-6", "1e-8")),
    ("solve_SMOOTH_SQUARE_P1P1_n0_4_alpha_0",
     ("solve", "--case", "SMOOTH_SQUARE", "--pair", "P1P1", "--n0", "4",
      "--alpha", "0")),
    # the study commands of perfbench/workloads.py
    ("bench_uniform_p1p1_dirichlet",
     ("uniform-study", "--case", "SMOOTH_SQUARE", "--pair", "P1P1",
      "--n0", "16", "--levels", "3")),
    ("bench_uniform_p2p1_neumann",
     ("uniform-study", "--case", "NEUMANN_STRIP", "--pair", "P2P1",
      "--n0", "16", "--levels", "3")),
    ("bench_adaptive_lshape_p1p1",
     ("adaptive-study", "--case", "LSHAPE_PEAK", "--pair", "P1P1",
      "--theta", "0.5", "--target-eta", "0.16", "--max-iters", "40")),
    ("adaptive_LSHAPE_PEAK_P2P1",
     ("adaptive-study", "--case", "LSHAPE_PEAK", "--pair", "P2P1",
      "--max-iters", "4")),
    ("audit_LSHAPE_PEAK", ("audit", "--case", "LSHAPE_PEAK")),
    *((f"audit_file_{name}",
       ("audit", "--case", f"tests/data/mesh_{name}.txt"))
      for name in ("lshape_neumann", "hanging_nodes")),
)

# exit codes of the commands expected to fail, by name
EXIT = {"solve_SMOOTH_SQUARE_P1P1_n0_4_alpha_0": cli.EXIT_SOLVER,
        "audit_file_hanging_nodes": cli.EXIT_MESH}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/comparison_set.py OUT", file=sys.stderr)
        return 2
    failed = 0
    for name, args in COMMANDS:
        where = Path(argv[0]) / name
        where.mkdir(parents=True, exist_ok=True)
        with open(where / "stdout.txt", "w") as out, \
                open(where / "stderr.txt", "w") as err, \
                redirect_stdout(out), redirect_stderr(err):
            code = cli.main([*args, "--out", str(where)])
        (where / "exit.txt").write_text(f"{code}\n")
        expected = EXIT.get(name, cli.EXIT_OK)
        print(f"{name}: exit {code}"
              + ("" if code == expected else f", expected {expected}"))
        failed += code != expected
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
