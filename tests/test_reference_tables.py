"""Small study tables of the paths the benchmark does not run.

Each uniform table in tests/data was written by `stokes-stab
uniform-study --case C --pair P --n0 4 --levels 2`, the adaptive one by
`stokes-stab adaptive-study --case LSHAPE_PEAK --pair P2P1 --max-iters
4`; each is compared column by column to 1e-10 relative with the
benchmark's own table check. The cases cover the g != 0 load
(NONZERO_G), traction data in P1P1 and in P2P1 (NEUMANN_STRIP; the
P2P1 table is the only one with P2 trace oscillation and the P2
Neumann edge term), P2P1 with the mean-pressure border
(SMOOTH_SQUARE), the estimator-only L-shape in P2P1, and P2P1 marking
and local refinement.
"""

import importlib.util
from pathlib import Path

import pytest

from stokes_stab import cli

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"


def _compare_tables():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare_tables


@pytest.mark.parametrize("case, pair", [
    ("NONZERO_G", "P1P1"),
    ("NONZERO_G", "P2P1"),
    ("NEUMANN_STRIP", "P1P1"),
    ("NEUMANN_STRIP", "P2P1"),
    ("SMOOTH_SQUARE", "P2P1"),
    ("LSHAPE_PEAK", "P2P1"),
])
def test_uniform_study_matches_reference_table(tmp_path, case, pair):
    code = cli.main(["uniform-study", "--case", case, "--pair", pair,
                     "--n0", "4", "--levels", "2", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    ref = DATA / f"uniform_{case}_{pair}_n0_4.csv"
    assert _compare_tables()(tmp_path / "table.csv", ref) == []


def test_adaptive_study_matches_reference_table(tmp_path):
    code = cli.main(["adaptive-study", "--case", "LSHAPE_PEAK", "--pair",
                     "P2P1", "--max-iters", "4", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    ref = DATA / "adaptive_LSHAPE_PEAK_P2P1_iters_4.csv"
    assert _compare_tables()(tmp_path / "table.csv", ref) == []
