"""tools/compare_outputs.py on the outputs of two study runs."""

import importlib.util
import shutil
from pathlib import Path

from stokes_stab import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _study(out):
    code = cli.main(["uniform-study", "--case", "NEUMANN_STRIP", "--pair",
                     "P1P1", "--n0", "2", "--levels", "2", "--out",
                     str(out)])
    assert code == cli.EXIT_OK


def test_two_runs_identical_and_perturbed_column_reported(tmp_path, capsys):
    tool = _tool()
    a, b = tmp_path / "a", tmp_path / "b"
    _study(a)
    _study(b)
    capsys.readouterr()
    assert tool.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = sorted(p.name for p in a.iterdir())
    assert [ln.split(": ")[0] for ln in lines] == names
    assert all(ln.endswith(": identical") for ln in lines)

    c = tmp_path / "c"
    shutil.copytree(a, c)
    table = (c / "table.csv").read_text().splitlines()
    head = table[0].split(",")
    row = table[1].split(",")
    col = head.index("eta")
    row[col] = f"{float(row[col]) * (1 + 1e-6):.12e}"
    table[1] = ",".join(row)
    (c / "table.csv").write_text("\n".join(table) + "\n")
    manifest = (c / "manifest.txt").read_text().replace("seed = 0",
                                                        "seed = 7")
    (c / "manifest.txt").write_text(manifest)
    vtk = (c / "solution_1.vtk").read_text().splitlines()
    k = vtk.index("SCALARS pressure double 1") + 2
    vtk[k] = repr(float(vtk[k]) + 1.0)
    (c / "solution_1.vtk").write_text("\n".join(vtk) + "\n")

    assert tool.main([str(a), str(c)]) == 1
    report = dict(ln.split(": ", 1)
                  for ln in capsys.readouterr().out.splitlines())
    assert report["table.csv"].startswith("eta ")
    assert abs(float(report["table.csv"].split()[1]) - 1e-6) < 1e-9
    assert report["manifest.txt"] == "'seed = 0' -> 'seed = 7'"
    assert report["solution_1.vtk"].startswith("pressure ")
    assert report["solution_0.vtk"] == "identical"
