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


def _edit(path, change):
    path.write_text("\n".join(change(path.read_text().splitlines())) + "\n")


def _scaled_field(lines, header, factor):
    # every value of the VTK data block under header times factor
    k = lines.index(header) + 2
    while k < len(lines) and not lines[k][:1].isupper():
        lines[k] = repr(float(lines[k]) * factor)
        k += 1
    return lines


def _moved_point(lines):
    # the first mesh point's z coordinate off by 1e-300
    k = next(k for k, ln in enumerate(lines) if ln.startswith("POINTS"))
    lines[k + 1] = lines[k + 1].rsplit(" ", 1)[0] + " 1e-300"
    return lines


def test_rtol_passes_small_drift_and_nothing_else(tmp_path, capsys):
    tool = _tool()
    a = tmp_path / "a"
    _study(a)
    (a / "stdout.txt").write_text("eta = 1.5e-01, residual = 7.960e-16\n")
    (a / "exit.txt").write_text("0\n")

    def variant(name, drift, edits=()):
        c = tmp_path / name
        shutil.copytree(a, c)
        _edit(c / "table.csv", lambda t: t[:1] + [
            ",".join(f"{float(v) * (1 + drift):.12e}" if j > 3 and v
                     else v for j, v in enumerate(row.split(",")))
            for row in t[1:]])
        _edit(c / "solution_1.vtk", lambda t: _scaled_field(
            t, "SCALARS pressure double 1", 1 + drift))
        (c / "stdout.txt").write_text("eta = 1.5e-01, residual = 1.081e-15\n")
        for path, change in edits:
            _edit(c / path, change)
        return c

    capsys.readouterr()
    small = variant("small", 1e-12)
    assert tool.main([str(a), str(small)]) == 1
    assert tool.main(["--rtol", "1e-10", str(a), str(small)]) == 0
    report = capsys.readouterr().out.splitlines()
    lines = dict(ln.split(": ", 1) for ln in report[:-1])
    assert lines["table.csv"].endswith(" -- within rtol")
    assert lines["solution_1.vtk"].startswith("pressure ")
    assert lines["stdout.txt"] == "numbers 0.358 -- within rtol"
    assert lines["manifest.txt"] == "identical"
    drifts = dict(part.split() for part in
                  report[-1].removeprefix("largest drift: ").split(", "))
    assert 0.5e-12 < float(drifts["eta"]) < 2e-12
    assert 0.5e-12 < float(drifts["pressure"]) < 2e-12

    # past the tolerance, or anything but the numbers changed
    for name, drift, edits in [
            ("large", 1e-6, ()),
            ("mesh", 1e-12, [("solution_0.vtk", _moved_point)]),
            ("manifest", 1e-12, [("manifest.txt", lambda t: [
                ln.replace("seed = 0", "seed = 7") for ln in t])]),
            ("text", 1e-12, [("stdout.txt", lambda t: [
                ln.replace("eta", "eta_K") for ln in t])]),
            ("exit", 1e-12, [("exit.txt", lambda t: ["4"])])]:
        c = variant(name, drift, edits)
        assert tool.main(["--rtol", "1e-10", str(a), str(c)]) == 1, name
        assert " -- beyond rtol" in capsys.readouterr().out
