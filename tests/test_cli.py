"""Command-line interface: artifacts, determinism, failure classes."""

import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from stokes_stab import cli, estimator, forms, solver, study
from stokes_stab.mesh import unit_square
from stokes_stab.space import FeSpace, P2P1

HANGING_MESH = """trimesh v1
vertices 5
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
0.5 0.5
triangles 3
0 2 3
0 1 4
4 1 2
boundary 7
0 1 D
1 2 D
2 3 D
3 0 D
0 2 D
0 4 D
4 2 D
"""


def run_cli(*args):
    return cli.main(list(args))


def child_env():
    """The environment of a child process that imports the package this
    test imported, also when it was found through pytest's pythonpath
    setting rather than the environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_uniform_study_artifacts(tmp_path):
    code = run_cli("uniform-study", "--case", "SMOOTH_SQUARE",
                   "--pair", "P1P1", "--levels", "3", "--n0", "2",
                   "--out", str(tmp_path))
    assert code == 0
    table = (tmp_path / "table.csv").read_text().splitlines()
    assert table[0] == ("level,h,n_u,n_p,err_H1_u,err_L2_p,eta,osc_f,"
                        "effectivity,rate")
    assert len(table) == 4
    # first row has an empty rate field
    assert table[1].endswith(",")
    for level in range(3):
        assert (tmp_path / f"solution_{level}.vtk").exists()
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "alpha = 0.1" in manifest
    assert "c_i = inf" in manifest
    assert "quad_volume_matrix = 2" in manifest
    assert "tool = stokes-stab" in manifest
    assert "auto" not in manifest


@pytest.mark.parametrize("args", [
    ("uniform-study", "--case", "NEUMANN_STRIP", "--pair", "P2P1",
     "--levels", "3", "--n0", "2"),
    ("adaptive-study", "--case", "LSHAPE_PEAK", "--n0", "4",
     "--max-iters", "3"),
])
def test_studies_solve_once_per_row(tmp_path, monkeypatch, args):
    calls = []
    real = solver.solve

    def counting(system):
        calls.append(len(system.rows) - 1)
        return real(system)

    monkeypatch.setattr(solver, "solve", counting)
    assert run_cli(*args, "--out", str(tmp_path)) == 0
    rows = (tmp_path / "table.csv").read_text().splitlines()[1:]
    assert len(calls) == len(rows) == 3


@pytest.mark.parametrize("args", [
    ("uniform-study", "--case", "NEUMANN_STRIP", "--pair", "P2P1",
     "--levels", "2", "--n0", "2"),
    ("solve", "--case", "SMOOTH_SQUARE", "--pair", "P1P1", "--n0", "4"),
    # no exact solution: no norms, so no trim inside a level
    ("adaptive-study", "--case", "LSHAPE_PEAK", "--n0", "4",
     "--max-iters", "2"),
])
def test_estimator_runs_after_the_system_is_freed(tmp_path, monkeypatch,
                                                  args):
    # the assembled system and its matrix are dead by the time the
    # level's estimator runs; the heap is trimmed before the error
    # norms, where a case has them, and once before the files
    events, systems = [], []
    real_assemble, real_solve = forms.assemble_system, solver.solve
    real_release = solver._release_free_heap
    real_report = estimator.global_report
    real_norms = solver.functional_norms
    real_write = cli._atomic_write

    def assemble(space, problem):
        system = real_assemble(space, problem)
        systems.append((weakref.ref(system), weakref.ref(system.matrix)))
        return system

    def solve(system):
        sol = real_solve(system)
        events.append("solve")
        return sol

    def release():
        events.append("release")
        real_release()

    def report(solution, space, problem):
        assert all(ref() is None for pair in systems for ref in pair)
        events.append("report")
        return real_report(solution, space, problem)

    def norms(*a, **kw):
        events.append("norms")
        return real_norms(*a, **kw)

    def write(path, text):
        events.append("write")
        real_write(path, text)

    monkeypatch.setattr(forms, "assemble_system", assemble)
    monkeypatch.setattr(solver, "solve", solve)
    monkeypatch.setattr(solver, "_release_free_heap", release)
    monkeypatch.setattr(estimator, "global_report", report)
    monkeypatch.setattr(solver, "functional_norms", norms)
    monkeypatch.setattr(cli, "_atomic_write", write)
    assert run_cli(*args, "--out", str(tmp_path)) == 0
    rows = (tmp_path / "table.csv").read_text().splitlines()[1:]
    # per level: global_report trims before the norms of an exact case;
    # the command once before it writes the table, a VTK file per level
    # and the manifest
    level = ["solve", "report", "release", "norms"]
    if "LSHAPE_PEAK" in args:
        level = ["solve", "report"]
    assert events == (level * len(rows) + ["release"]
                      + ["write"] * (len(rows) + 2))
    assert len(systems) == len(rows)


def test_uniform_study_vtk_matches_direct_solve(tmp_path):
    out = tmp_path / "study"
    assert run_cli("uniform-study", "--case", "NEUMANN_STRIP",
                   "--pair", "P2P1", "--levels", "2", "--n0", "2",
                   "--out", str(out)) == 0
    manifest = dict(l.split(" = ") for l in
                    (out / "manifest.txt").read_text().splitlines())
    case = study.get_case("NEUMANN_STRIP")
    mesh = case.make_mesh(2).refine_uniform()
    space = FeSpace(mesh, P2P1)
    problem = case.problem(alpha=float(manifest["alpha"]))
    sol = solver.solve(forms.assemble_system(space, problem))
    rep = estimator.global_report(sol, space, problem)
    cli.write_vtk(tmp_path / "direct.vtk", mesh, sol.u, sol.p, rep.eta_K,
                  title="NEUMANN_STRIP P2P1 level 1")
    assert ((out / "solution_1.vtk").read_bytes()
            == (tmp_path / "direct.vtk").read_bytes())


def test_csv_rate_recomputable(tmp_path):
    run_cli("uniform-study", "--case", "SMOOTH_SQUARE", "--pair", "P1P1",
            "--levels", "3", "--n0", "2", "--out", str(tmp_path))
    rows = (tmp_path / "table.csv").read_text().splitlines()[1:]
    prev = None
    for row in rows:
        f = row.split(",")
        combined = float(f[4]) + float(f[5])
        if prev is not None:
            assert abs(float(f[9]) - math.log2(prev / combined)) < 1e-12
        prev = combined


def test_csv_rate_uses_eta_without_exact_solution(tmp_path):
    code = run_cli("adaptive-study", "--case", "LSHAPE_PEAK", "--n0", "4",
                   "--max-iters", "3", "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "table.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    etas = []
    for row in rows:
        f = row.split(",")
        assert f[4] == "nan" and f[5] == "nan" and f[8] == "nan"
        etas.append(float(f[6]))
    for i, row in enumerate(rows[1:], start=1):
        rate = float(row.split(",")[9])
        assert abs(rate - math.log2(etas[i - 1] / etas[i])) < 1e-12


def test_repeated_runs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code = run_cli("uniform-study", "--case", "NEUMANN_STRIP",
                       "--pair", "P2P1", "--levels", "3", "--n0", "2",
                       "--out", str(out))
        assert code == 0
    for name in ("table.csv", "manifest.txt", "solution_0.vtk",
                 "solution_2.vtk"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_vtk_structure(tmp_path):
    run_cli("solve", "--case", "NONZERO_G", "--pair", "P1P1", "--n0", "2",
            "--out", str(tmp_path))
    lines = (tmp_path / "solution_0.vtk").read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    npoints = int(lines[4].split()[1])
    assert lines[4].endswith("double")
    body = "\n".join(lines)
    assert "VECTORS velocity double" in body
    assert "SCALARS pressure double 1" in body
    assert "SCALARS eta_K double 1" in body
    assert f"POINT_DATA {npoints}" in body
    celltypes = lines.index(next(l for l in lines
                                 if l.startswith("CELL_TYPES")))
    ncells = int(lines[celltypes].split()[1])
    assert all(lines[celltypes + 1 + k] == "5" for k in range(ncells))
    # every point row carries three components
    for row in lines[5:5 + npoints]:
        assert len(row.split()) == 3


def _write_vtk_by_line(path, mesh, u, p, eta_K, title):
    """write_vtk as it was: one generator and join per line."""
    nv, nt = mesh.n_vertices, mesh.n_triangles
    out = [
        "# vtk DataFile Version 3.0", title, "ASCII",
        "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double",
        *(" ".join(map(repr, xy)) + " 0.0" for xy in mesh.vertices.tolist()),
        f"CELLS {nt} {4 * nt}",
        *("3 " + " ".join(map(repr, t)) for t in mesh.triangles.tolist()),
        f"CELL_TYPES {nt}", *["5"] * nt,
        f"POINT_DATA {nv}", "VECTORS velocity double",
        *(" ".join(map(repr, v)) + " 0.0"
          for v in u[:2 * nv].reshape(nv, 2).tolist()),
        "SCALARS pressure double 1", "LOOKUP_TABLE default",
        *map(repr, p[:nv].tolist()),
        f"CELL_DATA {nt}", "SCALARS eta_K double 1", "LOOKUP_TABLE default",
        *map(repr, eta_K[:nt].tolist()),
    ]
    Path(path).write_text("\n".join(out) + "\n")


def test_vtk_matches_the_line_by_line_writer(tmp_path):
    mesh = unit_square(3).refine_marked([0, 5])
    odd = [np.nan, np.inf, -np.inf, -0.0, 1e16, 1e-5, 5e-324, -1 / 3]
    rng = np.random.default_rng(4)

    def field(n):
        # the odd values first, then random ones; longer than needed, as
        # the solution vectors hold more than the vertex values
        return np.concatenate([odd, rng.normal(size=n)])

    args = (mesh, field(2 * mesh.n_vertices + 5), field(mesh.n_vertices),
            field(mesh.n_triangles)[::-1].copy())
    title = "100% %s %r %(x)s title"
    cli.write_vtk(tmp_path / "new.vtk", *args, title=title)
    _write_vtk_by_line(tmp_path / "old.vtk", *args, title=title)
    new = (tmp_path / "new.vtk").read_bytes()
    assert new == (tmp_path / "old.vtk").read_bytes()
    for text in (b"nan", b"inf", b"-inf", b"-0.0", b"1e+16", b"1e-05",
                 b"5e-324", b"100% %s %r %(x)s title"):
        assert text in new


def test_solve_writes_single_row_table(tmp_path):
    run = ("--case", "SMOOTH_SQUARE", "--pair", "P2P1", "--n0", "2")
    one, study_out = tmp_path / "solve", tmp_path / "study"
    assert run_cli("solve", *run, "--out", str(one)) == 0
    rows = (one / "table.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("0,")
    manifest = dict(l.split(" = ") for l in
                    (one / "manifest.txt").read_text().splitlines())
    # P2 default alpha is a quarter of the inverse inequality constant
    assert abs(float(manifest["alpha"]) - (1 / 84) / 4) < 1e-10

    # level 0 of a study of the same run: the same row and fields; only
    # the VTK title and the manifest's command and levels may differ
    assert run_cli("uniform-study", *run, "--levels", "2",
                   "--out", str(study_out)) == 0
    assert (study_out / "table.csv").read_text().splitlines()[:2] == rows
    vtk = [(out / "solution_0.vtk").read_text().splitlines()
           for out in (one, study_out)]
    assert vtk[0][:1] + vtk[0][2:] == vtk[1][:1] + vtk[1][2:]
    other = dict(l.split(" = ") for l in
                 (study_out / "manifest.txt").read_text().splitlines())
    for key in ("command", "levels"):
        del manifest[key], other[key]
    assert manifest == other


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "case = SMOOTH_SQUARE\n"
        "pair = P1P1\n"
        "levels = 3   # comment\n"
        "n0 = 2\n")
    out = tmp_path / "o"
    code = run_cli("uniform-study", "--config", str(cfgfile),
                   "--levels", "2", "--out", str(out))
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "levels = 2" in manifest
    rows = (out / "table.csv").read_text().splitlines()[1:]
    assert len(rows) == 2


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("levls = 3\n")
    code = run_cli("solve", "--config", str(cfgfile))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "unknown key" in err and "levls" in err


def test_config_file_may_start_with_byte_order_mark(tmp_path):
    text = "case = NEUMANN_STRIP\npair = P2P1\nn0 = 2\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text)
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert cli.parse_config_file(bom) == cli.parse_config_file(plain) == {
        "case": "NEUMANN_STRIP", "pair": "P2P1", "n0": 2}


def test_bad_pair_rejected(capsys):
    assert run_cli("solve", "--pair", "P3P2") == 2
    assert "pair" in capsys.readouterr().err


def test_unknown_case_rejected(capsys):
    assert run_cli("audit", "--case", "SMOOTH_SQARE") == 2
    err = capsys.readouterr().err
    assert "SMOOTH_SQARE" in err and "SMOOTH_SQUARE" in err


def test_unknown_case_message_is_not_quoted(capsys):
    assert run_cli("solve", "--case", "NOPE") == 2
    assert capsys.readouterr().err == (
        "stokes-stab: config error: unknown case 'NOPE'; available: "
        f"{', '.join(study.CASE_NAMES)}\n")


@pytest.mark.parametrize("content,lineno,reason", [
    (b"\xff\xfe", 1, "invalid start byte"),
    (b"pair = P1P1\n# caf\xe9\n", 2, "invalid continuation byte"),
    (b"\xef\xbb\xbfpair = P1P1\n# caf\xe9\n", 2,
     "invalid continuation byte"),
], ids=["first-line", "comment", "after-byte-order-mark"])
def test_config_file_not_utf8_is_a_config_error(tmp_path, capsys, content,
                                                lineno, reason):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes(content)
    assert run_cli("solve", "--config", str(cfgfile)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"stokes-stab: config error: {cfgfile}:{lineno}: "
                            f"not UTF-8 text ({reason})\n")


def test_inadmissible_alpha_exit_code(tmp_path, capsys):
    code = run_cli("solve", "--case", "SMOOTH_SQUARE", "--pair", "P2P1",
                   "--alpha", "0.5", "--n0", "2", "--out", str(tmp_path))
    assert code == 2
    assert "C_I" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (("solve", "--alpha", "nan"), "alpha must be nonnegative and finite"),
    (("adaptive-study", "--target-eta", "nan", "--max-iters", "2"),
     "target_eta must be finite"),
], ids=["alpha", "target_eta"])
def test_non_finite_option_is_a_config_error(tmp_path, capsys, args,
                                             message):
    # nan passes every comparison test: alpha = nan assembled a NaN
    # matrix and failed in the solver, target_eta = nan never stopped
    # the adaptive loop
    code = run_cli(*args, "--case", "SMOOTH_SQUARE", "--pair", "P1P1",
                   "--n0", "2", "--out", str(tmp_path))
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"stokes-stab: config error: {message}, got nan\n"
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("command", ["solve", "audit"])
def test_n0_zero_is_a_mesh_error(tmp_path, capsys, command):
    # only an absent n0 means the case's default mesh
    code = run_cli(command, "--case", "SMOOTH_SQUARE", "--n0", "0",
                   "--out", str(tmp_path))
    assert code == cli.EXIT_MESH
    assert capsys.readouterr().err == \
        "stokes-stab: mesh error: unit_square needs n >= 1, got 0\n"


def test_solver_failure_exit_code(tmp_path, capsys):
    code = run_cli("solve", "--case", "SMOOTH_SQUARE", "--pair", "P1P1",
                   "--alpha", "0", "--n0", "4", "--out", str(tmp_path))
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("stokes-stab: solver error:")
    assert err.count("\n") == 1


def test_solver_failure_names_both_factorizations(tmp_path, capsys):
    # the fronts' reason and SuperLU's, the latter without the scipy
    # source line of its RuntimeError
    code = run_cli("solve", "--case", "SMOOTH_SQUARE", "--pair", "P1P1",
                   "--alpha", "0", "--n0", "4", "--out", str(tmp_path))
    assert code == cli.EXIT_SOLVER == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "scipy" not in err
    assert not re.search(r"[\w/]\.c\b", err)
    assert ("fronts: factorization produced a zero pivot; "
            "COLAMD: matrix is singular to working precision") in err


def test_solver_failure_streams_clean_at_process_exit(tmp_path):
    # nothing from a failed factorization may reach stdout, whether the
    # BLAS writes its complaints straight to fd 1 or buffers them in the
    # C-level stdout stream until the interpreter exits
    proc = subprocess.run(
        [sys.executable, "-m", "stokes_stab.cli", "solve",
         "--case", "SMOOTH_SQUARE", "--pair", "P1P1",
         "--alpha", "0", "--n0", "4", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=child_env())
    assert proc.returncode == 4
    assert "illegal value" not in proc.stdout
    assert proc.stdout == ""
    assert proc.stderr.startswith("stokes-stab: solver error:")
    assert proc.stderr.count("\n") == 1


def test_solve_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # the front classes are found through a dict of their keys; the
    # outputs of two processes with different string hashing agree
    # byte for byte
    outputs = []
    for seed in ("0", "4242"):
        out = tmp_path / seed
        proc = subprocess.run(
            [sys.executable, "-m", "stokes_stab.cli", "solve",
             "--case", "NEUMANN_STRIP", "--pair", "P2P1", "--n0", "8",
             "--out", str(out)],
            capture_output=True, timeout=300,
            env=dict(child_env(), PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        files = sorted(p for p in out.rglob("*") if p.is_file())
        outputs.append({p.relative_to(out): p.read_bytes() for p in files})
    assert outputs[0] and outputs[0] == outputs[1]


def test_memory_error_exit_code(tmp_path):
    # the child caps its address space after importing, so the first
    # grid array of n0 = 100000 (10 GB of cell flags) cannot be
    # allocated and nothing big is ever touched
    code = (
        "import resource, sys\n"
        "from stokes_stab import cli\n"
        "pages = int(open('/proc/self/statm').read().split()[0])\n"
        "cap = pages * resource.getpagesize() + (1 << 30)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "sys.exit(cli.main(['solve', '--case', 'SMOOTH_SQUARE', '--pair',"
        f" 'P1P1', '--n0', '100000', '--out', {str(tmp_path)!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=child_env())
    assert proc.returncode == cli.EXIT_MEMORY == 6
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "stokes-stab: memory error: solve --case SMOOTH_SQUARE --pair P1P1 "
        "--n0 100000: ")
    assert proc.stderr.count("\n") == 1


def test_audit_passes_builtin_case(capsys):
    assert run_cli("audit", "--case", "LSHAPE_PEAK", "--n0", "4") == 0
    out = capsys.readouterr().out
    assert "audit passed" in out


def test_audit_names_conformity_failure(tmp_path, capsys):
    meshfile = tmp_path / "hang.mesh"
    meshfile.write_text(HANGING_MESH)
    code = run_cli("audit", "--case", str(meshfile))
    assert code == 3
    captured = capsys.readouterr()
    assert "conformity" in captured.err
    assert "hangs on edge" in captured.out


@pytest.mark.parametrize("content,message", [
    (b"trimesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 0\nboundary 0\n",
     "line 7: mesh has no triangles"),
    (b"trimesh v1\n# caf\xe9\nvertices 0\n",
     "line 2: not UTF-8 text (invalid continuation byte)"),
    (b"trimesh v1\nvertices 3\n0 0\n1 nan\n0 1\n",
     "line 4: non-finite coordinate in '1 nan'"),
], ids=["no-triangles", "not-utf8", "nan-coordinate"])
def test_audit_of_unreadable_mesh_file_is_a_mesh_error(tmp_path, capsys,
                                                       content, message):
    meshfile = tmp_path / "bad.mesh"
    meshfile.write_bytes(content)
    assert run_cli("audit", "--case", str(meshfile)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"stokes-stab: mesh error: {message}\n"


def test_audit_of_mesh_file_builds_no_case(tmp_path, monkeypatch):
    calls = []
    real = study.builtin_cases

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(study, "builtin_cases", counting)
    meshfile = tmp_path / "square.mesh"
    unit_square(2).write(meshfile)
    assert run_cli("audit", "--case", str(meshfile)) == 0
    assert calls == []


def test_io_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("i am a file")
    code = run_cli("solve", "--case", "SMOOTH_SQUARE", "--n0", "2",
                   "--out", str(blocker / "sub"))
    assert code == 5
    assert "io error" in capsys.readouterr().err


def test_cli_commands_never_import_sympy(tmp_path):
    # the builtin cases evaluate the committed numpy source of their
    # fields, so no command needs sympy; the quadrature's Gauss-Jacobi
    # nodes are committed literals, so none needs scipy.special either
    meshfile = tmp_path / "square.mesh"
    unit_square(2).write(meshfile)
    runs = [["solve", "--case", case, "--pair", pair, "--n0", "4"]
            for case in study.CASE_NAMES for pair in ("P1P1", "P2P1")]
    runs += [["uniform-study", "--case", "NEUMANN_STRIP", "--n0", "2",
              "--levels", "2"],
             ["adaptive-study", "--case", "LSHAPE_PEAK", "--max-iters", "2"],
             ["audit", "--case", "NONZERO_G"],
             ["audit", "--case", str(meshfile)]]
    for k, argv in enumerate(runs):
        if argv[0] != "audit":
            argv += ["--out", str(tmp_path / f"run{k}")]
    code = ("import sys\n"
            "from stokes_stab import cli\n"
            f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, 'sympy' in sys.modules,"
            " 'scipy.special' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(runs)} False False"
