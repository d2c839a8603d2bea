"""Command-line front end: stokes-stab <command> [options].

Commands
--------
solve            single solve of a builtin case, VTK + manifest output
uniform-study    convergence table over uniformly refined meshes
adaptive-study   estimator-driven refinement loop
audit            mesh sanity checks on a builtin case or a mesh file

Configuration comes from an optional `key = value` file plus flag
overrides; unknown keys are rejected so a config file fully describes
a run. All artifacts are written atomically and contain no timestamps,
making repeated runs byte-identical.
"""

import argparse
import math
import os
import sys
from pathlib import Path

from . import __version__, forms, mesh as meshmod, solver, study
from .space import ElementPair

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MESH = 3
EXIT_SOLVER = 4
EXIT_IO = 5
EXIT_MEMORY = 6

COMMANDS = ("solve", "uniform-study", "adaptive-study", "audit")

# every key a config file or flag may set: (parser, default, help)
_KEYS = {
    "case": (str, "SMOOTH_SQUARE",
             "builtin case name (or mesh file for audit)"),
    "pair": (str, "P1P1", "element pair: P1P1 or P2P1"),
    "alpha": (str, "auto", "stabilization parameter, or 'auto'"),
    "levels": (int, 4, "number of uniform refinement levels"),
    "theta": (float, 0.5, "marking fraction in (0, 1)"),
    "max_iters": (int, 10, "adaptive iteration cap"),
    "target_eta": (float, None, "stop refining once eta falls below this"),
    "n0": (int, None, "initial structured mesh resolution"),
    "out": (str, ".", "output directory (default: .)"),
    "seed": (int, 0, "seed recorded in the manifest"),
}


class ConfigError(Exception):
    pass


def parse_config_file(path):
    """Read `key = value` lines of UTF-8 text, which may start with a
    byte-order mark; '#' starts a comment."""
    out = {}
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{exc.strerror}") from None
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}:{meshmod.utf8_error_line(exc)}: not "
                          f"UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            known = ", ".join(sorted(_KEYS))
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} "
                              f"(known keys: {known})")
        try:
            out[key] = _KEYS[key][0](value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for "
                              f"{key}") from None
    return out


def resolve_config(args):
    """Merge defaults, config file, and flag overrides."""
    cfg = {key: default for key, (_, default, _) in _KEYS.items()}
    if args.config:
        cfg.update(parse_config_file(args.config))
    for key in _KEYS:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
    if cfg["pair"] not in ("P1P1", "P2P1"):
        raise ConfigError(f"pair must be P1P1 or P2P1, got {cfg['pair']!r}")
    if cfg["alpha"] != "auto":
        try:
            cfg["alpha"] = float(cfg["alpha"])
        except (TypeError, ValueError):
            raise ConfigError(
                f"alpha must be a number or 'auto', got {cfg['alpha']!r}") \
                from None
    else:
        cfg["alpha"] = None
    return cfg


def _atomic_write(path, text):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _fmt(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return f"{x:.12e}"


def _printed(x):
    """The value a reader recovers from the formatted CSV field."""
    s = _fmt(x)
    return float("nan") if s == "nan" else float(s)


def write_table_csv(path, rows):
    """Rows are study.LevelRow objects; `rate` is computed here.

    The rate column is study.log2_ratios of study.rate_measure, taken
    of the printed values so the column is exactly recomputable from
    the file; it is empty on the first row and where a value is not
    positive.
    """
    printed = [{key: _printed(getattr(row, key))
                for key in ("err_H1_u", "err_L2_p", "eta")} for row in rows]
    rates = [math.nan] + study.log2_ratios(
        [study.rate_measure(values) for values in printed])
    lines = ["level,h,n_u,n_p,err_H1_u,err_L2_p,eta,osc_f,effectivity,rate"]
    for row, rate in zip(rows, rates):
        lines.append(",".join([
            str(row.level), _fmt(row.h), str(row.n_u), str(row.n_p),
            _fmt(row.err_H1_u), _fmt(row.err_L2_p), _fmt(row.eta),
            _fmt(row.osc_f), _fmt(row.effectivity),
            "" if math.isnan(rate) else _fmt(rate),
        ]))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_vtk(path, mesh, u, p, eta_K, title="stokes-stab output"):
    """Legacy ASCII unstructured-grid file with the solution fields."""
    nv = mesh.n_vertices
    nt = mesh.n_triangles

    def rows(form, values, n):
        # one % over the flat values: %r of a float is its repr
        return form * n % tuple(values.ravel().tolist())

    # the title is concatenated, never formatted: it may hold a %
    _atomic_write(path, "".join([
        "# vtk DataFile Version 3.0\n", title, "\nASCII\n",
        "DATASET UNSTRUCTURED_GRID\n",
        f"POINTS {nv} double\n", rows("%r %r 0.0\n", mesh.vertices, nv),
        f"CELLS {nt} {4 * nt}\n", rows("3 %r %r %r\n", mesh.triangles, nt),
        f"CELL_TYPES {nt}\n", "5\n" * nt,
        f"POINT_DATA {nv}\n", "VECTORS velocity double\n",
        rows("%r %r 0.0\n", u[:2 * nv], nv),
        "SCALARS pressure double 1\nLOOKUP_TABLE default\n",
        rows("%r\n", p[:nv], nv),
        f"CELL_DATA {nt}\n", "SCALARS eta_K double 1\nLOOKUP_TABLE default\n",
        rows("%r\n", eta_K[:nt], nt),
    ]))


def write_manifest(path, cfg, command, alpha, c_i):
    lines = [
        f"tool = stokes-stab {__version__}",
        f"command = {command}",
        f"case = {cfg['case']}",
        f"pair = {cfg['pair']}",
        f"alpha = {alpha!r}",
        f"c_i = {c_i!r}",
        f"levels = {cfg['levels']}",
        f"theta = {cfg['theta']!r}",
        f"max_iters = {cfg['max_iters']}",
        f"target_eta = {cfg['target_eta']!r}",
        f"n0 = {cfg['n0']!r}",
        f"seed = {cfg['seed']}",
    ]
    degree = ElementPair.from_label(cfg["pair"]).velocity_degree
    for name, value in sorted(forms.quad_degrees(degree).items()):
        lines.append(f"quad_{name} = {value}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_outputs(cfg, command, rows, titles, alpha, c_i):
    """Write a command's files into cfg["out"]: table.csv of rows,
    solution_<level>.vtk of each row under its title, and manifest.txt.
    """
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_table_csv(out / "table.csv", rows)
    for row, title in zip(rows, titles):
        write_vtk(out / f"solution_{row.level}.vtk", row.mesh, row.u, row.p,
                  row.eta_K, title=title)
    write_manifest(out / "manifest.txt", cfg, command, alpha, c_i)


def cmd_solve(cfg):
    case, space, problem = study._set_up(cfg["case"], cfg["pair"],
                                         cfg["alpha"], cfg["n0"])
    sol, rep = study._solve_level(space, problem, "solve")
    label = f"{case.name} {space.pair.label}"
    write_outputs(cfg, "solve", [study.level_row(0, space, sol, rep)],
                  [label], problem.alpha, space.c_i)
    print(f"{label}: {space.mesh.n_triangles} triangles, "
          f"eta = {rep.eta:.6e}, residual = {sol.residual:.3e}")
    return EXIT_OK


def cmd_uniform_study(cfg):
    table = study.uniform_study(study.get_case(cfg["case"]), cfg["pair"],
                                cfg["levels"], alpha=cfg["alpha"],
                                n0=cfg["n0"])
    write_outputs(cfg, "uniform-study", table.rows,
                  [f"{table.case} {table.pair} level {row.level}"
                   for row in table.rows], table.alpha, table.c_i)
    print(table)
    return EXIT_OK


def cmd_adaptive_study(cfg):
    log = study.adaptive_study(study.get_case(cfg["case"]), cfg["pair"],
                               theta=cfg["theta"], max_iters=cfg["max_iters"],
                               target_eta=cfg["target_eta"],
                               alpha=cfg["alpha"], n0=cfg["n0"])
    write_outputs(cfg, "adaptive-study", log.steps,
                  [f"{log.case} {log.pair} iteration {row.level}"
                   for row in log.steps], log.alpha, log.c_i)
    for row in log.steps:
        print(f"iter {row.level}: {row.mesh.n_triangles} triangles, "
              f"{row.n_u + row.n_p} dofs, eta = {row.eta:.6e}, "
              f"marked {len(row.marked)}")
    return EXIT_OK


def cmd_audit(cfg):
    name = cfg["case"]
    try:
        case = study.get_case(name)
    except study.UnknownCaseError:
        case = None
    if case is not None:
        target = case.make_mesh(case.default_n0 if cfg["n0"] is None
                                else cfg["n0"])
        label = case.name
    else:
        if not Path(name).exists():
            known = ", ".join(study.CASE_NAMES)
            raise ConfigError(f"{name!r} is neither a builtin case "
                              f"({known}) nor an existing mesh file")
        target = meshmod.TriMesh.read(name, validate=False)
        label = name
    report = target.audit()
    print(report)
    if not report.ok:
        bad = [c for c, (ok, _) in report.checks.items() if not ok]
        raise meshmod.MeshError(
            f"mesh audit of {label} failed: {', '.join(bad)}")
    print(f"audit passed: {target.n_vertices} vertices, "
          f"{target.n_triangles} triangles, min angle "
          f"{target.min_angle_deg:.2f} deg")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stokes-stab",
        description="Stabilized mixed finite elements for the Stokes "
                    "equations: solves, convergence studies, adaptive "
                    "refinement, mesh audits.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="key = value configuration file")
    for key, (kind, _, text) in _KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            type=kind, help=text)
    parser.add_argument("--version", action="version",
                        version=f"stokes-stab {__version__}")
    return parser


def _fail(code, category, exc):
    msg = " ".join(str(exc).split())
    print(f"stokes-stab: {category} error: {msg}", file=sys.stderr)
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", exc)

    dispatch = {
        "solve": cmd_solve,
        "uniform-study": cmd_uniform_study,
        "adaptive-study": cmd_adaptive_study,
        "audit": cmd_audit,
    }
    try:
        return dispatch[args.command](cfg)
    except (ConfigError, study.UnknownCaseError,
            forms.InadmissibleAlphaError, ValueError) as exc:
        return _fail(EXIT_CONFIG, "config", exc)
    except meshmod.MeshError as exc:
        return _fail(EXIT_MESH, "mesh", exc)
    except solver.SolverError as exc:
        return _fail(EXIT_SOLVER, "solver", exc)
    except OSError as exc:
        return _fail(EXIT_IO, "io", exc)
    except MemoryError as exc:
        run = (f"{args.command} --case {cfg['case']} --pair {cfg['pair']} "
               f"--n0 {'default' if cfg['n0'] is None else cfg['n0']}")
        return _fail(EXIT_MEMORY, "memory",
                     f"{run}: {str(exc) or 'out of memory'}")


if __name__ == "__main__":
    sys.exit(main())
