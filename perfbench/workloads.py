"""The four benchmark workloads and the checks on their outputs.

Each workload is one `stokes-stab` command. The study workloads use the
built-in closed-form cases, so their outputs do not depend on the seed,
which only reaches the manifest; their `table.csv` is compared with a
reference captured from the program (`reference/<workload>.csv`). The
audit workload reads a mesh the benchmark generates from the seed.
"""

import csv
import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-10
INT_COLUMNS = ("level", "n_u", "n_p")
AUDIT_CHECKS = ("orientation", "conformity", "boundary_tags", "min_angle")


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple          # CLI arguments; study workloads add --seed and --out
    case: str = None     # built-in case whose problem() is part of set-up

    @property
    def is_audit(self):
        return self.args[0] == "audit"

    def argv(self, seed, out_dir, mesh_path=None):
        if self.is_audit:
            return ["audit", "--case", str(mesh_path)]
        return [*self.args, "--seed", str(seed), "--out", str(out_dir)]

    @property
    def reference(self):
        return REFERENCE_DIR / f"{self.name}.csv"


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("uniform_p1p1_dirichlet",
             ("uniform-study", "--case", "SMOOTH_SQUARE", "--pair", "P1P1",
              "--n0", "16", "--levels", "3"), case="SMOOTH_SQUARE"),
    Workload("uniform_p2p1_neumann",
             ("uniform-study", "--case", "NEUMANN_STRIP", "--pair", "P2P1",
              "--n0", "16", "--levels", "3"), case="NEUMANN_STRIP"),
    Workload("adaptive_lshape_p1p1",
             ("adaptive-study", "--case", "LSHAPE_PEAK", "--pair", "P1P1",
              "--theta", "0.5", "--target-eta", "0.16", "--max-iters", "40"),
             case="LSHAPE_PEAK"),
    Workload("audit_lshape_file", ("audit",)),
)}


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _same_value(column, got, ref):
    if column in INT_COLUMNS or ref == "" or got == "":
        return got == ref
    g, r = float(got), float(ref)
    if math.isnan(r) or math.isnan(g):
        return math.isnan(r) and math.isnan(g)
    return g == r or abs(g - r) <= RTOL * abs(r)


def compare_tables(got_path, ref_path):
    """Mismatches of a table.csv against the reference, as messages."""
    got, ref = read_table(got_path), read_table(ref_path)
    if len(got) != len(ref):
        return [f"table.csv has {len(got)} rows, reference {len(ref)}"]
    if got and list(got[0]) != list(ref[0]):
        return [f"table.csv columns {list(got[0])} differ from the reference"]
    problems = []
    for k, (g_row, r_row) in enumerate(zip(got, ref)):
        for column, r in r_row.items():
            if not _same_value(column, g_row[column], r):
                problems.append(f"table.csv row {k} {column}: "
                                f"{g_row[column]} vs reference {r}")
    return problems


def expected_artifacts(workload):
    if workload.is_audit:
        return []
    levels = [row["level"] for row in read_table(workload.reference)]
    return (["table.csv", "manifest.txt"]
            + [f"solution_{level}.vtk" for level in levels])


def artifact_hashes(out_dir, stdout_text):
    """sha256 of every file the call wrote and of its standard output."""
    hashes = {"<stdout>": hashlib.sha256(stdout_text.encode()).hexdigest()}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def check_audit_output(stdout_text, expect):
    """The audit must pass every check and report the generated counts."""
    problems = []
    lines = stdout_text.splitlines()
    for name in AUDIT_CHECKS:
        if f"{name}: ok" not in lines:
            problems.append(f"audit check {name} not reported ok")
    match = re.search(r"^audit passed: (\d+) vertices, (\d+) triangles, "
                      r"min angle ([0-9.]+) deg$", stdout_text, re.MULTILINE)
    if match is None:
        return problems + ["output has no 'audit passed' line"]
    nv, nt, angle = int(match[1]), int(match[2]), float(match[3])
    if (nv, nt) != (expect["n_vertices"], expect["n_triangles"]):
        problems.append(f"audit counts {nv} vertices, {nt} triangles; the "
                        f"generated mesh has {expect['n_vertices']}, "
                        f"{expect['n_triangles']}")
    # the audit prints two decimals
    if abs(angle - expect["min_angle_deg"]) > 0.006:
        problems.append(f"audit min angle {angle} deg; the generated mesh "
                        f"has {expect['min_angle_deg']:.4f}")
    return problems


def check_call(workload, rc, out_dir, stdout_text, expect=None):
    """Every reason this call counts as failed, as messages."""
    if rc != 0:
        return [f"exit code {rc}"]
    if workload.is_audit:
        return check_audit_output(stdout_text, expect)
    missing = [name for name in expected_artifacts(workload)
               if not (out_dir / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    return compare_tables(out_dir / "table.csv", workload.reference)
