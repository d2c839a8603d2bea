"""Compare two directories of stokes-stab outputs file by file.

    python tools/compare_outputs.py DIR_A DIR_B

Every file under either directory is reported on one line: "identical"
when the sha256 digests agree, else the largest drift of B against A.
table.csv files report the largest relative drift of each column, VTK
files that of each data block (velocity, pressure, eta_K) relative to
the block's largest magnitude in A, manifest.txt files the lines that
differ; other files only say that they differ. Exits 0 when every file
is identical, 1 otherwise.
"""

import csv
import hashlib
import sys
from pathlib import Path

import numpy as np

VTK_BLOCKS = ("velocity", "pressure", "eta_K")


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _max_drift(a, b, scale):
    """The largest |a - b| / scale of two arrays of one shape (scale
    broadcasts against a, a zero scale counts as 1; NaN matches NaN),
    0.0 when a and b are equal."""
    diff = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    if not diff.any():
        return 0.0
    scale = np.broadcast_to(np.where(scale == 0, 1.0, scale), a.shape)
    return float(np.max(np.abs(a - b)[diff] / scale[diff]))


def _drift(a, b, scale):
    """_max_drift as text, "" when a and b are equal."""
    if a.shape != b.shape:
        return f"shape {a.shape} -> {b.shape}"
    rel = _max_drift(a, b, scale)
    return f"{rel:.3g}" if rel else ""


def table_drifts(pa, pb):
    """{column: largest relative drift of B against A} of two table.csv
    files, for the columns whose numbers differ; None when the files
    differ in rows or columns."""
    rows_a = list(csv.DictReader(pa.open(newline="")))
    rows_b = list(csv.DictReader(pb.open(newline="")))
    if len(rows_a) != len(rows_b) or (rows_a and rows_a[0].keys()
                                      != rows_b[0].keys()):
        return None
    out = {}
    for col in rows_a[0] if rows_a else ():
        a, b = (np.array([float(r[col] or "nan") for r in rows])
                for rows in (rows_a, rows_b))
        rel = _max_drift(a, b, np.abs(a))
        if rel:
            out[col] = rel
    return out


def _table_drift(pa, pb):
    drifts = table_drifts(pa, pb)
    if drifts is None:
        return ["rows or columns differ"]
    return ([f"{col} {rel:.3g}" for col, rel in drifts.items()]
            or ["same numbers, other text"])


def _vtk_blocks(path):
    """{block name: values} of the VTK data blocks."""
    lines = path.read_text().splitlines()
    blocks = {}
    for k, line in enumerate(lines):
        words = line.split()
        if len(words) > 1 and words[0] in ("VECTORS", "SCALARS") \
                and words[1] in VTK_BLOCKS:
            start = k + 1 if words[0] == "VECTORS" else k + 2
            end = start
            while end < len(lines) and not lines[end][:1].isupper():
                end += 1
            blocks[words[1]] = np.array(
                [float(v) for ln in lines[start:end] for v in ln.split()])
    return blocks


def _vtk_drift(pa, pb):
    a, b = _vtk_blocks(pa), _vtk_blocks(pb)
    out = []
    for name in VTK_BLOCKS:
        if name in a or name in b:
            if name not in a or name not in b:
                out.append(f"{name} missing")
                continue
            rel = _drift(a[name], b[name],
                         np.max(np.abs(a[name]), initial=0.0))
            if rel:
                out.append(f"{name} {rel}")
    if not out:
        out.append("mesh or header lines differ")
    return out


def _manifest_drift(pa, pb):
    la, lb = pa.read_text().splitlines(), pb.read_text().splitlines()
    out = [f"{x!r} -> {y!r}" for x, y in zip(la, lb) if x != y]
    if len(la) != len(lb):
        out.append(f"{len(la)} -> {len(lb)} lines")
    return out


def compare(dir_a, dir_b):
    """(relative path, report) for every file under either directory."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({p.relative_to(d) for d in (dir_a, dir_b)
                    for p in d.rglob("*") if p.is_file()})
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not pa.exists() or not pb.exists():
            yield name, f"only in {dir_a if pa.exists() else dir_b}"
        elif _sha(pa) == _sha(pb):
            yield name, "identical"
        elif name.name == "table.csv":
            yield name, "; ".join(_table_drift(pa, pb))
        elif name.suffix == ".vtk":
            yield name, "; ".join(_vtk_drift(pa, pb))
        elif name.name == "manifest.txt":
            yield name, "; ".join(_manifest_drift(pa, pb))
        else:
            yield name, "differs"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    same = True
    for name, report in compare(*argv):
        print(f"{name}: {report}")
        same = same and report == "identical"
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
