"""Compare two directories of stokes-stab outputs file by file.

    python tools/compare_outputs.py [--rtol R] DIR_A DIR_B

Every file under either directory is reported on one line: "identical"
when the sha256 digests agree, else the largest drift of B against A.
table.csv files report the largest relative drift of each column, VTK
files that of each data block (velocity, pressure, eta_K) relative to
the block's largest magnitude in A, stdout.txt files that of the
numbers in their lines, manifest.txt files the lines that differ;
other files only say that they differ. Exits 0 when every file is
identical, 1 otherwise.

With --rtol R, a file that is not identical still passes when B
drifts from A by at most R: a table.csv in every column, with the same
rows and columns; a VTK file in every data block, its mesh and header
lines the same; a stdout.txt in every number of its lines, all the
text between them the same, where two numbers both at most R in
magnitude count as equal (the residual a `solve` prints is rounding,
about 1e-15, and moves with any change of summation order). Every
other file (manifest, stderr, exit code) must be identical. Each
reported line that is not identical then ends in "within rtol" or
"beyond rtol", and a last line gives the largest drift of each
table.csv column and each VTK block over all files.
"""

import argparse
import csv
import hashlib
import re
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


def _vtk_split(path):
    """({block name: values} of the VTK data blocks, the other lines)."""
    lines = path.read_text().splitlines()
    blocks, rest, k = {}, [], 0
    while k < len(lines):
        words = lines[k].split()
        rest.append(lines[k])
        k += 1
        if len(words) > 1 and words[0] in ("VECTORS", "SCALARS") \
                and words[1] in VTK_BLOCKS:
            if words[0] == "SCALARS":   # its LOOKUP_TABLE line
                rest.append(lines[k])
                k += 1
            end = k
            while end < len(lines) and not lines[end][:1].isupper():
                end += 1
            blocks[words[1]] = np.array(
                [float(v) for ln in lines[k:end] for v in ln.split()])
            k = end
    return blocks, rest


def vtk_drifts(pa, pb):
    """{block: largest drift of B against A relative to the block's
    largest magnitude in A} of two VTK files, for the blocks that
    differ; None when their mesh or header lines or their blocks'
    names or sizes differ."""
    (a, rest_a), (b, rest_b) = _vtk_split(pa), _vtk_split(pb)
    if rest_a != rest_b or a.keys() != b.keys() \
            or any(a[k].shape != b[k].shape for k in a):
        return None
    drifts = {k: _max_drift(a[k], b[k], np.max(np.abs(a[k]), initial=0.0))
              for k in a}
    return {k: rel for k, rel in drifts.items() if rel}


# a number as the CLI prints it, signed, with a fraction or an exponent
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def stdout_drift(pa, pb, floor=0.0):
    """The largest relative drift of the numbers in B's lines against
    A's, two numbers both at most floor in magnitude counting as equal;
    None when the lines differ in anything but their numbers."""
    la, lb = pa.read_text().splitlines(), pb.read_text().splitlines()
    if len(la) != len(lb):
        return None
    worst = 0.0
    for x, y in zip(la, lb):
        px, py = _NUMBER.split(x), _NUMBER.split(y)
        if len(px) != len(py) or px[::2] != py[::2]:
            return None
        a, b = (np.array(p[1::2], dtype=float) for p in (px, py))
        tiny = np.maximum(np.abs(a), np.abs(b)) <= floor
        worst = max(worst, _max_drift(a[~tiny], b[~tiny], np.abs(a[~tiny])))
    return worst


def _vtk_drift(pa, pb):
    a, b = _vtk_split(pa)[0], _vtk_split(pb)[0]
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
        elif name.name == "stdout.txt":
            rel = stdout_drift(pa, pb)
            yield name, ("text differs" if rel is None
                         else f"numbers {rel:.3g}")
        else:
            yield name, "differs"


def drifts_within(pa, pb, rtol):
    """{column or block: drift} of two files that differ, when B drifts
    from A by at most rtol as --rtol allows; None otherwise."""
    if not pa.exists() or not pb.exists():
        return None
    if pa.name == "table.csv":
        drifts = table_drifts(pa, pb)
    elif pa.suffix == ".vtk":
        drifts = vtk_drifts(pa, pb)
    elif pa.name == "stdout.txt":
        rel = stdout_drift(pa, pb, floor=rtol)
        drifts = None if rel is None else {"stdout": rel}
    else:
        return None
    if drifts is None or any(rel > rtol for rel in drifts.values()):
        return None
    return drifts


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="compare_outputs.py",
        usage=__doc__.strip().splitlines()[2].strip())
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--rtol", type=float)
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    same, largest = True, {}
    for name, report in compare(args.dir_a, args.dir_b):
        if report != "identical" and args.rtol is not None:
            drifts = drifts_within(Path(args.dir_a) / name,
                                   Path(args.dir_b) / name, args.rtol)
            report += " -- within rtol" if drifts is not None \
                else " -- beyond rtol"
            same = same and drifts is not None
            for key, rel in (drifts or {}).items():
                largest[key] = max(largest.get(key, 0.0), rel)
        else:
            same = same and report == "identical"
        print(f"{name}: {report}")
    if args.rtol is not None:
        print("largest drift: " + (", ".join(
            f"{key} {rel:.3g}" for key, rel in sorted(largest.items()))
            or "none"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
