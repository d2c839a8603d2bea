"""tools/ab.py on two copies of one source tree."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_copies_of_one_tree_match(tmp_path, capsys):
    trees = []
    for name in ("a", "b"):
        shutil.copytree(ROOT / "src", tmp_path / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        trees.append(str(tmp_path / name))
    code = _tool().main([*trees, "--pairs", "2", "--", "solve", "--case",
                         "SMOOTH_SQUARE", "--pair", "P1P1", "--n0", "4"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "table.csv: identical" in out
    lines = out.splitlines()
    medians = {}
    for metric in ("wall_s", "peak_rss_mb", "cpu_s", "minflt"):
        line = next(ln for ln in lines if ln.startswith(metric + ": "))
        assert re.search(r"B lower in [0-2]/2$", line)
        medians[metric] = [float(v) for v in
                           re.findall(r"[AB] ([0-9.]+) \[", line)]
        assert len(medians[metric]) == 2 and min(medians[metric]) > 0
    # one program on both sides: the same peak to within the allocator's
    # spread, and per-pair ratios B/A near 1 for wall time and peak
    a, b = medians["peak_rss_mb"]
    assert abs(a - b) <= 0.1 * a
    # (wall time within a factor of 2, for a host's drift)
    for metric, low, high in (("wall_s", 0.5, 2.0),
                              ("peak_rss_mb", 0.9, 1.1)):
        line = next(ln for ln in lines
                    if ln.startswith(f"{metric} B/A per pair: "))
        ratios = [float(v) for v in re.findall(r"[0-9.]+", line.split(":")[1])]
        assert len(ratios) == 3
        assert all(low <= r <= high for r in ratios), line


@pytest.mark.parametrize("drift,code,report", [
    (0.0, 0, "identical"),
    (1e-12, 0, "err 1e-12; largest drift 1e-12, within 1e-10"),
    (1e-8, 1, "err 1e-08; largest drift 1e-08, above 1e-10"),
])
def test_tables_agree_within_the_tolerance(monkeypatch, capsys, drift, code,
                                           report):
    # B's table.csv has one column A's times 1 + drift: a drift of at
    # most 1e-10 relative is the same answer, and is printed
    tool = _tool()

    def run_once(tree, cli_args, side_dir):
        out = side_dir / "out"
        out.mkdir(exist_ok=True)
        err = 0.25 * (1.0 + drift) if tree == "b" else 0.25
        (out / "table.csv").write_text(f"level,err\n0,{err!r}\n")
        return 0, (1.0, 50.0, 0.5, 1000)

    monkeypatch.setattr(tool, "run_once", run_once)
    assert tool.main(["a", "b", "--pairs", "1", "--", "solve"]) == code
    assert f"table.csv: {report}\n" in capsys.readouterr().out


def test_usage_errors(capsys):
    tool = _tool()
    assert tool.main(["a", "b"]) == 2
    assert tool.main(["a", "b", "--pairs", "0", "--", "solve"]) == 2
    assert tool.main(["a", "b", "--", "solve", "--out", "x"]) == 2
