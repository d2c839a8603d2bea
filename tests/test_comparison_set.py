"""tools/comparison_set.py: its 22 commands have distinct names, each
is a valid call and each mesh file it audits is in the repository; a
command's stray standard error fails the set."""

import importlib.util
import sys
from pathlib import Path

import pytest

from stokes_stab import cli

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "comparison_set.py"


def _tool():
    spec = importlib.util.spec_from_file_location("comparison_set", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_command_parses():
    tool = _tool()
    names = [name for name, _ in tool.COMMANDS]
    assert len(names) == len(set(names)) == 22
    assert set(tool.EXIT) <= set(names)
    parser = cli.build_parser()
    for name, args in tool.COMMANDS:
        cfg = cli.resolve_config(parser.parse_args([*args, "--out", name]))
        assert cfg["out"] == name
        if cfg["case"].endswith(".txt"):
            assert (ROOT / cfg["case"]).is_file(), name


@pytest.mark.parametrize("code,stderr,status", [
    (0, "", 0),
    (0, "RuntimeWarning: overflow\n", 1),
    (0, "no newline", 1),
    (3, "stokes-stab: mesh error: audit failed\n", 0),
    (3, "** On entry to DGETRF\nstokes-stab: mesh error: x\n", 1),
], ids=["clean", "warning", "unterminated", "one-line-error", "two-lines"])
def test_stray_standard_error_fails_the_set(tmp_path, monkeypatch, code,
                                            stderr, status):
    tool = _tool()

    def main(argv):
        sys.stderr.write(stderr)
        return code

    monkeypatch.setattr(tool, "COMMANDS", (("one", ("audit",)),))
    monkeypatch.setattr(tool, "EXIT", {"one": code})
    monkeypatch.setattr(tool.cli, "main", main)
    assert tool.main([str(tmp_path)]) == status
    assert (tmp_path / "one" / "stderr.txt").read_text() == stderr
