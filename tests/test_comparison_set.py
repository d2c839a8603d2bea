"""tools/comparison_set.py: its 22 commands have distinct names, each
is a valid call and each mesh file it audits is in the repository."""

import importlib.util
from pathlib import Path

from stokes_stab import cli

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "comparison_set.py"


def test_every_command_parses():
    spec = importlib.util.spec_from_file_location("comparison_set", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = [name for name, _ in tool.COMMANDS]
    assert len(names) == len(set(names)) == 22
    assert set(tool.EXIT) <= set(names)
    parser = cli.build_parser()
    for name, args in tool.COMMANDS:
        cfg = cli.resolve_config(parser.parse_args([*args, "--out", name]))
        assert cfg["out"] == name
        if cfg["case"].endswith(".txt"):
            assert (ROOT / cfg["case"]).is_file(), name
