"""tools/comparison_set.py: its 20 commands have distinct names and
each is a valid call."""

import importlib.util
from pathlib import Path

from stokes_stab import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "comparison_set.py"


def test_every_command_parses():
    spec = importlib.util.spec_from_file_location("comparison_set", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = [name for name, _ in tool.COMMANDS]
    assert len(names) == len(set(names)) == 20
    assert set(tool.EXIT) <= set(names)
    parser = cli.build_parser()
    for name, args in tool.COMMANDS:
        cfg = cli.resolve_config(parser.parse_args([*args, "--out", name]))
        assert cfg["out"] == name
