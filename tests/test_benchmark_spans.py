"""The benchmark's per-layer spans wrap program functions by name.

A target that no longer resolves is skipped by the tracer without an
error, and its per-layer metric silently disappears, so every target
must name an attribute that exists.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.TARGETS


PACKAGE, TARGETS = _targets()


@pytest.mark.parametrize("span, module, owner_path, attr, hook", TARGETS,
                         ids=[t[0] for t in TARGETS])
def test_span_target_resolves(span, module, owner_path, attr, hook):
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    for part in filter(None, owner_path.split(".")):
        owner = vars(owner)[part]
    assert callable(vars(owner).get(attr)), f"{span}: {attr} not found"
