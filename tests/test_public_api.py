"""The package reaches numpy and scipy through their public API only: a
private module or name (one whose dotted part, after the top-level
package, starts with "_") can change or go in any release."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stokes_stab"


def _private_imports(source):
    """The text of every import from numpy or scipy in source that names
    a private module or a private name after the top-level package."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [(alias.name, []) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            targets = [(node.module, [alias.name for alias in node.names])]
        else:
            continue
        for module, names in targets:
            top, *parts = module.split(".")
            if top in ("numpy", "scipy") \
                    and any(p.startswith("_") for p in parts + names):
                out.append(ast.unparse(node))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_numpy_or_scipy_imports(path):
    assert _private_imports(path.read_text()) == []


def test_private_imports_are_found():
    bad = ["from scipy.sparse import _sparsetools",
           "import scipy.sparse._sparsetools",
           "import numpy._core as core",
           "from numpy.linalg._linalg import _umath_linalg",
           "from scipy.sparse import csr_matrix, _sputils"]
    good = ["import numpy as np", "import scipy.sparse as sp",
            "from scipy.linalg.lapack import dgetrf, dgetrs",
            "from numpy import exp", "from . import _fields",
            "from ._fields import FIELDS", "import _thread"]
    for line in bad:
        assert _private_imports(line) == [line]
    for line in good:
        assert _private_imports(line) == []
