"""Regenerate `src/stokes_stab/_fields.py`, the numpy source of every
field (f, g, t, u, grad_u, p) of the builtin cases. Needs sympy; run
from the root of a source checkout:

    python tools/write_fields.py

Each scalar field becomes one function whose body is the source sympy's
`lambdify` prints for it (polynomials in Horner form, as
`study._lambdified` gives them), so the committed functions evaluate
bit-identically to the lambdified ones. `fields_source()` returns the
text; tests/test_study.py compares it with the committed file.
"""

import inspect
import pprint
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stokes_stab import _fields, study  # noqa: E402

HEADER = '''"""Numpy source of the fields of the builtin cases, as sympy's lambdify
prints it. Generated by tools/write_fields.py; do not edit.
"""
'''


class _Name(str):
    """A function name that pprint writes unquoted."""

    __repr__ = str.__str__


def fields_source():
    defs, names = [], set()

    def emit(fn, name):
        if isinstance(fn, tuple):
            return tuple(emit(f, f"{name}_{i}") for i, f in enumerate(fn))
        names.update(fn.__code__.co_names)
        defs.append(inspect.getsource(fn).replace("_lambdifygenerated", name))
        return _Name(name)

    table = {case.name: {key: None if fn is None else
                         emit(fn, f"{case.name.lower()}_{key}")
                         for key, fn in study._lambdified(case).items()}
             for case in study.builtin_cases()}
    table = pprint.pformat(table, width=70, sort_dicts=False)
    imports = f"from numpy import {', '.join(sorted(names))}\n"
    return "\n\n".join([HEADER + "\n" + imports, *defs,
                        "FIELDS = " + table.replace("\n", "\n" + 9 * " ")
                        + "\n"])


if __name__ == "__main__":
    Path(_fields.__file__).write_text(fields_source())
