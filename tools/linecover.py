"""Lines of src/stokes_stab that the tests never execute, found with the
standard library's trace module (coverage.py is not needed). Run from
the root of a source checkout:

    python tools/linecover.py [PYTEST ARGS]

Runs pytest (by default the whole suite, -q) in this process under
trace.Trace, counting the lines of src/stokes_stab alone, and prints
one line per module of the package: its executable lines (those that
start a statement's bytecode), how many of them never ran, and their
numbers, runs of neighbours as a-b. A last line gives the totals and
pytest's exit code.

Only this process is traced: tests that run the command line in a
subprocess (subprocess.run of `python -m stokes_stab...`, say) are not
counted, so the lines only they reach are listed as never run. The
tracing makes the suite about twice as slow. Exits with pytest's exit
code.
"""

import dis
import os
import sys
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stokes_stab"


def executable_lines(path):
    """Line numbers that start a statement in the module's code objects,
    the lines a trace can count."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(co)
                     if line is not None and line > 0)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


class PackageOnly:
    """The ignore test of trace.Trace: every file outside the package.
    (trace's own Ignore keys its answers by bare module name, so one
    ignored __init__.py hides every other.)"""

    prefix = str(PACKAGE) + os.sep

    def names(self, filename, modulename):
        return not filename.startswith(self.prefix)


def runs(numbers):
    """'3, 7-9, 12' for [3, 7, 8, 9, 12]."""
    out, start = [], None
    for i, n in enumerate(numbers):
        if start is None:
            start = n
        if i + 1 == len(numbers) or numbers[i + 1] != n + 1:
            out.append(str(n) if n == start else f"{start}-{n}")
            start = None
    return ", ".join(out)


def main(argv):
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = PackageOnly()
    code = tracer.runfunc(pytest.main, argv or ["-q", str(ROOT / "tests")])
    counts = tracer.results().counts

    total = missed_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path)
        executable = executable_lines(path)
        missed = sorted(n for n in executable if (name, n) not in counts)
        total += len(executable)
        missed_total += len(missed)
        print(f"{path.name}: {len(executable)} lines, {len(missed)} never "
              f"run{': ' + runs(missed) if missed else ''}")
    print(f"total: {total} lines, {missed_total} never run "
          f"({100.0 * (total - missed_total) / max(total, 1):.1f}% run); "
          f"pytest exit {int(code)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
