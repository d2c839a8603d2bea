"""Per-layer spans recorded by wrapping the program's public functions.

The wrappers are installed from the benchmark's own files for one
traced call and removed afterwards; the program's sources are never
edited. A span records name, start, end and its parent. A layer's self
time is its span's duration minus the time its child spans cover.
Work done by the result hooks (counting factor fill, mesh sizes,
unknowns) runs in a separate HOOK span, so no layer is charged for it.
"""

import functools
import sys
import time

HOOK = "trace.hook"
PACKAGE = "stokes_stab"


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self._stack = []
        self.values = {}     # counters filled by the result hooks

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                self._open(HOOK)
                try:
                    hook(self, result)
                finally:
                    self._close()
            return result
        return traced

    def add(self, key, value):
        self.values[key] = self.values.get(key, 0) + value

    def maximum(self, key, value):
        self.values[key] = max(self.values.get(key, value), value)

    def summary(self):
        """Per span name: calls, total time net of hooks, and self time."""
        n = len(self.spans)
        dur = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * n
        hook_time = [0.0] * n
        # children are opened after their parent, so one reverse pass
        # sees every subtree complete before its root
        for i in range(n - 1, -1, -1):
            name, _, _, parent = self.spans[i]
            if name == HOOK:
                hook_time[i] = dur[i]
            if parent >= 0:
                child_time[parent] += dur[i]
                hook_time[parent] += hook_time[i]
        out = {}
        for i, (name, _, _, _) in enumerate(self.spans):
            calls, total, self_time = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + dur[i] - hook_time[i],
                         self_time + dur[i] - child_time[i])
        return out


def _mesh_size(tracer, mesh):
    tracer.maximum("mesh.triangles_max", mesh.n_triangles)


def _solution_stats(tracer, solution):
    tracer.add("solver.unknowns", solution.diagnostics["n_unknowns"])
    tracer.maximum("solver.residual_max", solution.residual)


def _factor_fill(tracer, lu):
    tracer.add("solver.fill_nnz", lu.L.nnz + lu.U.nnz)


# (span name, module, owner path inside the module, attribute, hook)
TARGETS = (
    ("cli.main", "cli", "", "main", None),
    ("cli.write_vtk", "cli", "", "write_vtk", None),
    ("study.uniform_study", "study", "", "uniform_study", None),
    ("study.adaptive_study", "study", "", "adaptive_study", None),
    ("study.dorfler_mark", "study", "", "dorfler_mark", None),
    ("mesh.generate", "mesh", "", "generate_structured", _mesh_size),
    ("mesh.refine_uniform", "mesh", "TriMesh", "refine_uniform", _mesh_size),
    ("mesh.refine_marked", "mesh", "TriMesh", "refine_marked", _mesh_size),
    ("mesh.read", "mesh", "TriMesh", "read", _mesh_size),
    ("mesh.audit", "mesh", "TriMesh", "audit", None),
    ("space.fespace", "space", "FeSpace", "__init__", None),
    ("forms.estimate_CI", "forms", "", "estimate_CI", None),
    ("forms.assemble", "forms", "", "assemble_system", None),
    ("solver.solve", "solver", "", "solve", _solution_stats),
    # the factorization name solver.solve calls; patched only in solver
    ("solver.factor", "solver", "", "splu", _factor_fill),
    ("solver.functional_norms", "solver", "", "functional_norms", None),
    ("estimator.element", "estimator", "", "element_estimator", None),
    ("estimator.edge", "estimator", "", "edge_estimator", None),
    ("estimator.oscillations", "estimator", "", "oscillations", None),
    ("estimator.global_report", "estimator", "", "global_report", None),
)


class Patches:
    """Wrappers installed on the program; `restore` puts the originals back.

    A module-level function of the program is also replaced wherever a
    program module imported it by name (study imports
    generate_structured from mesh), so every call path is traced.
    """

    def __init__(self, tracer):
        self._saved = []         # (owner, attribute, original raw value)
        self.installed = set()   # span names whose target exists
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for span, module, owner_path, attr, hook in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                continue
            self.installed.add(span)
            if isinstance(raw, staticmethod):
                self._set(owner, attr, staticmethod(
                    tracer.wrap(span, raw.__func__, hook)))
                continue
            wrapped = tracer.wrap(span, raw, hook)
            self._set(owner, attr, wrapped)
            if owner_path or not getattr(raw, "__module__", "").startswith(
                    PACKAGE):
                continue
            for other in modules:
                for name, value in list(vars(other).items()):
                    if value is raw:
                        self._set(other, name, wrapped)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        """Put every original back; return the attributes that did not."""
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, raw in self._saved
                if vars(owner).get(attr) is not raw]


# per-layer metric: (name, kind, span names); units are in BENCHMARK.json
#   self/total: summed self time / total time of the spans, in seconds
#   calls: number of spans; value: a hook counter
# trace.overhead_s, the traced minus the untraced wall time, is added
# by the worker.
LAYER_METRICS = (
    ("cli.self_s", "self", ("cli.main",)),
    ("cli.write_vtk_s", "total", ("cli.write_vtk",)),
    ("cli.solves_per_row", "per_row", ("solver.solve",)),
    ("study.self_s", "self", ("study.uniform_study", "study.adaptive_study")),
    ("study.dorfler_mark_s", "total", ("study.dorfler_mark",)),
    ("mesh.generate_s", "total", ("mesh.generate",)),
    ("mesh.refine_uniform_s", "total", ("mesh.refine_uniform",)),
    ("mesh.refine_marked_s", "total", ("mesh.refine_marked",)),
    ("mesh.read_s", "total", ("mesh.read",)),
    ("mesh.audit_s", "total", ("mesh.audit",)),
    ("mesh.triangles_max", "value", ("mesh.generate", "mesh.refine_uniform",
                                     "mesh.refine_marked", "mesh.read")),
    ("space.fespace_s", "total", ("space.fespace",)),
    ("space.fespace_calls", "calls", ("space.fespace",)),
    ("forms.estimate_CI_s", "total", ("forms.estimate_CI",)),
    ("forms.estimate_CI_calls", "calls", ("forms.estimate_CI",)),
    ("forms.assemble_self_s", "self", ("forms.assemble",)),
    ("forms.assemble_calls", "calls", ("forms.assemble",)),
    ("solver.solve_s", "total", ("solver.solve",)),
    ("solver.solve_calls", "calls", ("solver.solve",)),
    ("solver.factor_s", "total", ("solver.factor",)),
    ("solver.fill_nnz", "value", ("solver.factor",)),
    ("solver.unknowns", "value", ("solver.solve",)),
    ("solver.residual_max", "value", ("solver.solve",)),
    ("solver.functional_norms_s", "total", ("solver.functional_norms",)),
    ("estimator.element_s", "total", ("estimator.element",)),
    ("estimator.edge_s", "total", ("estimator.edge",)),
    ("estimator.oscillations_s", "total", ("estimator.oscillations",)),
    ("estimator.global_report_self_s", "self", ("estimator.global_report",)),
    # share of the CLI call spent inside the layer spans below it
    ("trace.coverage", "coverage", ("cli.main",)),
)

# counts that must repeat exactly between two traced calls
EXACT_METRICS = {"cli.solves_per_row", "mesh.triangles_max",
                 "space.fespace_calls", "forms.estimate_CI_calls",
                 "forms.assemble_calls", "solver.solve_calls",
                 "solver.fill_nnz", "solver.unknowns"}


def layer_metrics(tracer, installed, table_rows):
    """Per-layer metrics of one traced call.

    Every metric is reported, so a layer the workload does not reach
    reads 0 (no calls, no time). A metric whose spans could not be
    installed, because the program no longer has the wrapped name, is
    left out rather than reported as 0.
    """
    summary = tracer.summary()
    out = {}
    for name, kind, spans in LAYER_METRICS:
        present = any if kind == "value" else all
        if not present(s in installed for s in spans):
            continue
        stats = [summary.get(s, (0, 0.0, 0.0)) for s in spans]
        if kind == "self":
            out[name] = sum(s[2] for s in stats)
        elif kind == "total":
            out[name] = sum(s[1] for s in stats)
        elif kind == "calls":
            out[name] = sum(s[0] for s in stats)
        elif kind == "per_row":
            out[name] = stats[0][0] / table_rows if table_rows else 0.0
        elif kind == "coverage":
            calls, total, self_time = stats[0]
            out[name] = 1.0 - self_time / total if total else 0.0
        else:
            out[name] = tracer.values.get(name, 0)
    return out
