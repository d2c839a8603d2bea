"""Manufactured cases, convergence studies, and the adaptive loop.

Closed-form cases are written in sympy and differentiated symbolically,
so the data triple (f, g, t) satisfies the PDE exactly: f = -div D(u)
+ grad p, g = div u, t = (D(u) - pI) n on the Neumann part. All-Dirichlet
cases use zero-mean pressures to match the solver's gauge constraint.
The builtin cases evaluate the numpy source sympy printed for them,
committed as `_fields.py` (tools/write_fields.py), so sympy is imported
only to derive another case or to read a case's expressions.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _fields, estimator, forms, solver
from .mesh import generate_structured
from .space import FeSpace


def _vectorize(fn):
    """numpy callable (x, y) -> value of a scalar function fn(x, y), or
    of a nested tuple of them; each tuple level adds a trailing axis,
    so a vector is [..., i] and a 2x2 matrix [..., row, col]."""
    if isinstance(fn, tuple):
        fns = [_vectorize(f) for f in fn]
        return lambda x, y: np.stack([f(x, y) for f in fns], axis=np.ndim(x))

    def call(x, y):
        x = np.asarray(x, dtype=float)
        out = fn(x, np.asarray(y, dtype=float))
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()

    return call


def _field_exprs(case):
    """f, g, t, u, grad_u and p of a case as nested tuples of sympy
    expressions in x, y; g is None when div u = 0, and an
    estimator-only case has f alone."""
    import sympy as sym
    x, y = sym.symbols("x y")
    if case.u_expr is None:
        return {"f": tuple(case.f_expr)}
    (u1, u2), p = case.u_expr, case.p_expr
    grad = ((sym.diff(u1, x), sym.diff(u1, y)),
            (sym.diff(u2, x), sym.diff(u2, y)))
    G = sym.Matrix(grad)
    sigma = (G + G.T) / 2 - p * sym.eye(2)
    # f = -div D(u) + grad p; div sigma collects both terms
    f1 = -(sym.diff(sigma[0, 0], x) + sym.diff(sigma[0, 1], y))
    f2 = -(sym.diff(sigma[1, 0], x) + sym.diff(sigma[1, 1], y))
    g = sym.simplify(sym.diff(u1, x) + sym.diff(u2, y))
    exprs = {"f": (sym.simplify(f1), sym.simplify(f2)), "u": (u1, u2),
             "grad_u": grad, "p": p, "g": None if g == 0 else g}
    if case.neumann_side is not None:
        t = sigma * sym.Matrix(case.neumann_normal)
        exprs["t"] = (t[0], t[1])
    return exprs


def _lambdified(case):
    """The fields of _field_exprs(case) as nested tuples of sympy
    lambdify functions of (x, y). Polynomial fields are lambdified in
    Horner form, other fields (exp) as derived."""
    import sympy as sym
    x, y = sym.symbols("x y")

    def lambdify(e):
        if isinstance(e, tuple):
            return tuple(map(lambdify, e))
        if e is None:
            return None
        # polynomials in Horner form: products and sums, not np.power
        if e.free_symbols and e.is_polynomial(x, y):
            e = sym.horner(sym.Poly(e, x, y))
        return sym.lambdify((x, y), e, "numpy")

    return {key: lambdify(e) for key, e in _field_exprs(case).items()}


class _Expr:
    """A sympy field of ManufacturedCase. The builtin cases are built
    with _Expr.BUILTIN in all three and derive them when one is first
    read, so solving a builtin case never imports sympy."""

    BUILTIN = ...  # unlike object(), survives copy and pickle

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, case, owner=None):
        if case is not None and case.__dict__[self.name] is self.BUILTIN:
            case.__dict__.update(_builtin_exprs()[case.name])
        return None if case is None else case.__dict__[self.name]

    def __set__(self, case, value):
        case.__dict__[self.name] = value


# outward unit normals of the unit-square sides
OUTWARD_NORMALS = {"left": (-1, 0), "right": (1, 0), "bottom": (0, -1),
                   "top": (0, 1)}


@dataclass(frozen=True, eq=False)
class ManufacturedCase:
    """One benchmark problem with symbolically derived data.

    u_expr/p_expr are sympy expressions (None for estimator-only
    cases, where f_expr must be given directly). neumann_side names
    the unit-square side carrying the traction condition, one of
    OUTWARD_NORMALS. Cases compare by identity.
    """

    name: str
    domain: str
    u_expr: tuple = _Expr()
    p_expr: object = _Expr()
    f_expr: tuple = _Expr()
    neumann_side: str = None
    default_n0: int = 4

    def __post_init__(self):
        if (self.neumann_side is not None
                and self.neumann_side not in OUTWARD_NORMALS):
            raise ValueError(f"unknown neumann_side {self.neumann_side!r}; "
                             f"expected one of {', '.join(OUTWARD_NORMALS)}")

    @property
    def neumann_normal(self):
        """Outward unit normal of the Neumann side (None without one)."""
        return OUTWARD_NORMALS.get(self.neumann_side)

    @property
    def has_exact(self):
        return "u" in self._callables()

    def make_mesh(self, n):
        boundary = None
        if self.neumann_side is not None:
            boundary = {self.neumann_side: "N"}
        return generate_structured(self.domain, n, boundary)

    @lru_cache(maxsize=None)
    def _callables(self):
        builtin = any(self is case for case in builtin_cases())
        fields = _fields.FIELDS[self.name] if builtin else _lambdified(self)
        return {key: None if fn is None else _vectorize(fn)
                for key, fn in fields.items()}

    def problem(self, alpha=None):
        c = self._callables()
        exact = None
        if self.has_exact:
            exact = forms.ExactSolution(u=c["u"], grad_u=c["grad_u"],
                                        p=c["p"])
        return forms.StokesProblem(f=c["f"], g=c.get("g"), t=c.get("t"),
                                   alpha=alpha, exact=exact)


@lru_cache(maxsize=None)
def _builtin_exprs():
    """u_expr, p_expr and f_expr of each builtin case, by name."""
    import sympy as sym
    x, y = sym.symbols("x y")
    psi = x ** 2 * (1 - x) ** 2 * y ** 2 * (1 - y) ** 2
    smooth = {"u_expr": (sym.expand(sym.diff(psi, y)),
                         sym.expand(-sym.diff(psi, x))),
              "p_expr": x ** 3 + y ** 3 - sym.Rational(1, 2), "f_expr": None}

    phi = x * (1 - x) * y * (1 - y)
    nonzero_g = {"u_expr": (sym.expand(phi * x), sym.expand(phi * y)),
                 "p_expr": x * y - sym.Rational(1, 4), "f_expr": None}

    # localized load hugging the reentrant corner; its 2-sigma ball stays
    # inside radius 0.25 of the origin so marking concentrates there
    cx, cy, s = sym.Rational(-2, 25), sym.Rational(-2, 25), sym.Rational(1, 20)
    bump = 100 * sym.exp(-((x - cx) ** 2 + (y - cy) ** 2) / s ** 2)
    return {"SMOOTH_SQUARE": smooth, "NEUMANN_STRIP": smooth,
            "NONZERO_G": nonzero_g,
            "LSHAPE_PEAK": {"u_expr": None, "p_expr": None,
                            "f_expr": (bump, -bump)}}


# names of builtin_cases(), in order; known without building the cases
CASE_NAMES = ("SMOOTH_SQUARE", "NEUMANN_STRIP", "NONZERO_G", "LSHAPE_PEAK")


@lru_cache(maxsize=None)
def builtin_cases():
    """The four benchmark problems shipped with the package."""
    lazy = dict.fromkeys(("u_expr", "p_expr", "f_expr"), _Expr.BUILTIN)
    return (
        ManufacturedCase(name="SMOOTH_SQUARE", domain="unit_square", **lazy),
        ManufacturedCase(
            name="NEUMANN_STRIP", domain="unit_square",
            neumann_side="right", **lazy),
        ManufacturedCase(name="NONZERO_G", domain="unit_square", **lazy),
        ManufacturedCase(name="LSHAPE_PEAK", domain="l_shape",
                         default_n0=16, **lazy),
    )


def get_case(name):
    if name not in CASE_NAMES:
        raise KeyError(f"unknown case {name!r}; "
                       f"available: {', '.join(CASE_NAMES)}")
    return builtin_cases()[CASE_NAMES.index(name)]


# ----------------------------------------------------------------------
# uniform convergence study

@dataclass
class LevelRow:
    """One table row, with the level's mesh and fields for output.

    The error columns and effectivity are NaN for estimator-only cases.
    marked is the element set Dorfler marking picked on an adaptive
    level, None on a uniform one.
    """

    level: int
    h: float
    n_u: int
    n_p: int
    err_H1_u: float
    err_L2_p: float
    eta: float
    osc_f: float
    effectivity: float
    mesh: object = field(default=None, repr=False, compare=False)
    u: np.ndarray = field(default=None, repr=False, compare=False)
    p: np.ndarray = field(default=None, repr=False, compare=False)
    eta_K: np.ndarray = field(default=None, repr=False, compare=False)
    marked: np.ndarray = field(default=None, repr=False, compare=False)


def rate_measure(values):
    """The quantity whose ratios give a row's rate: the combined error
    ||e_u||_1 + ||e_p||_0 of values (a mapping with err_H1_u, err_L2_p
    and eta), or eta where the errors are NaN, as for cases without a
    closed form."""
    combined = solver.combined_error(values)
    return values["eta"] if math.isnan(combined) else combined


def log2_ratios(series):
    """log2(s[i] / s[i + 1]) for each pair of neighbours in series; NaN
    where either side is not positive."""
    return [math.log2(a / b) if a > 0 and b > 0 else math.nan
            for a, b in zip(series, series[1:])]


def level_row(level, space, solution, report):
    """The table row of one solved level; true errors when available."""
    if report.true_errors is not None:
        e1 = report.true_errors["err_H1_u"]
        e0 = report.true_errors["err_L2_p"]
        eff = report.effectivity
    else:
        e1 = e0 = eff = float("nan")
    return LevelRow(
        level=level, h=float(space.mesh.diameters.max()),
        n_u=space.n_u, n_p=space.n_p,
        err_H1_u=e1, err_L2_p=e0, eta=report.eta, osc_f=report.osc_f,
        effectivity=eff, mesh=space.mesh, u=solution.u, p=solution.p,
        eta_K=report.eta_K)


def _set_up(case, pair, alpha, n0):
    """(case, space, problem) of a run: the case (a name or a
    ManufacturedCase), the FeSpace of `pair` on its coarsest mesh, and
    its problem with alpha resolved once on that space (None picks
    forms.default_alpha)."""
    if isinstance(case, str):
        case = get_case(case)
    space = FeSpace(case.make_mesh(case.default_n0 if n0 is None else n0),
                    pair)
    if alpha is None:
        alpha = forms.default_alpha(space)
    return case, space, case.problem(alpha=alpha)


def _solve_level(space, problem, where):
    """Assemble, solve and estimate one level.

    Returns the solution and its ErrorReport. The assembled system is
    held only by solver.solve, so it and its factorization are freed
    when the solve returns, before the estimator runs. Their heap pages
    stay with the process, and the estimator's arrays reuse them.
    Without a trim after the solve, the three benchmark study commands
    peak within 0.3 MB of where they did with one (88.6, 121.5 and
    83.2 MB with it, 88.7, 121.5 and 83.5 MB without, medians of 6
    fresh processes) and take 10-29 % fewer minor faults. The one trim
    inside a level is global_report's, before the error norms of a
    case with an exact solution; it lowers the P1P1 study's peak by
    about 4 MB (solver._release_free_heap).
    """
    try:
        sol = solver.solve(forms.assemble_system(space, problem))
    except solver.SolverError as exc:
        raise solver.SolverError(
            f"{where} ({space.mesh.n_triangles} triangles): {exc}") \
            from None
    rep = estimator.global_report(sol, space, problem)
    return sol, rep


@dataclass
class ConvergenceTable:
    """Per-level study results plus observed rates.

    rates[i] is the log2 ratio of rate_measure between levels i and
    i+1 (one fewer entry than rows), osc_rates that of osc_f; both are
    NaN where a value is not positive.
    """

    case: str
    pair: str
    alpha: float
    c_i: float
    rows: list = field(default_factory=list)

    @property
    def rates(self):
        return log2_ratios([rate_measure(vars(r)) for r in self.rows])

    @property
    def osc_rates(self):
        return log2_ratios([r.osc_f for r in self.rows])

    def __str__(self):
        head = (f"case {self.case}  pair {self.pair}  "
                f"alpha {self.alpha:.6g}  C_I {self.c_i:.6g}\n")
        head += (f"{'lvl':>3} {'h':>10} {'n_u':>8} {'n_p':>7} "
                 f"{'err_H1_u':>12} {'err_L2_p':>12} {'eta':>12} "
                 f"{'osc_f':>12} {'eff':>8} {'rate':>6}\n")
        rates = self.rates
        lines = []
        for i, r in enumerate(self.rows):
            rate = f"{rates[i - 1]:6.3f}" if i > 0 else "     -"
            lines.append(
                f"{r.level:>3} {r.h:>10.4e} {r.n_u:>8} {r.n_p:>7} "
                f"{r.err_H1_u:>12.4e} {r.err_L2_p:>12.4e} {r.eta:>12.4e} "
                f"{r.osc_f:>12.4e} {r.effectivity:>8.3f} {rate}")
        return head + "\n".join(lines)


def uniform_study(case, pair, levels, alpha=None, n0=None):
    """Solve on a sequence of uniformly refined meshes and tabulate.

    alpha is resolved once on the coarsest space and kept fixed across
    levels so that rates measure the discretization, not a moving
    stabilization parameter.
    """
    if levels < 2:
        raise ValueError("a study needs at least 2 levels")
    case, space, problem = _set_up(case, pair, alpha, n0)
    table = ConvergenceTable(case=case.name, pair=space.pair.label,
                             alpha=problem.alpha, c_i=space.c_i)
    for level in range(levels):
        if level > 0:
            space = FeSpace(space.mesh.refine_uniform(), space.pair)
        sol, rep = _solve_level(space, problem, f"level {level}")
        table.rows.append(level_row(level, space, sol, rep))
    return table


# ----------------------------------------------------------------------
# adaptive loop

def dorfler_mark(mesh, eta_K, eta_E, theta):
    """Smallest element set whose indicators reach theta^2 * eta^2.

    Element indicators are eta_K^2 plus half of each adjacent edge
    indicator squared; elements are taken in decreasing order until the
    cumulative sum reaches the Dorfler target. Indicators whose ratios
    to the largest round to the same 9 decimals are ties, taken in
    element order, so rounding noise does not pick one of two
    mirror-image elements over the other.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    ind = eta_K ** 2 + 0.5 * np.sum(eta_E[mesh.t2e] ** 2, axis=1)
    total = float(np.sum(eta_K ** 2) + np.sum(eta_E ** 2))
    key = np.round(ind / ind.max(), 9) if ind.max() > 0 else ind
    order = np.lexsort((np.arange(len(ind)), -key))
    csum = np.cumsum(ind[order])
    target = theta ** 2 * total
    n_mark = int(np.searchsorted(csum, target)) + 1
    n_mark = min(n_mark, len(order))
    return np.sort(order[:n_mark])


@dataclass
class AdaptiveLog:
    """Steps of the adaptive loop, one LevelRow each; c_i of the last."""

    case: str
    pair: str
    alpha: float
    theta: float
    steps: list = field(default_factory=list)
    c_i: float = None

    @property
    def etas(self):
        return [s.eta for s in self.steps]

    @property
    def dofs(self):
        return [s.n_u + s.n_p for s in self.steps]


def adaptive_study(case, pair, theta=0.5, max_iters=10, target_eta=None,
                   alpha=None, n0=None):
    """Estimator-driven solve/mark/refine loop.

    Stops when eta falls below target_eta or after max_iters
    iterations. The last step's marked set is the one that would be
    refined next; the mesh of step k+1 is step k's mesh refined.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if target_eta is not None and not math.isfinite(target_eta):
        raise ValueError(f"target_eta must be finite, got {target_eta}")
    case, space, problem = _set_up(case, pair, alpha, n0)
    log = AdaptiveLog(case=case.name, pair=space.pair.label,
                      alpha=problem.alpha, theta=theta)

    for it in range(max_iters):
        sol, rep = _solve_level(space, problem, f"iteration {it}")
        log.c_i = space.c_i
        mesh = space.mesh
        row = level_row(it, space, sol, rep)
        row.marked = dorfler_mark(mesh, rep.eta_K, rep.eta_E, theta)
        log.steps.append(row)
        if target_eta is not None and rep.eta <= target_eta:
            break
        if it + 1 < max_iters:
            space = FeSpace(mesh.refine_marked(row.marked), space.pair)
            # the row keeps the finished mesh for its vertices and
            # triangles alone
            mesh.drop_derived()
    return log
