"""Manufactured cases, convergence studies, and the adaptive loop.

Closed-form cases are written in sympy and differentiated symbolically,
so the data triple (f, g, t) satisfies the PDE exactly: f = -div D(u)
+ grad p, g = div u, t = (D(u) - pI) n on the Neumann part. All-Dirichlet
cases use zero-mean pressures to match the solver's gauge constraint.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import sympy as sym

from . import estimator, forms, solver
from .mesh import generate_structured
from .space import ElementPair, FeSpace

_X, _Y = sym.symbols("x y")


def _lambdify(expr):
    """numpy callable (x, y) -> value of a sympy expression or a nested
    tuple of them; each tuple level adds a trailing axis, so a vector is
    [..., i] and a 2x2 matrix [..., row, col]."""
    if isinstance(expr, tuple):
        fns = [_lambdify(e) for e in expr]
        return lambda x, y: np.stack([f(x, y) for f in fns], axis=np.ndim(x))
    fn = sym.lambdify((_X, _Y), expr, "numpy")

    def call(x, y):
        x = np.asarray(x, dtype=float)
        out = fn(x, np.asarray(y, dtype=float))
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()

    return call


def _stress(u1, u2, p):
    """sigma = D(u) - p I as a 2x2 sympy matrix."""
    G = sym.Matrix([[sym.diff(u1, _X), sym.diff(u1, _Y)],
                    [sym.diff(u2, _X), sym.diff(u2, _Y)]])
    D = (G + G.T) / 2
    return D - p * sym.eye(2)


@dataclass(frozen=True)
class ManufacturedCase:
    """One benchmark problem with symbolically derived data.

    u_expr/p_expr are sympy expressions (None for estimator-only
    cases, where f_expr must be given directly). neumann_side names
    the unit-square side carrying the traction condition, with
    neumann_normal its outward normal.
    """

    name: str
    domain: str
    u_expr: tuple = None
    p_expr: object = None
    f_expr: tuple = None
    neumann_side: str = None
    neumann_normal: tuple = None
    default_n0: int = 4

    @property
    def has_exact(self):
        return self.u_expr is not None

    def make_mesh(self, n):
        boundary = None
        if self.neumann_side is not None:
            boundary = {self.neumann_side: "N"}
        return generate_structured(self.domain, n, boundary)

    @lru_cache(maxsize=None)
    def _callables(self):
        if not self.has_exact:
            return {"f": _lambdify(tuple(self.f_expr))}
        u1, u2 = self.u_expr
        p = self.p_expr
        sigma = _stress(u1, u2, p)
        # f = -div D(u) + grad p; div sigma collects both terms
        f1 = -(sym.diff(sigma[0, 0], _X) + sym.diff(sigma[0, 1], _Y))
        f2 = -(sym.diff(sigma[1, 0], _X) + sym.diff(sigma[1, 1], _Y))
        g = sym.simplify(sym.diff(u1, _X) + sym.diff(u2, _Y))
        out = {
            "f": _lambdify((sym.simplify(f1), sym.simplify(f2))),
            "u": _lambdify((u1, u2)),
            "grad_u": _lambdify(((sym.diff(u1, _X), sym.diff(u1, _Y)),
                                 (sym.diff(u2, _X), sym.diff(u2, _Y)))),
            "p": _lambdify(p),
            "g": None if g == 0 else _lambdify(g),
        }
        if self.neumann_side is not None:
            n = sym.Matrix(self.neumann_normal)
            t = sigma * n
            out["t"] = _lambdify((t[0], t[1]))
        return out

    def problem(self, alpha=None):
        c = self._callables()
        exact = None
        if self.has_exact:
            exact = forms.ExactSolution(u=c["u"], grad_u=c["grad_u"],
                                        p=c["p"])
        return forms.StokesProblem(f=c["f"], g=c.get("g"), t=c.get("t"),
                                   alpha=alpha, exact=exact)


def _smooth_fields():
    psi = _X ** 2 * (1 - _X) ** 2 * _Y ** 2 * (1 - _Y) ** 2
    u1 = sym.diff(psi, _Y)
    u2 = -sym.diff(psi, _X)
    p = _X ** 3 + _Y ** 3 - sym.Rational(1, 2)
    return (sym.expand(u1), sym.expand(u2)), p


# names of builtin_cases(), in order; known without building the cases
CASE_NAMES = ("SMOOTH_SQUARE", "NEUMANN_STRIP", "NONZERO_G", "LSHAPE_PEAK")


@lru_cache(maxsize=None)
def builtin_cases():
    """The four benchmark problems shipped with the package."""
    u_smooth, p_smooth = _smooth_fields()

    phi = _X * (1 - _X) * _Y * (1 - _Y)
    u_g = (sym.expand(phi * _X), sym.expand(phi * _Y))
    p_g = _X * _Y - sym.Rational(1, 4)

    # localized load hugging the reentrant corner; its 2-sigma ball stays
    # inside radius 0.25 of the origin so marking concentrates there
    cx, cy, s = sym.Rational(-2, 25), sym.Rational(-2, 25), sym.Rational(1, 20)
    bump = 100 * sym.exp(-((_X - cx) ** 2 + (_Y - cy) ** 2) / s ** 2)

    return (
        ManufacturedCase(
            name="SMOOTH_SQUARE", domain="unit_square",
            u_expr=u_smooth, p_expr=p_smooth),
        ManufacturedCase(
            name="NEUMANN_STRIP", domain="unit_square",
            u_expr=u_smooth, p_expr=p_smooth,
            neumann_side="right", neumann_normal=(1, 0)),
        ManufacturedCase(
            name="NONZERO_G", domain="unit_square",
            u_expr=u_g, p_expr=p_g),
        ManufacturedCase(
            name="LSHAPE_PEAK", domain="l_shape",
            f_expr=(bump, -bump), default_n0=16),
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

    @property
    def combined_error(self):
        return self.err_H1_u + self.err_L2_p


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


def _solve_level(space, problem, where):
    """Assemble, solve and estimate one level.

    Returns the solution and its ErrorReport; the assembled system and
    its factorization are dropped here.
    """
    system = forms.assemble_system(space, problem)
    try:
        sol = solver.solve(system)
    except solver.SolverError as exc:
        raise solver.SolverError(
            f"{where} ({space.mesh.n_triangles} triangles): {exc}") \
            from None
    rep = estimator.global_report(sol, space, problem)
    return sol, rep


@dataclass
class ConvergenceTable:
    """Per-level study results plus observed rates.

    rates[i] is the log2 ratio of combined errors between levels i and
    i+1 (one fewer entry than rows). For estimator-only cases the error
    columns are NaN and rates fall back to the estimator eta.
    """

    case: str
    pair: str
    alpha: float
    c_i: float
    rows: list = field(default_factory=list)

    def _rate_series(self):
        if self.rows and math.isfinite(self.rows[0].err_H1_u):
            return [r.combined_error for r in self.rows]
        return [r.eta for r in self.rows]

    @property
    def rates(self):
        s = self._rate_series()
        return [math.log2(s[i] / s[i + 1]) for i in range(len(s) - 1)]

    @property
    def osc_rates(self):
        return [math.log2(self.rows[i].osc_f / self.rows[i + 1].osc_f)
                for i in range(len(self.rows) - 1)
                if self.rows[i + 1].osc_f > 0]

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
    if isinstance(case, str):
        case = get_case(case)
    if isinstance(pair, str):
        pair = ElementPair.from_label(pair)
    if levels < 2:
        raise ValueError("a study needs at least 2 levels")

    mesh = case.make_mesh(n0 or case.default_n0)
    space = FeSpace(mesh, pair)
    if alpha is None:
        alpha = forms.default_alpha(space)
    problem = case.problem(alpha=alpha)

    table = ConvergenceTable(case=case.name, pair=pair.label, alpha=alpha,
                             c_i=space.c_i)
    for level in range(levels):
        if level > 0:
            mesh = mesh.refine_uniform()
            space = FeSpace(mesh, pair)
        sol, rep = _solve_level(space, problem, f"level {level}")
        table.rows.append(level_row(level, space, sol, rep))
    return table


# ----------------------------------------------------------------------
# adaptive loop

def dorfler_mark(mesh, eta_K, eta_E, theta):
    """Smallest element set whose indicators reach theta^2 * eta^2.

    Element indicators are eta_K^2 plus half of each adjacent edge
    indicator squared; elements are taken in decreasing order until the
    cumulative sum reaches the Dorfler target.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    ind = eta_K ** 2 + 0.5 * np.sum(eta_E[mesh.t2e] ** 2, axis=1)
    total = float(np.sum(eta_K ** 2) + np.sum(eta_E ** 2))
    order = np.argsort(ind)[::-1]
    csum = np.cumsum(ind[order])
    target = theta ** 2 * total
    n_mark = int(np.searchsorted(csum, target)) + 1
    n_mark = min(n_mark, len(order))
    return np.sort(order[:n_mark])


@dataclass
class AdaptiveStep:
    iteration: int
    mesh: object
    n_triangles: int
    n_dofs: int
    h_max: float
    eta: float
    eta_K: np.ndarray
    marked: np.ndarray
    row: LevelRow = field(repr=False)


@dataclass
class AdaptiveLog:
    """Steps of the adaptive loop; c_i of the last."""

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
        return [s.n_dofs for s in self.steps]


def adaptive_study(case, pair, theta=0.5, max_iters=10, target_eta=None,
                   alpha=None, n0=None):
    """Estimator-driven solve/mark/refine loop.

    Stops when eta falls below target_eta or after max_iters
    iterations. The last step's marked set is the one that would be
    refined next; the mesh of step k+1 is step k's mesh refined.
    """
    if isinstance(case, str):
        case = get_case(case)
    if isinstance(pair, str):
        pair = ElementPair.from_label(pair)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    mesh = case.make_mesh(n0 or case.default_n0)
    space = FeSpace(mesh, pair)
    if alpha is None:
        alpha = forms.default_alpha(space)
    problem = case.problem(alpha=alpha)
    log = AdaptiveLog(case=case.name, pair=pair.label, alpha=alpha,
                      theta=theta)

    for it in range(max_iters):
        sol, rep = _solve_level(space, problem, f"iteration {it}")
        log.c_i = space.c_i
        marked = dorfler_mark(mesh, rep.eta_K, rep.eta_E, theta)
        row = level_row(it, space, sol, rep)
        log.steps.append(AdaptiveStep(
            iteration=it, mesh=mesh, n_triangles=mesh.n_triangles,
            n_dofs=row.n_u + row.n_p, h_max=row.h, eta=row.eta,
            eta_K=row.eta_K, marked=marked, row=row))
        if target_eta is not None and rep.eta <= target_eta:
            break
        if it + 1 < max_iters:
            mesh = mesh.refine_marked(marked)
            space = FeSpace(mesh, pair)
    return log
