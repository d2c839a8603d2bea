"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with -s or -rA)
and shares the expensive convergence studies through module fixtures.
"""

import math
import time

import numpy as np
import pytest

from stokes_stab import cli, estimator, forms, solver, study
from stokes_stab.forms import (
    ExactSolution,
    StokesProblem,
    assemble_system,
    default_alpha,
    estimate_CI,
)
from stokes_stab.mesh import unit_square
from stokes_stab.space import ElementPair, FeSpace, P1P1, P2P1
from stokes_stab.study import adaptive_study, uniform_study

from oracles import assemble_B, assemble_Sh


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------
# shared studies

@pytest.fixture(scope="module")
def smooth_tables():
    t0 = time.monotonic()
    tables = {
        "P1P1": uniform_study("SMOOTH_SQUARE", "P1P1", levels=5, n0=4),
        "P2P1": uniform_study("SMOOTH_SQUARE", "P2P1", levels=4, n0=4),
    }
    tables["elapsed"] = time.monotonic() - t0
    return tables


@pytest.fixture(scope="module")
def extra_smooth_tables():
    return {
        "NEUMANN_STRIP/P1P1": uniform_study("NEUMANN_STRIP", "P1P1",
                                            levels=4, n0=4),
        "NONZERO_G/P2P1": uniform_study("NONZERO_G", "P2P1",
                                        levels=4, n0=4),
    }


@pytest.fixture(scope="module")
def lshape_runs():
    log = adaptive_study("LSHAPE_PEAK", "P1P1", theta=0.5, max_iters=17)
    table = uniform_study("LSHAPE_PEAK", "P1P1", levels=3)
    return log, table


# ----------------------------------------------------------------------
# criterion 1: polynomial solutions inside the space are reproduced

def _poly_cases(velocity_degree):
    """Five divergence-free polynomial velocity / linear pressure pairs."""

    def vec(f0, f1):
        return lambda x, y: np.stack([f0(x, y), f1(x, y)], axis=-1)

    def grad(g00, g01, g10, g11):
        def call(x, y):
            g = np.empty(x.shape + (2, 2))
            g[..., 0, 0] = g00(x, y)
            g[..., 0, 1] = g01(x, y)
            g[..., 1, 0] = g10(x, y)
            g[..., 1, 1] = g11(x, y)
            return g
        return call

    def const(c):
        return lambda x, y: np.full_like(x, c)

    z = const(0.0)
    if velocity_degree == 1:
        # linear velocities: A u = 0, so f = grad p
        return [
            (vec(lambda x, y: y, lambda x, y: x),
             grad(z, const(1.0), const(1.0), z),
             lambda x, y: x + y - 1.0, (1.0, 1.0)),
            (vec(lambda x, y: x, lambda x, y: -y),
             grad(const(1.0), z, z, const(-1.0)),
             lambda x, y: 2 * x - 1.0, (2.0, 0.0)),
            (vec(lambda x, y: -y, z),
             grad(z, const(-1.0), z, z),
             lambda x, y: x - y, (1.0, -1.0)),
            (vec(lambda x, y: 2 * x, lambda x, y: x - 2 * y),
             grad(const(2.0), z, const(1.0), const(-2.0)),
             lambda x, y: y - 0.5, (0.0, 1.0)),
            (vec(lambda x, y: x - 2 * y, lambda x, y: 3 * x - y),
             grad(const(1.0), const(-2.0), const(3.0), const(-1.0)),
             lambda x, y: x + 2 * y - 1.5, (1.0, 2.0)),
        ]
    # quadratic velocities: A u constant, f = -A u + grad p constant
    return [
        (vec(lambda x, y: x ** 2, lambda x, y: -2 * x * y),
         grad(lambda x, y: 2 * x, z, lambda x, y: -2 * y,
              lambda x, y: -2 * x),
         lambda x, y: x - 0.5, (0.0, 0.0)),
        (vec(lambda x, y: y ** 2, z),
         grad(z, lambda x, y: 2 * y, z, z),
         lambda x, y: x + y - 1.0, (0.0, 1.0)),
        (vec(lambda x, y: x * y, lambda x, y: -0.5 * y ** 2),
         grad(lambda x, y: y, lambda x, y: x, z, lambda x, y: -y),
         lambda x, y: 2 * y - 1.0, (0.0, 2.5)),
        (vec(lambda x, y: x ** 2 - y ** 2, lambda x, y: -2 * x * y),
         grad(lambda x, y: 2 * x, lambda x, y: -2 * y,
              lambda x, y: -2 * y, lambda x, y: -2 * x),
         lambda x, y: x + 2 * y - 1.5, (1.0, 2.0)),
        (vec(lambda x, y: 2 * x * y, lambda x, y: -y ** 2),
         grad(lambda x, y: 2 * y, lambda x, y: 2 * x, z,
              lambda x, y: -2 * y),
         lambda x, y: x - y, (1.0, 0.0)),
    ]


@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
def test_criterion_01_consistency(pair):
    space = FeSpace(unit_square(4), pair)
    worst = 0.0
    for u, grad_u, p, fconst in _poly_cases(pair.velocity_degree):
        def f(x, y, fconst=fconst):
            out = np.empty(x.shape + (2,))
            out[..., 0] = fconst[0]
            out[..., 1] = fconst[1]
            return out

        problem = StokesProblem(f=f, exact=ExactSolution(u, grad_u, p))
        sol = solver.solve(assemble_system(space, problem))
        norms = solver.functional_norms(space, sol, problem.exact)
        worst = max(worst, solver.combined_error(norms))
    report(1, worst <= 1e-8,
           f"{pair.label}: worst combined error over 5 polynomial "
           f"solutions = {worst:.3e} (tol 1e-8)")


# ----------------------------------------------------------------------
# criterion 2: discrete coercivity of the stabilized form

@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
def test_criterion_02_coercivity(pair):
    rng = np.random.default_rng(42)
    worst = np.inf
    for n in (2, 4, 8):
        space = FeSpace(unit_square(n), pair)
        alpha = default_alpha(space)
        c_i = estimate_CI(space)
        A_uu, A_up = assemble_B(space)
        S = assemble_Sh(space)
        from scipy.sparse import bmat
        B = bmat([[A_uu, A_up], [A_up.T, None]], format="csr")
        M = (B - alpha * S).tocsr()
        S_pp = S[space.n_u:, space.n_u:]
        frac = 0.0 if math.isinf(c_i) else alpha / c_i
        for _ in range(100):
            w = rng.standard_normal(space.n_u)
            r = rng.standard_normal(space.n_p)
            z = np.concatenate([w, r])
            zm = np.concatenate([w, -r])
            lhs = float(zm @ (M @ z))
            rhs = ((1.0 - frac) * float(w @ (A_uu @ w))
                   + alpha * float(r @ (S_pp @ r)) - 1e-10)
            worst = min(worst, lhs - rhs)
    report(2, worst >= 0.0,
           f"{pair.label}: min slack of B_h(w,r;w,-r) lower bound over "
           f"300 random pairs = {worst:.3e}")


# ----------------------------------------------------------------------
# criteria 3-5: rates, oscillation order, effectivity stability

def test_criterion_03_apriori_rates(smooth_tables):
    t1, t2 = smooth_tables["P1P1"], smooth_tables["P2P1"]
    r1, r2 = t1.rates[-1], t2.rates[-1]
    dofs = max(t.rows[-1].n_u + t.rows[-1].n_p for t in (t1, t2))
    ok = (abs(r1 - 1.0) <= 0.15 and abs(r2 - 2.0) <= 0.2
          and len(t1.rows) >= 4 and len(t2.rows) >= 4
          and dofs <= 2 * 10 ** 5 and smooth_tables["elapsed"] <= 120.0)
    report(3, ok,
           f"rates P1P1 = {r1:.3f} (1.0 +/- 0.15), "
           f"P2P1 = {r2:.3f} (2.0 +/- 0.2); finest {dofs} dofs, "
           f"{smooth_tables['elapsed']:.1f}s")


def test_criterion_04_oscillation_higher_order(smooth_tables):
    details = []
    ok = True
    for label in ("P1P1", "P2P1"):
        t = smooth_tables[label]
        err_rate = t.rates[-1]
        osc_rate = t.osc_rates[-1]
        ok = ok and osc_rate >= err_rate + 0.9
        details.append(f"{label}: osc {osc_rate:.2f} vs err "
                       f"{err_rate:.2f}+0.9")
    report(4, ok, "; ".join(details))


def test_criterion_05_effectivity_stable(smooth_tables,
                                         extra_smooth_tables):
    studies = {
        "SMOOTH_SQUARE/P1P1": smooth_tables["P1P1"],
        "SMOOTH_SQUARE/P2P1": smooth_tables["P2P1"],
        **extra_smooth_tables,
    }
    details = []
    ok = True
    for name, t in studies.items():
        eff = [r.effectivity for r in t.rows[-3:]]
        spread = max(eff) / min(eff)
        ok = ok and spread < 2.0
        details.append(f"{name}: spread {spread:.3f}")
    report(5, ok, "effectivity spread over last 3 levels " +
           "; ".join(details) + " (< 2 required)")


# ----------------------------------------------------------------------
# criterion 6: efficiency audit stability across levels

@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
def test_criterion_06_efficiency_audit(pair):
    case = study.get_case("SMOOTH_SQUARE")
    max_ratios = []
    for n in (4, 8, 16):
        space = FeSpace(case.make_mesh(n), pair)
        problem = case.problem()
        sol = solver.solve(assemble_system(space, problem))
        rep = estimator.global_report(sol, space, problem)
        audit = estimator.efficiency_audit(sol, space, problem, rep)
        max_ratios.append(audit.max_ratio)
    changes = [abs(b - a) / a for a, b in zip(max_ratios, max_ratios[1:])]
    ok = all(c < 0.5 for c in changes)
    report(6, ok,
           f"{pair.label}: max audit ratios "
           + " -> ".join(f"{m:.2f}" for m in max_ratios)
           + f", changes {['%.1f%%' % (100 * c) for c in changes]} (< 50%)")


# ----------------------------------------------------------------------
# criterion 7: unstabilized negative control

def test_criterion_07_negative_control(smooth_tables):
    case = study.get_case("SMOOTH_SQUARE")
    space = FeSpace(case.make_mesh(8), P1P1)
    failed = False
    ratio = None
    try:
        sol0 = solver.solve(assemble_system(space, case.problem(alpha=0.0)))
    except solver.SolverError:
        failed = True
    if not failed:
        # factorization survived: compare the mesh-dependent pressure
        # seminorm sqrt(sum h^2 |grad p|^2) against the stabilized run
        S = assemble_Sh(space)
        S_pp = S[space.n_u:, space.n_u:]
        sol1 = solver.solve(assemble_system(space, case.problem(alpha=0.1)))
        semi0 = math.sqrt(sol0.p @ (S_pp @ sol0.p))
        semi1 = math.sqrt(sol1.p @ (S_pp @ sol1.p))
        ratio = semi0 / semi1
    stabilized_rate = smooth_tables["P1P1"].rates[-1]
    ok = (failed or ratio >= 10.0) and abs(stabilized_rate - 1.0) <= 0.15
    detail = ("factorization fails" if failed
              else f"pressure seminorm ratio {ratio:.1f} (>= 10)")
    report(7, ok, f"alpha=0 P1P1: {detail}; alpha=0.1 rate "
                  f"{stabilized_rate:.3f}")


# ----------------------------------------------------------------------
# criterion 8: inverse inequality constant

def test_criterion_08_inverse_constant():
    rng = np.random.default_rng(2024)
    space = FeSpace(unit_square(4), P2P1)
    c_i = estimate_CI(space)
    bound = 1.0 / c_i
    # the pencils of each shape class, sampled on every element
    cls = space.mesh.shape_classes
    M_A, M_D = (M[cls] for M in forms.inverse_inequality_pencils(space))
    nt, dim = M_A.shape[0], M_A.shape[2]
    n_samples = 10_000
    per_elem = n_samples // nt + 1
    X = rng.standard_normal((nt, dim, per_elem))
    num = np.einsum("eim,eij,ejm->em", X, M_A, X)
    den = np.einsum("eim,eij,ejm->em", X, M_D, X)
    exceed = num > bound * den * (1 + 1e-10) + 1e-14
    c2 = estimate_CI(FeSpace(unit_square(2), P2P1))
    c8 = estimate_CI(FeSpace(unit_square(8), P2P1))
    invariant = abs(c2 - c_i) <= 1e-10 and abs(c8 - c_i) <= 1e-10
    ok = not np.any(exceed) and invariant
    report(8, ok,
           f"{num.size} random Rayleigh quotients <= 1/C_I = {bound:.4g}; "
           f"C_I drift across refinements "
           f"{max(abs(c2 - c_i), abs(c8 - c_i)):.2e} (tol 1e-10)")


# ----------------------------------------------------------------------
# criterion 9: pressure Schur probe across levels

@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
def test_criterion_09_infsup_surrogate(pair):
    case = study.get_case("SMOOTH_SQUARE")
    vals = []
    for n in (8, 16, 32):
        space = FeSpace(case.make_mesh(n), pair)
        vals.append(solver.schur_pressure_probe(space, case.problem()))
    drops = [(a - b) / a for a, b in zip(vals, vals[1:])]
    total = (vals[0] - vals[-1]) / vals[0]
    ok = all(d < 0.2 for d in drops) and total < 0.2
    report(9, ok,
           f"{pair.label}: probe eigenvalue "
           + " -> ".join(f"{v:.4f}" for v in vals)
           + f", worst drop {100 * max(drops + [total]):.1f}% (< 20%)")


# ----------------------------------------------------------------------
# criterion 10: adaptive localization on the L-shape

def test_criterion_10_adaptive_localization(lshape_runs):
    log, table = lshape_runs
    fracs = []
    for step in (log.steps[2], log.steps[3]):
        cent = step.mesh.vertices[step.mesh.triangles[step.marked]] \
            .mean(axis=1)
        r_corner = np.hypot(cent[:, 0], cent[:, 1])
        r_bump = np.hypot(cent[:, 0] + 0.08, cent[:, 1] + 0.08)
        fracs.append(min(float(np.mean(r_corner <= 0.25)),
                         float(np.mean(r_bump <= 0.25))))
    local_ok = all(f >= 0.6 for f in fracs)

    dofs = np.array(log.dofs, dtype=float)
    etas = np.array(log.etas, dtype=float)
    compare = []
    for row in table.rows:
        N = row.n_u + row.n_p
        if dofs.min() <= N <= dofs.max():
            eta_ad = float(np.exp(np.interp(np.log(N), np.log(dofs),
                                            np.log(etas))))
            compare.append((N, eta_ad, row.eta))
    curve_ok = len(compare) >= 2 and all(a <= u for _, a, u in compare)
    report(10, local_ok and curve_ok,
           f"marked fraction near corner after 3 iterations "
           f"{min(fracs):.0%} (>= 60%); adaptive vs uniform eta at "
           f"matched dofs: "
           + "; ".join(f"{int(n)}: {a:.3f} <= {u:.3f}" for n, a, u
                       in compare))


# ----------------------------------------------------------------------
# criterion 11: CLI determinism

def test_criterion_11_cli_determinism(tmp_path):
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        code = cli.main(["uniform-study", "--case", "SMOOTH_SQUARE",
                         "--pair", "P1P1", "--levels", "3", "--n0", "2",
                         "--seed", "7", "--out", str(out)])
        assert code == 0
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in ("table.csv", "manifest.txt"))
    report(11, same, "repeated uniform-study runs produced byte-identical "
                     "table.csv and manifest.txt")
