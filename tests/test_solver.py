"""Direct solve, error norms, and the pressure Schur probe."""

import os

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from stokes_stab import solver
from stokes_stab.forms import ExactSolution, StokesProblem, assemble_system
from stokes_stab.mesh import unit_square
from stokes_stab.space import FeSpace, P1P1, P2P1, interpolate


def _const_f(cx, cy):
    def f(x, y):
        out = np.empty(x.shape + (2,))
        out[..., 0] = cx
        out[..., 1] = cy
        return out
    return f


def _linear_case():
    # u = (y, x) is divergence free with A u = 0; p = x + y - 1
    def u(x, y):
        return np.stack([y, x], axis=-1)

    def grad_u(x, y):
        g = np.zeros(x.shape + (2, 2))
        g[..., 0, 1] = 1.0
        g[..., 1, 0] = 1.0
        return g

    def p(x, y):
        return x + y - 1.0

    exact = ExactSolution(u=u, grad_u=grad_u, p=p)
    return StokesProblem(f=_const_f(1.0, 1.0), exact=exact)


def _quadratic_case():
    # u = (x^2, -2xy): div u = 0 and -div D(u) + grad p = 0 for p = x - 1/2
    def u(x, y):
        return np.stack([x ** 2, -2 * x * y], axis=-1)

    def grad_u(x, y):
        g = np.zeros(x.shape + (2, 2))
        g[..., 0, 0] = 2 * x
        g[..., 1, 0] = -2 * y
        g[..., 1, 1] = -2 * x
        return g

    def p(x, y):
        return x - 0.5

    exact = ExactSolution(u=u, grad_u=grad_u, p=p)
    return StokesProblem(f=_const_f(0.0, 0.0), exact=exact)


@pytest.mark.parametrize("pair,problem_fn", [
    (P1P1, _linear_case),
    (P2P1, _linear_case),
    (P2P1, _quadratic_case),
])
def test_exact_in_space_solutions_reproduced(pair, problem_fn):
    problem = problem_fn()
    space = FeSpace(unit_square(4), pair)
    system = assemble_system(space, problem)
    sol = solver.solve(system)
    norms = solver.functional_norms(space, sol, problem.exact)
    assert solver.combined_error(norms) < 1e-8
    assert sol.residual < 1e-9


def test_dirichlet_values_imposed():
    space = FeSpace(unit_square(4), P1P1)
    sol = solver.solve(assemble_system(space, _linear_case()))
    uex, _ = interpolate(space, u=_linear_case().exact.u)
    bdofs = space.dirichlet_dofs
    assert np.allclose(sol.u[bdofs], uex[bdofs], atol=1e-14)


def test_mean_pressure_gauge():
    from stokes_stab.forms import scatter_add
    space = FeSpace(unit_square(4), P1P1)
    mesh = space.mesh
    sol = solver.solve(assemble_system(space, _linear_case()))
    assert sol.multiplier is not None
    # int psi_j: a third of the area of each triangle at vertex j
    means = scatter_add(mesh.triangles, np.repeat(mesh.areas / 3, 3),
                        space.n_p)
    assert abs(means @ sol.p) < 1e-12


def test_neumann_run_has_no_multiplier():
    mesh = unit_square(4, boundary={"right": "N"})
    space = FeSpace(mesh, P1P1)
    problem = _linear_case()

    # traction for u = (y, x), p = x + y - 1 on the right side (n = e_x):
    # D(u) = [[0, 1], [1, 0]], so sigma n = (-p, 1)
    def t(x, y):
        return np.stack([1.0 - x - y, np.ones_like(x)], axis=-1)

    problem = StokesProblem(f=problem.f, t=t, exact=problem.exact)
    sol = solver.solve(assemble_system(space, problem))
    assert sol.multiplier is None
    norms = solver.functional_norms(space, sol, problem.exact)
    assert solver.combined_error(norms) < 1e-8


def test_unstabilized_equal_order_fails():
    # alpha = 0 with P1P1 on the all-Dirichlet square is the classic
    # unstable pairing: the factorization hits a singular saddle block
    space = FeSpace(unit_square(4), P1P1)
    problem = StokesProblem(f=_const_f(1.0, 0.0), alpha=0.0)
    with pytest.raises(solver.SolverError) as err:
        solver.solve(assemble_system(space, problem))
    msg = str(err.value)
    assert "velocity block factorizes cleanly" in msg
    assert "alpha = 0" in msg


def test_failed_factorization_keeps_blas_text_off_stdout(capfd):
    # the BLAS input checker complains while splu fails on the singular
    # saddle block; the text belongs on the error, never on fd 1
    space = FeSpace(unit_square(4), P1P1)
    problem = StokesProblem(f=_const_f(1.0, 0.0), alpha=0.0)
    with pytest.raises(solver.SolverError) as err:
        solver.solve(assemble_system(space, problem))
    assert capfd.readouterr().out == ""
    assert "illegal value" in err.value.blas_output
    assert "illegal value" not in str(err.value)


def test_solve_keeps_stdout_around_factorization(capfd):
    # output written before the factorization is not swallowed by its
    # capture, and fd 1 points back at stdout afterwards
    print("before solve")
    space = FeSpace(unit_square(2), P1P1)
    solver.solve(assemble_system(space, _linear_case()))
    os.write(1, b"after solve\n")
    assert capfd.readouterr().out == "before solve\nafter solve\n"


def test_norms_of_interpolation_error_positive():
    space = FeSpace(unit_square(4), P1P1)
    problem = _quadratic_case()
    sol = solver.solve(assemble_system(space, problem))
    norms = solver.functional_norms(space, sol, problem.exact)
    for key in ("err_L2_u", "err_H1_u", "err_D_u", "err_L2_p"):
        assert norms[key] >= 0.0
    # quadratic velocity is outside P1, so the error cannot vanish
    assert norms["err_H1_u"] > 1e-3


SCHUR_ORACLE = {
    ("P1P1", 4): 0.5008679147,
    ("P1P1", 8): 0.4189713627,
    ("P2P1", 4): 0.2706926931,
    ("P2P1", 8): 0.2679271139,
}


@pytest.mark.parametrize("label,n", sorted(SCHUR_ORACLE))
def test_schur_probe_frozen_values(label, n):
    from stokes_stab.space import ElementPair
    from stokes_stab.study import get_case
    case = get_case("SMOOTH_SQUARE")
    space = FeSpace(case.make_mesh(n), ElementPair.from_label(label))
    lam = solver.schur_pressure_probe(space, case.problem())
    assert abs(lam - SCHUR_ORACLE[label, n]) < 1e-6


def test_schur_probe_neumann_branch():
    from stokes_stab.study import get_case
    case = get_case("NEUMANN_STRIP")
    space = FeSpace(case.make_mesh(4), P1P1)
    lam = solver.schur_pressure_probe(space, case.problem())
    assert abs(lam - 0.2628133690) < 1e-6


# ----------------------------------------------------------------------
# nested-dissection fast path against SuperLU's default COLAMD

def _plain_solve(K, b, order):
    # splu(K) with SuperLU's defaults, one solve, mapped back by order
    x = np.empty_like(b)
    x[order] = splu(K).solve(b)
    return x


def _plain_solution(system):
    # the reference: the same matrix factored with SuperLU's defaults
    return _plain_solve(system.matrix, system.rhs, system.order)


def _solution_vector(system, sol):
    x = np.concatenate([sol.u, sol.p])[system.free_dofs]
    if sol.multiplier is not None:
        x = np.append(x, sol.multiplier)
    return x


def _sweep_systems():
    from stokes_stab.study import get_case
    out = []
    for name in ("SMOOTH_SQUARE", "NEUMANN_STRIP"):
        case = get_case(name)
        mesh = case.make_mesh(16)
        for alpha in (None, 1e-2, 1e-4, 1e-6):
            out.append(pytest.param(FeSpace(mesh, P1P1),
                                    case.problem(alpha=alpha),
                                    id=f"{name}-P1P1-{alpha}"))
        space = FeSpace(mesh, P2P1)
        for alpha, tag in ((space.c_i / 4, "C_I/4"),
                           (space.c_i * 1e-4, "C_I*1e-4")):
            out.append(pytest.param(space, case.problem(alpha=alpha),
                                    id=f"{name}-P2P1-{tag}"))
    return out


@pytest.fixture(scope="module")
def graded_lshape_mesh():
    from stokes_stab.study import adaptive_study
    log = adaptive_study("LSHAPE_PEAK", "P1P1", theta=0.5, max_iters=8)
    return log.steps[-1].mesh


def _check_fast_path(system):
    sol = solver.solve(system)
    assert sol.diagnostics["ordering"] == "multifrontal"
    assert sol.diagnostics["fallback"] is False
    ref = _plain_solution(system)
    x = _solution_vector(system, sol)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("space,problem", _sweep_systems())
def test_fast_path_matches_colamd(space, problem):
    _check_fast_path(assemble_system(space, problem))


@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
def test_fast_path_matches_colamd_on_graded_mesh(graded_lshape_mesh, pair):
    from stokes_stab.study import get_case
    space = FeSpace(graded_lshape_mesh, pair)
    _check_fast_path(assemble_system(space, get_case("LSHAPE_PEAK").problem()))


def test_fast_path_failure_falls_back_to_colamd(monkeypatch):
    # one front's getrf reports an exactly zero pivot: the same matrix
    # is factored again by COLAMD, as plain splu would
    system = assemble_system(FeSpace(unit_square(8), P1P1), _linear_case())
    real = solver.dgetrf
    calls = []

    def failing(a):
        calls.append(a.shape)
        lu, piv, info = real(a)
        return lu, piv, (1 if len(calls) == 3 else info)

    monkeypatch.setattr(solver, "dgetrf", failing)
    sol = solver.solve(system)
    assert len(calls) == 3
    assert sol.diagnostics["ordering"] == "colamd"
    assert sol.diagnostics["fallback"] is True
    assert np.array_equal(_solution_vector(system, sol),
                          _plain_solution(system))


def test_memory_error_in_fronts_leaves_without_fallback(monkeypatch):
    system = assemble_system(FeSpace(unit_square(4), P1P1), _linear_case())
    factored = []

    def exhausted(a):
        raise MemoryError

    monkeypatch.setattr(solver, "dgetrf", exhausted)
    monkeypatch.setattr(solver, "splu",
                        lambda K, **options: factored.append(options))
    with pytest.raises(MemoryError):
        solver.solve(system)
    assert factored == []


def _stable_pair_systems():
    from stokes_stab.study import get_case
    for name in ("SMOOTH_SQUARE", "NEUMANN_STRIP", "NONZERO_G"):
        case = get_case(name)
        space = FeSpace(case.make_mesh(16), P2P1)
        yield pytest.param(space, case.problem(alpha=0.0), id=name)


@pytest.mark.parametrize("space,problem", _stable_pair_systems())
def test_stable_pair_factors_by_fronts_without_stabilization(space, problem):
    # P2P1 is inf-sup stable, so alpha = 0 is a valid run: the pressure
    # blocks of the fronts are not definite, and partial pivoting inside
    # each front block still carries the factorization
    _check_fast_path(assemble_system(space, problem))


@pytest.mark.parametrize("name", ["SMOOTH_SQUARE", "NEUMANN_STRIP"])
def test_tiny_alpha_equal_order_falls_back(name):
    # at alpha = 1e-8 the constant-pressure mode leaves a front pivot
    # below 1e-14 of the largest; COLAMD's partial pivoting takes over
    from stokes_stab.study import get_case
    case = get_case(name)
    system = assemble_system(FeSpace(case.make_mesh(16), P1P1),
                             case.problem(alpha=1e-8))
    fronts = solver._Fronts(system.matrix, system.groups)
    assert fronts.pivots.min() < 1e-14 * fronts.pivots.max()
    sol = solver.solve(system)
    assert sol.diagnostics["ordering"] == "colamd"
    assert sol.diagnostics["fallback"] is True
    assert sol.residual <= 1e-9


@pytest.mark.parametrize("boundary", [None, {"right": "N"}],
                         ids=["bordered", "neumann"])
def test_fronts_hold_every_entry_and_child(boundary):
    mesh = unit_square(8) if boundary is None \
        else unit_square(8, boundary=boundary)
    system = assemble_system(FeSpace(mesh, P2P1), _linear_case())
    K, groups = system.matrix, system.groups
    n = K.shape[0]
    ends = np.append(groups[1:], n)
    fronts, kids, rel = solver._front_structure(K, groups)
    gid = np.repeat(np.arange(len(groups)), ends - groups)
    for g, (start, end) in enumerate(zip(groups, ends)):
        f = fronts[g]
        assert np.array_equal(f[:end - start], np.arange(start, end))
        assert np.all(np.diff(f) > 0)
        # every stored entry of K on or below the group, in its columns
        rows = K[:, start:end].tocoo().row
        assert np.all(np.isin(rows[rows >= start], f))
        for c in kids[g]:
            below = fronts[c][ends[c] - groups[c]:]
            assert gid[below[0]] == g
            assert np.array_equal(f[rel[c]], below)
    # one tree: every group but the last has a parent, and the last
    # (the root) holds the mean-pressure border when there is one
    parents = [gid[f[e - s]] for f, s, e in zip(fronts, groups, ends)
               if len(f) > e - s]
    assert len(parents) == len(groups) - 1
    assert len(fronts[-1]) == ends[-1] - groups[-1]
    assert system.bordered == (boundary is None)
    assert gid[n - 1] == len(groups) - 1


def _openblas_counts():
    return [get() for get, _ in solver._loaded_openblas()]


def test_blas_on_one_thread_inside_the_factor(monkeypatch):
    controls = solver._loaded_openblas()
    assert controls, "numpy and scipy load OpenBLAS"
    system = assemble_system(FeSpace(unit_square(8), P2P1), _linear_case())
    saved = _openblas_counts()
    real = solver.dgetrf
    inside = []

    def spying(a):
        inside.append(_openblas_counts())
        return real(a)

    monkeypatch.setattr(solver, "dgetrf", spying)
    try:
        for _, set_ in controls:
            set_(2)
        before = _openblas_counts()
        solver.solve(system)
        after = _openblas_counts()
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)
    assert inside and all(c == [1] * len(controls) for c in inside)
    assert after == before


def test_solve_runs_where_proc_maps_is_unreadable(monkeypatch):
    import builtins
    system = assemble_system(FeSpace(unit_square(8), P1P1), _linear_case())
    ref = solver.solve(system)
    real_open = builtins.open

    def guarded(file, *args, **kwargs):
        if file == "/proc/self/maps":
            raise OSError("unreadable")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guarded)
    solver._loaded_openblas.cache_clear()
    try:
        assert solver._loaded_openblas() == []
        sol = solver.solve(system)
    finally:
        solver._loaded_openblas.cache_clear()
    assert sol.diagnostics == ref.diagnostics
    assert np.array_equal(sol.u, ref.u) and np.array_equal(sol.p, ref.p)


def test_memory_error_leaves_without_fallback(monkeypatch):
    # running out of memory is not a failed factorization: a second,
    # COLAMD factorization would only need more of it
    system = assemble_system(FeSpace(unit_square(4), P1P1), _linear_case())
    calls = []

    def exhausted(K, **options):
        calls.append(options)
        raise MemoryError

    monkeypatch.setattr(solver, "splu", exhausted)
    with pytest.raises(MemoryError):
        solver.ordered_solve(system.matrix, system.rhs, system.order)
    assert calls == [solver.ORDERED_SPLU]


def test_solver_diagnostics():
    system = assemble_system(FeSpace(unit_square(8), P1P1), _linear_case())
    diag = solver.solve(system).diagnostics
    assert diag["n_unknowns"] == len(system.free_dofs) + 1
    assert diag["alpha"] == system.alpha
    assert diag["fill_nnz"] > system.matrix.nnz // 2
    assert 0.0 < diag["pivot_ratio"] <= 1.0
    assert diag["residual_initial"] < 1e-9 and diag["refined"] is False


@pytest.mark.parametrize("boundary", [None, {"right": "N"}],
                         ids=["bordered", "neumann"])
def test_saddle_order_is_permutation_with_border_last(boundary):
    mesh = unit_square(16) if boundary is None \
        else unit_square(16, boundary=boundary)
    system = assemble_system(FeSpace(mesh, P2P1), _linear_case())
    perm = system.order
    n = len(system.free_dofs) + system.bordered
    assert system.bordered == (boundary is None)
    assert np.array_equal(np.sort(perm), np.arange(n))
    if system.bordered:
        assert perm[-1] == n - 1


def test_nested_dissection_cuts_grid_at_median_column():
    # 5-point grid graph on 32 x 32 points, one unknown each: the first
    # cut is at the median x = 16, the column x = 16 separates the
    # halves (both boundaries are one column; a tie takes the upper)
    # and comes last, after every point of x < 16 and then of x > 16
    import scipy.sparse as sp
    m = 32
    path = sp.diags([np.ones(m - 1), np.ones(m - 1)], [-1, 1])
    edges = np.column_stack(sp.triu(sp.kronsum(path, path)).nonzero())
    y, x = np.divmod(np.arange(m * m), m)
    slots = solver.nested_dissection(edges, np.column_stack([x, y]),
                                     np.ones(m * m))
    perm = np.argsort(slots, kind="stable")
    assert np.array_equal(np.sort(perm), np.arange(m * m))
    xs = x[perm]
    assert np.all(xs[-m:] == 16)
    assert np.all(xs[:16 * m] < 16) and np.all(xs[16 * m:-m] > 16)


def test_nested_dissection_rejects_points_it_cannot_cut():
    # 100 vertices at one point leave nothing above any cut
    edges = np.column_stack([np.arange(99), np.arange(1, 100)])
    with pytest.raises(ValueError, match="share one location"):
        solver.nested_dissection(edges, np.zeros((100, 2)), np.ones(100))


def test_nested_dissection_takes_the_thinner_separator():
    # unit_square(5) has 11 P2 node columns; the first weighted median
    # falls on the midpoint column x = 1/2. The lower side's boundary is
    # the vertex column x = 2/5, the upper side's the columns x = 1/2
    # and x = 3/5: the separator, ordered last, is the single column
    space = FeSpace(unit_square(5), P2P1)
    slots = space.node_slots
    sep = space.node_coords[slots == slots.max()]
    assert np.all(sep[:, 0] == 0.4)
    assert np.array_equal(np.sort(sep[:, 1]), np.linspace(0.0, 1.0, 11))


def test_neumann_p2p1_fill_does_not_grow():
    # 28863 entries are stored by the fronts of this system in the
    # node-graph order with separators from the thinner side (SuperLU's
    # L + U held 43874 in that order, 65450 in the dof-graph order with
    # upper-side separators); a change of the order or of A_uu's stored
    # entries must not make the factor denser
    from stokes_stab import study
    case = study.get_case("NEUMANN_STRIP")
    space = FeSpace(case.make_mesh(8), P2P1)
    sol = solver.solve(assemble_system(space, case.problem()))
    assert sol.diagnostics["ordering"] == "multifrontal"
    assert sol.diagnostics["fill_nnz"] <= 28863


def test_node_order_computed_once_per_space(monkeypatch):
    # the saddle solves and the osc_K and osc_E projections share one
    # nested dissection of the space's element-node graph
    from stokes_stab import estimator, study
    calls = []
    real = solver.nested_dissection

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "nested_dissection", counting)
    case = study.get_case("NEUMANN_STRIP")
    space = FeSpace(case.make_mesh(4), P2P1)
    problem = case.problem()
    system = assemble_system(space, problem)
    report = estimator.global_report(solver.solve(system), space, problem)
    solver.solve(system)
    assert report.osc_t > 0.0
    assert len(calls) == 1 and calls[0][0] is space.elem_nodes


# ----------------------------------------------------------------------
# the osc_K projection in the same order, against plain COLAMD

def _osc_K(space, problem, monkeypatch):
    """osc_K and the stats of its mass-matrix solve."""
    from stokes_stab import estimator
    stats = []
    real = solver.ordered_solve

    def spy(K, b, order):
        out = real(K, b, order)
        if K.shape[0] == space.n_nodes:
            stats.append(out[2])
        return out

    monkeypatch.setattr(solver, "ordered_solve", spy)
    osc_K, _ = estimator.oscillations(problem, space)
    monkeypatch.setattr(solver, "ordered_solve", real)
    (mass_stats,) = stats
    return osc_K, mass_stats


def _plain_osc_K(space, problem, monkeypatch):
    # the reference: the mass matrix solved by splu with SuperLU's
    # defaults, one solve, no checks
    from stokes_stab import estimator
    real = solver.ordered_solve
    monkeypatch.setattr(solver, "ordered_solve",
                        lambda K, b, order: (_plain_solve(K, b, order),
                                             None, None))
    osc_K, _ = estimator.oscillations(problem, space)
    monkeypatch.setattr(solver, "ordered_solve", real)
    return osc_K


@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
def test_ordered_projection_matches_colamd(graded_lshape_mesh, pair,
                                           monkeypatch):
    from stokes_stab.study import get_case
    space = FeSpace(graded_lshape_mesh, pair)
    problem = get_case("LSHAPE_PEAK").problem()
    ref = _plain_osc_K(space, problem, monkeypatch)
    osc_K, stats = _osc_K(space, problem, monkeypatch)
    assert stats["ordering"] == "nested_dissection"
    assert stats["fallback"] is False
    assert np.max(np.abs(osc_K - ref)) <= 1e-13 * np.max(ref)


@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
def test_projection_failure_falls_back_to_colamd(graded_lshape_mesh, pair,
                                                 monkeypatch):
    from stokes_stab.study import get_case
    space = FeSpace(graded_lshape_mesh, pair)
    problem = get_case("LSHAPE_PEAK").problem()
    ref = _plain_osc_K(space, problem, monkeypatch)
    real = solver.splu

    def failing(K, **options):
        if options.get("permc_spec") == "NATURAL":
            raise RuntimeError("Factor is exactly singular")
        return real(K, **options)

    monkeypatch.setattr(solver, "splu", failing)
    osc_K, stats = _osc_K(space, problem, monkeypatch)
    assert stats["ordering"] == "colamd"
    assert stats["fallback"] is True
    assert np.array_equal(osc_K, ref)
