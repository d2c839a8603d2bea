"""Direct solve, error norms, and the pressure Schur probe."""

import os
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from stokes_stab import forms, solver
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


@pytest.mark.parametrize("pair,bound", [(P1P1, 2.0), (P2P1, 2.75)],
                         ids=["P1P1", "P2P1"])
def test_norm_transients_stay_small(pair, bound):
    # bytes allocated at the peak of functional_norms, in units of one
    # (ne, nq, 2, 2) float64 array; a first call makes the rule_values
    # entry of the error rule's points, so the traced second call counts
    # the exact fields' values and the transients. P1P1 sits near 1.7
    # (the exact gradient and two (ne, nq) error components), P2P1 near
    # 2.5 (the exact and the discrete gradients and two components).
    # All three error arrays alive at once, or the symmetric gradient
    # built as an array of its own, push both past 3
    space = FeSpace(unit_square(32), pair)
    problem = _quadratic_case()
    sol = solver.solve(assemble_system(space, problem))
    rule = forms.quadrature(forms.error_degree(pair.velocity_degree))
    one = space.mesh.n_triangles * len(rule.weights) * 4 * 8
    solver.functional_norms(space, sol, problem.exact)
    tracemalloc.start()
    try:
        solver.functional_norms(space, sol, problem.exact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * one


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

def _plain_solution(system):
    # the reference: the same matrix factored with SuperLU's defaults,
    # one solve, in row order
    return splu(system.matrix).solve(system.rhs)


def _solution_vector(system, sol):
    # the solution's free dofs and multiplier, each at its row; a row
    # that none of them reaches stays NaN
    x = np.full(len(system.rhs), np.nan)
    dofs = np.flatnonzero(system.rows[:-1] >= 0)
    x[system.rows[dofs]] = np.concatenate([sol.u, sol.p])[dofs]
    if sol.multiplier is not None:
        x[-1] = sol.multiplier
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
    K, groups = system.matrix, system.groups
    _, pivots, _ = solver._front_pass(K, system.rhs, groups,
                                      solver._front_structure(K, groups))
    assert pivots.min() < 1e-14 * pivots.max()
    sol = solver.solve(system)
    assert sol.diagnostics["ordering"] == "colamd"
    assert sol.diagnostics["fallback"] is True
    assert sol.residual <= 1e-9


def _stored_factor_solver(K, groups):
    """The reference for solver._front_pass: every group's front
    assembled and factored, its LU and W blocks all stored, then per
    right-hand side one forward and one backward sweep. Returns the
    solve function, the |U_ii| of the fronts and the factor of each
    group as (lu, piv, W)."""
    from scipy.linalg.lapack import dgetrf, dgetrs
    ends = np.append(groups[1:], K.shape[0])
    structure = solver._front_structure(K, groups)
    fronts, kids, rel = structure.fronts, structure.kids, structure.rel
    factors, updates, pivots = [], {}, []
    for g, (start, end, f) in enumerate(zip(groups, ends, fronts)):
        k = end - start
        # only F11 and F21 come from K; F22 holds the children's updates
        F = np.zeros((len(f), len(f)))
        F[:, :k] = K[f][:, start:end].toarray()
        for c in kids[g]:
            F[np.ix_(rel[c], rel[c])] += updates.pop(c)
        lu, piv, info = dgetrf(F[:k, :k])
        assert info == 0
        pivots.append(np.abs(lu.diagonal()))
        W = dgetrs(lu, piv, F[k:, :k].T)[0]
        updates[g] = F[k:, k:] - F[k:, :k] @ W
        factors.append((start, end, f[k:], lu, piv, W))

    def solve(b):
        x = np.array(b, dtype=float)
        for start, end, rows, lu, piv, W in factors:
            x[rows] -= W.T @ x[start:end]
            x[start:end] = dgetrs(lu, piv, x[start:end])[0]
        for start, end, rows, _, _, W in reversed(factors):
            x[start:end] -= W @ x[rows]
        return x

    return solve, np.concatenate(pivots), [f[3:] for f in factors]


def _same_factor(a, b):
    return all(p.dtype == q.dtype and p.shape == q.shape
               and p.tobytes() == q.tobytes() for p, q in zip(a, b))


def _fused_pass_systems():
    from stokes_stab.study import get_case
    for name, pair, alpha, refined in (
            ("NEUMANN_STRIP", P2P1, None, False),
            ("SMOOTH_SQUARE", P1P1, None, False),   # bordered
            ("SMOOTH_SQUARE", P1P1, 1e-6, True)):
        case = get_case(name)
        system = assemble_system(FeSpace(case.make_mesh(16), pair),
                                 case.problem(alpha=alpha))
        yield pytest.param(system, refined,
                           id=f"{name}-{pair.label}-{alpha}")


@pytest.mark.parametrize("system,refined", _fused_pass_systems())
def test_fused_pass_matches_stored_factor_sweeps(system, refined):
    # the forward sweep inside the factorization does every operation
    # on x in the order of a forward sweep after it, a refinement that
    # runs the pass again equals one with the stored factor, and the
    # groups of one front class share a factor that each of them,
    # factored on its own, gives bit for bit
    K, b, groups = system.matrix, system.rhs, system.groups
    x, res, stats = solver._front_solve(K, b, groups)
    classes = solver._front_structure(K, groups).classes
    with solver._one_blas_thread():
        oracle, pivots, factors = _stored_factor_solver(K, groups)
        first = {}
        for g, cls in enumerate(classes):
            assert _same_factor(factors[first.setdefault(cls, g)],
                                factors[g])
        stored = sum(factors[g][2].size for g in first.values())
        ref_x, ref_res, ref_stats = solver._checked_solve(
            K, b, lambda r: (oracle(r), pivots, stored))
    assert np.array_equal(x, ref_x)
    assert res == ref_res
    assert stats == {**ref_stats, "fronts": len(groups),
                     "fronts_factored": len(first)}
    assert stats["refined"] is refined


def _neumann_p2p1_system(mesh):
    from stokes_stab import study
    case = study.get_case("NEUMANN_STRIP")
    return assemble_system(FeSpace(mesh, P2P1), case.problem())


def _ancestors(structure, groups, ends, members):
    """members and every group above them in the front tree."""
    gid = np.repeat(np.arange(len(groups)), ends - groups)
    found, todo = set(), list(members)
    while todo:
        g = todo.pop()
        if g not in found:
            found.add(g)
            f, k = structure.fronts[g], ends[g] - groups[g]
            if len(f) > k:
                todo.append(int(gid[f[k]]))
    return found


def test_moved_vertex_gives_its_fronts_their_own_classes():
    # NEUMANN_STRIP P2P1 on unit_square(16) with one interior vertex
    # moved: the groups holding a dof of the elements around it read
    # entries of K no other group has, and every front above them reads
    # an update no other front reads, so each of these is the only
    # group of its class; the fronts elsewhere still share, and the
    # solution equals the every-front oracle's bit for bit
    from stokes_stab import study
    mesh = study.get_case("NEUMANN_STRIP").make_mesh(16)
    vertex = int(np.flatnonzero(np.all(mesh.vertices == [0.375, 0.625],
                                       axis=1))[0])
    vertices = mesh.vertices.copy()
    vertices[vertex] += [0.013, -0.007]
    moved = type(mesh)(vertices, mesh.triangles, mesh.boundary_tag_dict())
    system = _neumann_p2p1_system(moved)
    space = FeSpace(moved, P2P1)
    K, b, groups = system.matrix, system.rhs, system.groups
    patch = np.flatnonzero(np.any(moved.triangles == vertex, axis=1))
    nodes = space.elem_nodes[patch].ravel()
    dofs = np.concatenate([2 * nodes, 2 * nodes + 1,
                           space.n_u + moved.triangles[patch].ravel()])
    rows = system.rows[dofs]
    ends = np.append(groups[1:], K.shape[0])
    gid = np.repeat(np.arange(len(groups)), ends - groups)
    structure = solver._front_structure(K, groups)
    own = _ancestors(structure, groups, ends, gid[rows[rows >= 0]].tolist())
    sizes = np.bincount(structure.classes)
    assert len(own) > 2
    assert all(sizes[structure.classes[g]] == 1 for g in own)
    plain = _neumann_p2p1_system(mesh)
    plain = solver._front_structure(plain.matrix, plain.groups)
    assert len(plain.last_member) < len(structure.last_member) < len(groups)
    x, res, stats = solver._front_solve(K, b, groups)
    with solver._one_blas_thread():
        oracle, pivots, _ = _stored_factor_solver(K, groups)
        ref_x, ref_res, _ = solver._checked_solve(
            K, b, lambda r: (oracle(r), pivots, stats["fill_nnz"]))
    assert np.array_equal(x, ref_x) and res == ref_res


def test_one_changed_entry_splits_its_class_and_those_above():
    # a diagonal entry of K changed in a group of a shared class whose
    # parent's class is shared too: the group's key differs by a value
    # other than the first of its columns, its parent's only by the
    # class of that child, and each group from it to the root is then
    # alone in its class; the solution equals the every-front oracle's
    # bit for bit
    from stokes_stab import study
    system = _neumann_p2p1_system(
        study.get_case("NEUMANN_STRIP").make_mesh(16))
    K, b, groups = system.matrix.copy(), system.rhs, system.groups
    ends = np.append(groups[1:], K.shape[0])
    gid = np.repeat(np.arange(len(groups)), ends - groups)
    before = solver._front_structure(K, groups)
    sizes = np.bincount(before.classes)

    def parent(g):
        return int(gid[before.fronts[g][ends[g] - groups[g]]])

    g = next(g for g in range(len(groups) - 1)
             if sizes[before.classes[g]] > 1
             and sizes[before.classes[parent(g)]] > 1)
    j = ends[g] - 1
    p = K.indptr[j] + np.flatnonzero(
        K.indices[K.indptr[j]:K.indptr[j + 1]] == j)[0]
    assert p != K.indptr[groups[g]]
    K.data[p] *= 1.001
    after = solver._front_structure(K, groups)
    above = _ancestors(after, groups, ends, [g])
    sizes = np.bincount(after.classes)
    assert parent(g) in above
    assert all(sizes[after.classes[h]] == 1 for h in above)
    x, res, stats = solver._front_solve(K, b, groups)
    with solver._one_blas_thread():
        oracle, pivots, _ = _stored_factor_solver(K, groups)
        ref_x, ref_res, _ = solver._checked_solve(
            K, b, lambda r: (oracle(r), pivots, stats["fill_nnz"]))
    assert np.array_equal(x, ref_x) and res == ref_res


@pytest.mark.parametrize("boundary", [None, {"right": "N"}],
                         ids=["bordered", "neumann"])
def test_fronts_hold_every_entry_and_child(boundary):
    mesh = unit_square(8) if boundary is None \
        else unit_square(8, boundary=boundary)
    system = assemble_system(FeSpace(mesh, P2P1), _linear_case())
    K, groups = system.matrix, system.groups
    n = K.shape[0]
    ends = np.append(groups[1:], n)
    structure = solver._front_structure(K, groups)
    fronts, kids, rel = structure.fronts, structure.kids, structure.rel
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


def _check_one_blas_thread_inside(monkeypatch, name, run):
    # every call of solver.<name> inside run() sees each OpenBLAS at one
    # thread, and run() leaves them all at the two they had before it
    controls = solver._loaded_openblas()
    assert controls, "numpy and scipy load OpenBLAS"
    saved = _openblas_counts()
    real = getattr(solver, name)
    inside = []

    def spying(*args, **kwargs):
        inside.append(_openblas_counts())
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, name, spying)
    try:
        for _, set_ in controls:
            set_(2)
        before = _openblas_counts()
        run()
        after = _openblas_counts()
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)
    assert inside and all(c == [1] * len(controls) for c in inside)
    assert after == before


def test_blas_on_one_thread_inside_the_factor(monkeypatch):
    system = assemble_system(FeSpace(unit_square(8), P2P1), _linear_case())
    _check_one_blas_thread_inside(monkeypatch, "dgetrf",
                                  lambda: solver.solve(system))


def test_blas_on_one_thread_inside_mass_solve(monkeypatch):
    M = forms.pressure_mass(FeSpace(unit_square(8), P2P1))
    _check_one_blas_thread_inside(
        monkeypatch, "cg",
        lambda: solver.mass_solve(M, np.ones((M.shape[0], 2))))


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
    # running out of memory is not a failed solve: a SuperLU
    # factorization of the mass matrix would only need more of it
    M = forms.pressure_mass(FeSpace(unit_square(4), P1P1))
    calls = []

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(solver, "cg", exhausted)
    monkeypatch.setattr(solver, "splu", lambda *args: calls.append(args))
    with pytest.raises(MemoryError):
        solver.mass_solve(M, np.ones((M.shape[0], 2)))
    assert calls == []


def test_structured_mesh_factors_fewer_fronts_than_groups():
    # at NEUMANN_STRIP P2P1 on unit_square(16) most fronts repeat one of
    # a few shapes bit for bit; each is factored once
    from stokes_stab import study
    system = _neumann_p2p1_system(
        study.get_case("NEUMANN_STRIP").make_mesh(16))
    diag = solver.solve(system).diagnostics
    assert diag["ordering"] == "multifrontal"
    assert diag["fronts"] == len(system.groups)
    assert diag["fronts_factored"] < diag["fronts"]


def test_solver_diagnostics():
    space = FeSpace(unit_square(8), P1P1)
    system = assemble_system(space, _linear_case())
    diag = solver.solve(system).diagnostics
    assert diag["n_unknowns"] == \
        len(space.free_velocity_dofs) + space.n_p + 1
    assert diag["alpha"] == system.alpha
    assert diag["fill_nnz"] > system.matrix.nnz // 2
    assert 0.0 < diag["pivot_ratio"] <= 1.0
    assert diag["residual_initial"] < 1e-9 and diag["refined"] is False


@pytest.mark.parametrize("boundary", [None, {"right": "N"}],
                         ids=["bordered", "neumann"])
def test_saddle_order_is_permutation_with_border_last(boundary):
    mesh = unit_square(16) if boundary is None \
        else unit_square(16, boundary=boundary)
    space = FeSpace(mesh, P2P1)
    system = assemble_system(space, _linear_case())
    rows = system.rows
    assert system.bordered == (boundary is None)
    # exactly the free dofs have a row
    free = np.concatenate([space.free_velocity_dofs,
                           space.n_u + np.arange(space.n_p)])
    assert np.array_equal(np.flatnonzero(rows[:-1] >= 0), free)
    # the rows of the free dofs and the border are 0..n-1, once each
    n = len(free) + system.bordered
    assert system.matrix.shape == (n, n)
    assert np.array_equal(np.sort(rows[rows >= 0]), np.arange(n))
    # the border, when there is one, is the last row
    assert rows[-1] == (n - 1 if system.bordered else -1)


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
    # the fronts of this system keep 17066 entries of W in the
    # node-graph order with separators from the thinner side (28863
    # with each front's LU kept beside W; SuperLU's L + U held 43874 in
    # that order, 65450 in the dof-graph order with upper-side
    # separators); a change of the order or of A_uu's stored entries
    # must not make the factor denser
    from stokes_stab import study
    case = study.get_case("NEUMANN_STRIP")
    space = FeSpace(case.make_mesh(8), P2P1)
    system = assemble_system(space, case.problem())
    sol = solver.solve(system)
    assert sol.diagnostics["ordering"] == "multifrontal"
    # fill_nnz is the k x m of W of every front class, whose first group
    # has k own rows and m rows below
    structure = solver._front_structure(system.matrix, system.groups)
    ends = np.append(system.groups[1:], system.matrix.shape[0])
    ks = ends - system.groups
    first = dict(zip(structure.classes[::-1],
                     range(len(ks) - 1, -1, -1)))
    assert sol.diagnostics["fill_nnz"] == sum(
        int(ks[g]) * (len(structure.fronts[g]) - int(ks[g]))
        for g in first.values())
    assert sol.diagnostics["fill_nnz"] <= 17066


def test_front_solve_keeps_only_w():
    # NEUMANN_STRIP P2P1 n = 32, 9153 unknowns: the fused pass peaks at
    # 7.02 MB under tracemalloc (W itself is 4.52 MB); storing each
    # front's LU beside W for a later forward sweep peaked at 8.66 MB
    from stokes_stab import study
    case = study.get_case("NEUMANN_STRIP")
    system = assemble_system(FeSpace(case.make_mesh(32), P2P1),
                             case.problem())
    tracemalloc.start()
    try:
        solver._front_solve(system.matrix, system.rhs, system.groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5e6


def test_refinement_frees_the_first_pass():
    # P1P1 at alpha = 1e-6 refines; the second pass may add a few
    # vectors of the system's size to the peak of one pass (it adds
    # 3.0), not the first pass's W blocks (0.87 MB here, 36 vectors)
    from stokes_stab import study
    case = study.get_case("SMOOTH_SQUARE")
    system = assemble_system(FeSpace(case.make_mesh(32), P1P1),
                             case.problem(alpha=1e-6))
    K, b, groups = system.matrix, system.rhs, system.groups
    peaks = []
    for run in (lambda: solver._front_pass(
                    K, b, groups, solver._front_structure(K, groups)),
                lambda: solver._front_solve(K, b, groups)):
        tracemalloc.start()
        try:
            result = run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert result[2]["refined"] is True
    slack = 4 * 8 * K.shape[0]
    assert peaks[1] <= peaks[0] + slack
    assert 8 * result[2]["fill_nnz"] > 8 * slack


def test_refining_solve_runs_one_symbolic_pass(monkeypatch):
    # the fronts' structure depends on K and the groups alone, so the
    # refinement step's pass reuses the first pass's
    from stokes_stab import study
    case = study.get_case("SMOOTH_SQUARE")
    system = assemble_system(FeSpace(case.make_mesh(16), P1P1),
                             case.problem(alpha=1e-6))
    calls = []
    real = solver._front_structure

    def counting(K, groups):
        calls.append(groups)
        return real(K, groups)

    monkeypatch.setattr(solver, "_front_structure", counting)
    diag = solver.solve(system).diagnostics
    assert diag["ordering"] == "multifrontal" and diag["refined"] is True
    assert len(calls) == 1


def test_node_order_computed_once_per_space(monkeypatch):
    # the saddle solves of a space share one nested dissection of its
    # element-node graph, and the estimator's projections need none
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
# the osc_K projection by CG, against plain COLAMD

def _plain_osc_K(space, problem, monkeypatch):
    # the reference: the mass matrix solved by splu with SuperLU's
    # defaults, one solve, no checks
    from stokes_stab import estimator
    with monkeypatch.context() as m:
        m.setattr(solver, "mass_solve",
                  lambda M, b: splu(M.tocsc()).solve(b))
        osc_K, _ = estimator.oscillations(problem, space)
    return osc_K


@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
def test_ordered_projection_matches_colamd(graded_lshape_mesh, pair,
                                           monkeypatch):
    from stokes_stab import estimator
    from stokes_stab.study import get_case
    space = FeSpace(graded_lshape_mesh, pair)
    problem = get_case("LSHAPE_PEAK").problem()
    ref = _plain_osc_K(space, problem, monkeypatch)
    osc_K, _ = estimator.oscillations(problem, space)
    assert np.max(np.abs(osc_K - ref)) <= 1e-13 * np.max(ref)


@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
def test_projection_failure_falls_back_to_colamd(graded_lshape_mesh, pair,
                                                 monkeypatch):
    # a CG that reports no convergence, or one that returns NaN: the
    # mass matrix goes to SuperLU with COLAMD, whose single solve is
    # the reference's
    from stokes_stab import estimator
    from stokes_stab.study import get_case
    space = FeSpace(graded_lshape_mesh, pair)
    problem = get_case("LSHAPE_PEAK").problem()
    ref = _plain_osc_K(space, problem, monkeypatch)
    real_cg, real_factor = solver.cg, solver._factor_and_solve
    fallbacks = []

    def factor(K, b):
        fallbacks.append(K.shape)
        return real_factor(K, b)

    monkeypatch.setattr(solver, "_factor_and_solve", factor)
    for fault in (lambda x, info: (x, 1),
                  lambda x, info: (np.full_like(x, np.nan), info)):
        monkeypatch.setattr(solver, "cg",
                            lambda *a, fault=fault, **kw:
                            fault(*real_cg(*a, **kw)))
        fallbacks.clear()
        osc_K, _ = estimator.oscillations(problem, space)
        assert fallbacks == [(space.n_nodes, space.n_nodes)]
        assert np.array_equal(osc_K, ref)


def test_oscillations_need_no_factorization(graded_lshape_mesh,
                                            monkeypatch):
    # the CG projections converge on a graded mesh and on the P2 trace
    # of the Neumann edges: the SuperLU fallback must not mask a
    # regression of the normal path
    from stokes_stab import estimator
    from stokes_stab.study import get_case

    def refused(*args, **kwargs):
        raise AssertionError("mass matrix sent to SuperLU")

    monkeypatch.setattr(solver, "_factor_and_solve", refused)
    monkeypatch.setattr(solver, "splu", refused)
    lshape, strip = get_case("LSHAPE_PEAK"), get_case("NEUMANN_STRIP")
    for mesh, pair, case in [(graded_lshape_mesh, P1P1, lshape),
                             (graded_lshape_mesh, P2P1, lshape),
                             (strip.make_mesh(16), P2P1, strip)]:
        osc_K, osc_E = estimator.oscillations(case.problem(),
                                              FeSpace(mesh, pair))
        assert np.all(np.isfinite(osc_K)) and osc_K.max() > 0.0
    assert osc_E.max() > 0.0
