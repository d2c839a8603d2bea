"""Residual estimator, data oscillation, and the efficiency audit."""

import dataclasses

import numpy as np
import pytest

from stokes_stab import estimator, forms, solver
from stokes_stab.forms import (
    ExactSolution,
    StokesProblem,
    assemble_system,
)
from stokes_stab.mesh import unit_square
from stokes_stab.solver import DiscreteSolution
from stokes_stab.space import (FeSpace, P1P1, P2P1, physical_points,
                               scalar_basis, strain_squared,
                               velocity_gradients)

from oracles import edge_estimator_per_side


def _zero_solution(space):
    return DiscreteSolution(u=np.zeros(space.n_u), p=np.zeros(space.n_p),
                            residual=0.0)


def _const_f(cx, cy):
    def f(x, y):
        out = np.empty(x.shape + (2,))
        out[..., 0] = cx
        out[..., 1] = cy
        return out
    return f


@pytest.mark.parametrize("pair", [P1P1, P2P1])
def test_element_estimator_constant_residual(pair):
    # with u_h = 0, p_h = 0 the residual is f itself, so
    # eta_K = h_K |f| sqrt(|K|)
    mesh = unit_square(2)
    space = FeSpace(mesh, pair)
    problem = StokesProblem(f=_const_f(3.0, 4.0))
    eta_K = estimator.element_estimator(_zero_solution(space), space, problem)
    expected = mesh.diameters * 5.0 * np.sqrt(mesh.areas)
    assert np.allclose(eta_K, expected, rtol=1e-12)


def test_element_estimator_divergence_term():
    # u_h = (x, y) has div u_h = 2; with f = 0 and matching A u_h = 0
    # the estimator reduces to |div u_h|_K = 2 sqrt(|K|)
    from stokes_stab.space import interpolate
    mesh = unit_square(2)
    space = FeSpace(mesh, P1P1)
    u, _ = interpolate(space, u=lambda x, y: np.stack([x, y], axis=-1))
    sol = DiscreteSolution(u=u, p=np.zeros(space.n_p), residual=0.0)
    problem = StokesProblem(f=_const_f(0.0, 0.0))
    eta_K = estimator.element_estimator(sol, space, problem)
    assert np.allclose(eta_K, 2.0 * np.sqrt(mesh.areas), rtol=1e-12)


def test_edge_jump_frozen_value():
    # hat function at vertex (1, 0) of the two-triangle square, x-component:
    # the stress jump across the diagonal gives eta_E = sqrt(5/2)
    mesh = unit_square(1)
    space = FeSpace(mesh, P1P1)
    idx = int(np.where((mesh.vertices[:, 0] == 1.0)
                       & (mesh.vertices[:, 1] == 0.0))[0][0])
    u = np.zeros(space.n_u)
    u[2 * idx] = 1.0
    sol = DiscreteSolution(u=u, p=np.zeros(space.n_p), residual=0.0)
    problem = StokesProblem(f=_const_f(0.0, 0.0))
    eta_E = estimator.edge_estimator(sol, space, problem)
    inner = [e for e in range(mesh.n_edges) if mesh.edge_tags[e] == 0]
    assert len(inner) == 1
    assert abs(eta_E[inner[0]] - np.sqrt(2.5)) < 1e-12
    # boundary (Dirichlet) edges carry nothing
    assert np.allclose(np.delete(eta_E, inner), 0.0)


def test_edge_jump_orientation_invariant():
    # swapping the triangle order must not change the jump magnitude
    mesh = unit_square(1)
    swapped = mesh.triangles[::-1].copy()
    mesh2 = type(mesh)(mesh.vertices.copy(), swapped,
                       mesh.boundary_tag_dict())
    for m in (mesh, mesh2):
        space = FeSpace(m, P1P1)
        idx = int(np.where((m.vertices[:, 0] == 1.0)
                           & (m.vertices[:, 1] == 0.0))[0][0])
        u = np.zeros(space.n_u)
        u[2 * idx] = 1.0
        sol = DiscreteSolution(u=u, p=np.zeros(space.n_p), residual=0.0)
        eta_E = estimator.edge_estimator(sol, space,
                                         StokesProblem(f=_const_f(0, 0)))
        assert abs(np.max(eta_E) - np.sqrt(2.5)) < 1e-12


def test_neumann_edge_misfit():
    # zero discrete solution against t = (1, 0): the misfit has unit
    # magnitude, so eta_E^2 = h_E int_E 1 ds = h_E^2
    mesh = unit_square(2, boundary={"right": "N"})
    space = FeSpace(mesh, P1P1)
    t = lambda x, y: np.stack([np.ones_like(x), 0 * x], axis=-1)
    problem = StokesProblem(f=_const_f(0.0, 0.0), t=t)
    eta_E = estimator.edge_estimator(_zero_solution(space), space, problem)
    neumann = mesh.edge_tags == 2
    assert np.allclose(eta_E[neumann], mesh.edge_lengths[neumann],
                       rtol=0, atol=1e-12)

    # u_h = (x, 0), p_h = 0 has sigma n = (1, 0) on the right side: it
    # meets t = (1, 0) exactly, and without t the misfit is |sigma n| = 1
    from stokes_stab.space import interpolate
    u, _ = interpolate(space, u=lambda x, y: np.stack([x, 0 * y], axis=-1))
    sol = DiscreteSolution(u=u, p=np.zeros(space.n_p), residual=0.0)
    eta_E = estimator.edge_estimator(sol, space, problem)
    assert np.allclose(eta_E[neumann], 0.0, atol=1e-12)
    eta_E = estimator.edge_estimator(
        sol, space, StokesProblem(f=_const_f(0.0, 0.0)))
    assert np.allclose(eta_E[neumann], mesh.edge_lengths[neumann],
                       rtol=0, atol=1e-12)


def test_edge_pass_calls_t_only_with_neumann_edges(monkeypatch):
    def no_traction(x, y):
        raise AssertionError("t evaluated without Neumann edges")

    calls = []
    gradients = estimator.velocity_gradients

    def counted(space, coefs, ref_pts):
        calls.append(np.shape(ref_pts))
        return gradients(space, coefs, ref_pts)
    monkeypatch.setattr(estimator, "velocity_gradients", counted)

    problem = StokesProblem(f=_const_f(1.0, 0.0), t=no_traction)
    for pair in (P1P1, P2P1):
        space = FeSpace(unit_square(2), pair)
        eta_E = estimator.edge_estimator(_zero_solution(space), space,
                                         problem)
        assert np.all(eta_E == 0.0)

    # a lone triangle has neither interior nor Neumann edges
    tri = type(unit_square(1))([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                               [[0, 1, 2]],
                               {(0, 1): "D", (1, 2): "D", (0, 2): "D"})
    space = FeSpace(tri, P2P1)
    eta_E = estimator.edge_estimator(_zero_solution(space), space, problem)
    assert np.array_equal(eta_E, np.zeros(3))

    # with interior and Neumann edges: one stress evaluation, on the
    # whole mesh, at the points of all three sides of every triangle
    mesh = unit_square(2, boundary={"right": "N"})
    space = FeSpace(mesh, P2P1)
    calls.clear()
    estimator.edge_estimator(_zero_solution(space), space,
                             StokesProblem(f=None))
    s, _ = forms.edge_quadrature(forms.quad_degrees(2)["volume_matrix"])
    assert calls == [(mesh.n_triangles, 3 * len(s), 2)]


def _graded_square():
    m = unit_square(4, boundary={"right": "N", "top": "N"})
    for _ in range(4):
        near = np.linalg.norm(m.corner_coords.mean(axis=1) - 1.0,
                              axis=1) < 0.4
        m = m.refine_marked(near)
    return m


@pytest.mark.parametrize("make_mesh", [
    lambda: unit_square(5, boundary={"right": "N", "bottom": "N"}),
    _graded_square])
@pytest.mark.parametrize("pair", [P1P1, P2P1])
def test_edge_estimator_matches_per_side_oracle(make_mesh, pair):
    # the whole-mesh side table gives, bit for bit, the indicators of
    # one evaluation per (edge, side), on interior and Neumann edges
    mesh = make_mesh()
    assert np.any(mesh.edge_tags == 2) and np.any(mesh.e2t[:, 1] >= 0)
    space = FeSpace(mesh, pair)
    rng = np.random.default_rng(11)
    sol = DiscreteSolution(u=rng.standard_normal(space.n_u),
                           p=rng.standard_normal(space.n_p), residual=0.0)
    t = lambda x, y: np.stack([np.sin(3 * x), x * y], axis=-1)
    for problem in (StokesProblem(f=None, t=t), StokesProblem(f=None)):
        eta_E = estimator.edge_estimator(sol, space, problem)
        assert np.array_equal(
            eta_E, edge_estimator_per_side(sol, space, problem))


def test_oscillation_vanishes_for_resolved_data():
    # f inside the velocity space projects onto itself
    space = FeSpace(unit_square(3), P1P1)
    problem = StokesProblem(
        f=lambda x, y: np.stack([x + 2 * y, 1 - y], axis=-1))
    osc_K, osc_E = estimator.oscillations(problem, space)
    assert np.max(osc_K) < 1e-12
    assert np.max(osc_E) < 1e-12


def test_oscillation_projection_flags_differ():
    # f outside the velocity space leaves a positive oscillation
    space = FeSpace(unit_square(4), P1P1)
    problem = StokesProblem(
        f=lambda x, y: np.stack([np.sin(3 * x) * np.cos(2 * y),
                                 np.cos(3 * y)], axis=-1))
    osc_K, _ = estimator.oscillations(problem, space)
    assert np.linalg.norm(osc_K) > 0


@pytest.mark.parametrize("pair", [P1P1, P2P1])
def test_traction_oscillation_polynomial_trace(pair):
    # a traction that lies in the trace space on a straight side
    # projects exactly
    k = pair.velocity_degree
    mesh = unit_square(3, boundary={"right": "N"})
    space = FeSpace(mesh, pair)

    def t(x, y):
        base = y ** k
        return np.stack([base, 1 - base], axis=-1)

    problem = StokesProblem(f=_const_f(0.0, 0.0), t=t)
    _, osc_E = estimator.oscillations(problem, space)
    assert np.max(osc_E) < 1e-12


def test_traction_oscillation_detects_rough_data():
    mesh = unit_square(3, boundary={"right": "N"})
    space = FeSpace(mesh, P1P1)
    problem = StokesProblem(
        f=_const_f(0.0, 0.0),
        t=lambda x, y: np.stack([np.sin(4 * y), 0 * x], axis=-1))
    _, osc_E = estimator.oscillations(problem, space)
    neumann = mesh.edge_tags == 2
    assert np.all(osc_E[neumann] > 0)
    assert np.allclose(osc_E[~neumann], 0.0)


def _smooth_setup(pair, n=4):
    from stokes_stab.study import get_case
    case = get_case("SMOOTH_SQUARE")
    space = FeSpace(case.make_mesh(n), pair)
    problem = case.problem()
    sol = solver.solve(assemble_system(space, problem))
    return space, problem, sol


@pytest.mark.parametrize("pair", [P1P1, P2P1])
def test_global_report_combines_squares(pair):
    space, problem, sol = _smooth_setup(pair)
    rep = estimator.global_report(sol, space, problem)
    total = np.sum(rep.eta_K ** 2) + np.sum(rep.eta_E ** 2)
    assert abs(rep.eta - np.sqrt(total)) < 1e-12
    assert rep.true_errors is not None
    e = rep.true_errors["err_H1_u"] + rep.true_errors["err_L2_p"]
    assert abs(rep.effectivity - rep.eta / e) < 1e-12
    # the residual estimator overestimates by a bounded factor
    assert 1.0 < rep.effectivity < 30.0


def test_global_report_without_exact_solution():
    space = FeSpace(unit_square(4), P1P1)
    problem = StokesProblem(f=_const_f(1.0, 0.0))
    sol = solver.solve(assemble_system(space, problem))
    rep = estimator.global_report(sol, space, problem)
    assert rep.true_errors is None
    assert rep.effectivity is None
    assert rep.eta > 0
    with pytest.raises(ValueError) as err:
        estimator.efficiency_audit(sol, space, problem, rep)
    assert str(err.value) == "efficiency_audit needs problem.exact"


@pytest.mark.parametrize("pair", [P1P1, P2P1])
def test_efficiency_audit_exact_discrete_solution(pair):
    # u = 0, p = x - 1/2, f = (1, 0): the interpolant solves the
    # discrete equations exactly, so every element is a 0/0 sentinel
    space = FeSpace(unit_square(4), pair)

    def p_exact(x, y):
        return x - 0.5

    def grad_u(x, y):
        return np.zeros(x.shape + (2, 2))

    exact = ExactSolution(u=lambda x, y: np.zeros(x.shape + (2,)),
                          grad_u=grad_u, p=p_exact)
    problem = StokesProblem(f=_const_f(1.0, 0.0), exact=exact)
    sol = solver.solve(assemble_system(space, problem))
    report = estimator.global_report(sol, space, problem)
    audit = estimator.efficiency_audit(sol, space, problem, report)
    assert audit.n_sentinel == space.mesh.n_triangles
    assert np.allclose(audit.ratios, 1.0)


def test_efficiency_audit_ratios_bounded():
    space, problem, sol = _smooth_setup(P1P1)
    report = estimator.global_report(sol, space, problem)
    audit = estimator.efficiency_audit(sol, space, problem, report)
    assert audit.n_sentinel == 0
    assert np.all(audit.ratios > 0)
    assert audit.max_ratio < 100.0
    assert audit.median_ratio < audit.max_ratio


def _direct_err2_K(sol, space, problem):
    """(ne, 2) squared strain and pressure errors of each element,
    evaluated directly from the exact fields at the error rule."""
    rule = forms.quadrature(forms.error_degree(space.pair.velocity_degree))
    w, pts = rule.weights, rule.points
    xy = physical_points(space.mesh, pts)
    x, y = xy[..., 0], xy[..., 1]
    val, _ = scalar_basis(1, pts)
    ph = (val * space.local_pressure_coefs(sol.p)[:, None]).sum(-1)
    eg = velocity_gradients(space, sol.u, pts) - problem.exact.grad_u(x, y)
    ep = ph - problem.exact.p(x, y)
    scale = 2.0 * space.mesh.areas
    return np.column_stack([scale * (strain_squared(eg) @ w),
                            scale * np.einsum("q,eq,eq->e", w, ep, ep)])


@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
def test_audit_reads_the_errors_of_the_report(pair):
    # the per-element errors functional_norms hands to the report are
    # those of the direct formula, and so are the audit ratios
    space, problem, sol = _smooth_setup(pair)
    report = estimator.global_report(sol, space, problem)
    direct = _direct_err2_K(sol, space, problem)
    assert report.err2_K.shape == (space.mesh.n_triangles, 2)
    assert np.allclose(report.err2_K, direct, rtol=1e-13, atol=0)
    ratios = estimator.efficiency_audit(sol, space, problem, report).ratios
    old = estimator.efficiency_audit(
        sol, space, problem, dataclasses.replace(report, err2_K=direct))
    assert np.allclose(ratios, old.ratios, rtol=1e-13, atol=0)
    norms = report.true_errors
    assert np.isclose(norms["err_D_u"], np.sqrt(direct[:, 0].sum()),
                      rtol=1e-13, atol=0)
    assert np.isclose(norms["err_L2_p"], np.sqrt(direct[:, 1].sum()),
                      rtol=1e-13, atol=0)
