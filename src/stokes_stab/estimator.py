"""Residual a posteriori error estimation.

Element indicator:   eta_K^2 = h_K^2 ||div D(u_h) - grad p_h + f||_K^2
                               + ||div u_h - g||_K^2
Edge indicator:      eta_E^2 = h_E ||[[(D(u_h) - p_h I) n]]||_E^2   (interior)
                               h_E ||(D(u_h) - p_h I) n - t||_E^2   (Neumann)
Global estimator:    eta^2 = sum eta_K^2 + sum eta_E^2.

Dirichlet edges carry no indicator. The jump [[sigma n]] is the
difference of the two one-sided normal tractions taken with one common
unit normal of the edge; it flips sign when the two elements swap
roles, so eta_E does not depend on the ordering.

Oscillation terms measure data resolution: osc_K(f) = h_K ||f - f_h||_K
with f_h the global L2-projection of f onto the velocity space and
osc_E(t) = h_E^{1/2} ||t - t_h||_E with t_h projected onto the
boundary trace space. Both projections, mass matrix included, use the
error rule (forms.error_degree) and one projection-misfit routine.

f and g are read at quadrature points through forms.rule_values,
which evaluates each once per space and rule. The exact fields are
read once per level, by solver.functional_norms, which hands the
per-element errors the efficiency audit needs to the ErrorReport.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import forms, solver
from .mesh import INTERIOR, NEUMANN
from .space import (edge_points, edge_reference_points, element_residual,
                    pressure_values, scalar_basis, strain_squared,
                    velocity_gradients)


@dataclass
class ErrorReport:
    """All estimator components of one solve.

    eta_K and eta_E are per-element / per-edge indicator values (not
    squared); osc_K_f and osc_E_t likewise. eta, osc_f, osc_t are the
    global square-sum aggregates. true_errors, err2_K and effectivity
    (eta / (||e_u||_1 + ||e_p||_0), NaN where that sum is 0) are
    present when the problem carries an exact solution. err2_K is the
    (ne, 2) array of squared strain and pressure errors of each
    element, ||D(u - u_h)||_K^2 and ||p - p_h||_K^2, from
    solver.functional_norms; the report owns them.
    """

    eta_K: np.ndarray
    eta_E: np.ndarray
    osc_K_f: np.ndarray
    osc_E_t: np.ndarray
    eta: float
    osc_f: float
    osc_t: float
    true_errors: dict = None
    err2_K: np.ndarray = None
    effectivity: float = None


def element_estimator(solution, space, problem):
    """Element residual indicators eta_K of all elements."""
    rule = forms.volume_rule(space, "volume_load")
    w = rule.weights
    mesh = space.mesh

    res = forms.rule_values(space, rule.degree, problem.f) \
        - element_residual(space, solution.u, solution.p)[:, None, :]
    mom = np.einsum("q,eqc,eqc->e", w, res, res)

    G = velocity_gradients(space, solution.u, rule.points)
    div = G[..., 0, 0] + G[..., 1, 1]
    if problem.g is not None:
        div = div - forms.rule_values(space, rule.degree, problem.g)
    mass = np.einsum("q,eq,eq->e", w, div, div)

    scale = 2.0 * mesh.areas
    eta2 = mesh.diameters ** 2 * scale * mom + scale * mass
    return np.sqrt(eta2)


def _edge_side_stress(solution, space, elems, edge_ids, s):
    """Stress sigma = D(u_h) - p_h I at edge points, seen from `elems`.

    s are edge parameters in [0,1]; points run from the edge's first
    to second vertex. Returns (ne, nq, 2, 2).
    """
    ref = edge_reference_points(space.mesh, elems, edge_ids, s)
    G = velocity_gradients(space, solution.u, ref, elems)
    D = 0.5 * (G + G.transpose(0, 1, 3, 2))
    pv = pressure_values(space, solution.p, ref, elems)
    return D - pv[..., None, None] * np.eye(2)


def _edge_normals(mesh, edge_ids):
    """Unit normals, oriented away from the first incident element."""
    ends = mesh.edges[edge_ids]
    d = mesh.vertices[ends[:, 1]] - mesh.vertices[ends[:, 0]]
    n = np.column_stack([d[:, 1], -d[:, 0]])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    first = mesh.e2t[edge_ids, 0]
    cent = mesh.corner_coords[first].mean(axis=1)
    mid = 0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])
    flip = np.einsum("md,md->m", mid - cent, n) < 0
    n[flip] *= -1.0
    return n


def edge_estimator(solution, space, problem):
    """Edge traction indicators eta_E of all edges.

    Interior edges measure the jump of the normal stress across the
    edge, Neumann edges the defect against the prescribed traction,
    Dirichlet edges are zero. One pass serves both kinds: the stress
    seen from the first element, minus that from the second on
    interior edges, times the normal, minus t on Neumann edges.
    """
    mesh = space.mesh
    # |sigma n|^2, like the matrix, is a product of two derivatives
    s, w = forms.edge_quadrature(
        forms.quad_degrees(space.pair.velocity_degree)["volume_matrix"])
    eta = np.zeros(mesh.n_edges)

    interior = (mesh.edge_tags == INTERIOR) & (mesh.e2t[:, 1] >= 0)
    edges = np.flatnonzero(interior | (mesh.edge_tags == NEUMANN))
    inner = interior[edges]
    sig = _edge_side_stress(solution, space, mesh.e2t[edges, 0], edges, s)
    both = edges[inner]
    sig[inner] -= _edge_side_stress(solution, space, mesh.e2t[both, 1],
                                    both, s)
    flux = np.einsum("mqcb,mb->mqc", sig, _edge_normals(mesh, edges))
    if problem.t is not None and not inner.all():
        xy = edge_points(mesh, edges[~inner], s)
        flux[~inner] -= np.asarray(problem.t(xy[..., 0], xy[..., 1]),
                                   dtype=float)
    val = np.einsum("q,mqc,mqc->m", w, flux, flux)
    eta[edges] = mesh.edge_lengths[edges] * np.sqrt(val)
    return eta


# ----------------------------------------------------------------------
# oscillations

def _projection_misfit(val, w, measure, cells, dv):
    """Each cell's measure * sum_q w_q |d - d_h|^2.

    dv holds the (ncell, nq, 2) values of data d at the rule's points,
    val the (nq, nbf) reference basis values there, w the weights, and
    cells the nodes 0..n-1 of each cell's basis functions, all in use;
    d_h is the global L2-projection of d onto the space they span, its
    mass matrix solved by solver.mass_solve.
    """
    nn = cells.max() + 1
    m = measure[:, None, None]
    wval = w[:, None] * val
    M = forms._scatter_matrix(cells, cells, (wval.T @ val) * m, (nn, nn))
    dh = solver.mass_solve(M, forms.scatter_add(cells, (wval.T @ dv) * m, nn))
    diff = dv - val @ dh[cells]
    return measure * np.einsum("q,eqc,eqc->e", w, diff, diff)


def oscillations(problem, space):
    """Data oscillation terms (osc_K(f) per element, osc_E(t) per edge,
    zero off the Neumann edges)."""
    k = space.pair.velocity_degree
    rule = forms.quadrature(forms.error_degree(k))
    mesh = space.mesh
    val, _ = scalar_basis(k, rule.points)
    osc_K = mesh.diameters * np.sqrt(_projection_misfit(
        val, rule.weights, 2.0 * mesh.areas, space.elem_nodes,
        forms.rule_values(space, rule.degree, problem.f)))

    osc_E = np.zeros(mesh.n_edges)
    neumann = np.flatnonzero(mesh.edge_tags == NEUMANN)
    if len(neumann) and problem.t is not None:
        # trace space: P1 or P2 on each edge, nodes local to the trace
        s, w = forms.edge_quadrature(rule.degree)
        if k == 1:
            tval = np.stack([1.0 - s, s], axis=1)
            enodes = mesh.edges[neumann]
        else:
            tval = np.stack([(1 - s) * (1 - 2 * s), s * (2 * s - 1),
                             4 * s * (1 - s)], axis=1)
            enodes = np.column_stack([mesh.edges[neumann],
                                      mesh.n_vertices + neumann])
        _, local = np.unique(enodes, return_inverse=True)
        L = mesh.edge_lengths[neumann]
        xy = edge_points(mesh, neumann, s)
        tv = np.asarray(problem.t(xy[..., 0], xy[..., 1]), dtype=float)
        osc_E[neumann] = np.sqrt(L) * np.sqrt(_projection_misfit(
            tval, w, L, local.reshape(enodes.shape), tv))
    return osc_K, osc_E


# ----------------------------------------------------------------------
# aggregation

def global_report(solution, space, problem):
    """Assemble the full ErrorReport for one solved problem.

    Where the problem has an exact solution, the heap is trimmed
    between the oscillations and the error norms, so the exact fields'
    arrays do not come on top of the estimator's freed pages: without
    the trim, the P1P1 benchmark study peaks about 4 MB higher
    (solver._release_free_heap). A problem without one makes no trim.
    """
    eta_K = element_estimator(solution, space, problem)
    eta_E = edge_estimator(solution, space, problem)
    osc_K, osc_E = oscillations(problem, space)
    eta = float(np.sqrt(np.sum(eta_K ** 2) + np.sum(eta_E ** 2)))
    osc_f = float(np.sqrt(np.sum(osc_K ** 2)))
    osc_t = float(np.sqrt(np.sum(osc_E ** 2)))

    true_errors = err2_K = effectivity = None
    if problem.exact is not None:
        # the estimator's freed pages, before the exact fields' arrays
        solver._release_free_heap()
        true_errors, err2_K = solver.functional_norms(
            space, solution, problem.exact, elementwise=True)
        combined = solver.combined_error(true_errors)
        effectivity = eta / combined if combined > 0 else math.nan
    return ErrorReport(eta_K=eta_K, eta_E=eta_E, osc_K_f=osc_K,
                       osc_E_t=osc_E, eta=eta, osc_f=osc_f, osc_t=osc_t,
                       true_errors=true_errors, err2_K=err2_K,
                       effectivity=effectivity)


@dataclass
class EfficiencyAudit:
    """Per-element efficiency ratios eta_K / local error + oscillation."""

    ratios: np.ndarray
    max_ratio: float
    median_ratio: float
    n_sentinel: int


def efficiency_audit(solution, space, problem, report):
    """Ratio of each element indicator to the local true error.

    The denominator collects the velocity strain error and pressure
    error over the patch of K and its edge neighbors, plus the local
    oscillation terms. Elements where both sides vanish (exact-in-space
    solutions) are reported with the unit sentinel 1.0. The errors,
    eta_K and the oscillations are read from report, the level's
    global_report: the squared errors per element are report.err2_K,
    built by solver.functional_norms, so the audit evaluates no exact
    field. It reads the discrete solution only for the size of its
    0/0 guard.
    """
    if problem.exact is None or report.err2_K is None:
        raise ValueError("efficiency_audit needs problem.exact")
    rule = forms.quadrature(forms.error_degree(space.pair.velocity_degree))
    w, pts = rule.weights, rule.points
    mesh = space.mesh
    scale_el = 2.0 * mesh.areas

    # element patch: self plus edge neighbors
    nt = mesh.n_triangles
    flat = mesh.e2t[mesh.t2e].reshape(nt, -1)            # (nt, 6)
    own_id = np.arange(nt)[:, None]
    take = (flat >= 0) & (flat != own_id)
    # columns: strain error, pressure error, oscillation, all squared
    own = np.column_stack([report.err2_K, report.osc_K_f ** 2])
    patch = own.copy()
    for col in range(flat.shape[1]):
        patch += np.where(take[:, col, None], own[flat[:, col]], 0.0)

    osc_t2 = np.zeros(nt)
    for e in mesh.t2e.T:
        osc_t2 += report.osc_E_t[e] ** 2

    root = np.sqrt(patch)
    denom = root[:, 0] + root[:, 1] + root[:, 2] + np.sqrt(osc_t2)

    # 0/0 guard is relative to the size of the discrete solution itself
    Gh = velocity_gradients(space, solution.u, pts)
    ph = pressure_values(space, solution.p, pts)
    scale = float(
        np.sqrt((scale_el * (strain_squared(Gh) @ w)).sum())
        + np.sqrt((scale_el * np.einsum("q,eq,eq->e", w, ph, ph)).sum()))
    tiny = 1e-9 * max(scale, 1e-30)
    sentinel = (report.eta_K <= tiny) & (denom <= tiny)
    ratios = np.where(sentinel, 1.0, report.eta_K / np.maximum(denom, 1e-300))
    return EfficiencyAudit(
        ratios=ratios,
        max_ratio=float(ratios.max()),
        median_ratio=float(np.median(ratios)),
        n_sentinel=int(sentinel.sum()),
    )
