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
boundary trace space.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from . import forms, solver
from .mesh import INTERIOR, NEUMANN
from .space import (edge_points, edge_reference_points, element_residual,
                    physical_points, pressure_values, scalar_basis,
                    velocity_gradients)


@dataclass
class ErrorReport:
    """All estimator components of one solve.

    eta_K and eta_E are per-element / per-edge indicator values (not
    squared); osc_K_f and osc_E_t likewise. eta, osc_f, osc_t are the
    global square-sum aggregates. true_errors and effectivity
    (eta / (||e_u||_1 + ||e_p||_0)) are present when the problem
    carries an exact solution.
    """

    eta_K: np.ndarray
    eta_E: np.ndarray
    osc_K_f: np.ndarray
    osc_E_t: np.ndarray
    eta: float
    osc_f: float
    osc_t: float
    true_errors: dict = None
    effectivity: float = None


def element_estimator(solution, space, problem):
    """Element residual indicators eta_K of all elements."""
    w, pts = forms.volume_rule(space, "volume_load")
    mesh = space.mesh

    xy = physical_points(mesh, pts)
    x, y = xy[..., 0], xy[..., 1]
    res = np.asarray(problem.f(x, y), dtype=float) \
        - element_residual(space, solution.u, solution.p)[:, None, :]
    mom = np.einsum("q,eqc,eqc->e", w, res, res)

    G = velocity_gradients(space, solution.u, pts)
    div = G[..., 0, 0] + G[..., 1, 1]
    if problem.g is not None:
        div = div - np.asarray(problem.g(x, y), dtype=float)
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
    Dirichlet edges are zero.
    """
    mesh = space.mesh
    # |sigma n|^2, like the matrix, is a product of two derivatives
    s, w = forms.edge_quadrature(
        forms.quad_degrees(space.pair.velocity_degree)["volume_matrix"])
    eta = np.zeros(mesh.n_edges)

    interior = np.flatnonzero((mesh.edge_tags == INTERIOR)
                              & (mesh.e2t[:, 1] >= 0))
    if len(interior):
        n = _edge_normals(mesh, interior)
        s0 = _edge_side_stress(solution, space, mesh.e2t[interior, 0],
                               interior, s)
        s1 = _edge_side_stress(solution, space, mesh.e2t[interior, 1],
                               interior, s)
        jump = np.einsum("mqcb,mb->mqc", s0 - s1, n)
        val = np.einsum("q,mqc,mqc->m", w, jump, jump)
        eta[interior] = mesh.edge_lengths[interior] * np.sqrt(val)

    neumann = np.flatnonzero(mesh.edge_tags == NEUMANN)
    if len(neumann):
        n = _edge_normals(mesh, neumann)
        sig = _edge_side_stress(solution, space, mesh.e2t[neumann, 0],
                                neumann, s)
        flux = np.einsum("mqcb,mb->mqc", sig, n)
        if problem.t is not None:
            xy = edge_points(mesh, neumann, s)
            flux = flux - np.asarray(problem.t(xy[..., 0], xy[..., 1]),
                                     dtype=float)
        val = np.einsum("q,mqc,mqc->m", w, flux, flux)
        eta[neumann] = mesh.edge_lengths[neumann] * np.sqrt(val)

    return eta


# ----------------------------------------------------------------------
# oscillations

def _project_f_global(space, fv, rule):
    """Nodal coefficients of the global L2-projection onto V_h of f,
    given by its values fv at the points of rule on every element."""
    M = forms.velocity_scalar_mass(space)
    val, _, _ = scalar_basis(space.pair.velocity_degree, rule.points)
    loc = np.einsum("q,eqc,qi->eic", rule.weights, fv, val) \
        * (2.0 * space.mesh.areas)[:, None, None]
    b = forms.scatter_add(space.elem_nodes, loc, space.n_nodes)
    return splu(M.tocsc()).solve(b)


def oscillations(problem, space):
    """Data oscillation terms (osc_K(f) per element, osc_E(t) per edge)."""
    k = space.pair.velocity_degree
    rule = forms.quadrature(forms.error_degree(k))
    w, pts = rule.weights, rule.points
    mesh = space.mesh

    xy = physical_points(mesh, pts)
    fv = np.asarray(problem.f(xy[..., 0], xy[..., 1]), dtype=float)
    fh_nodes = _project_f_global(space, fv, rule)
    val, _, _ = scalar_basis(k, pts)
    fh = np.einsum("qi,eic->eqc", val, fh_nodes[space.elem_nodes])
    diff = fv - fh
    osc_K = mesh.diameters * np.sqrt(
        2.0 * mesh.areas * np.einsum("q,eqc,eqc->e", w, diff, diff))

    osc_E = np.zeros(mesh.n_edges)
    neumann = np.flatnonzero(mesh.edge_tags == NEUMANN)
    if len(neumann) and problem.t is not None:
        osc_E[neumann] = _trace_oscillation(space, problem, neumann)
    return osc_K, osc_E


def _trace_oscillation(space, problem, neumann):
    """osc_E(t) on the Neumann edges via trace-space L2 projection."""
    mesh = space.mesh
    k = space.pair.velocity_degree
    s, w = forms.edge_quadrature(forms.error_degree(k))

    if k == 1:
        tval = np.stack([1.0 - s, s], axis=1)                 # (nq, 2)
        enodes = mesh.edges[neumann]
    else:
        tval = np.stack([(1 - s) * (1 - 2 * s), s * (2 * s - 1),
                         4 * s * (1 - s)], axis=1)
        enodes = np.column_stack([mesh.edges[neumann],
                                  mesh.n_vertices + neumann])

    nodes, local = np.unique(enodes, return_inverse=True)
    local = local.reshape(enodes.shape)
    nn = len(nodes)
    L = mesh.edge_lengths[neumann]

    Mloc = np.einsum("qi,qj,q->ij", tval, tval, w)
    M = forms._scatter_matrix(local, local, Mloc[None] * L[:, None, None],
                              (nn, nn))

    xy = edge_points(mesh, neumann, s)
    tv = np.asarray(problem.t(xy[..., 0], xy[..., 1]), dtype=float)
    loc = np.einsum("q,eqc,qi->eic", w, tv, tval) * L[:, None, None]
    rhs = forms.scatter_add(local, loc, nn)

    th_nodes = splu(M.tocsc()).solve(rhs)
    th = np.einsum("qi,eic->eqc", tval, th_nodes[local])
    diff = tv - th
    return np.sqrt(L) * np.sqrt(
        L * np.einsum("q,eqc,eqc->e", w, diff, diff))


# ----------------------------------------------------------------------
# aggregation

def global_report(solution, space, problem):
    """Assemble the full ErrorReport for one solved problem."""
    eta_K = element_estimator(solution, space, problem)
    eta_E = edge_estimator(solution, space, problem)
    osc_K, osc_E = oscillations(problem, space)
    eta = float(np.sqrt(np.sum(eta_K ** 2) + np.sum(eta_E ** 2)))
    osc_f = float(np.sqrt(np.sum(osc_K ** 2)))
    osc_t = float(np.sqrt(np.sum(osc_E ** 2)))

    true_errors = effectivity = None
    if problem.exact is not None:
        true_errors = solver.functional_norms(space, solution, problem.exact)
        effectivity = eta / solver.combined_error(true_errors)
    return ErrorReport(eta_K=eta_K, eta_E=eta_E, osc_K_f=osc_K,
                       osc_E_t=osc_E, eta=eta, osc_f=osc_f, osc_t=osc_t,
                       true_errors=true_errors, effectivity=effectivity)


@dataclass
class EfficiencyAudit:
    """Per-element efficiency ratios eta_K / local error + oscillation."""

    ratios: np.ndarray
    max_ratio: float
    median_ratio: float
    n_sentinel: int


def efficiency_audit(solution, space, problem):
    """Ratio of each element indicator to the local true error.

    The denominator collects the velocity strain error and pressure
    error over the patch of K and its edge neighbors, plus the local
    oscillation terms. Elements where both sides vanish (exact-in-space
    solutions) are reported with the unit sentinel 1.0.
    """
    if problem.exact is None:
        raise ValueError("efficiency_audit needs problem.exact")
    rule = forms.quadrature(forms.error_degree(space.pair.velocity_degree))
    w, pts = rule.weights, rule.points
    mesh = space.mesh
    scale_el = 2.0 * mesh.areas

    xy = physical_points(mesh, pts)
    x, y = xy[..., 0], xy[..., 1]
    Gh = velocity_gradients(space, solution.u, pts)
    eg = Gh - np.asarray(problem.exact.grad_u(x, y))
    D = 0.5 * (eg + eg.transpose(0, 1, 3, 2))
    d2 = scale_el * np.einsum("q,eqcb,eqcb->e", w, D, D)
    ep = pressure_values(space, solution.p, pts) \
        - np.asarray(problem.exact.p(x, y))
    p2 = scale_el * np.einsum("q,eq,eq->e", w, ep, ep)

    eta_K = element_estimator(solution, space, problem)
    osc_K, osc_E = oscillations(problem, space)

    # element patch: self plus edge neighbors
    flat = mesh.e2t[mesh.t2e].reshape(len(d2), -1)       # (nt, 6)
    own_id = np.arange(len(d2))[:, None]
    take = (flat >= 0) & (flat != own_id)
    patch_d2 = d2.copy()
    patch_p2 = p2.copy()
    patch_o2 = osc_K ** 2
    for col in range(flat.shape[1]):
        sel = take[:, col]
        idx = flat[sel, col]
        patch_d2[sel] += d2[idx]
        patch_p2[sel] += p2[idx]
        patch_o2[sel] += osc_K[idx] ** 2

    osc_t2 = np.zeros(len(d2))
    for i in range(3):
        e = mesh.t2e[:, i]
        osc_t2 += np.where(mesh.edge_tags[e] == NEUMANN, osc_E[e] ** 2, 0.0)

    denom = np.sqrt(patch_d2) + np.sqrt(patch_p2) \
        + np.sqrt(patch_o2) + np.sqrt(osc_t2)

    # 0/0 guard is relative to the size of the discrete solution itself
    Dh = 0.5 * (Gh + Gh.transpose(0, 1, 3, 2))
    ph = pressure_values(space, solution.p, pts)
    scale = float(
        np.sqrt((scale_el * np.einsum("q,eqcb,eqcb->e", w, Dh, Dh)).sum())
        + np.sqrt((scale_el * np.einsum("q,eq,eq->e", w, ph, ph)).sum()))
    tiny = 1e-9 * max(scale, 1e-30)
    sentinel = (eta_K <= tiny) & (denom <= tiny)
    ratios = np.where(sentinel, 1.0,
                      eta_K / np.maximum(denom, 1e-300))
    return EfficiencyAudit(
        ratios=ratios,
        max_ratio=float(ratios.max()),
        median_ratio=float(np.median(ratios)),
        n_sentinel=int(sentinel.sum()),
    )
