"""Whole-mesh assembly oracles that only the tests call.

AssembledSystem.matrix scatters the saddle matrix from the class
tables, and only into its elimination order. The forms below build the
blocks of the unstabilized and the stabilized operator (assemble_B,
assemble_Sh) in plain dof numbering, and whole_mesh_scatter, the
one-product matrix scatter of per-element matrices, is the reference
that forms._scatter_matrix must reproduce bit for bit. solver.solve
never builds that matrix: element_fronts assembles, factors and updates
every front from the element input on its own, as the stored factor of
the front classes must reproduce bit for bit. The element kernels of
src/ build one matrix per shape class; the oracles build every
element's own, on _per_element_copy of the mesh.
estimator.edge_estimator reads every edge from one whole-mesh table of
side stresses; edge_estimator_per_side evaluates each (edge, side) pair
on its own. space._phys_hess reads the P2 reference Hessians off the
gradient tables; p2_hessians_by_hand writes them out from the closed
form of the basis.
"""

import copy

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs

from stokes_stab import forms
from stokes_stab.mesh import INTERIOR, NEUMANN, REF_VERTICES, TriMesh
from stokes_stab.space import (FeSpace, edge_points, pressure_values,
                               velocity_gradients)


def _per_element_copy(mesh):
    """The same mesh with every element its own shape class, so every
    kernel is built on every element: the per-element reference."""
    ref = TriMesh(mesh.vertices, mesh.triangles, mesh.boundary_tag_dict())
    every = np.arange(mesh.n_triangles)
    ref.__dict__.update(shape_classes=every, shape_representatives=every)
    return ref


def whole_mesh_scatter(rows, cols, vals, shape):
    """CSR sum of element matrices: out[rows[e, i], cols[e, j]] +=
    vals[e, i, j], as one product P @ L over the whole mesh.

    P is the 0/1 map from element rows (e, i) to global rows and L the
    matrix whose rows are the element rows, so each entry sums term by
    term in element order. Entries that sum to exactly zero are not
    stored.
    """
    ne, a, b = vals.shape
    m = ne * a
    P = sp.csc_matrix((np.ones(m), np.ravel(rows), np.arange(m + 1)),
                      shape=(shape[0], m))
    c = np.broadcast_to(cols[:, None, :], vals.shape).ravel()
    L = sp.csr_matrix((vals.ravel(), c, np.arange(0, m * b + 1, b)),
                      shape=(m, shape[1]))
    out = P.tocsr() @ L
    out.sort_indices()
    return out


def saddle_matrix(space, alpha, bordered):
    """The saddle matrix of forms.assemble_system, gathered for the
    whole mesh and scattered in one product.

    Every element matrix is gathered from its shape class's, its
    pressure and border rows and columns are scaled by
    forms.pressure_scale_of, its Dirichlet rows and columns are zeroed
    and sent to the element's first pressure dof, and the transposes
    are summed, so the CSR sum read as CSC is the matrix.
    """
    free = np.concatenate([space.free_velocity_dofs,
                           space.n_u + np.arange(space.n_p)])
    rows, _ = forms._saddle_order(space, free, bordered)
    dofs, T = forms._saddle_local(space, alpha, bordered)
    T = T[space.mesh.shape_classes]
    nv = 2 * space.n_basis
    sigma = forms.pressure_scale_of(space.mesh)
    T[:, nv:] *= sigma
    T[:, :, nv:] *= sigma
    idx = rows[dofs]
    dirichlet = idx < 0
    T[dirichlet] = 0.0
    T.transpose(0, 2, 1)[dirichlet] = 0.0
    idx[dirichlet] = np.broadcast_to(idx[:, nv, None], idx.shape)[dirichlet]
    n = len(free) + bordered
    t = whole_mesh_scatter(idx, idx, T, (n, n))
    return sp.csc_matrix((t.data, t.indices, t.indptr), shape=(n, n))


def element_fronts(system, structure):
    """Every group's front of an AssembledSystem, assembled, factored
    and updated on its own, front classes ignored.

    Each element goes to the group of its first row, found by a search
    of the groups; its matrix (its class's table entry, transposed) is
    added at its rows' positions in the group's front one element at a
    time in element order, its Dirichlet rows and columns left out, and
    the children's updates follow, each at its rel positions. Yields,
    per group in order, (F, lu, piv, W): the assembled front, getrf's
    LU and pivots of its own block F11, W = F11^-1 F21^T; the update
    F22 - F21 W goes to the parent.
    """
    n = len(system.rhs)
    groups = system.groups
    ends = np.append(groups[1:], n)
    er = system.element_rows
    owner = np.searchsorted(groups, np.where(er < 0, n, er).min(axis=1),
                            side="right") - 1
    updates = {}
    for g, (start, end) in enumerate(zip(groups, ends)):
        f = structure.fronts[g]
        k = end - start
        F = np.zeros((len(f), len(f)))
        for e in np.flatnonzero(owner == g):
            keep = er[e] >= 0
            at = np.searchsorted(f, er[e][keep])
            assert np.array_equal(f[at], er[e][keep])
            F[np.ix_(at, at)] += system.table[system.classes[e]].T[
                np.ix_(keep, keep)]
        for c in structure.kids[g]:
            F[np.ix_(structure.rel[c], structure.rel[c])] += updates.pop(c)
        lu, piv, info = dgetrf(F[:k, :k])
        assert info == 0
        W = dgetrs(lu, piv, F[k:, :k].T)[0]
        updates[g] = F[k:, k:] - F[k:, :k] @ W
        yield F, lu, piv, W
    assert not updates or list(updates) == [len(groups) - 1]


def assemble_B(space):
    """Mixed Stokes form blocks (A_uu, A_up).

    A_uu[a, b] = (D(phi_b), D(phi_a)); A_up[a, l] = -(div phi_a, psi_l).
    The full unstabilized matrix is [[A_uu, A_up], [A_up^T, 0]].
    """
    ref = FeSpace(_per_element_copy(space.mesh), space.pair)
    vd = ref.element_dofs[:, :2 * ref.n_basis]
    A_uu = whole_mesh_scatter(vd, vd, forms._strain_local(ref),
                              (space.n_u, space.n_u))
    A_up = whole_mesh_scatter(vd, space.mesh.triangles,
                              forms._divergence_local(ref),
                              (space.n_u, space.n_p))
    return A_uu, A_up


def assemble_Sh(space):
    """Element-residual stabilization matrix on velocity+pressure dofs.

    S[(v,q),(w,r)] = sum_K h_K^2 (-div D(w) + grad r,
                                  -div D(v) + grad q)_K,
    returned as one symmetric (n_u + n_p) square matrix.
    """
    ref = FeSpace(_per_element_copy(space.mesh), space.pair)
    dofs = ref.residual_dofs
    n = space.n_dofs
    return whole_mesh_scatter(dofs, dofs, forms._residual_local(ref),
                              (n, n))


def _restricted(space, elems):
    """A copy of space whose triangles are space's triangles elems, in
    that order, repeats allowed, as space.py's field evaluations read
    them."""
    mesh = copy.copy(space.mesh)
    mesh.triangles = space.mesh.triangles[elems]
    mesh.__dict__["inv_jacobians_t"] = space.mesh.inv_jacobians_t[elems]
    sub = copy.copy(space)
    sub.mesh = mesh
    sub.elem_nodes = space.elem_nodes[elems]
    return sub


def edge_estimator_per_side(solution, space, problem):
    """estimator.edge_estimator, one stress evaluation per (edge, side).

    The reference points of each edge in each of its triangles come from
    a search of the triangle's corners for the edge's ends, the stress
    is evaluated on the first triangles of the interior and Neumann
    edges and on the second triangles of the interior ones, and each
    normal is turned away from the centroid of the edge's first
    triangle.
    """
    mesh = space.mesh
    s, w = forms.edge_quadrature(
        forms.quad_degrees(space.pair.velocity_degree)["volume_matrix"])
    eta = np.zeros(mesh.n_edges)

    def side_stress(elems, edge_ids):
        tri = mesh.triangles[elems]
        ends = mesh.edges[edge_ids]
        loc_a = np.argmax(tri == ends[:, 0][:, None], axis=1)
        loc_b = np.argmax(tri == ends[:, 1][:, None], axis=1)
        ref = (REF_VERTICES[loc_a][:, None, :] * (1.0 - s)[None, :, None]
               + REF_VERTICES[loc_b][:, None, :] * s[None, :, None])
        sub = _restricted(space, elems)
        G = velocity_gradients(sub, solution.u, ref)
        D = 0.5 * (G + G.transpose(0, 1, 3, 2))
        pv = pressure_values(sub, solution.p, ref)
        return D - pv[..., None, None] * np.eye(2)

    interior = (mesh.edge_tags == INTERIOR) & (mesh.e2t[:, 1] >= 0)
    edges = np.flatnonzero(interior | (mesh.edge_tags == NEUMANN))
    inner = interior[edges]
    first = mesh.e2t[edges, 0]
    sig = side_stress(first, edges)
    both = edges[inner]
    sig[inner] -= side_stress(mesh.e2t[both, 1], both)

    ends = mesh.edges[edges]
    d = mesh.vertices[ends[:, 1]] - mesh.vertices[ends[:, 0]]
    n = np.column_stack([d[:, 1], -d[:, 0]])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    cent = mesh.corner_coords[first].mean(axis=1)
    mid = 0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])
    n[np.einsum("md,md->m", mid - cent, n) < 0] *= -1.0

    flux = np.einsum("mqcb,mb->mqc", sig, n)
    if problem.t is not None and not inner.all():
        xy = edge_points(mesh, edges[~inner], s)
        flux[~inner] -= np.asarray(problem.t(xy[..., 0], xy[..., 1]),
                                   dtype=float)
    val = np.einsum("q,mqc,mqc->m", w, flux, flux)
    eta[edges] = mesh.edge_lengths[edges] * np.sqrt(val)
    return eta


def p2_hessians_by_hand(space):
    """space._phys_hess from the closed form of the P2 basis.

    Corner i is l_i (2 l_i - 1) and midpoint 3+i is 4 l_j l_k. With a,
    b the gradients of (l_i, l_i) and (l_j, l_k), the reference
    Hessians are 4 a b^T on the corners and 4 (a b^T + b a^T) on the
    midpoints, pulled back on the shape representatives by the same
    product as _phys_hess's.
    """
    it = space.mesh.inv_jacobians_t[space.mesh.shape_representatives]
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    a, b = dlam[[0, 1, 2, 1, 2, 0]], dlam[[0, 1, 2, 2, 0, 1]]
    href = 4.0 * (a[:, :, None] * b[:, None, :]
                  + b[:, :, None] * a[:, None, :])
    href[:3] /= 2.0
    # H[e, i, c, d] = sum_ab it[e, c, a] it[e, d, b] href[i, a, b]
    geo = it[:, :, None, :, None] * it[:, None, :, None, :]
    H = geo.reshape(-1, 4) @ href.reshape(-1, 4).T
    return H.reshape(len(it), 2, 2, -1).transpose(0, 3, 1, 2)
