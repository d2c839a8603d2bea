"""Finite element spaces on triangle meshes.

Velocity is vector-valued continuous Lagrange of degree 1 or 2,
pressure is continuous piecewise linear. Velocity degrees of freedom
are interleaved (node 0 x, node 0 y, node 1 x, ...) and come before the
pressure block in the global ordering.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import DIRICHLET, REF_VERTICES


class SpaceError(Exception):
    pass


@dataclass(frozen=True)
class ElementPair:
    """Velocity degree of a pair with P1 pressure: P1P1 or P2P1."""

    velocity_degree: int

    def __post_init__(self):
        if self.velocity_degree not in (1, 2):
            raise SpaceError(
                f"velocity degree must be 1 or 2, got {self.velocity_degree}")

    @property
    def label(self):
        return f"P{self.velocity_degree}P1"

    @staticmethod
    def from_label(label):
        if label == "P1P1":
            return P1P1
        if label == "P2P1":
            return P2P1
        raise SpaceError(f"unknown element pair {label!r}; "
                         "expected P1P1 or P2P1")


P1P1 = ElementPair(1)
P2P1 = ElementPair(2)


_DLAM = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def scalar_basis(degree, pts):
    """Reference-triangle Lagrange basis at pts (..., 2).

    Returns (values, gradients) with shapes (..., nbf) and
    (..., nbf, 2), the constant degree-1 gradients as a read-only
    broadcast. Basis order: the three corner functions, then for
    degree 2 the midpoint function of the edge opposite each corner.
    """
    pts = np.asarray(pts, dtype=float)
    x = pts[..., 0]
    y = pts[..., 1]
    lam = np.stack([1.0 - x - y, x, y], axis=-1)
    base = pts.shape[:-1]

    if degree == 1:
        return lam, np.broadcast_to(_DLAM, base + (3, 2))

    if degree == 2:
        val = np.empty(base + (6,))
        grad = np.empty(base + (6, 2))
        for i in range(3):
            li = lam[..., i]
            val[..., i] = li * (2.0 * li - 1.0)
            grad[..., i, :] = (4.0 * li - 1.0)[..., None] * _DLAM[i]
            j, k = (i + 1) % 3, (i + 2) % 3
            val[..., 3 + i] = 4.0 * lam[..., j] * lam[..., k]
            grad[..., 3 + i, :] = 4.0 * (lam[..., k][..., None] * _DLAM[j]
                                         + lam[..., j][..., None] * _DLAM[k])
        return val, grad

    raise SpaceError(f"unsupported basis degree {degree}")


class FeSpace:
    """Velocity/pressure space pair on a mesh.

    Velocity dof 2*s+c is component c at scalar node s; scalar nodes
    are the mesh vertices, followed for P2 by one node per edge.
    Pressure dof j (offset by n_u globally) sits at vertex j.
    """

    def __init__(self, mesh, pair):
        if isinstance(pair, str):
            pair = ElementPair.from_label(pair)
        self.mesh = mesh
        self.pair = pair
        nv = mesh.n_vertices

        if pair.velocity_degree == 1:
            self.node_coords = mesh.vertices
            self.elem_nodes = mesh.triangles
        else:
            mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                          + mesh.vertices[mesh.edges[:, 1]])
            self.node_coords = np.vstack([mesh.vertices, mids])
            self.elem_nodes = np.hstack([mesh.triangles, nv + mesh.t2e])

        self.n_nodes = len(self.node_coords)
        self.n_u = 2 * self.n_nodes
        self.n_p = nv
        self.n_dofs = self.n_u + self.n_p

        d_edges = np.flatnonzero(mesh.edge_tags == DIRICHLET)
        nodes = mesh.edges[d_edges].ravel()
        if pair.velocity_degree == 2:
            nodes = np.concatenate([nodes, nv + d_edges])
        self.dirichlet_nodes = nodes = np.unique(nodes)
        self.dirichlet_dofs = np.sort(
            np.concatenate([2 * nodes, 2 * nodes + 1]))
        # forms.rule_values: (degree, fn) -> values at the rule's points
        self.rule_cache = {}

    @property
    def n_basis(self):
        return self.elem_nodes.shape[1]

    @cached_property
    def c_i(self):
        """Inverse-inequality constant C_I, computed once on first use."""
        from . import forms  # forms imports this module
        return forms.estimate_CI(self)

    @cached_property
    def node_slots(self):
        """Nested-dissection group of each node, computed once on first
        use: solver.nested_dissection of the element-node graph, each
        node weighted by its free dofs (two velocity dofs off the
        Dirichlet nodes, one pressure dof on the vertices). The rows of
        the saddle system follow its order (forms._saddle_order).
        Read-only.
        """
        from . import solver  # solver imports this module
        weights = np.full(self.n_nodes, 2)
        weights[self.dirichlet_nodes] = 0
        weights[:self.n_p] += 1
        slots = solver.nested_dissection(self.elem_nodes, self.node_coords,
                                         weights)
        slots.flags.writeable = False
        return slots

    @cached_property
    def residual_operator(self):
        """Element residual operator R of each shape class, read-only:
        (n_classes, 2nbf+3, 2) for P2 velocity, (n_classes, 3, 2) for P1.

        The element residual r_K(v, q) = -div D(v) + grad q is constant
        on each element, since div D of P2 and grad of P1 are. R maps
        local coefficients, in the order of element_dofs, to it: for P2,
        row 2i+c is -div D(phi_i e_c) and row 2nbf+l is grad psi_l. div
        D of P1 velocity is zero, so for P1 R holds the three pressure
        rows alone. S_h, L_h, C_I and eta_K all use it. R depends on the
        element through J_K alone, so row c is built on
        TriMesh.shape_representatives[c], and R[mesh.shape_classes[e]]
        is, bit for bit, element e's own.
        """
        reps = self.mesh.shape_representatives
        grad_psi = _DLAM @ self.mesh.inv_jacobians_t[reps].transpose(0, 2, 1)
        if self.pair.velocity_degree == 1:
            R = grad_psi
        else:
            nbf = self.n_basis
            R = np.empty((len(reps), 2 * nbf + 3, 2))
            # for Hessian H of phi: div D(phi e_0) = (H00 + H11/2, H01/2)
            # and div D(phi e_1) = (H01/2, H00/2 + H11)
            H = _phys_hess(self)
            R[:, 0:2 * nbf:2, 0] = -(H[..., 0, 0] + 0.5 * H[..., 1, 1])
            R[:, 0:2 * nbf:2, 1] = -0.5 * H[..., 0, 1]
            R[:, 1:2 * nbf:2, 0] = -0.5 * H[..., 0, 1]
            R[:, 1:2 * nbf:2, 1] = -(0.5 * H[..., 0, 0] + H[..., 1, 1])
            R[:, 2 * nbf:] = grad_psi
        R.flags.writeable = False
        return R

    @property
    def element_dofs(self):
        """(ne, 2nbf+3) global dofs of each element, built on each read:
        its velocity dofs interleaved (node 0 x, node 0 y, node 1 x,
        ...), then its pressure dofs. The one element dof map."""
        vd = 2 * self.elem_nodes[:, :, None] + np.arange(2)
        return np.hstack([vd.reshape(len(vd), -1),
                          self.n_u + self.mesh.triangles])

    @property
    def residual_dofs(self):
        """Global dofs of the rows of residual_operator: element_dofs
        for P2, its three pressure columns for P1."""
        dofs = self.element_dofs
        return dofs if self.pair.velocity_degree == 2 else dofs[:, -3:]

    @cached_property
    def free_velocity_dofs(self):
        mask = np.ones(self.n_u, dtype=bool)
        mask[self.dirichlet_dofs] = False
        return np.flatnonzero(mask)

    def local_velocity_coefs(self, coefs):
        """(ne, nbf, 2) view of a velocity coefficient vector."""
        return np.asarray(coefs).reshape(-1, 2)[self.elem_nodes]

    def local_pressure_coefs(self, coefs):
        return np.asarray(coefs)[self.mesh.triangles]


# ----------------------------------------------------------------------
# evaluation of discrete fields at reference points
#
# Fields are evaluated on the whole mesh, at ref_pts (nq, 2) shared by
# all elements or (ne, nq, 2), one point set per element (the side points
# of side_reference_points). The maps are affine: grad_x = J^{-T}
# grad_ref, hess_x = J^{-T} hess_ref J^{-1}. Fields are contracted with
# their local coefficients on the reference element first; only that
# result is pulled back, as a sum of two terms, and no reference table
# is broadcast over the elements.

def physical_points(mesh, ref_pts):
    """(ne, nq, 2) images of shared reference points (nq, 2) on every
    triangle."""
    J = mesh.jacobians[:, None]
    return mesh.corner_coords[:, None, 0, :] + (
        J[..., 0] * ref_pts[..., 0, None] + J[..., 1] * ref_pts[..., 1, None])


def edge_points(mesh, edge_ids, s):
    """(ne, nq, 2) points at parameters s in [0, 1] along each edge,
    from its first to its second vertex."""
    pa = mesh.vertices[mesh.edges[edge_ids, 0]]
    pb = mesh.vertices[mesh.edges[edge_ids, 1]]
    return pa[:, None, :] + s[None, :, None] * (pb - pa)[:, None, :]


def side_reference_points(mesh, s):
    """(ne, 3, nq, 2): [k, l] are the reference points in triangle k of
    edge_points(mesh, mesh.t2e[k, l], s): side l, opposite corner l, run
    from its lower to its higher vertex number."""
    a, b = REF_VERTICES[[1, 2, 0], None], REF_VERTICES[[2, 0, 1], None]
    s = s[:, None]
    up = mesh.triangles[:, [1, 2, 0]] < mesh.triangles[:, [2, 0, 1]]
    return np.where(up[..., None, None], a * (1.0 - s) + b * s,
                    b * (1.0 - s) + a * s)


def _phys_hess(space):
    """(n_classes, nbf, 2, 2) physical P2 basis Hessians, constant on
    each element, one per shape class (TriMesh.shape_representatives),
    pulled back from the slopes gx, gy of _gradient_tables(2)."""
    it = space.mesh.inv_jacobians_t[space.mesh.shape_representatives]
    _, gx, gy = _gradient_tables(2)
    href = np.stack([gx, gy], -1)
    # H[e, i, c, d] = sum_ab it[e, c, a] it[e, d, b] href[i, a, b]
    geo = it[:, :, None, :, None] * it[:, None, :, None, :]
    H = geo.reshape(-1, 4) @ href.reshape(-1, 4).T
    return H.reshape(len(it), 2, 2, -1).transpose(0, 3, 1, 2)


def velocity_values(space, coefs, ref_pts):
    """(ne, nq, 2) values of the discrete velocity."""
    val, _ = scalar_basis(space.pair.velocity_degree, ref_pts)
    return val @ space.local_velocity_coefs(coefs)


def _gradient_tables(degree):
    """(k, nbf, 2) reference gradient tables: the basis gradients are
    constant for P1 (k = 1, the table g0) and affine for P2 (k = 3),
    g(xi) = g0 + xi_0 gx + xi_1 gy, read off at the reference corners."""
    _, g = scalar_basis(degree, REF_VERTICES)
    if degree == 1:
        return g[:1]
    return np.stack([g[0], g[1] - g[0], g[2] - g[0]])


def velocity_gradients(space, coefs, ref_pts):
    """(ne, nq, 2, 2) gradients; [..., c, b] is d u_c / d x_b.

    The coefficients are contracted with the reference gradient tables
    and pulled back once per element, giving the physical tables P of
    G = P0 + xi_0 P1 + xi_1 P2 (P2 velocity) or G = P0 (P1 velocity,
    returned as a read-only broadcast). Shared and per-element points
    go through the same elementwise formula, with the element axis
    innermost, one point at a time into the result, so no other array
    of the result's size is built.
    """
    tables = _gradient_tables(space.pair.velocity_degree)
    lc = space.local_velocity_coefs(coefs).transpose(1, 2, 0)
    it = space.mesh.inv_jacobians_t.transpose(1, 2, 0)
    # C[k, c, a, e] = sum_i tables[k, i, a] lc[i, c, e], then
    # P[k, c, b, e] = sum_a C[k, c, a, e] it[b, a, e]
    C = sum(tables[:, i, None, :, None] * lc[i, None, :, None]
            for i in range(len(lc)))
    P = C[:, :, 0, None] * it[:, 0] + C[:, :, 1, None] * it[:, 1]
    del C, lc
    ne, nq = P.shape[-1], np.shape(ref_pts)[-2]
    if len(tables) == 1:
        return np.broadcast_to(P[0].transpose(2, 0, 1)[:, None],
                               (ne, nq, 2, 2))
    # xi[a, q, 1, 1, e], or [a, q, 1, 1, 1] for shared points
    xi = np.asarray(ref_pts, dtype=float).T.reshape(2, nq, 1, 1, -1)
    G = np.empty((ne, nq, 2, 2))
    for q in range(nq):
        Gq = P[0] + xi[0, q] * P[1] + xi[1, q] * P[2]
        G[:, q] = Gq.transpose(2, 0, 1)
    return G


def strain_squared(G):
    """|sym G|^2 at each point of (..., 2, 2) gradients G, taken from
    the components as G00^2 + G11^2 + (G01 + G10)^2 / 2, so no array
    of G's shape is built."""
    out = G[..., 0, 1] + G[..., 1, 0]
    out *= out
    out *= 0.5
    out += G[..., 0, 0] ** 2
    out += G[..., 1, 1] ** 2
    return out


def pressure_values(space, coefs, ref_pts):
    """(ne, nq) values of the discrete pressure, contracted by a matmul
    that builds no array but the result and the basis values."""
    val, _ = scalar_basis(1, ref_pts)
    lc = space.local_pressure_coefs(coefs)
    return (val @ lc[..., None])[..., 0]


def element_residual(space, u, p):
    """(ne, 2) element residuals r_K(u_h, p_h) = -div D(u_h) + grad p_h
    of velocity and pressure coefficient vectors, one per element."""
    lc = np.concatenate([u, p])[space.residual_dofs]
    R = space.residual_operator[space.mesh.shape_classes]
    return (lc[:, None] @ R)[:, 0]


def interpolate(space, u=None, p=None):
    """Nodal interpolation of callables onto the space.

    u maps coordinate arrays (x, y) to an (m, 2) array, p to (m,).
    Returns the pair (velocity coefficients, pressure coefficients),
    with None for fields not given.
    """
    ucoef = pcoef = None
    if u is not None:
        ucoef = point_values(u, space.node_coords, "u", 2).reshape(-1)
    if p is not None:
        pcoef = point_values(p, space.mesh.vertices, "p")
    return ucoef, pcoef


def point_values(fn, xy, name, *dims):
    """fn(x, y) at the (m, 2) points xy, checked to have shape (m, *dims)."""
    vals = np.asarray(fn(xy[:, 0], xy[:, 1]), dtype=float)
    if vals.shape != (len(xy), *dims):
        raise SpaceError(f"{name} must return shape {(len(xy), *dims)}, "
                         f"got {vals.shape}")
    return vals
