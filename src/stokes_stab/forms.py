"""Assembly of the stabilized Stokes system.

The discrete problem is: find (u, p) with

    B(u, p; v, q) - alpha * S(u, p; v, q) = F(v, q) - alpha * L(v, q)

for all test pairs (v, q), where B is the symmetric mixed Stokes form

    B(w, r; v, q) = (D(w), D(v)) - (div v, r) - (div w, q),

D the symmetric gradient, and S the element-residual stabilization

    S(w, r; v, q) = sum_K h_K^2 (-div D(w) + grad r, -div D(v) + grad q)_K,
    L(v, q)       = sum_K h_K^2 (f, -div D(v) + grad q)_K.

With 0 < alpha < C_I (the inverse-inequality constant of the velocity
space) the stabilized form is coercive in the seminorm
||D(w)||^2 + alpha * sum_K h_K^2 ||grad r||_K^2, which is what makes
equal-order pairs such as P1P1 solvable. The sign convention keeps the
whole system symmetric (indefinite), so the pressure-pressure block is
-alpha * sum_K h_K^2 (grad r, grad q)_K.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .mesh import NEUMANN, MeshError
from .space import (edge_points, edge_reference_points, physical_points,
                    point_values, scalar_basis)


class InadmissibleAlphaError(Exception):
    """Stabilization parameter at or above the inverse-inequality bound."""


@dataclass(frozen=True)
class QuadRule:
    """Quadrature on the reference triangle; weights sum to 1/2."""

    degree: int
    points: np.ndarray   # (nq, 2)
    weights: np.ndarray  # (nq,)


# Gauss-Jacobi nodes and weights on [-1, 1] for the weight 1 - x,
# m = 1..6 points: scipy.special.roots_jacobi(m, 1, 0), written out so
# that importing the package does not import scipy.special
_GAUSS_JACOBI = (
    ((-0.3333333333333333,),
     (2.0,)),
    ((-0.6898979485566357, 0.2898979485566358),
     (1.2721655269759087, 0.7278344730240913)),
    ((-0.8228240809745921, -0.1810662711185305, 0.5753189235216941),
     (0.8037276549558384, 0.9169644254383448, 0.2793079196058167)),
    ((-0.8857916077709646, -0.44631397272375245, 0.16718086473783364,
      0.7204802713124389),
     (0.5420276537259541, 0.8138582720410844, 0.5193901904329293,
      0.12472388380003234)),
    ((-0.9203802858970626, -0.6039731642527836, -0.1240503795052277,
      0.39092854670727223, 0.8029298284023472),
     (0.3871263609066059, 0.6686985523774788, 0.5855479483386794,
      0.2956354802904667, 0.0629916580867692)),
    ((-0.9413671456804301, -0.7038428006630314, -0.3260306194376914,
      0.1173430375431003, 0.538467724060109, 0.8538913426394822),
     (0.2892413229020356, 0.5421699889260747, 0.5631702151527953,
      0.3946446035626208, 0.17582066220203585, 0.034953207254438116)),
)


@lru_cache(maxsize=None)
def quadrature(degree):
    """Positive-weight rule exact for polynomials up to `degree` (1..10).

    Conical product construction: Gauss-Legendre in the first collapsed
    coordinate times Gauss-Jacobi (weight 1-b) in the second, mapped by
    (a, b) -> (a(1-b), b). Every weight is positive at every degree.
    """
    if not isinstance(degree, (int, np.integer)):
        raise ValueError(f"quadrature degree must be an int, got {degree!r}")
    if not 1 <= degree <= 10:
        raise ValueError(f"quadrature degree must be in 1..10, got {degree}")
    m = (degree + 2) // 2
    xg, wg = np.polynomial.legendre.leggauss(m)
    a = 0.5 * (xg + 1.0)
    wa = 0.5 * wg
    xj, wj = map(np.array, _GAUSS_JACOBI[m - 1])
    b = 0.5 * (xj + 1.0)
    wb = 0.25 * wj
    A, B = np.meshgrid(a, b, indexing="ij")
    pts = np.column_stack([(A * (1.0 - B)).ravel(), B.ravel()])
    w = np.outer(wa, wb).ravel()
    pts.flags.writeable = False
    w.flags.writeable = False
    return QuadRule(degree, pts, w)


@lru_cache(maxsize=None)
def edge_quadrature(degree):
    """Gauss-Legendre rule on [0, 1]; weights sum to 1."""
    if not 1 <= degree <= 20:
        raise ValueError(f"edge quadrature degree must be in 1..20, "
                         f"got {degree}")
    m = (degree + 2) // 2
    x, w = np.polynomial.legendre.leggauss(m)
    pts = 0.5 * (x + 1.0)
    w = 0.5 * w
    pts.flags.writeable = False
    w.flags.writeable = False
    return pts, w


def quad_degrees(velocity_degree):
    """Quadrature degrees of the assembled system, by use.

    volume_matrix: products of two velocity-basis derivatives (B, S,
    the C_I pencils); volume_load: the data f and g against a basis
    function (F, L); edge: the Neumann traction load.
    These are the quad_* lines of the manifest. The estimator reuses
    volume_load on elements and volume_matrix on edges; error norms
    and oscillations use error_degree. All are fixed functions of the
    velocity degree.
    """
    k = velocity_degree
    return {"volume_matrix": max(2 * k, 2), "volume_load": min(2 * k + 2, 10),
            "edge": 2 * k + 2}


def volume_rule(space, use):
    """The QuadRule of the assembly rule `use` of quad_degrees."""
    return quadrature(quad_degrees(space.pair.velocity_degree)[use])


def error_degree(velocity_degree):
    """Quadrature degree of oscillations (and their projection mass
    matrices), error norms, the efficiency audit and the trace
    projection of t."""
    return min(2 * velocity_degree + 4, 10)


def rule_values(space, degree, fn=None):
    """Read-only (ne, nq, ...) values of fn(x, y) at the physical points
    of quadrature(degree) on every element, or those (ne, nq, 2) points
    themselves when fn is None.

    Each (degree, fn) is evaluated once per space and kept as long as
    the space, so assembly, the estimator, the error norms and the
    efficiency audit share one evaluation per rule. The key holds fn
    itself, so a later callable cannot alias it.
    """
    key = (degree, fn)
    if key not in space.rule_cache:
        if fn is None:
            vals = physical_points(space.mesh, quadrature(degree).points)
        else:
            xy = rule_values(space, degree)
            # a view, so fn's own arrays keep their flags
            vals = np.asarray(fn(xy[..., 0], xy[..., 1]), dtype=float).view()
        vals.flags.writeable = False
        space.rule_cache[key] = vals
    return space.rule_cache[key]


# ----------------------------------------------------------------------
# problem data

@dataclass(frozen=True)
class ExactSolution:
    """Closed-form reference fields for error measurement."""

    u: callable          # (x, y) -> (m, 2)
    grad_u: callable     # (x, y) -> (m, 2, 2), [c, b] = d u_c / d x_b
    p: callable          # (x, y) -> (m,)


@dataclass(frozen=True)
class StokesProblem:
    """Data of one Stokes boundary value problem.

    f is the body force, g the divergence constraint right-hand side
    (None means 0), t the traction on the Neumann part (None means 0),
    alpha the stabilization parameter (None picks the space default).
    Dirichlet velocity values are exact.u when exact is given, else 0.
    """

    f: callable
    g: callable = None
    t: callable = None
    alpha: float = None
    exact: ExactSolution = None


# ----------------------------------------------------------------------
# local assembly pieces

def _velocity_dofs(space, elems=None):
    en = space.elem_nodes if elems is None else space.elem_nodes[elems]
    out = np.empty((len(en), 2 * en.shape[1]), dtype=np.int64)
    out[:, 0::2] = 2 * en
    out[:, 1::2] = 2 * en + 1
    return out


def _strain_local(space, elems=None):
    """(ne, 2nbf, 2nbf) element matrices (D(phi_b), D(phi_a))_K, for
    all elements or those listed in elems.

    Tensor representation (Kirby & Logg, ACM TOMS 2006), no quadrature
    axis: with it = J^{-T} and K_ref[a, A, i, j] = sum_q w_q dphi_i/da
    dphi_j/dA, t2[d, c, i, j] = (d_d phi_i, d_c phi_j)_K is the one
    matmul 2|K| it[d, a] it[c, A] K_ref[a, A, i, j], and its trace over
    d = c is (grad phi_i, grad phi_j)_K.
    """
    rule = volume_rule(space, "volume_matrix")
    _, gref = scalar_basis(space.pair.velocity_degree, rule.points)
    nbf = space.n_basis
    K_ref = np.einsum("q,qia,qjb->abij", rule.weights, gref, gref)
    sel = slice(None) if elems is None else elems
    # |K| is 2|K| times the 1/2 of D's symmetrization
    it, area = space.mesh.inv_jacobians_t[sel], space.mesh.areas[sel]
    geo = it[:, :, None, :, None] * it[:, None, :, None, :] \
        * area[:, None, None, None, None]
    t2 = (geo.reshape(-1, 4) @ K_ref.reshape(4, -1)).reshape(
        -1, 2, 2, nbf, nbf)
    t1 = t2[:, 0, 0] + t2[:, 1, 1]
    loc = t1[:, :, None, :, None] * np.eye(2)[:, None, :] \
        + t2.transpose(0, 3, 2, 4, 1)
    return loc.reshape(-1, 2 * nbf, 2 * nbf)


def _residual_local(space, elems=None):
    """Element matrices |K| h_K^2 R R^T of S_h on space.residual_dofs,
    R the element residual operator, for all elements or those listed
    in elems. r_K is constant on K, so no quadrature is needed; R R^T
    is the two-term sum over its columns."""
    R = space.residual_operator
    scale = space.mesh.areas * space.mesh.diameters ** 2
    if elems is not None:
        R, scale = R[elems], scale[elems]
    RRt = R[:, :, None, 0] * R[:, None, :, 0]
    RRt += R[:, :, None, 1] * R[:, None, :, 1]
    RRt *= scale[:, None, None]
    return RRt


def _scatter_matrix(rows, cols, vals, shape):
    """CSR sum of element matrices: out[rows[e, i], cols[e, j]] +=
    vals[e, i, j].

    It is the product P @ L of the 0/1 map P from element rows (e, i)
    to global rows with the matrix L whose rows are the element rows,
    so each entry sums term by term in element order, as scatter_add
    does, whatever else its row holds. (COO to CSR conversion sums
    duplicates in an order that depends on the whole row.) Entries
    that sum to exactly zero are not stored.
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


def _scatter_csc(dofs, vals_t, n):
    """CSC n x n sum of square element matrices: out[dofs[e, i],
    dofs[e, j]] += vals_t[e, j, i], each element's matrix given
    transposed.

    The CSR sum of the transposes is the CSC of the sum; its arrays
    are taken over as they are, so the sum is exact also where an
    element matrix is symmetric only up to rounding (the P2 strain
    and mass kernels). Index arrays of the element rows and columns
    are handed to scipy without a copy; nothing here compacts them in
    place (as eliminate_zeros would), so dofs stays as given.
    """
    t = _scatter_matrix(dofs, dofs, vals_t, (n, n))
    return sp.csc_matrix((t.data, t.indices, t.indptr), shape=(n, n))


def scatter_add(index, values, n):
    """Length-n sums out[index[m]] += values[m], taken in index order.

    values holds one scalar, or one row, per entry of index (in C
    order); rows are summed column by column into an (n, ncol) array.
    Each sum runs term by term in index order (np.bincount).
    """
    index = np.ravel(index)
    cols = np.reshape(values, (len(index), -1)).T
    sums = [np.bincount(index, c, minlength=n) for c in cols]
    return sums[0] if len(sums) == 1 else np.stack(sums, axis=1)


def _divergence_local(space):
    """(ne, 2nbf, 3) element matrices -(div phi_a, psi_l)_K of A_up.

    -(div phi_i e_c, psi_l)_K = -2|K| it[c, a] (dphi_i/da, psi_l)_ref.
    """
    rule = volume_rule(space, "volume_matrix")
    _, gref = scalar_basis(space.pair.velocity_degree, rule.points)
    pval, _ = scalar_basis(1, rule.points)
    d_ref = np.einsum("q,qia,ql->ail", rule.weights, gref, pval)
    it = space.mesh.inv_jacobians_t * (-2.0 * space.mesh.areas)[:, None, None]
    return (it[:, None, :, 0, None] * d_ref[0, :, None]
            + it[:, None, :, 1, None] * d_ref[1, :, None]).reshape(
        -1, 2 * space.n_basis, 3)


def assemble_B(space):
    """Mixed Stokes form blocks (A_uu, A_up).

    A_uu[a, b] = (D(phi_b), D(phi_a)); A_up[a, l] = -(div phi_a, psi_l).
    The full unstabilized matrix is [[A_uu, A_up], [A_up^T, 0]].
    """
    vd = _velocity_dofs(space)
    A_uu = _scatter_matrix(vd, vd, _strain_local(space),
                           (space.n_u, space.n_u))
    A_up = _scatter_matrix(vd, space.mesh.triangles, _divergence_local(space),
                           (space.n_u, space.n_p))
    return A_uu, A_up


def assemble_Sh(space):
    """Element-residual stabilization matrix on velocity+pressure dofs.

    S[(v,q),(w,r)] = sum_K h_K^2 (-div D(w) + grad r,
                                  -div D(v) + grad q)_K,
    returned as one symmetric (n_u + n_p) square matrix.
    """
    dofs = space.residual_dofs
    n = space.n_dofs
    return _scatter_matrix(dofs, dofs, _residual_local(space), (n, n))


def assemble_F(space, problem):
    """Load functional (f, v) + <t, v>_Neumann - (g, q)."""
    rule = volume_rule(space, "volume_load")
    w = rule.weights
    mesh = space.mesh
    scale = 2.0 * mesh.areas

    fv = rule_values(space, rule.degree, problem.f)
    val, _ = scalar_basis(space.pair.velocity_degree, rule.points)
    fu = ((w[:, None] * val).T @ fv) * scale[:, None, None]
    out = scatter_add(_velocity_dofs(space), fu, space.n_u + space.n_p)

    if problem.g is not None:
        gv = rule_values(space, rule.degree, problem.g)
        pval, _ = scalar_basis(1, rule.points)
        gp = -np.einsum("q,eq,ql->el", w, gv, pval) * scale[:, None]
        out[space.n_u:] += scatter_add(mesh.triangles, gp, space.n_p)

    if problem.t is not None and mesh.has_neumann:
        out[:space.n_u] += _neumann_load(space, problem.t)
    return out


def _neumann_load(space, traction):
    k = space.pair.velocity_degree
    s, w = edge_quadrature(quad_degrees(k)["edge"])
    mesh = space.mesh
    edges = np.flatnonzero(mesh.edge_tags == NEUMANN)
    elems = mesh.e2t[edges, 0]
    val, _ = scalar_basis(k, edge_reference_points(mesh, elems, edges, s))
    xy = edge_points(mesh, edges, s)
    tv = np.asarray(traction(xy[..., 0], xy[..., 1]), dtype=float)
    length = mesh.edge_lengths[edges]
    loc = np.einsum("q,eqc,eqi->eic", w, tv, val) * length[:, None, None]
    return scatter_add(_velocity_dofs(space, elems), loc, space.n_u)


def assemble_Lh(space, problem):
    """Stabilization load sum_K h_K^2 (f, -div D(v) + grad q)_K."""
    rule = volume_rule(space, "volume_load")
    mesh = space.mesh

    fv = rule_values(space, rule.degree, problem.f)
    int_f = np.einsum("q,eqr->er", rule.weights, fv) \
        * (2.0 * mesh.areas)[:, None]
    loc = np.einsum("er,eir->ei", int_f, space.residual_operator) \
        * (mesh.diameters ** 2)[:, None]
    return scatter_add(space.residual_dofs, loc, space.n_dofs)


def pressure_mass(space):
    """P1 pressure mass matrix (n_p x n_p)."""
    rule = quadrature(2)
    w, pts = rule.weights, rule.points
    val, _ = scalar_basis(1, pts)
    loc = np.einsum("q,ql,qm->lm", w, val, val)
    loc = loc[None] * (2.0 * space.mesh.areas)[:, None, None]
    tri = space.mesh.triangles
    return _scatter_matrix(tri, tri, loc, (space.n_p, space.n_p))


# ----------------------------------------------------------------------
# inverse inequality constant

def inverse_inequality_pencils(space, elems=None):
    """Per-element matrices (M_A, M_D) of the inverse inequality.

    For local velocity coefficients c, c^T M_A c = h_K^2 ||div D(v)||^2
    and c^T M_D c = ||D(v)||^2 on element K. Shapes (ne, 2nbf, 2nbf),
    for all elements or those listed in elems. They are the element
    matrices that assemble_B (A_uu) and assemble_Sh (velocity block)
    scatter.
    """
    M_D = _strain_local(space, elems)
    if space.pair.velocity_degree == 1:
        return np.zeros_like(M_D), M_D
    nv = 2 * space.n_basis
    return _residual_local(space, elems)[:, :nv, :nv], M_D


def estimate_CI(space):
    """Largest admissible stabilization bound C_I of the velocity space.

    C_I is 1 / max_K sup_v h_K^2 ||div D(v)||_K^2 / ||D(v)||_K^2, the
    supremum taken over the local velocity space (rigid motions, the
    kernel of D, excluded). P1 velocity has div D(v) = 0 identically,
    so the bound is infinite and every alpha > 0 is admissible. Raises
    MeshError when an element is too degenerate to separate the rigid
    motions. FeSpace.c_i keeps the value of a space.

    An element's pencils, area and diameter depend only on its
    Jacobian, so one element per distinct Jacobian is examined.
    """
    if space.pair.velocity_degree == 1:
        return math.inf
    _, elems = np.unique(space.mesh.jacobians.reshape(-1, 4), axis=0,
                         return_index=True)
    M_A, M_D = inverse_inequality_pencils(space, elems=elems)
    wD, V = np.linalg.eigh(M_D)
    # kernel of M_D is exactly the 3 rigid motions; deflate them
    gap_ok = wD[:, 3] > 1e-8 * wD[:, -1]
    small_ok = wD[:, 2] < 1e-8 * wD[:, -1]
    if not (gap_ok.all() and small_ok.all()):
        raise MeshError("rigid-motion kernel of the strain pencil "
                        "not cleanly separated; degenerate element?")
    W = V[:, :, 3:] / np.sqrt(wD[:, None, 3:])
    At = np.einsum("eks,ekl,elt->est", W, M_A, W)
    At = 0.5 * (At + At.transpose(0, 2, 1))
    lam = np.linalg.eigvalsh(At)[:, -1]
    return float(1.0 / lam.max())


def default_alpha(space):
    """Default stabilization parameter: 0.1 for P1, C_I/4 for P2."""
    if space.pair.velocity_degree == 1:
        return 0.1
    return space.c_i / 4.0


# ----------------------------------------------------------------------
# full system

@dataclass
class AssembledSystem:
    """The saddle system as factored, with its constraint bookkeeping.

    matrix (CSC) and rhs hold the free dofs (Dirichlet velocity dofs
    eliminated, their values lifted into rhs) and, when bordered, one
    Lagrange multiplier pinning the pressure gauge: its row and column
    hold the pressure means int psi_j. They are in elimination order:
    row i is unknown order[i] of free_dofs (the full ordering's free
    dofs, velocity interleaved first, then pressure, in increasing
    order), followed by the border at index len(free_dofs). groups
    holds the first row of each nested-dissection group of that order,
    the fronts solver.solve factors; the border belongs to the last.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    order: np.ndarray
    free_dofs: np.ndarray
    n_u_free: int
    n_u: int
    n_p: int
    alpha: float
    c_i: float
    groups: np.ndarray
    bordered: bool = False
    dirichlet_values: np.ndarray = None


def _saddle_order(space, free, bordered):
    """(order, pos, groups) of the saddle matrix.

    order sorts the free dofs stably by the nested-dissection slot of
    their node (FeSpace.node_slots), so a group keeps its velocity
    dofs by node, then its pressure dofs; the border, index len(free),
    comes last. pos (n_dofs + 1,) int32 is the row of each dof, the
    border's at n_dofs, and -1 on the Dirichlet dofs. groups holds the
    row where each distinct slot starts.
    """
    n_u = space.n_u
    nodes = np.where(free < n_u, free // 2, free - n_u)
    slots = space.node_slots[nodes]
    order = np.argsort(slots, kind="stable")
    groups = np.flatnonzero(np.diff(slots[order], prepend=-1))
    rows = free
    if bordered:
        order = np.append(order, len(free))
        rows = np.append(free, space.n_dofs)
    pos = np.full(space.n_dofs + 1, -1, dtype=np.int32)
    pos[rows[order]] = np.arange(len(order))
    return order, pos, groups


def _saddle_local(space, alpha, bordered):
    """Transposed element matrices of the saddle matrix and their dofs.

    Element K contributes [[A_K, B_K], [B_K^T, 0]] - alpha |K| h_K^2
    R R^T on its velocity dofs (interleaved) and its pressure dofs,
    bordered by |K|/3 in the row and column of the mean-pressure dof
    (index n_dofs) when bordered; R R^T covers the velocity and
    pressure dofs for P2 and the pressure dofs alone for P1. Returns
    (dofs (ne, nloc), T (ne, nloc, nloc)) with T[e] the transpose of
    element e's matrix.
    """
    # the kernels before T, so T is not alive while _residual_local
    # builds its products
    A = _strain_local(space)
    B = _divergence_local(space)
    S = _residual_local(space) if alpha != 0.0 else None
    vd = _velocity_dofs(space)
    ne, nv = vd.shape
    nloc = nv + 3 + bordered
    dofs = np.empty((ne, nloc), dtype=np.int64)
    dofs[:, :nv] = vd
    dofs[:, nv:nv + 3] = space.n_u + space.mesh.triangles
    T = np.zeros((ne, nloc, nloc))
    T[:, :nv, :nv] = A.transpose(0, 2, 1)
    T[:, :nv, nv:nv + 3] = B
    T[:, nv:nv + 3, :nv] = B.transpose(0, 2, 1)
    if S is not None:
        r = slice(nv + 3 - S.shape[1], nv + 3)
        S *= alpha
        T[:, r, r] -= S
    if bordered:
        dofs[:, -1] = space.n_dofs
        T[:, -1, nv:nv + 3] = T[:, nv:nv + 3, -1] = \
            (space.mesh.areas / 3.0)[:, None]
    return dofs, T


def assemble_system(space, problem):
    """Assemble the stabilized saddle system with BCs applied.

    Resolves alpha (None means the space default), enforces
    0 <= alpha < C_I, eliminates Dirichlet velocity dofs symmetrically
    (lifting inhomogeneous boundary values into the right-hand side),
    and borders the system by the mean-pressure constraint when there
    is no Neumann boundary to fix the pressure gauge.

    The matrix is one scatter of the element matrices, each already
    B_K - alpha S_K, straight into its elimination order, in CSC,
    Dirichlet rows and columns dropped: the matrix solver.solve
    factors.
    """
    alpha = problem.alpha
    if alpha is None:
        alpha = default_alpha(space)
    alpha = float(alpha)
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    c_i = space.c_i
    if alpha >= c_i:
        raise InadmissibleAlphaError(
            f"alpha = {alpha:.6g} is not below the inverse-inequality "
            f"bound C_I = {c_i:.6g}; the stabilized form loses coercivity")

    bordered = not space.mesh.has_neumann
    free = np.concatenate([space.free_velocity_dofs,
                           space.n_u + np.arange(space.n_p)])
    order, pos, groups = _saddle_order(space, free, bordered)
    rhs = assemble_F(space, problem)
    if alpha != 0.0:
        rhs = rhs - alpha * assemble_Lh(space, problem)
    dofs, T = _saddle_local(space, alpha, bordered)
    nv = 2 * space.n_basis

    lift = None
    if problem.exact is not None and len(space.dirichlet_dofs):
        z = np.zeros(space.n_u)
        z[space.dirichlet_dofs] = point_values(
            problem.exact.u, space.node_coords[space.dirichlet_nodes], "u",
            2).ravel()
        if np.any(z):
            zl = z[dofs[:, :nv]]
            hit = np.flatnonzero(zl.any(axis=1))
            # row i of element e's matrix times z is column i of T[e]
            loc = (zl[hit, None, :] @ T[hit, :nv, :nv + 3])[:, 0]
            rhs -= scatter_add(dofs[hit, :nv + 3], loc, space.n_dofs)
            lift = z

    # drop the Dirichlet rows and columns in place: zero them and send
    # them to the element's first pressure dof, where they add exact
    # zeros to entries the element stores anyway
    idx = pos[dofs]
    dirichlet = idx < 0
    T[dirichlet] = 0.0
    T.transpose(0, 2, 1)[dirichlet] = 0.0
    idx[dirichlet] = np.broadcast_to(idx[:, nv, None], idx.shape)[dirichlet]
    K = _scatter_csc(idx, T, len(order))
    b = np.zeros(len(order))
    b[pos[free]] = rhs[free]

    return AssembledSystem(
        matrix=K, rhs=b, order=order, free_dofs=free,
        n_u_free=len(space.free_velocity_dofs),
        n_u=space.n_u, n_p=space.n_p,
        alpha=alpha, c_i=c_i, groups=groups, bordered=bordered,
        dirichlet_values=lift,
    )
