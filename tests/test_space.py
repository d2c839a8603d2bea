import tracemalloc

import numpy as np
import pytest

from stokes_stab import forms, mesh as msh
from stokes_stab.space import (ElementPair, FeSpace, P1P1, P2P1, SpaceError,
                               _phys_hess, element_residual, interpolate,
                               edge_points, physical_points, pressure_values,
                               scalar_basis, side_reference_points,
                               velocity_gradients, velocity_values)

from oracles import p2_hessians_by_hand


def test_element_pair_labels():
    assert ElementPair.from_label("P1P1") == P1P1
    assert ElementPair.from_label("P2P1") == P2P1
    assert P2P1.label == "P2P1"
    with pytest.raises(SpaceError):
        ElementPair.from_label("P3P2")
    with pytest.raises(SpaceError):
        ElementPair(3)


def test_basis_partition_of_unity():
    pts = np.random.default_rng(0).random((40, 2)) * 0.5
    for deg in (1, 2):
        val, grad = scalar_basis(deg, pts)
        assert np.allclose(val.sum(axis=-1), 1.0)
        assert np.allclose(grad.sum(axis=-2), 0.0)


def test_basis_kronecker_at_nodes():
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    val, _ = scalar_basis(1, corners)
    assert np.allclose(val, np.eye(3))
    mids = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
    val, _ = scalar_basis(2, np.vstack([corners, mids]))
    assert np.allclose(val, np.eye(6), atol=1e-14)


def _reference_hessians():
    """(6, 2, 2) P2 basis Hessians on the reference triangle itself,
    where the pullback is the identity."""
    ref = msh.TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]],
                      {(0, 1): "D", (1, 2): "D", (0, 2): "D"})
    return _phys_hess(FeSpace(ref, "P2P1"))[0]


@pytest.mark.parametrize("make_mesh", [
    lambda: msh.unit_square(6),
    lambda: msh.l_shape(4).refine_marked(np.arange(0, 24, 3)),
], ids=["unit-square-6", "graded-l-shape"])
def test_p2_hessians_match_the_hand_formula(make_mesh):
    # read off the gradient tables, the reference Hessians are those of
    # the closed form of the basis, and so are their pullbacks, bit for
    # bit, on a mesh whose classes differ in their last bits alone and
    # on a graded one
    space = FeSpace(make_mesh(), "P2P1")
    H, ref = _phys_hess(space), p2_hessians_by_hand(space)
    assert H.shape == ref.shape == (len(space.mesh.shape_representatives),
                                    6, 2, 2)
    assert H.tobytes() == ref.tobytes()


def test_scalar_basis_rejects_degree_three():
    with pytest.raises(SpaceError) as err:
        scalar_basis(3, np.zeros((1, 2)))
    assert str(err.value) == "unsupported basis degree 3"


def test_p2_corner_hessian():
    # the corner function at the origin is (1-x-y)(1-2x-2y); its
    # Hessian is the constant matrix [[4,4],[4,4]]
    assert np.allclose(_reference_hessians()[0], [[4.0, 4.0], [4.0, 4.0]])


def test_basis_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    pts = rng.random((10, 2)) * 0.4 + 0.05
    eps = 1e-6
    # P1 Hessians vanish; P2 ones are the constants _phys_hess pulls back
    hessians = {1: np.zeros((3, 2, 2)), 2: _reference_hessians()}
    for deg in (1, 2):
        val, grad = scalar_basis(deg, pts)
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = eps
            vp, gp = scalar_basis(deg, pts + shift)
            vm, gm = scalar_basis(deg, pts - shift)
            assert np.allclose((vp - vm) / (2 * eps), grad[..., axis],
                               atol=1e-8)
            assert np.allclose((gp - gm) / (2 * eps),
                               hessians[deg][..., axis], atol=1e-8)


def test_space_dof_counts():
    m = msh.unit_square(2)
    s1 = FeSpace(m, "P1P1")
    assert s1.n_u == 2 * m.n_vertices
    assert s1.n_p == m.n_vertices
    s2 = FeSpace(m, "P2P1")
    assert s2.n_nodes == m.n_vertices + m.n_edges
    assert s2.n_u == 2 * s2.n_nodes
    assert s2.n_p == m.n_vertices
    assert s2.n_dofs == s2.n_u + s2.n_p


def test_dirichlet_dofs_follow_tags():
    m = msh.unit_square(2, boundary={"right": "N"})
    for pair in ("P1P1", "P2P1"):
        s = FeSpace(m, pair)
        coords = s.node_coords[s.dirichlet_nodes]
        interior_right = (np.isclose(coords[:, 0], 1.0)
                          & (coords[:, 1] > 1e-12)
                          & (coords[:, 1] < 1 - 1e-12))
        assert not interior_right.any()
        # every dirichlet node actually sits on the boundary
        on_bnd = (np.isclose(coords[:, 0], 0.0) | np.isclose(coords[:, 0], 1.0)
                  | np.isclose(coords[:, 1], 0.0)
                  | np.isclose(coords[:, 1], 1.0))
        assert on_bnd.all()
        assert len(s.dirichlet_dofs) == 2 * len(s.dirichlet_nodes)


def test_dirichlet_nodes_sorted_unique_int64():
    m = msh.unit_square(3, boundary={"right": "N"})
    d_edges = np.flatnonzero(m.edge_tags == msh.DIRICHLET)
    for pair, extra in (("P1P1", []), ("P2P1", m.n_vertices + d_edges)):
        s = FeSpace(m, pair)
        expected = sorted(set(m.edges[d_edges].ravel()) | set(extra))
        assert s.dirichlet_nodes.dtype == np.int64
        assert s.dirichlet_nodes.tolist() == expected
    # without Dirichlet edges the arrays are empty, still int64
    free = msh.TriMesh(m.vertices, m.triangles,
                       dict.fromkeys(m.boundary_tag_dict(), "N"),
                       validate=False)
    for pair in ("P1P1", "P2P1"):
        s = FeSpace(free, pair)
        assert s.dirichlet_nodes.dtype == np.int64
        assert s.dirichlet_dofs.dtype == np.int64
        assert len(s.dirichlet_nodes) == len(s.dirichlet_dofs) == 0


def test_interpolation_reproduces_polynomials():
    m = msh.unit_square(3)
    rng = np.random.default_rng(2)
    ref = rng.random((6, 2)) * 0.4 + 0.05
    xy = physical_points(m, ref)
    x, y = xy[..., 0], xy[..., 1]

    s = FeSpace(m, "P2P1")
    u = lambda X, Y: np.stack([X**2 + Y, X * Y - 3.0], axis=-1)
    p = lambda X, Y: 1.0 + 2.0 * X - Y
    uc, pc = interpolate(s, u=u, p=p)
    assert np.allclose(velocity_values(s, uc, ref), u(x, y))
    grads = velocity_gradients(s, uc, ref)
    assert np.allclose(grads[..., 0, 0], 2 * x)
    assert np.allclose(grads[..., 0, 1], 1.0)
    assert np.allclose(grads[..., 1, 0], y)
    assert np.allclose(grads[..., 1, 1], x)
    assert np.allclose(pressure_values(s, pc, ref), p(x, y))
    # r_K(0, p) = grad p
    pg = element_residual(s, np.zeros(s.n_u), pc)
    assert np.allclose(pg[..., 0], 2.0) and np.allclose(pg[..., 1], -1.0)

    s1 = FeSpace(m, "P1P1")
    u1 = lambda X, Y: np.stack([1 + X - 2 * Y, 3 * Y], axis=-1)
    uc1, _ = interpolate(s1, u=u1)
    assert np.allclose(velocity_values(s1, uc1, ref), u1(x, y))


def test_stress_laplacian_oracle():
    # u = (x^2 + y, x*y): component Hessians [[2,0],[0,0]] and
    # [[0,1],[1,0]], so div D(u) = (2 + 1/2, 0)
    m = msh.unit_square(2)
    s = FeSpace(m, "P2P1")
    uc, _ = interpolate(s, u=lambda X, Y: np.stack([X**2 + Y, X * Y],
                                                   axis=-1))
    # r_K(u, 0) = -div D(u)
    Au = -element_residual(s, uc, np.zeros(s.n_p))
    assert np.allclose(Au[..., 0], 2.5)
    assert np.allclose(Au[..., 1], 0.0, atol=1e-12)
    # P1 velocity has no second derivatives
    s1 = FeSpace(m, "P1P1")
    uc1, _ = interpolate(s1, u=lambda X, Y: np.stack([X, Y], axis=-1))
    assert np.allclose(element_residual(s1, uc1, np.zeros(s1.n_p)), 0.0)


def _jittered_square(n, seed):
    base = msh.unit_square(n)
    v = base.vertices.copy()
    inner = np.all((v > 0.0) & (v < 1.0), axis=1)
    v[inner] += np.random.default_rng(seed).uniform(
        -0.05, 0.05, size=(inner.sum(), 2))
    return msh.TriMesh(v, base.triangles, base.boundary_tag_dict())


def test_stress_laplacian_oracle_both_components():
    # u = (x^2 + xy, y^2 - xy): Hessians [[2,1],[1,0]] and [[0,-1],[-1,2]],
    # so div D(u) = (2 + (0 - 1)/2, 2 + (0 + 1)/2) = (3/2, 5/2)
    m = _jittered_square(3, seed=11)
    s = FeSpace(m, "P2P1")
    uc, _ = interpolate(s, u=lambda X, Y: np.stack(
        [X**2 + X * Y, Y**2 - X * Y], axis=-1))
    Au = -element_residual(s, uc, np.zeros(s.n_p))
    assert np.allclose(Au[..., 0], 1.5, rtol=0, atol=1e-10)
    assert np.allclose(Au[..., 1], 2.5, rtol=0, atol=1e-10)


@pytest.mark.parametrize("pair", ["P1P1", "P2P1"])
def test_per_element_points_match_shared_points(pair):
    # one point set per element gives on each element, bit for bit, what
    # a call with that element's points shared by all elements gives
    m = _jittered_square(3, seed=4)
    s = FeSpace(m, pair)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(s.n_u)
    p = rng.standard_normal(s.n_p)
    ref = rng.random((m.n_triangles, 4, 2)) * 0.5
    G = velocity_gradients(s, u, ref)
    P = pressure_values(s, p, ref)
    V = velocity_values(s, u, ref)
    assert G.shape == (m.n_triangles, 4, 2, 2)
    assert P.shape == (m.n_triangles, 4)
    for k in (0, 5, 7, 12):
        assert np.array_equal(G[k], velocity_gradients(s, u, ref[k])[k])
        assert np.array_equal(P[k], pressure_values(s, p, ref[k])[k])
        assert np.array_equal(V[k], velocity_values(s, u, ref[k])[k])


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_field_values_build_no_temporary_of_their_size():
    # tracemalloc peak of one call at the P2P1 error rule, in units of
    # one (ne, nq, 2, 2) float64 array: the gradients are one unit, and
    # their per-element tables and per-point terms add about a quarter;
    # a temporary of the result's size would make it 2 or more. The
    # pressure values are a quarter unit, with nothing of that size
    # beside them
    s = FeSpace(msh.unit_square(32), P2P1)
    rng = np.random.default_rng(3)
    u, p = rng.standard_normal(s.n_u), rng.standard_normal(s.n_p)
    pts = forms.quadrature(forms.error_degree(2)).points
    one = s.mesh.n_triangles * len(pts) * 4 * 8
    s.mesh.inv_jacobians_t    # cached before the trace
    assert _traced_peak(velocity_gradients, s, u, pts) <= 1.5 * one
    assert _traced_peak(pressure_values, s, p, pts) <= 0.375 * one


def test_side_points_run_along_the_edges():
    # side l of triangle k maps onto edge t2e[k, l], from its first
    # vertex to its second, as edge_points runs
    m = _jittered_square(3, seed=2).refine_marked([0, 4])
    ts = np.array([0.0, 0.21, 0.5, 1.0])
    sides = side_reference_points(m, ts)
    assert sides.shape == (m.n_triangles, 3, len(ts), 2)
    J = m.jacobians
    for l in range(3):
        xy = m.corner_coords[:, None, 0] + np.einsum(
            "eab,eqb->eqa", J, sides[:, l])
        assert np.allclose(xy, edge_points(m, m.t2e[:, l], ts),
                           rtol=0, atol=1e-14)


def test_dof_continuity_across_edges():
    # evaluating from either side of every interior edge must agree
    rng = np.random.default_rng(5)
    m = msh.unit_square(2).refine_marked([0, 3]).refine_uniform()
    ts = np.array([0.21, 0.5, 0.87])
    pts = side_reference_points(m, ts).reshape(m.n_triangles, -1, 2)
    interior = np.flatnonzero(m.edge_tags == 0)
    k = m.e2t[interior]
    slot = np.argmax(m.t2e[k] == interior[:, None, None], axis=2)
    for pair in ("P1P1", "P2P1"):
        s = FeSpace(m, pair)
        for c in rng.standard_normal((100, s.n_u)):
            v = velocity_values(s, c, pts).reshape(m.n_triangles, 3,
                                                   len(ts), 2)
            assert np.allclose(v[k[:, 0], slot[:, 0]],
                               v[k[:, 1], slot[:, 1]], atol=1e-12)


def test_interpolate_rejects_bad_shapes():
    s = FeSpace(msh.unit_square(1), "P1P1")
    with pytest.raises(SpaceError):
        interpolate(s, u=lambda x, y: x)
    with pytest.raises(SpaceError):
        interpolate(s, p=lambda x, y: np.stack([x, y], axis=-1))
