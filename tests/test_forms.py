"""Quadrature, bilinear form assembly, and the stabilization pencil."""

import math

import numpy as np
import pytest

from stokes_stab import estimator, forms
from stokes_stab.forms import (
    InadmissibleAlphaError,
    StokesProblem,
    assemble_F,
    assemble_Lh,
    assemble_system,
    default_alpha,
    edge_quadrature,
    estimate_CI,
    quadrature,
)
from stokes_stab.mesh import NEUMANN, MeshError, TriMesh, unit_square
from stokes_stab.space import (FeSpace, P1P1, P2P1, element_residual,
                               interpolate, physical_points)
from stokes_stab.study import get_case

from oracles import _per_element_copy, assemble_B, assemble_Sh


def _fact(n):
    return math.factorial(n)


def test_quadrature_degree_one_is_centroid():
    q = quadrature(1)
    assert q.points.shape == (1, 2)
    assert np.allclose(q.points[0], [1 / 3, 1 / 3])
    assert np.allclose(q.weights, [0.5])


@pytest.mark.parametrize("degree", range(1, 11))
def test_quadrature_monomial_exactness(degree):
    # reference triangle: integral of x^a y^b is a! b! / (a+b+2)!
    q = quadrature(degree)
    assert np.all(q.weights > 0)
    assert abs(q.weights.sum() - 0.5) < 1e-14
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = _fact(a) * _fact(b) / _fact(a + b + 2)
            got = float(np.sum(q.weights * q.points[:, 0] ** a
                               * q.points[:, 1] ** b))
            assert abs(got - exact) < 1e-14, (a, b)


def test_quadrature_frozen_value():
    q = quadrature(4)
    got = float(np.sum(q.weights * q.points[:, 0] ** 2 * q.points[:, 1]))
    assert abs(got - 1 / 60) < 1e-15


def test_gauss_jacobi_literals_equal_scipy():
    # the committed nodes and weights are scipy's, bit for bit, for
    # every point count quadrature(1..10) uses
    from scipy.special import roots_jacobi
    assert len(forms._GAUSS_JACOBI) == (10 + 2) // 2
    for m, (x, w) in enumerate(forms._GAUSS_JACOBI, start=1):
        xj, wj = roots_jacobi(m, 1.0, 0.0)
        assert np.array_equal(x, xj) and np.array_equal(w, wj), m


@pytest.mark.parametrize("degree", range(1, 21))
def test_edge_quadrature_exactness(degree):
    pts, w = edge_quadrature(degree)
    assert np.all(w > 0)
    for k in range(degree + 1):
        got = float(np.sum(w * pts ** k))
        assert abs(got - 1 / (k + 1)) < 1e-14


@pytest.mark.parametrize("rule,degree,message", [
    (quadrature, 1.5, "quadrature degree must be an int, got 1.5"),
    (quadrature, 11, "quadrature degree must be in 1..10, got 11"),
    (edge_quadrature, 21, "edge quadrature degree must be in 1..20, got 21"),
], ids=["non-int", "above-10", "edge-above-20"])
def test_quadrature_rejects_bad_degrees(rule, degree, message):
    with pytest.raises(ValueError) as err:
        rule(degree)
    assert str(err.value) == message


def _linear_field(space, coefs_fn):
    xy = space.node_coords
    return coefs_fn(xy[:, 0], xy[:, 1])


@pytest.mark.parametrize("pair", [P1P1, P2P1])
def test_divergence_coupling_value(pair):
    # u = (x, 0) has div u = 1, so u' A_up 1 = -(div u, 1) = -|domain|
    mesh = unit_square(1)
    space = FeSpace(mesh, pair)
    A_uu, A_up = assemble_B(space)
    u, _ = interpolate(space, u=lambda x, y: np.stack([x, 0 * x], axis=-1))
    ones = np.ones(space.n_p)
    assert abs(u @ A_up @ ones + 1.0) < 1e-14


@pytest.mark.parametrize("pair,field,expected", [
    (P1P1, lambda x, y: np.stack([x, 0 * x], axis=-1), 1.0),
    (P1P1, lambda x, y: np.stack([x, y], axis=-1), 2.0),
    (P2P1, lambda x, y: np.stack([x, y], axis=-1), 2.0),
])
def test_strain_energy_value(pair, field, expected):
    mesh = unit_square(1)
    space = FeSpace(mesh, pair)
    A_uu, _ = assemble_B(space)
    u, _ = interpolate(space, u=field)
    assert abs(u @ A_uu @ u - expected) < 1e-13


def test_stabilization_pressure_block_value():
    # S applied to (w, r) = (0, x): sum over K of h_K^2 |grad r|^2 |K|
    # on unit_square(1) both triangles have h = sqrt(2), area 1/2
    mesh = unit_square(1)
    space = FeSpace(mesh, P1P1)
    S = assemble_Sh(space)
    z = np.zeros(space.n_dofs)
    z[space.n_u:] = space.node_coords[:, 0]
    assert abs(z @ S @ z - 2.0) < 1e-14


def test_stabilized_load_value():
    mesh = unit_square(1)
    space = FeSpace(mesh, P1P1)
    problem = StokesProblem(f=lambda x, y: np.stack([1 + 0 * x, 0 * x],
                                                    axis=-1))
    L = assemble_Lh(space, problem)
    z = np.zeros(space.n_dofs)
    z[space.n_u:] = space.node_coords[:, 0]
    assert abs(z @ L - 2.0) < 1e-14


def test_stabilization_forms_share_the_element_residual():
    # S_h and L_h are sums over K of |K| h_K^2 |r_K(z)|^2 and
    # h_K^2 (int_K f) . r_K(z) for the one element residual r_K
    base = unit_square(3)
    rng = np.random.default_rng(8)
    v = base.vertices.copy()
    inner = np.all((v > 0.0) & (v < 1.0), axis=1)
    v[inner] += rng.uniform(-0.05, 0.05, size=(inner.sum(), 2))
    mesh = TriMesh(v, base.triangles, base.boundary_tag_dict())
    space = FeSpace(mesh, P2P1)
    f = lambda x, y: np.stack([x * y + 1.0, x ** 2 - y], axis=-1)
    S = assemble_Sh(space)
    L = assemble_Lh(space, StokesProblem(f=f))

    q = quadrature(2)
    xy = physical_points(mesh, q.points)
    int_f = 2 * mesh.areas[:, None] * np.einsum(
        "q,eqc->ec", q.weights, f(xy[..., 0], xy[..., 1]))
    h2 = mesh.diameters ** 2
    for _ in range(3):
        z = rng.standard_normal(space.n_dofs)
        r = element_residual(space, z[:space.n_u], z[space.n_u:])
        sz = np.sum(mesh.areas * h2 * np.einsum("ec,ec->e", r, r))
        assert abs(z @ S @ z - sz) < 1e-12 * abs(sz)
        lz = np.sum(h2 * np.einsum("ec,ec->e", int_f, r))
        assert abs(z @ L - lz) < 1e-12 * max(1.0, abs(lz))


def test_load_vector_hat_masses():
    # constant f integrated against P1 hats gives a third of the
    # adjacent area per vertex
    mesh = unit_square(2)
    space = FeSpace(mesh, P1P1)
    problem = StokesProblem(f=lambda x, y: np.stack([1 + 0 * x, 0 * x],
                                                    axis=-1))
    F = assemble_F(space, problem)
    expected = np.zeros(mesh.n_vertices)
    for t, area in zip(mesh.triangles, mesh.areas):
        expected[t] += area / 3
    assert np.allclose(F[0:space.n_u:2], expected, atol=1e-14)
    assert np.allclose(F[1:space.n_u:2], 0.0)
    assert np.allclose(F[space.n_u:], 0.0)


@pytest.mark.parametrize("pair", [P1P1, P2P1])
def test_neumann_load_partition_of_unity(pair):
    # t = (1, 0) on the right side integrates to the side length
    mesh = unit_square(2, boundary={"right": "N"})
    space = FeSpace(mesh, pair)
    problem = StokesProblem(
        f=lambda x, y: np.zeros(x.shape + (2,)),
        t=lambda x, y: np.stack([1 + 0 * x, 0 * x], axis=-1))
    F = assemble_F(space, problem)
    assert abs(F[0:space.n_u:2].sum() - 1.0) < 1e-14
    assert abs(F[1:space.n_u:2].sum()) < 1e-15


def test_inverse_constant_p1_is_infinite():
    space = FeSpace(unit_square(2), P1P1)
    assert estimate_CI(space) == math.inf


def test_inverse_constant_p2_value_and_invariance():
    # right isoceles triangles: C_I = 1/84, identical on every level
    vals = []
    for n in (2, 4, 8):
        space = FeSpace(unit_square(n), P2P1)
        vals.append(estimate_CI(space))
    assert abs(vals[0] - 1 / 84) < 1e-12
    assert abs(vals[0] - vals[1]) < 1e-10
    assert abs(vals[1] - vals[2]) < 1e-10


def test_inverse_constant_bounds_random_quotients():
    rng = np.random.default_rng(7)
    space = FeSpace(unit_square(2), P2P1)
    c_i = estimate_CI(space)
    M_A, M_D = forms.inverse_inequality_pencils(space)
    bound = 1.0 / c_i
    for _ in range(200):
        v = rng.standard_normal(M_A.shape[2])
        num = v @ M_A[0] @ v
        den = v @ M_D[0] @ v
        if den > 1e-12:
            assert num / den <= bound * (1 + 1e-10)


def test_inverse_constant_matches_per_element_reference():
    # jittered interior vertices: every element has its own Jacobian,
    # so examining one element per distinct Jacobian must examine all
    import scipy.linalg
    base = unit_square(4)
    rng = np.random.default_rng(5)
    v = base.vertices.copy()
    inner = np.all((v > 0.0) & (v < 1.0), axis=1)
    v[inner] += rng.uniform(-0.05, 0.05, size=(inner.sum(), 2))
    mesh = TriMesh(v, base.triangles, base.boundary_tag_dict())
    J = mesh.jacobians.reshape(-1, 4)
    assert len(np.unique(J, axis=0)) == mesh.n_triangles
    space = FeSpace(mesh, P2P1)
    M_A, M_D = forms.inverse_inequality_pencils(space)
    lam_max = 0.0
    for A, D in zip(M_A, M_D):
        w, V = np.linalg.eigh(D)
        R = V[:, w > 1e-8 * w[-1]]   # complement of the rigid motions
        lam = scipy.linalg.eigh(R.T @ A @ R, R.T @ D @ R,
                                eigvals_only=True)
        lam_max = max(lam_max, lam[-1])
    assert abs(estimate_CI(space) * lam_max - 1.0) < 1e-10


def test_inverse_constant_degenerate_element_is_mesh_error():
    # a sliver of height 1e-9: the strain pencil cannot separate the
    # rigid motions, a fault of the mesh rather than of the solver
    mesh = TriMesh([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-9]], [[0, 1, 2]],
                   {(0, 1): "D", (1, 2): "D", (0, 2): "D"}, validate=False)
    with pytest.raises(MeshError, match="degenerate element"):
        estimate_CI(FeSpace(mesh, P2P1))


def test_inverse_constant_computed_once_per_space(monkeypatch):
    calls = []
    real = forms.estimate_CI

    def counting(space):
        calls.append(space)
        return real(space)

    monkeypatch.setattr(forms, "estimate_CI", counting)
    space = FeSpace(unit_square(2), P2P1)
    alpha = default_alpha(space)
    problem = StokesProblem(f=lambda x, y: np.stack([x, y], axis=-1))
    system = assemble_system(space, problem)
    assert system.alpha == alpha and space.c_i == 4.0 * alpha
    assert calls == [space]


@pytest.mark.parametrize("pair", [P1P1, P2P1])
def test_every_scatter_reads_a_class_table(pair, monkeypatch):
    # element data is stored per shape class: every matrix scatter
    # passes a class map, no volume table (the saddle matrix, the
    # pressure mass matrix, the osc_K mass matrix) holds more matrices
    # than the mesh has shape classes, and the osc_E trace has one
    # class per Neumann edge
    mesh = get_case("NEUMANN_STRIP").make_mesh(4)
    mesh = mesh.refine_marked(np.arange(0, mesh.n_triangles, 3))
    space = FeSpace(mesh, pair)
    problem = get_case("NEUMANN_STRIP").problem()
    real, calls = forms._scatter_matrix, []

    def spy(rows, cols, table, shape, classes):
        calls.append((len(rows), len(table), classes))
        return real(rows, cols, table, shape, classes)

    monkeypatch.setattr(forms, "_scatter_matrix", spy)
    forms.pressure_mass(space)
    estimator.oscillations(problem, space)
    assemble_system(space, problem).matrix
    volume = [c for c in calls if c[0] == mesh.n_triangles]
    edge = [c for c in calls if c[0] != mesh.n_triangles]
    assert len(volume) == 3 and len(edge) == 1
    for _, n, classes in volume:
        assert n == len(mesh.shape_representatives)
        assert np.array_equal(classes, mesh.shape_classes)
    n_neumann = int(np.sum(mesh.edge_tags == NEUMANN))
    assert edge[0][:2] == (n_neumann, n_neumann)
    assert np.array_equal(edge[0][2], np.arange(n_neumann))


@pytest.mark.parametrize("pair", [P1P1, P2P1])
def test_system_matrix_symmetric(pair):
    space = FeSpace(unit_square(2), pair)
    problem = StokesProblem(f=lambda x, y: np.stack([x, y], axis=-1))
    system = assemble_system(space, problem)
    gap = (system.matrix - system.matrix.T)
    assert abs(gap).max() < 1e-12


def test_default_alpha_policy():
    assert default_alpha(FeSpace(unit_square(2), P1P1)) == 0.1
    a2 = default_alpha(FeSpace(unit_square(2), P2P1))
    assert abs(a2 - (1 / 84) / 4) < 1e-12


def test_alpha_validation():
    space = FeSpace(unit_square(2), P2P1)

    def mk(alpha):
        return StokesProblem(f=lambda x, y: np.stack([x, y], axis=-1),
                             alpha=alpha)

    with pytest.raises(ValueError):
        assemble_system(space, mk(-0.5))
    with pytest.raises(InadmissibleAlphaError):
        assemble_system(space, mk(0.012))
    # alpha = 0 assembles (stability is the solver's problem)
    system = assemble_system(space, mk(0.0))
    assert system.alpha == 0.0
    # P1 has no finite ceiling
    space1 = FeSpace(unit_square(2), P1P1)
    system1 = assemble_system(space1, mk(5.0))
    assert system1.alpha == 5.0


def test_p1_stabilization_uses_the_pressure_rows_alone():
    # P1 velocity has div D = 0, so R keeps its three grad psi rows;
    # S_h and L_h store what the operator padded with zero velocity
    # rows gives, bit for bit
    mesh = get_case("LSHAPE_PEAK").make_mesh(4)
    mesh = mesh.refine_marked(np.arange(0, mesh.n_triangles, 3))
    space = FeSpace(mesh, P1P1)
    R = space.residual_operator
    assert R.shape == (len(mesh.shape_representatives), 3, 2)
    full = np.zeros((mesh.n_triangles, 9, 2))
    full[:, 6:] = R[mesh.shape_classes]
    # the element dof map: velocity interleaved, then pressure
    en = space.elem_nodes
    dofs = np.hstack([np.stack([2 * en, 2 * en + 1], axis=-1).reshape(
        len(en), -1), space.n_u + mesh.triangles])
    assert np.array_equal(space.element_dofs, dofs)
    assert np.array_equal(space.residual_dofs, dofs[:, 6:])
    loc = np.einsum("eir,ejr->eij", full, full) \
        * (mesh.areas * mesh.diameters ** 2)[:, None, None]
    S_old = forms._scatter_matrix(dofs, dofs, loc,
                                  (space.n_dofs, space.n_dofs),
                                  np.arange(len(dofs)))
    S = assemble_Sh(space)
    assert np.array_equal(S.indptr, S_old.indptr)
    assert np.array_equal(S.indices, S_old.indices)
    assert np.array_equal(S.data, S_old.data)

    problem = get_case("LSHAPE_PEAK").problem()
    rule = forms.volume_rule(space, "volume_load")
    int_f = np.einsum("q,eqr->er", rule.weights, forms.rule_values(
        space, rule.degree, problem.f)) * (2.0 * mesh.areas)[:, None]
    loc = np.einsum("er,eir->ei", int_f, full) \
        * (mesh.diameters ** 2)[:, None]
    assert np.array_equal(assemble_Lh(space, problem),
                          forms.scatter_add(dofs, loc, space.n_dofs))


@pytest.mark.parametrize("pair", [P1P1, P2P1])
@pytest.mark.parametrize("case", ["LSHAPE_PEAK", "NEUMANN_STRIP"])
def test_inverse_pencils_are_the_assembled_element_matrices(case, pair):
    # alpha < C_I is sufficient only if C_I comes from the forms the
    # system assembles: read by shape class and scattered over all
    # elements, M_D is A_uu and M_A the velocity block of S_h (both
    # built per element), bit for bit
    mesh = get_case(case).make_mesh(4)
    mesh = mesh.refine_marked(np.arange(0, mesh.n_triangles, 3))
    space = FeSpace(mesh, pair)
    M_A, M_D = forms.inverse_inequality_pencils(space)
    assert len(M_A) == len(M_D) == len(mesh.shape_representatives)
    vd = space.element_dofs[:, :2 * space.n_basis]
    shape, cls = (space.n_u, space.n_u), mesh.shape_classes
    A_uu, _ = assemble_B(space)
    S_uu = assemble_Sh(space)[:space.n_u, :space.n_u]
    assert (forms._scatter_matrix(vd, vd, M_D, shape, cls) - A_uu).nnz == 0
    assert (forms._scatter_matrix(vd, vd, M_A, shape, cls) - S_uu).nnz == 0


@pytest.mark.parametrize("pair", [P1P1, P2P1])
def test_coercivity_identity(pair):
    # testing (w, r) against (w, -r) cancels the coupling exactly:
    # B_h = |D(w)|^2 - alpha sum h^2 |A w|^2 + alpha sum h^2 |grad r|^2
    rng = np.random.default_rng(3)
    mesh = unit_square(4)
    space = FeSpace(mesh, pair)
    alpha = 0.05
    A_uu, A_up = assemble_B(space)
    S = assemble_Sh(space)

    q = quadrature(6)
    from stokes_stab import space as spc
    w = rng.standard_normal(space.n_u)
    r = rng.standard_normal(space.n_p)

    G = spc.velocity_gradients(space, w, q.points)
    D = 0.5 * (G + np.swapaxes(G, -1, -2))
    Aw = -spc.element_residual(space, w, np.zeros(space.n_p))
    gr = spc.element_residual(space, np.zeros(space.n_u), r)
    w2 = 2 * mesh.areas
    normD2 = float(np.einsum("eqab,eqab,q,e->", D, D, q.weights, w2))
    h2 = mesh.diameters ** 2
    sAw2 = float(np.sum(h2 * mesh.areas * np.einsum("ec,ec->e", Aw, Aw)))
    sgr2 = float(np.sum(h2 * mesh.areas * np.einsum("ec,ec->e", gr, gr)))

    z = np.concatenate([w, r])
    zm = np.concatenate([w, -r])
    from scipy.sparse import bmat
    B = bmat([[A_uu, A_up], [A_up.T, None]], format="csr")
    lhs = float(zm @ (B - alpha * S) @ z)
    rhs = normD2 - alpha * sAw2 + alpha * sgr2
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_quadrature_degrees_recorded():
    qd = forms.quad_degrees(2)
    assert qd["volume_matrix"] == 4
    assert qd["volume_load"] == 6
    assert qd["edge"] == 6


# ----------------------------------------------------------------------
# element kernels built once per shape class, read through shape_classes

def _jittered_mesh():
    # every element has its own Jacobian, so its own shape class
    base = unit_square(4)
    rng = np.random.default_rng(5)
    v = base.vertices.copy()
    inner = np.all((v > 0.0) & (v < 1.0), axis=1)
    v[inner] += rng.uniform(-0.05, 0.05, size=(inner.sum(), 2))
    return TriMesh(v, base.triangles, base.boundary_tag_dict())


def _signed_zero_mesh():
    # x = -0.0 at the vertex (0, 0.5) gives one element the Jacobian
    # entry -0.0 where its congruent neighbours hold 0.0
    base = unit_square(4)
    v = base.vertices.copy()
    v[2] = (-0.0, 0.5)
    return TriMesh(v, base.triangles, base.boundary_tag_dict())


def _translates_mesh():
    # equal Jacobians; the diameters (edge v1-v2) differ in the last bit
    p = np.array([[0.163, 0.29], [0.499, 0.039], [0.494, 0.844]])
    return TriMesh(np.vstack([p, p + [0.22, 0.21]]), [[0, 1, 2], [3, 4, 5]],
                   {e: "D" for e in [(0, 1), (1, 2), (0, 2),
                                     (3, 4), (4, 5), (3, 5)]})


def _graded_lshape_mesh():
    mesh = get_case("LSHAPE_PEAK").make_mesh(4)
    for _ in range(4):
        mesh = mesh.refine_marked(np.arange(0, mesh.n_triangles, 3))
    return mesh


SHAPE_MESHES = {
    "uniform": lambda: unit_square(4),
    "graded_lshape": _graded_lshape_mesh,
    "jittered": _jittered_mesh,
    "signed_zero": _signed_zero_mesh,
    "translates": _translates_mesh,
}


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def test_shape_meshes_cover_one_class_to_one_per_element():
    n_classes = {name: len(make().shape_representatives)
                 for name, make in SHAPE_MESHES.items()}
    assert n_classes["uniform"] == 2
    assert 2 < n_classes["graded_lshape"] < _graded_lshape_mesh().n_triangles
    assert n_classes["jittered"] == _jittered_mesh().n_triangles
    # one class more than the values of the Jacobians and diameters give
    assert n_classes["signed_zero"] == 3
    assert n_classes["translates"] == 2


@pytest.mark.parametrize("bordered", [True, False])
@pytest.mark.parametrize("pair", [P1P1, P2P1])
@pytest.mark.parametrize("mesh_name", sorted(SHAPE_MESHES))
def test_saddle_element_matrices_equal_the_per_element_ones(mesh_name, pair,
                                                            bordered):
    mesh = SHAPE_MESHES[mesh_name]()
    alpha = 0.3 * default_alpha(FeSpace(mesh, pair))
    # the class table, read through shape_classes, is the per-element
    # table (every element its own class) bit for bit
    dofs, T = forms._saddle_local(FeSpace(mesh, pair), alpha, bordered)
    ref_dofs, ref_T = forms._saddle_local(
        FeSpace(_per_element_copy(mesh), pair), alpha, bordered)
    assert np.array_equal(dofs, ref_dofs)
    assert len(T) == len(mesh.shape_representatives)
    assert _same_bits(T[mesh.shape_classes], ref_T)


@pytest.mark.parametrize("pair", [P1P1, P2P1])
@pytest.mark.parametrize("mesh_name", sorted(SHAPE_MESHES))
def test_residual_operator_equals_the_per_element_one(mesh_name, pair):
    # read through shape_classes, the class table is the per-element
    # operator (every element its own class) bit for bit
    mesh = SHAPE_MESHES[mesh_name]()
    R = FeSpace(mesh, pair).residual_operator
    ref = FeSpace(_per_element_copy(mesh), pair).residual_operator
    assert _same_bits(R[mesh.shape_classes], ref)
    assert not R.flags.writeable


@pytest.mark.parametrize("pair", [P1P1, P2P1])
@pytest.mark.parametrize("mesh_name", ["uniform", "graded_lshape"])
def test_residual_operator_has_one_row_per_shape_class(mesh_name, pair):
    # the space keeps the class table alone, also after an assembly that
    # reads it for every element
    mesh = SHAPE_MESHES[mesh_name]()
    space = FeSpace(mesh, pair)
    problem = StokesProblem(f=lambda x, y: np.stack([x, y], axis=-1))
    assemble_system(space, problem)
    R = space.__dict__["residual_operator"]
    n_classes = len(mesh.shape_representatives)
    assert n_classes < mesh.n_triangles
    rows = 2 * space.n_basis + 3 if pair == P2P1 else 3
    assert R.shape == (n_classes, rows, 2)


@pytest.mark.parametrize("pair", [P1P1, P2P1])
@pytest.mark.parametrize("case", ["LSHAPE_PEAK", "NEUMANN_STRIP"])
def test_saddle_system_equals_the_per_element_one(case, pair):
    # bordered (LSHAPE_PEAK, lifted Dirichlet data) and Neumann
    # (NEUMANN_STRIP): the gathered matrices pass the Dirichlet
    # elimination and the scatter to the same system, bit for bit
    case = get_case(case)
    mesh = case.make_mesh(4)
    mesh = mesh.refine_marked(np.arange(0, mesh.n_triangles, 3))
    problem = case.problem()
    system = assemble_system(FeSpace(mesh, pair), problem)
    ref = assemble_system(FeSpace(_per_element_copy(mesh), pair), problem)
    assert system.bordered == (not mesh.has_neumann)
    for name in ("indptr", "indices", "data"):
        assert _same_bits(getattr(system.matrix, name),
                          getattr(ref.matrix, name))
    assert _same_bits(system.rhs, ref.rhs)


def test_saddle_kernels_run_on_the_shape_classes_alone(monkeypatch):
    # unit_square(32) has 2048 elements in 2 shape classes: the strain
    # and residual kernels build one matrix per class
    sizes = []
    for name in ("_strain_local", "_residual_local"):
        def counted(space, real=getattr(forms, name)):
            out = real(space)
            sizes.append(len(out))
            return out
        monkeypatch.setattr(forms, name, counted)
    mesh = unit_square(32)
    problem = StokesProblem(f=lambda x, y: np.stack([x, y], axis=-1))
    assemble_system(FeSpace(mesh, P2P1), problem)
    assert len(sizes) == 4   # C_I's pencils and the saddle matrices
    assert max(sizes) <= 2 == len(mesh.shape_representatives)
