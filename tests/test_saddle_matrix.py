"""The saddle matrix as factored: one scatter of the element matrices,
in CSC and in elimination order, against the block assembly it
replaced, and handed to SuperLU without a copy."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from stokes_stab import estimator, forms, solver
from stokes_stab.forms import ExactSolution, StokesProblem, assemble_system
from stokes_stab.mesh import unit_square
from stokes_stab.space import FeSpace, P1P1, P2P1, point_values, scalar_basis
from stokes_stab.study import get_case


def _f(x, y):
    return np.stack([np.sin(3 * x) + y, x * y - 1.0], axis=-1)


def _lifted():
    # u = (y^2, x) is nonzero on the boundary: the lift is nonzero
    def u(x, y):
        return np.stack([y ** 2, x], axis=-1)

    def grad_u(x, y):
        g = np.zeros(x.shape + (2, 2))
        g[..., 0, 1] = 2 * y
        g[..., 1, 0] = 1.0
        return g

    return ExactSolution(u=u, grad_u=grad_u, p=lambda x, y: x - y)


def _block_system(space, problem, alpha):
    """The oracle, each step a copy: bmat of assemble_B minus alpha
    assemble_Sh, the Dirichlet lift, the free-dof slice, the
    mean-pressure border and the nested-dissection permutation."""
    A_uu, A_up = forms.assemble_B(space)
    M = sp.bmat([[A_uu, A_up], [A_up.T, None]], format="csr")
    rhs = forms.assemble_F(space, problem)
    if alpha != 0.0:
        M = (M - alpha * forms.assemble_Sh(space)).tocsr()
        rhs = rhs - alpha * forms.assemble_Lh(space, problem)
    if problem.exact is not None:
        z = np.zeros(space.n_dofs)
        z[space.dirichlet_dofs] = point_values(
            problem.exact.u, space.node_coords[space.dirichlet_nodes], "u",
            2).ravel()
        rhs = rhs - M @ z
    free = np.concatenate([space.free_velocity_dofs,
                           space.n_u + np.arange(space.n_p)])
    K, b = M[free][:, free].tocsr(), rhs[free]
    nodes = np.where(free < space.n_u, free // 2, free - space.n_u)
    perm = np.argsort(space.node_slots[nodes], kind="stable")
    if not space.mesh.has_neumann:
        c = np.zeros(len(free))
        mesh = space.mesh
        c[len(space.free_velocity_dofs):] = forms.scatter_add(
            mesh.triangles, np.repeat(mesh.areas / 3, 3), space.n_p)
        K = sp.bmat([[K, c[:, None]], [c[None, :], None]], format="csc")
        b = np.append(b, 0.0)
        perm = np.append(perm, len(free))
    K = K[perm][:, perm].tocsc()
    K.sort_indices()
    return K, b[perm], free, perm


def _graded_lshape():
    mesh = get_case("LSHAPE_PEAK").make_mesh(4)
    for _ in range(2):
        mesh = mesh.refine_marked(np.arange(0, mesh.n_triangles, 3))
    return mesh


def _cases():
    out = []
    meshes = {"dirichlet": lambda: unit_square(6),
              "neumann": lambda: unit_square(6, boundary={"right": "N"}),
              "graded": _graded_lshape}
    for pair in (P1P1, P2P1):
        for name, make in meshes.items():
            for alpha in (0.0, None):
                out.append(pytest.param(pair, make, alpha, False,
                                        id=f"{pair.label}-{name}-{alpha}"))
        out.append(pytest.param(pair, meshes["dirichlet"], None, True,
                                id=f"{pair.label}-dirichlet-lift"))
    return out


@pytest.mark.parametrize("pair,make_mesh,alpha,lift", _cases())
def test_one_scatter_matches_block_assembly(pair, make_mesh, alpha, lift):
    space = FeSpace(make_mesh(), pair)
    problem = StokesProblem(f=_f, alpha=alpha,
                            exact=_lifted() if lift else None)
    system = assemble_system(space, problem)
    K0, b0, free, perm = _block_system(space, problem, system.alpha)
    assert (system.dirichlet_values is not None) == lift
    assert np.array_equal(system.free_dofs, free)
    assert np.array_equal(system.order, perm)

    K = system.matrix
    assert K.format == "csc" and K.has_sorted_indices
    assert K.shape == K0.shape == (len(perm),) * 2
    # B - alpha S summed per element instead of block by block
    assert abs(K - K0).max() <= 1e-15 * abs(K0).max()
    scale = np.abs(b0).max()
    assert np.abs(system.rhs - b0).max() <= 1e-14 * scale


def test_scatter_csc_is_the_exact_sum_and_keeps_its_indices():
    # element matrices that are not symmetric: the CSC must be their
    # sum, not the CSR of the transposes read the other way round
    rng = np.random.default_rng(5)
    dofs = np.array([rng.permutation(9)[:4] for _ in range(30)],
                    dtype=np.int32)
    kept = dofs.copy()
    vals_t = rng.standard_normal((30, 4, 4))
    K = forms._scatter_csc(dofs, vals_t, 9)
    assert np.array_equal(dofs, kept)
    dense = np.zeros((9, 9))
    for d, v in zip(dofs, vals_t):
        dense[np.ix_(d, d)] += v.T
    assert K.format == "csc"
    assert np.abs(K.toarray() - dense).max() <= 1e-14


@pytest.mark.parametrize("pair,bound", [(P1P1, 23.5), (P2P1, 26.0)],
                         ids=["P1P1", "P2P1"])
@pytest.mark.parametrize("boundary", [None, {"right": "N"}],
                         ids=["bordered", "neumann"])
def test_assembly_transients_stay_small(pair, bound, boundary):
    # bytes allocated at the peak of assemble_system, per entry of the
    # element matrices: 8 for their values, 4 for the int32 columns of
    # the scatter, and the rest. Index arrays in int64, or a copy of
    # the element matrices alive through the scatter, push it past the
    # bound (P1P1 sits near 21, P2P1 near 24)
    mesh = unit_square(32) if boundary is None \
        else unit_square(32, boundary=boundary)
    space = FeSpace(mesh, pair)
    problem = StokesProblem(f=_f)
    system = assemble_system(space, problem)
    nloc = 2 * space.n_basis + 3 + system.bordered
    del system
    tracemalloc.start()
    try:
        assemble_system(space, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * mesh.n_triangles * nloc ** 2


def test_splu_gets_the_assembled_matrix(monkeypatch):
    # the fronts read the assembled matrix, and so does the COLAMD
    # factorization that takes over when a front fails
    system = assemble_system(FeSpace(unit_square(8), P2P1),
                             StokesProblem(f=_f))
    seen = []
    real_structure, real_splu = solver._front_structure, solver.splu

    def structure_spy(K, groups):
        seen.append(K)
        return real_structure(K, groups)

    def splu_spy(K, **options):
        seen.append(K)
        return real_splu(K, **options)

    monkeypatch.setattr(solver, "_front_structure", structure_spy)
    monkeypatch.setattr(solver, "splu", splu_spy)
    assert solver.solve(system).diagnostics["ordering"] == "multifrontal"
    monkeypatch.setattr(solver, "dgetrf",
                        lambda a: (a, np.zeros(len(a), np.int32), 1))
    assert solver.solve(system).diagnostics["ordering"] == "colamd"
    assert len(seen) == 3
    for K in seen:
        assert K.format == "csc"
        assert np.shares_memory(K.data, system.matrix.data)


@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
def test_osc_K_mass_matrix_arrives_in_csc_and_node_order(pair, monkeypatch):
    space = FeSpace(_graded_lshape(), pair)
    seen = []
    real = solver.ordered_solve

    def spy(K, b, order):
        if K.shape[0] == space.n_nodes:
            seen.append((K, order))
        return real(K, b, order)

    monkeypatch.setattr(solver, "ordered_solve", spy)
    estimator.oscillations(get_case("LSHAPE_PEAK").problem(), space)
    (K, order), = seen
    assert K.format == "csc"
    assert np.array_equal(order, np.argsort(space.node_slots, kind="stable"))
    # the node mass matrix in node numbering, permuted by copies
    rule = forms.quadrature(forms.error_degree(pair.velocity_degree))
    val, _ = scalar_basis(pair.velocity_degree, rule.points)
    mass = ((rule.weights[:, None] * val).T @ val)[None] \
        * (2.0 * space.mesh.areas)[:, None, None]
    nodes = space.elem_nodes
    M = forms._scatter_matrix(nodes, nodes, mass, (space.n_nodes,) * 2)
    M = M[order][:, order].tocsc()
    assert np.array_equal(K.indptr, M.indptr)
    assert np.array_equal(K.indices, M.indices)
    assert np.array_equal(K.data, M.data)
