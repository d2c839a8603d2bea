"""The saddle matrix in element form: the matrix built on demand by one
scatter of the element matrices, in CSC and in elimination order,
against the block assembly it replaced and, bit for bit, against the
oracle's whole-mesh product, and handed to SuperLU without a copy; the
transients of that scatter; the class-table product and the element
fronts against the oracle's matrix."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from stokes_stab import forms, solver
from stokes_stab.forms import ExactSolution, StokesProblem, assemble_system
from stokes_stab.mesh import TriMesh, unit_square
from stokes_stab.space import FeSpace, P1P1, P2P1, point_values
from stokes_stab.study import CASE_NAMES, get_case

from oracles import (assemble_B, assemble_Sh, element_fronts,
                     saddle_matrix, whole_mesh_scatter)


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
    A_uu, A_up = assemble_B(space)
    M = sp.bmat([[A_uu, A_up], [A_up.T, None]], format="csr")
    rhs = forms.assemble_F(space, problem)
    if alpha != 0.0:
        M = (M - alpha * assemble_Sh(space)).tocsr()
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
    # row i of K0 is unknown perm[i] of the free dofs and the border
    unknowns = np.append(free, space.n_dofs)[perm]
    rows = np.full(space.n_dofs + 1, -1)
    rows[unknowns] = np.arange(len(perm))
    assert np.array_equal(system.rows, rows)

    K = system.matrix
    assert K.format == "csc" and K.has_sorted_indices
    assert K.shape == K0.shape == (len(perm),) * 2
    # K sums each element's B_K - alpha S_K; K0 sums the whole-mesh
    # operators A_uu, A_up and S_h, then subtracts
    assert abs(K - K0).max() <= 1e-15 * abs(K0).max()
    scale = np.abs(b0).max()
    assert np.abs(system.rhs - b0).max() <= 1e-14 * scale


def _with_sides(mesh, neumann):
    """The mesh with every boundary edge Dirichlet, or with the edges
    on its largest x Neumann."""
    x = mesh.vertices[:, 0]
    tags = {}
    for (i, j) in mesh.boundary_tag_dict():
        on_side = neumann and x[i] == x[j] == x.max()
        tags[(i, j)] = "N" if on_side else "D"
    return TriMesh(mesh.vertices, mesh.triangles, tags)


def _graded(levels):
    mesh = get_case("LSHAPE_PEAK").make_mesh(8)
    for _ in range(levels):
        near = np.linalg.norm(mesh.corner_coords.mean(axis=1), axis=1) < 0.3
        mesh = mesh.refine_marked(near)
    return mesh


def _bit_cases():
    out = []
    for pair in (P1P1, P2P1):
        for case in CASE_NAMES:
            for neumann in (False, True):
                side = "neumann" if neumann else "bordered"
                out.append(pytest.param(
                    pair, case, lambda c=case, nm=neumann: _with_sides(
                        get_case(c).make_mesh(16), nm),
                    id=f"{pair.label}-{case}-{side}"))
        for levels in (1, 2, 3):
            out.append(pytest.param(pair, "LSHAPE_PEAK",
                                    lambda lv=levels: _graded(lv),
                                    id=f"{pair.label}-graded{levels}"))
    return out


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("pair,case,make_mesh", _bit_cases())
def test_scatter_keeps_the_whole_mesh_bits(pair, case, make_mesh):
    # K sums its entries in the (e, i, j) order of the oracle's
    # whole-mesh product, so data, indices and indptr are the same
    # arrays
    space = FeSpace(make_mesh(), pair)
    system = assemble_system(space, get_case(case).problem())
    K = system.matrix
    ref = saddle_matrix(space, system.alpha, system.bordered)
    assert K.format == "csc" and K.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        assert _same_bits(getattr(K, name), getattr(ref, name)), name


def test_scatter_matrix_is_the_exact_sum_and_keeps_its_indices():
    # element matrices that are not symmetric, read from a class table:
    # out is their sum, row by row, without the rows and columns of the
    # dropped dofs (-1), and equals the whole-mesh product bit for bit
    rng = np.random.default_rng(5)
    rows = np.array([rng.permutation(9)[:4] for _ in range(30)],
                    dtype=np.int32)
    rows[rng.random(rows.shape) < 0.1] = -1
    kept = rows.copy()
    table = rng.standard_normal((5, 4, 4))
    classes = rng.integers(0, 5, 30)
    out = forms._scatter_matrix(rows, table, 9, classes)
    assert np.array_equal(rows, kept)
    vals = table[classes] * (rows >= 0)[:, :, None] * (rows >= 0)[:, None]
    dense = np.zeros((9, 9))
    for r, v in zip(rows, vals):
        for i in range(4):
            for j in range(4):
                if r[i] >= 0 and r[j] >= 0:
                    dense[r[i], r[j]] += v[i, j]
    assert out.format == "csr" and out.has_sorted_indices
    assert np.abs(out.toarray() - dense).max() <= 1e-14
    ref = whole_mesh_scatter(np.maximum(rows, 0), np.maximum(rows, 0),
                             vals, (9, 9))
    for name in ("data", "indices", "indptr"):
        assert _same_bits(getattr(out, name), getattr(ref, name)), name
    # and the same sum read from a table of one matrix per element,
    # each element its own class
    again = forms._scatter_matrix(rows, table[classes], 9,
                                  np.arange(len(rows)))
    for name in ("data", "indices", "indptr"):
        assert _same_bits(getattr(again, name), getattr(out, name)), name


@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
def test_matrix_buffers_hold_the_stored_entries_only(pair):
    # entries that sum to exactly zero (the P1 strain couplings across
    # the uniform mesh's diagonals, among others) are not stored, and
    # K's data and indices buffers are no longer than its stored entries
    def buffer(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    case = get_case("SMOOTH_SQUARE")
    space = FeSpace(case.make_mesh(32), pair)
    K = assemble_system(space, case.problem()).matrix
    assert buffer(K.data).size == buffer(K.indices).size == K.nnz


@pytest.mark.parametrize("pair,n", [(P1P1, 32), (P2P1, 32), (P2P1, 64)],
                         ids=["P1P1", "P2P1", "P2P1-n64"])
@pytest.mark.parametrize("boundary", [None, {"right": "N"}],
                         ids=["bordered", "neumann"])
def test_assembly_transients_stay_small(pair, n, boundary):
    # bytes allocated at the peak of assemble_system, per entry of the
    # element matrices. assemble_system builds no K: it keeps one table
    # of element matrices per shape class and each element's int32
    # rows, so its peak is set by the load vectors' transients (near
    # 2.6-3.3 for every case here); an array of all the element
    # matrices' entries (8 bytes per entry for the values) pushes it
    # past the bound
    mesh = unit_square(n) if boundary is None \
        else unit_square(n, boundary=boundary)
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
    assert peak <= 4.0 * mesh.n_triangles * nloc ** 2


@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
@pytest.mark.parametrize("boundary", [None, {"right": "N"}],
                         ids=["bordered", "neumann"])
def test_matrix_build_transients_stay_small(pair, boundary):
    # bytes allocated at the peak of reading system.matrix, beside K's
    # own arrays, per entry of the element matrices. The scatter's L
    # holds 8 bytes per entry for the values and 4 for the int32
    # columns, P and L's row pointers a few bytes per element row, and
    # the product's arrays are sized by K's structural entries; the
    # peak sits near 13.3-14.6. An int64 copy of the columns or a
    # second copy of the values pushes it past 16
    mesh = unit_square(32) if boundary is None \
        else unit_square(32, boundary=boundary)
    system = assemble_system(FeSpace(mesh, pair), StokesProblem(f=_f))
    rows = system.element_rows
    tracemalloc.start()
    try:
        K = system.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
    assert peak <= own + 16 * len(rows) * rows.shape[1] ** 2


def test_splu_gets_the_assembled_matrix(monkeypatch):
    # the fronts read the element input and never build K; the COLAMD
    # factorization that takes over when a front fails gets the matrix
    # built for it then, and the diagnosis of a failure reads it too
    space = FeSpace(unit_square(8), P2P1)
    system = assemble_system(space, StokesProblem(f=_f))
    seen, scatters = [], []
    real_scatter, real_splu = forms._scatter_matrix, solver.splu

    def scatter_spy(rows, table, n, classes):
        scatters.append(n)
        return real_scatter(rows, table, n, classes)

    def splu_spy(K, **options):
        seen.append(K)
        return real_splu(K, **options)

    monkeypatch.setattr(forms, "_scatter_matrix", scatter_spy)
    monkeypatch.setattr(solver, "splu", splu_spy)
    assert solver.solve(system).diagnostics["ordering"] == "multifrontal"
    assert scatters == [] and seen == [] and "matrix" not in vars(system)
    monkeypatch.setattr(solver, "dgetrf",
                        lambda a: (a, np.zeros(len(a), np.int32), 1))
    assert solver.solve(system).diagnostics["ordering"] == "colamd"
    n = len(system.rhs)
    assert scatters == [n] and len(seen) == 1
    K = seen[0]
    assert K.format == "csc" and K is system.matrix
    ref = saddle_matrix(space, system.alpha, system.bordered)
    for name in ("data", "indices", "indptr"):
        assert _same_bits(getattr(K, name), getattr(ref, name)), name


def _product_cases():
    out = []
    for pair in (P1P1, P2P1):
        out += [
            pytest.param(pair, unit_square(6), StokesProblem(
                f=_f, exact=_lifted()), id=f"{pair.label}-bordered-lift"),
            pytest.param(pair, unit_square(6, boundary={"right": "N"}),
                         StokesProblem(f=_f), id=f"{pair.label}-neumann"),
            pytest.param(pair, _graded(2), get_case("LSHAPE_PEAK").problem(),
                         id=f"{pair.label}-graded"),
        ]
    return out


@pytest.mark.parametrize("pair,mesh,problem", _product_cases())
def test_class_table_product_is_the_oracle_matrix_product(pair, mesh,
                                                          problem):
    # the residual product of the fronts, gathered and scatter-added per
    # shape class, against K @ x of the one whole-mesh product; at
    # unit_square(6) rounding splits the 72 elements into 32 classes
    space = FeSpace(mesh, pair)
    system = assemble_system(space, problem)
    if mesh.n_triangles == 72:
        assert len(mesh.shape_representatives) == 32
    assert (system.dirichlet_values is not None) == (problem.exact
                                                     is not None)
    K = saddle_matrix(space, system.alpha, system.bordered)
    rng = np.random.default_rng(3)
    for x in (rng.standard_normal(K.shape[0]), system.rhs):
        got, want = system.product(x), K @ x
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert "matrix" not in vars(system)


@pytest.mark.parametrize("pair", [P1P1, P2P1], ids=["P1P1", "P2P1"])
@pytest.mark.parametrize("make_mesh", [
    lambda: unit_square(4), lambda: unit_square(4, boundary={"right": "N"}),
    lambda: _graded(1)], ids=["bordered", "neumann", "graded"])
def test_every_element_front_is_its_schur_complement(pair, make_mesh):
    # each front's own columns, assembled from its elements and its
    # children's updates, are those of K (the oracle's) after the
    # elimination of every row of the group's subtree below it
    space = FeSpace(make_mesh(), pair)
    system = assemble_system(space, StokesProblem(f=_f))
    K = saddle_matrix(space, system.alpha, system.bordered).toarray()
    structure = solver._front_structure(system)
    groups = system.groups
    ends = np.append(groups[1:], len(system.rhs))
    below = [[] for _ in groups]   # the rows of each group's subtree
    for g, (front, _, _, _) in enumerate(element_fronts(system, structure)):
        own = np.arange(groups[g], ends[g])
        d = np.array(below[g], dtype=int)
        f = structure.fronts[g]
        S = K[np.ix_(f, own)]
        if len(d):
            S = S - K[np.ix_(f, d)] @ np.linalg.solve(K[np.ix_(d, d)],
                                                      K[np.ix_(d, own)])
        k = len(own)
        assert np.abs(front[:, :k] - S).max() <= 1e-13 * np.abs(K).max()
        if len(f) > k:
            parent = np.searchsorted(groups, f[k], side="right") - 1
            below[parent] += below[g] + own.tolist()
