import importlib.util
import math
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from stokes_stab import mesh as meshmod
from stokes_stab.mesh import (DIRICHLET, INTERIOR, NEUMANN, MeshError,
                              MeshFormatError, TriMesh, generate_structured,
                              l_shape, unit_square)
from stokes_stab.study import get_case

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def _l_shape_tagged(n, tag_of):
    """l_shape(n) with each boundary edge tagged tag_of(x, y) at its
    midpoint."""
    m = l_shape(n)
    v = m.vertices
    tags = {(i, j): tag_of(*(0.5 * (v[i] + v[j])))
            for i, j in m.boundary_tag_dict()}
    return TriMesh(v, m.triangles, tags)


def dirichlet_segments(mesh):
    idx = np.flatnonzero(mesh.edge_tags == DIRICHLET)
    return mesh.vertices[mesh.edges[idx]]


def test_unit_square_counts():
    m = unit_square(1)
    assert (m.n_vertices, m.n_triangles) == (4, 2)
    m = unit_square(2)
    assert (m.n_vertices, m.n_triangles) == (9, 8)
    for n in (1, 2, 5):
        m = unit_square(n)
        assert m.n_triangles == 2 * n * n
        assert np.isclose(m.areas.sum(), 1.0)


def test_l_shape_counts_and_area():
    m = l_shape(2)
    assert (m.n_vertices, m.n_triangles) == (8, 6)
    assert np.isclose(m.areas.sum(), 3.0)
    m = l_shape(4)
    assert m.n_triangles == 24
    assert np.isclose(m.areas.sum(), 3.0)
    assert m.audit().ok


def test_l_shape_rejects_odd_n():
    with pytest.raises(MeshError):
        l_shape(3)
    with pytest.raises(MeshError):
        l_shape(1)


def test_generate_structured_dispatch():
    assert generate_structured("unit_square", 2).n_triangles == 8
    assert generate_structured("l_shape", 2).n_triangles == 6
    with pytest.raises(MeshError):
        generate_structured("disk", 2)


def test_orientation_and_refinement_edge_is_longest():
    for m in (unit_square(3), l_shape(2)):
        assert np.all(m.signed_areas > 0)
        c = m.corner_coords
        e01 = np.linalg.norm(c[:, 1] - c[:, 0], axis=1)
        assert np.allclose(e01, m.diameters)


def test_boundary_side_tags():
    m = unit_square(2, boundary={"right": "N"})
    mids = 0.5 * (m.vertices[m.edges[:, 0]] + m.vertices[m.edges[:, 1]])
    on_right = np.isclose(mids[:, 0], 1.0)
    assert np.all(m.edge_tags[on_right] == NEUMANN)
    tagged = m.edge_tags != INTERIOR
    assert np.all(m.edge_tags[tagged & ~on_right] == DIRICHLET)
    with pytest.raises(MeshError):
        unit_square(2, boundary={"diagonal": "N"})


def test_construction_rejects_bad_input():
    m = unit_square(1)
    with pytest.raises(MeshError):
        TriMesh(m.vertices, m.triangles, {})  # untagged boundary
    with pytest.raises(MeshError):
        TriMesh(m.vertices, m.triangles,
                {k: "N" for k in m.boundary_tag_dict()})  # no Dirichlet part
    with pytest.raises(MeshError):
        TriMesh(m.vertices, np.array([[0, 1, 9]]), m.boundary_tag_dict())
    flipped = m.triangles.copy()
    flipped[0] = flipped[0][[1, 0, 2]]
    with pytest.raises(MeshError):
        TriMesh(m.vertices, flipped, m.boundary_tag_dict())


@pytest.mark.parametrize("build,message", [
    (lambda: TriMesh(np.zeros((3, 3)), [[0, 1, 2]], {}),
     "vertices must be (nv, 2), got (3, 3)"),
    (lambda: TriMesh(np.zeros((3, 2)), [[0, 1, 2, 0]], {}),
     "triangles must be (nt, 3), got (1, 4)"),
    (lambda: unit_square(2, "N"), "boundary must be None or a side->tag dict"),
    (lambda: unit_square(2, {"left": "X"}),
     "boundary tags must be D or N, got ['X']"),
    (lambda: generate_structured("l_shape", 2, {"right": "N"}),
     "l_shape is all Dirichlet and takes no boundary"),
], ids=["vertices-shape", "triangles-shape", "square-not-dict",
        "square-tag", "lshape-boundary"])
def test_constructors_name_bad_arguments(build, message):
    with pytest.raises(MeshError) as err:
        build()
    assert str(err.value) == message


_SQUARE_TAGS = {(0, 1): "D", (1, 2): "D", (2, 3): "N", (0, 3): "D"}


@pytest.mark.parametrize("tags,message", [
    ({**_SQUARE_TAGS, (1, 3): "D"}, "tagged edge (1, 3) not present in mesh"),
    ({**_SQUARE_TAGS, (1, 2): "X"}, "unknown boundary tag 'X' on edge (1, 2)"),
    ({**_SQUARE_TAGS, (1, 0): "N"}, "edge (0, 1) tagged more than once"),
    ({**_SQUARE_TAGS, (2, 0): "D"},
     "interior edges carry boundary tags: [(0, 2)]"),
], ids=["not-in-mesh", "unknown-tag", "tagged-twice", "interior-tag"])
def test_construction_names_bad_boundary_tags(tags, message):
    # two triangles of the unit square; (0, 2) is their shared edge
    v = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    tri = [[0, 1, 2], [0, 2, 3]]
    with pytest.raises(MeshError) as err:
        TriMesh(v, tri, tags)
    assert str(err.value) == message
    # without validation, a tag off the mesh is dropped and an interior
    # tag kept; the tag's name and uniqueness are checked all the same
    if message.startswith(("tagged edge", "interior")):
        TriMesh(v, tri, tags, validate=False)
    else:
        with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
            TriMesh(v, tri, tags, validate=False)


def test_immutability():
    m = unit_square(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 7.0
    with pytest.raises(ValueError):
        m.triangles[0, 0] = 3


def test_element_geometry():
    m = unit_square(2)
    assert np.isclose(m.areas[0], 1.0 / 8.0)
    assert np.isclose(m.diameters[0], np.sqrt(2) / 2)
    J = m.jacobians[0]
    assert np.allclose(J @ m.inv_jacobians_t[0].T, np.eye(2))
    # gradient pushforward consistency: affine map reproduces corners
    c = m.corner_coords[0]
    x = c[0] + J @ np.array([1.0, 0.0])
    assert np.allclose(x, c[1])


def test_shape_classes_key_the_bytes_of_jacobian_and_diameter():
    m = unit_square(6)
    cls, reps = m.shape_classes, m.shape_representatives
    # numbered in order of first appearance, each led by its first element
    assert np.array_equal(cls[reps], np.arange(len(reps)))
    assert np.array_equal(reps, [np.flatnonzero(cls == c)[0]
                                 for c in range(len(reps))])
    key = np.hstack([m.jacobians.reshape(-1, 4), m.diameters[:, None]])
    assert np.array_equal(key.view(np.int64), key[reps[cls]].view(np.int64))
    assert len(reps) == len(np.unique(key[reps].view(np.int64), axis=0))

    # translates of one triangle: equal Jacobians, but the diameter (the
    # edge v1-v2, taken from the vertices) rounds apart in its last bit
    p = np.array([[0.163, 0.29], [0.499, 0.039], [0.494, 0.844]])
    m = TriMesh(np.vstack([p, p + [0.22, 0.21]]), [[0, 1, 2], [3, 4, 5]],
                {e: "D" for e in [(0, 1), (1, 2), (0, 2),
                                  (3, 4), (4, 5), (3, 5)]})
    assert m.jacobians[0].tobytes() == m.jacobians[1].tobytes()
    assert m.diameters[0] != m.diameters[1]
    assert m.shape_classes.tolist() == [0, 1]

    # -0.0 and 0.0 are distinct bytes
    v = unit_square(2).vertices.copy()
    v[1] = (-0.0, 0.5)
    m = TriMesh(v, unit_square(2).triangles, unit_square(2).boundary_tag_dict())
    assert np.any(np.signbit(m.jacobians) & (m.jacobians == 0.0))
    assert len(m.shape_representatives) == 3


def test_refine_uniform_counts_and_similarity():
    m = unit_square(2)
    r = m.refine_uniform()
    assert r.n_triangles == 4 * m.n_triangles
    assert r.n_vertices == m.n_vertices + m.n_edges
    assert np.isclose(r.areas.sum(), m.areas.sum())
    assert np.allclose(r.areas, m.areas[r.parents] / 4)
    # children are similar to parents: angle set unchanged
    assert np.isclose(r.min_angle_deg, m.min_angle_deg)
    assert r.audit().ok


def test_refine_marked_empty_is_identity():
    m = unit_square(2)
    r = m.refine_marked([])
    assert r.n_triangles == m.n_triangles
    assert r.n_vertices == m.n_vertices


def test_refine_marked_bisects_and_conforms():
    m = unit_square(2)
    r = m.refine_marked([0])
    # the neighbor across the shared refinement edge is forced too
    assert r.n_triangles == m.n_triangles + 2
    assert np.isclose(r.areas.sum(), m.areas.sum())
    for k in np.flatnonzero(r.parents == 0):
        assert r.areas[k] < m.areas[0]
    assert r.audit().ok


def test_refine_marked_closure_terminates_and_conforms():
    rng = np.random.default_rng(7)
    m = unit_square(2, boundary={"top": "N"})
    for _ in range(10):
        marked = rng.random(m.n_triangles) < 0.35
        m = m.refine_marked(marked)
        assert m.audit().ok and m.min_angle_deg >= 20.0
    assert np.isclose(m.areas.sum(), 1.0)
    # right isoceles bisection preserves the shape class exactly
    assert m.min_angle_deg > 44.9


def _closure_by_full_rescan(m, marked):
    # reference fixpoint: every pass rescans all triangles
    edge_marked = np.zeros(m.n_edges, dtype=bool)
    edge_marked[m.t2e[marked, 2]] = True
    while True:
        need = edge_marked[m.t2e].any(axis=1) & ~edge_marked[m.t2e[:, 2]]
        if not need.any():
            return edge_marked
        edge_marked[m.t2e[need, 2]] = True


@pytest.mark.parametrize("seed", range(6))
def test_refine_marked_splits_the_full_rescan_closure(seed):
    rng = np.random.default_rng(seed)
    m = l_shape(4) if seed % 2 else unit_square(3, boundary={"left": "N"})
    for _ in range(6):
        marked = np.flatnonzero(rng.random(m.n_triangles) < 0.1 + 0.1 * seed)
        split = np.flatnonzero(_closure_by_full_rescan(m, marked))
        r = m.refine_marked(marked)
        mids = 0.5 * (m.vertices[m.edges[split, 0]]
                      + m.vertices[m.edges[split, 1]])
        assert np.array_equal(r.vertices[m.n_vertices:], mids)
        m = r


def _edge_of_three_triangles():
    # edge (0, 1) is shared by all three triangles
    v = np.array([[0, 0], [1, 0], [0.5, 1], [0.5, -1], [0.6, 0.8]])
    t = np.array([[0, 1, 2], [1, 0, 3], [4, 0, 1]])
    return TriMesh(v, t, {}, validate=False)


def test_refine_marked_rejects_edge_of_three_triangles():
    # the closure reads e2t, which keeps two triangles per edge; the
    # marked indices are checked first
    m = _edge_of_three_triangles()
    with pytest.raises(MeshError,
                       match="^marked triangle index out of range$"):
        m.refine_marked([5])
    with pytest.raises(MeshError, match="three or more triangles"):
        m.refine_marked([0])


def test_audit_names_an_edge_of_three_triangles():
    ok, issues = _edge_of_three_triangles().audit().checks["conformity"]
    assert not ok
    assert "edge (0, 1) shared by 3 triangles" in issues


def test_boundary_tags_inherited():
    m = unit_square(2, boundary={"right": "N", "top": "N"})
    for r in (m.refine_uniform(), m.refine_marked([0, 3, 5])):
        mids = 0.5 * (r.vertices[r.edges[:, 0]] + r.vertices[r.edges[:, 1]])
        tagged = r.edge_tags != INTERIOR
        on_n = np.isclose(mids[:, 0], 1.0) | np.isclose(mids[:, 1], 1.0)
        assert np.all(r.edge_tags[tagged & on_n] == NEUMANN)
        assert np.all(r.edge_tags[tagged & ~on_n] == DIRICHLET)


def test_dirichlet_trace_preserved():
    m = _l_shape_tagged(2, lambda x, y: "N" if np.isclose(x, 1.0) else "D")
    r = m.refine_uniform().refine_marked([1, 2, 8])
    seg0 = dirichlet_segments(m)
    seg1 = dirichlet_segments(r)
    len0 = np.linalg.norm(seg0[:, 1] - seg0[:, 0], axis=1).sum()
    len1 = np.linalg.norm(seg1[:, 1] - seg1[:, 0], axis=1).sum()
    assert np.isclose(len0, len1)
    # each refined Dirichlet edge lies inside some coarse Dirichlet edge
    for a, b in seg1:
        mid = 0.5 * (a + b)
        d = seg0[:, 1] - seg0[:, 0]
        t = np.einsum("sd,sd->s", mid - seg0[:, 0], d) / \
            np.einsum("sd,sd->s", d, d)
        perp = mid - seg0[:, 0] - t[:, None] * d
        hit = (np.hypot(perp[:, 0], perp[:, 1]) < 1e-12) \
            & (t > -1e-12) & (t < 1 + 1e-12)
        assert hit.any()


def test_audit_detects_clockwise_triangle():
    m = unit_square(2)
    t = m.triangles.copy()
    t[3] = t[3][[1, 0, 2]]
    bad = TriMesh(m.vertices, t, m.boundary_tag_dict(), validate=False)
    rep = bad.audit()
    assert not rep.ok
    ok, issues = rep.checks["orientation"]
    assert not ok and "triangle 3" in issues[0]


def test_nan_vertex_fails_orientation():
    # a NaN area is not positive, though "area <= 0" is False for it
    m = unit_square(2)
    v = m.vertices.copy()
    v[4] = np.nan
    with pytest.raises(MeshError, match="not counterclockwise"):
        TriMesh(v, m.triangles, m.boundary_tag_dict())
    rep = TriMesh(v, m.triangles, m.boundary_tag_dict(),
                  validate=False).audit()
    ok, issues = rep.checks["orientation"]
    assert not ok and len(issues) == np.sum(m.triangles == 4)


def test_audit_detects_hanging_node():
    m = unit_square(1)
    v = np.vstack([m.vertices, [[0.5, 0.5]]])
    # split only one of the two triangles sharing the diagonal
    t = np.array([[3, 0, 1], [0, 4, 2], [4, 3, 2]])
    bad = TriMesh(v, t, m.boundary_tag_dict(), validate=False)
    rep = bad.audit()
    ok, issues = rep.checks["conformity"]
    assert not ok
    assert any("hangs" in msg for msg in issues)


def test_audit_detects_duplicate_vertex():
    m = unit_square(1)
    v = np.vstack([m.vertices, m.vertices[3:4]])
    t = m.triangles.copy()
    t[1][t[1] == 3] = 4
    bad = TriMesh(v, t, {}, validate=False)
    rep = bad.audit()
    assert not rep.checks["conformity"][0]


def test_audit_reports_near_coincident_vertices_sorting_apart():
    # vertex 1 lies between 0 and 2 in y, so comparing only neighbours
    # in (y, x) order never compares 0 with 2
    v = np.array([[0.0, 0.0], [1.0, 5e-14], [1e-13, 1e-13],
                  [0.0, 1.0], [1.0, 1.0]])
    bad = TriMesh(v, [[0, 1, 4], [2, 4, 3]], {}, validate=False)
    ok, issues = bad.audit().checks["conformity"]
    assert not ok
    assert "vertices 0 and 2 coincide" in issues


def test_audit_reports_coincident_pairs_in_index_order():
    rng = np.random.default_rng(5)
    base = unit_square(4)
    # 30 copies of existing vertices, shuffled: more pairs than the cap
    src = rng.choice(base.n_vertices, size=30)
    v = np.vstack([base.vertices, base.vertices[src] + 1e-14])
    bad = TriMesh(v, base.triangles, {}, validate=False)
    x, y = v.T
    close = ((np.abs(x[:, None] - x[None, :]) < 1e-12)
             & (np.abs(y[:, None] - y[None, :]) < 1e-12))
    i, j = np.nonzero(np.triu(close, k=1))
    assert len(i) > 20
    expect = list(zip(i.tolist(), j.tolist()))
    assert bad._coincident_vertices(v) == expect[:20]


def _e2t_by_loop(mesh):
    """e2t and counts filled one triangle-edge entry at a time."""
    e2t = np.full((mesh.n_edges, 2), -1, dtype=np.int64)
    counts = np.zeros(mesh.n_edges, dtype=np.int64)
    order = np.argsort(mesh.t2e.ravel(), kind="stable")
    flat_tri = np.repeat(np.arange(mesh.n_triangles), 3)[order]
    for e, t in zip(mesh.t2e.ravel()[order], flat_tri):
        if counts[e] < 2:
            e2t[e, counts[e]] = t
        counts[e] += 1
    return e2t, counts


def test_e2t_matches_entrywise_fill_with_over_shared_edge():
    m = unit_square(2)
    # a third triangle on the interior edge of triangles 0 and 1
    a, b = m.edges[np.flatnonzero((m.e2t >= 0).all(axis=1))[0]]
    v = np.vstack([m.vertices, [[0.3, 0.7]]])
    t = np.vstack([m.triangles, [[a, b, m.n_vertices]]])
    bad = TriMesh(v, t, {}, validate=False)
    e2t, counts = _e2t_by_loop(bad)
    assert counts.max() == 3
    assert np.array_equal(bad.e2t, e2t)
    over = np.flatnonzero(counts > 2).tolist()
    with pytest.raises(MeshError) as exc:
        TriMesh(v, t, m.boundary_tag_dict())
    assert str(exc.value) == f"edges shared by more than two triangles: {over}"
    good = l_shape(4).refine_marked(np.arange(0, 24, 3))
    assert np.array_equal(good.e2t, _e2t_by_loop(good)[0])


def _over_shared_mesh():
    # a third triangle on an interior edge, and one clockwise triangle
    m = unit_square(2)
    a, b = m.edges[np.flatnonzero((m.e2t >= 0).all(axis=1))[0]]
    v = np.vstack([m.vertices, [[0.3, 0.7]]])
    t = np.vstack([m.triangles, [[a, b, m.n_vertices]]])
    t[2] = t[2, ::-1]
    return TriMesh(v, t, {}, validate=False)


def _graded_lshape_peak():
    mesh = get_case("LSHAPE_PEAK").make_mesh(4)
    for _ in range(3):
        near = np.linalg.norm(mesh.corner_coords.mean(axis=1), axis=1) < 0.3
        mesh = mesh.refine_marked(near)
    return mesh


@pytest.mark.parametrize("make_mesh", [_graded_lshape_peak, _over_shared_mesh],
                         ids=["graded", "unvalidated"])
def test_e2s_is_the_slot_scan_of_t2e(make_mesh):
    # e2s holds each edge's local slot in its e2t triangles, as the scan
    # of their t2e rows finds it, and -1 where e2t is
    mesh = make_mesh()
    k = mesh.e2t
    scan = np.argmax(mesh.t2e[k] == np.arange(mesh.n_edges)[:, None, None],
                     axis=2)
    assert np.array_equal(mesh.e2s, np.where(k >= 0, scan, -1))
    both = k >= 0
    assert np.array_equal(mesh.t2e[k[both], mesh.e2s[both]],
                          np.nonzero(both)[0])
    assert not both.all() and not mesh.e2s.flags.writeable


def _hanging_by_all_pairs(mesh):
    """Hits of every vertex on every edge with both ends finite, in
    (edge, vertex) order; the tolerance is 1e-9 of the longest such
    edge."""
    finite = np.isfinite(mesh.vertices).all(axis=1)[mesh.edges].all(axis=1)
    with np.errstate(invalid="ignore"):
        pa = mesh.vertices[mesh.edges[:, 0]]
        d = mesh.vertices[mesh.edges[:, 1]] - pa
        L2 = np.einsum("ed,ed->e", d, d)
        tol = 1e-9 * math.sqrt(L2[finite].max())
        rel = mesh.vertices[None, :, :] - pa[:, None, :]
        t = np.einsum("evd,ed->ev", rel, d) / L2[:, None]
        perp = rel - t[:, :, None] * d[:, None, :]
        on = ((np.hypot(perp[:, :, 0], perp[:, :, 1]) < tol)
              & (t > 1e-9) & (t < 1 - 1e-9))
    on[~finite] = False
    rows = np.arange(mesh.n_edges)
    on[rows, mesh.edges[:, 0]] = False
    on[rows, mesh.edges[:, 1]] = False
    e, v = np.nonzero(on)
    return [f"vertex {vi} hangs on edge "
            f"{(int(mesh.edges[ei, 0]), int(mesh.edges[ei, 1]))}"
            for ei, vi in zip(e, v)]


def _parents_put_back(seed):
    rng = np.random.default_rng(seed)
    coarse = l_shape(4).refine_marked(np.arange(0, 24, 2))
    fine = coarse.refine_uniform()
    back = rng.random(coarse.n_triangles) < 0.3
    tris = np.vstack([fine.triangles[~back[fine.parents]],
                      coarse.triangles[back]])
    return TriMesh(fine.vertices, tris, {}, validate=False)


def _unused_midpoints(seed):
    rng = np.random.default_rng(seed)
    m = unit_square(4).refine_marked([0, 5, 9])
    inner = np.flatnonzero(m.edge_tags == INTERIOR)
    pick = inner[rng.random(len(inner)) < 0.3]
    mid = 0.5 * (m.vertices[m.edges[pick, 0]] + m.vertices[m.edges[pick, 1]])
    # half of them pushed off the edge by about twice the tolerance, a
    # quarter moved within it (out of an axis-parallel edge's bounding box)
    tol = 1e-9 * m.edge_lengths.max()
    mid[::2] += 2 * tol * rng.normal(size=(len(mid[::2]), 2))
    mid[1::4] += 0.5 * tol
    return TriMesh(np.vstack([m.vertices, mid]), m.triangles, {},
                   validate=False)


def _one_column(n):
    # fan of triangles on the segment x=0: every edge's x-window holds
    # every column vertex; every other triangle skips a vertex
    col = np.column_stack([np.zeros(n + 1), np.linspace(0.0, 1.0, n + 1)])
    v = np.vstack([col, [[1.0, 0.5]]])
    tris = [[k, k + 2, n + 1] for k in range(0, n - 1, 4)]
    tris += [[k, k + 1, n + 1] for k in range(2, n, 4)]
    return TriMesh(v, tris, {}, validate=False)


def _graded_put_back(seed):
    # refined toward the reentrant corner five times, so edge lengths
    # span a factor of 32, then some parents put back over their children
    rng = np.random.default_rng(seed)
    m = l_shape(4)
    for _ in range(5):
        centers = m.corner_coords.mean(axis=1)
        m = m.refine_marked(np.hypot(*centers.T) < 0.3)
    fine = m.refine_uniform()
    back = rng.random(m.n_triangles) < 0.2
    tris = np.vstack([fine.triangles[~back[fine.parents]],
                      m.triangles[back]])
    return TriMesh(fine.vertices, tris, {}, validate=False)


def _with_nan_vertex(mesh, used):
    """mesh with a NaN vertex appended, on no triangle, or taking the
    place of vertex 0 in every triangle."""
    tris = np.where(mesh.triangles == 0, mesh.n_vertices, mesh.triangles)
    return TriMesh(np.vstack([mesh.vertices, [[np.nan, 0.5]]]),
                   tris if used else mesh.triangles, {}, validate=False)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build, min_hits", [
    (lambda: _parents_put_back(2), 21),
    (lambda: _unused_midpoints(3), 1),
    (lambda: unit_square(3), 0),
    (lambda: _graded_put_back(4), 21),
    (lambda: _with_nan_vertex(_parents_put_back(2), used=False), 21),
    (lambda: _with_nan_vertex(_parents_put_back(2), used=True), 21),
], ids=["parents-back-over-cap", "unused-midpoints",
        "conforming", "graded-parents-back", "unused-nan-vertex",
        "nan-vertex"])
def test_hanging_nodes_match_all_pairs(build, min_hits):
    m = build()
    expect = _hanging_by_all_pairs(m)
    assert len(expect) >= min_hits
    assert m._hanging_nodes(m.vertices) == expect[:20]


@pytest.mark.filterwarnings("error")
def test_hanging_nodes_skip_edges_with_an_infinite_end(monkeypatch):
    # one vertex of unit_square(40) moved to infinity: its edges have no
    # interior and no finite length, so they neither hold a hit nor set
    # the tolerance, and the scan draws no more pairs than on the
    # finite mesh (an infinite tolerance made every pair a candidate)
    m = unit_square(40)
    v = m.vertices.copy()
    v[0] = [np.inf, 0.0]
    bad = TriMesh(v, m.triangles, {}, validate=False)
    assert (bad._hanging_nodes(bad.vertices)
            == _hanging_by_all_pairs(bad)[:20] == [])
    drawn = _pairs_drawn(monkeypatch, bad._hanging_nodes, bad.vertices)
    assert drawn <= _pairs_drawn(monkeypatch, m._hanging_nodes, m.vertices)
    # a vertex put on a finite edge is still found
    a, b = m.edges[m.n_edges // 2].tolist()
    v = v.copy()
    v[-1] = 0.5 * (v[a] + v[b])
    moved = TriMesh(v, m.triangles, {}, validate=False)
    hits = moved._hanging_nodes(moved.vertices)
    assert hits == _hanging_by_all_pairs(moved)[:20]
    assert f"vertex {m.n_vertices - 1} hangs on edge {(a, b)}" in hits


def _pairs_drawn(monkeypatch, scan, vertices):
    """The number of candidate pairs scan(vertices) draws from
    _window_pairs."""
    drawn = []
    real = meshmod._window_pairs

    def counting(start, stop):
        for q, pos in real(start, stop):
            drawn.append(len(q))
            yield q, pos

    with monkeypatch.context() as patch:
        patch.setattr(meshmod, "_window_pairs", counting)
        scan(vertices)
    return sum(drawn)


def test_audit_scans_draw_pairs_in_proportion_to_mesh_size(monkeypatch,
                                                          tmp_path):
    # the benchmark's jittered L-shape at two sizes, and structured
    # squares whose vertices share x by columns
    per_edge, per_vertex = [], []
    for cells in (39, 78):
        bench = _auditmesh()
        bench.CELLS = cells
        (tmp_path / "mesh.txt").write_text(bench.generate(0)[0])
        m = TriMesh.read(tmp_path / "mesh.txt")
        per_edge.append(_pairs_drawn(monkeypatch, m._hanging_nodes,
                                     m.vertices)
                        / m.n_edges)
    for n in (16, 64):
        m = unit_square(n)
        per_vertex.append(_pairs_drawn(monkeypatch, m._coincident_vertices,
                                       m.vertices)
                          / m.n_vertices)
    assert per_edge[1] < 1.1 * per_edge[0] < 10
    assert per_vertex[1] < 1.1 * per_vertex[0] < 10


def test_hanging_nodes_in_slices_of_one_column(monkeypatch):
    m = _one_column(200)
    expect = _hanging_by_all_pairs(m)
    assert len(expect) > 20
    for budget in (7, 1000):
        monkeypatch.setattr(meshmod, "_PAIR_BUDGET", budget)
        assert m._hanging_nodes(m.vertices) == expect[:20]


def test_audit_reports_min_angle():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.01]])
    m = TriMesh(v, [[0, 1, 2]], {(0, 1): "D", (1, 2): "D", (0, 2): "D"})
    rep = m.audit()
    assert rep.checks["min_angle"] == (False, [
        f"min angle {m.min_angle_deg:.3f} deg below threshold 10.0"])
    assert "FAIL" in str(rep)


def _scaled(mesh, s):
    return TriMesh(mesh.vertices * 10.0 ** s, mesh.triangles,
                   mesh.boundary_tag_dict(), validate=False)


def _audit_seconds(mesh, s):
    best = math.inf
    for _ in range(5):
        m = _scaled(mesh, s)   # fresh, so no audit reads a cached array
        start = time.perf_counter()
        m.audit()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("name", ["unit_square", "hanging_nodes"])
def test_audit_is_the_same_at_every_scale(name):
    # the checks run on coordinates scaled by a power of two to unit
    # size: at 1e-13 no vertices "coincide" by an absolute tolerance,
    # and at 1e160 no squared length overflows to an infinite tolerance
    # or a NaN angle, and nothing warns
    mesh = unit_square(40) if name == "unit_square" \
        else TriMesh.read(DATA / "mesh_hanging_nodes.txt", validate=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = {s: str(_scaled(mesh, s).audit())
                   for s in (-150, -13, 0, 13, 160)}
        angles = {s: _scaled(mesh, s).min_angle_deg for s in reports}
    assert len(set(reports.values())) == 1, reports
    assert ("FAIL" in reports[0]) == (name == "hanging_nodes")
    assert max(angles.values()) - min(angles.values()) <= 1e-12
    if name == "unit_square":
        # and the scan stays that of a unit-size mesh
        assert _audit_seconds(mesh, 160) <= 2 * _audit_seconds(mesh, 0)


def test_audit_passes_on_generated_meshes():
    rng = np.random.default_rng(3)
    m = l_shape(2)
    for _ in range(6):
        m = m.refine_marked(rng.random(m.n_triangles) < 0.4)
    assert m.audit().ok and m.min_angle_deg >= 20.0


def test_file_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    m = unit_square(2, boundary={"left": "N"})
    for _ in range(5):
        m = m.refine_marked(rng.random(m.n_triangles) < 0.4)
    path = tmp_path / "mesh.txt"
    m.write(path)
    back = TriMesh.read(path)
    assert np.array_equal(back.triangles, m.triangles)
    assert np.array_equal(back.vertices, m.vertices)  # exact, via repr
    assert back.boundary_tag_dict() == m.boundary_tag_dict()


_TRI3 = "trimesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\n"
# the unit square as two triangles sharing the edge (0, 2)
_SQUARE2 = ("trimesh v1\nvertices 4\n0 0\n1 0\n1 1\n0 1\n"
            "triangles 2\n0 1 2\n0 2 3\n")

# (id, file text, the whole message read() raises)
_MALFORMED = [
    ("empty-file", "", "line 1: expected 'trimesh v1' header, file ended"),
    ("comment-only", "# no mesh here\n\n",
     "line 2: expected 'trimesh v1' header, file ended"),
    ("no-vertices-line", "trimesh v1\n# nothing else\n",
     "line 2: missing 'vertices N' line"),
    ("wrong-keyword", "trimesh v1\nverts 3\n",
     "line 2: expected 'vertices N', got 'verts 3'"),
    ("three-token-count", "trimesh v1\nvertices 3 4\n",
     "line 2: expected 'vertices N', got 'vertices 3 4'"),
    ("bad-count", "trimesh v1\nvertices three\n",
     "line 2: bad count 'three'"),
    ("negative-count", "trimesh v1\nvertices -2\n",
     "line 2: negative count -2"),
    ("vertices-end-early", "trimesh v1\nvertices 3\n0 0\n\n1 0\n",
     "line 5: expected 3 vertex lines, file ended after 2"),
    ("vertex-columns", "trimesh v1\nvertices 2\n0 0\n1 0 0\n",
     "line 4: expected 'x y', got '1 0 0'"),
    ("bad-coordinate", "trimesh v1\nvertices 2\n0 0\n1,5 0\n",
     "line 4: bad coordinate in '1,5 0'"),
    ("no-triangles-line", "trimesh v1\nvertices 1\n0 0\n",
     "line 3: missing 'triangles N' line"),
    ("triangles-end-early", _TRI3.replace("triangles 1", "triangles 2"),
     "line 7: expected 2 triangle lines, file ended after 1"),
    ("triangle-columns", _TRI3.replace("0 1 2", "0 1 2 3"),
     "line 7: expected 'i j k', got '0 1 2 3'"),
    ("triangle-bad-index", _TRI3.replace("0 1 2", "0 1 2.0"),
     "line 7: bad vertex index in '0 1 2.0'"),
    ("triangle-exponent-index", _TRI3.replace("0 1 2", "0 1e0 2"),
     "line 7: bad vertex index in '0 1e0 2'"),
    # int() takes it, np.loadtxt does not: the line parser names it
    ("triangle-20-digit-index",
     _TRI3.replace("0 1 2", "0 1 99999999999999999999"),
     "line 7: vertex index out of range in '0 1 99999999999999999999'"),
    # np.loadtxt reads this block; the range check on its rows names
    # the line
    ("second-triangle-out-of-range",
     _TRI3.replace("triangles 1\n0 1 2", "triangles 2\n+0 1 2\n0 3 1"),
     "line 8: vertex index out of range in '0 3 1'"),
    ("triangle-negative-index", _TRI3.replace("0 1 2", "0 -1 2"),
     "line 7: vertex index out of range in '0 -1 2'"),
    ("triangle-index-past-end", _TRI3.replace("0 1 2", "0 1 3"),
     "line 7: vertex index out of range in '0 1 3'"),
    ("no-boundary-line", _TRI3, "line 7: missing 'boundary N' line"),
    ("boundary-bad-count", _TRI3 + "boundary 1.5\n",
     "line 8: bad count '1.5'"),
    ("boundary-end-early", _TRI3 + "boundary 3\n0 1 D\n1 2 D\n",
     "line 10: expected 3 boundary lines, file ended after 2"),
    ("boundary-columns", _TRI3 + "boundary 1\n0 1\n",
     "line 9: expected 'i j TAG', got '0 1'"),
    ("boundary-bad-index", _TRI3 + "boundary 1\nzero 1 D\n",
     "line 9: bad vertex index in 'zero 1 D'"),
    ("boundary-index-out-of-range", _TRI3 + "boundary 1\n0 3 D\n",
     "line 9: vertex index out of range in '0 3 D'"),
    ("boundary-bad-tag", _TRI3 + "boundary 1\n0 1 d\n",
     "line 9: boundary tag must be D or N, got 'd'"),
    ("edge-tagged-twice", _TRI3 + "boundary 2\n0 1 D\n1 0 N\n",
     "line 10: edge (0, 1) tagged twice"),
    ("trailing-content", _TRI3 + "boundary 0\n0 1 D\n",
     "line 9: trailing content '0 1 D'"),
    # the TriMesh constructor's error, at the last line of the file
    ("mesh-error-untagged", _TRI3 + "boundary 1\n0 1 D\n\n# end\n",
     "line 11: untagged boundary edges: [(0, 2), (1, 2)]"),
    ("mesh-error-tag-not-in-mesh",
     _SQUARE2 + "boundary 5\n0 1 D\n1 2 D\n2 3 D\n0 3 D\n1 3 D\n",
     "line 15: tagged edge (1, 3) not present in mesh"),
    ("mesh-error-interior-tag",
     _SQUARE2 + "boundary 5\n0 1 D\n1 2 D\n2 3 D\n0 3 D\n2 0 N\n",
     "line 15: interior edges carry boundary tags: [(0, 2)]"),
    ("mesh-error-clockwise",
     _TRI3.replace("0 1 2", "1 0 2") + "boundary 3\n0 1 D\n1 2 D\n0 2 D\n",
     "line 11: triangles not counterclockwise: [0]"),
    ("not-utf8", b"trimesh v1\nvertices 1\n0 \xff0\n",
     "line 3: not UTF-8 text (invalid start byte)"),
    ("not-utf8-first-byte", b"\x80trimesh v1\n",
     "line 1: not UTF-8 text (invalid start byte)"),
    ("not-utf8-after-bom",
     b"\xef\xbb\xbftrimesh v1\nvertices 1\n0 \xff0\n",
     "line 3: not UTF-8 text (invalid start byte)"),
    ("nan-coordinate", "trimesh v1\nvertices 2\n0 0\n0 nan\n",
     "line 4: non-finite coordinate in '0 nan'"),
    ("inf-coordinate", "trimesh v1\nvertices 3\n0 0\n\n# x\n1 inf\n0 1\n",
     "line 6: non-finite coordinate in '1 inf'"),
    ("no-triangles", "trimesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 0\n"
     "boundary 0\n", "line 7: mesh has no triangles"),
    # the first defect in file order is the one reported
    ("first-defect-wins", "trimesh v1\nvertices 2\n0 x\n0 0 0\n",
     "line 3: bad coordinate in '0 x'"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("content,fragment", [
    ("trimeshv1\n", "header"),
    ("trimesh v1\nvertices 2\n0 0\n1 junk\n", "line 4"),
    ("trimesh v1\nvertices 1\n0 0\ntriangles 1\n0 0\n", "line 5"),
    ("trimesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 5\n",
     "out of range"),
    ("trimesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\n"
     "boundary 1\n0 1 X\n", "D or N"),
    ("trimesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\n"
     "boundary 3\n0 1 D\n1 2 D\n0 2 D\nextra\n", "trailing"),
    *(pytest.param(content, message, id=name)
      for name, content, message in _MALFORMED),
])
def test_read_rejects_malformed(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_bytes(content if isinstance(content, bytes)
                     else content.encode())
    with pytest.raises(MeshFormatError) as err:
        TriMesh.read(path)
    assert fragment in str(err.value)


def _int_via_float_loadtxt(real):
    """np.loadtxt as numpy 1.23 to 2.3 run it: an int64 token that
    int() rejects is read through float() and truncated, with only a
    DeprecationWarning."""
    def loadtxt(rows, dtype=float, ndmin=0):
        if dtype is not np.int64:
            return real(rows, dtype=dtype, ndmin=ndmin)
        try:
            return real(rows, dtype=dtype, ndmin=ndmin)
        except ValueError:
            warnings.warn("loadtxt(): Parsing an integer via a float is "
                          "deprecated.", DeprecationWarning)
            return real(rows, dtype=float, ndmin=ndmin).astype(np.int64)
    return loadtxt


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("numpy_loadtxt", ["installed", "int-via-float"])
@pytest.mark.parametrize("token", ["2.0", "2.7", "1e0", "nan"])
def test_read_rejects_float_indices_with_warnings_ignored(
        tmp_path, monkeypatch, numpy_loadtxt, token):
    # warnings are ignored, as they are by default outside pytest, so
    # a loadtxt that only warns about a token must still not be trusted
    if numpy_loadtxt == "int-via-float":
        monkeypatch.setattr(np, "loadtxt", _int_via_float_loadtxt(np.loadtxt))
    path = tmp_path / "bad.txt"
    path.write_text(_TRI3.replace("0 1 2", f"0 1 {token}"))
    with pytest.raises(MeshFormatError) as err:
        TriMesh.read(path)
    assert str(err.value) == f"line 7: bad vertex index in '0 1 {token}'"


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("trimesh v1\nvertices 2\n0 0\n1 junk\n")
    with pytest.raises(MeshFormatError, match="line 4"):
        TriMesh.read(path)


def test_read_skips_comments_and_blank_lines(tmp_path):
    clean = _TRI3 + "boundary 3\n0 1 D\n1 2 N\n0 2 D\n"
    noisy = ("# a mesh\n\ntrimesh v1   # header\n  vertices 3\n0 0\n"
             "\n   \n1 0 # corner\n0 1\n#\ntriangles 1\n\t0 1 2\n"
             "boundary 3 # three edges\n0 1 D\n1 2 N\n\n0 2 D\n# end\n\n")
    (tmp_path / "clean.txt").write_text(clean)
    (tmp_path / "noisy.txt").write_text(noisy)
    a = TriMesh.read(tmp_path / "clean.txt")
    b = TriMesh.read(tmp_path / "noisy.txt")
    for name in ("vertices", "triangles", "edges", "edge_tags"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.boundary_tag_dict() == b.boundary_tag_dict()
    assert a.boundary_tag_dict()[(1, 2)] == "N"


def test_read_accepts_byte_order_mark(tmp_path):
    mesh = unit_square(2, {"right": "N"})
    mesh.write(tmp_path / "plain.txt")
    text = (tmp_path / "plain.txt").read_bytes()
    (tmp_path / "bom.txt").write_bytes(b"\xef\xbb\xbf" + text)
    a = TriMesh.read(tmp_path / "bom.txt")
    for name in ("vertices", "triangles", "edges", "edge_tags"):
        assert np.array_equal(getattr(a, name), getattr(mesh, name)), name
    assert a.boundary_tag_dict() == mesh.boundary_tag_dict()


def _respelled(rows, old, new):
    """rows with the first token old, in the first row holding it,
    written as new."""
    k = next(k for k, row in enumerate(rows) if old in row.split())
    tokens = rows[k].split()
    tokens[tokens.index(old)] = new
    return rows[:k] + [" ".join(tokens)] + rows[k + 1:]


@pytest.mark.filterwarnings("error")
def test_read_takes_the_numbers_int_and_float_take(tmp_path):
    # int() and float() take these spellings; np.loadtxt rejects all
    # but the plus sign, so each block is read again line by line
    mesh = unit_square(3, {"top": "N"})
    mesh.write(tmp_path / "plain.txt")
    lines = (tmp_path / "plain.txt").read_text().splitlines()
    first = 3 + mesh.n_vertices
    rows = lines[first:first + mesh.n_triangles]
    rows[0] = "+" + rows[0]
    for old, new in (("10", "1_0"), ("3", "\u0663")):
        rows = _respelled(rows, old, new)
    lines[first:first + mesh.n_triangles] = rows
    lines[2 + 5] = "1_0.5 \u0661.\u0665"
    (tmp_path / "spelled.txt").write_text("\n".join(lines) + "\n")
    back = TriMesh.read(tmp_path / "spelled.txt", validate=False)
    expect = mesh.vertices.copy()
    expect[5] = (10.5, 1.5)
    assert np.array_equal(back.vertices, expect)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert back.boundary_tag_dict() == mesh.boundary_tag_dict()


def _auditmesh():
    spec = importlib.util.spec_from_file_location(
        "perfbench_auditmesh", ROOT / "perfbench" / "auditmesh.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 17])
def test_read_benchmark_mesh_roundtrip(tmp_path, seed):
    text, vertices, triangles = _auditmesh().generate(seed)
    path = tmp_path / "audit.txt"
    path.write_text(text)
    m = TriMesh.read(path)
    assert np.array_equal(m.vertices, vertices)
    assert np.array_equal(m.triangles, triangles)
    assert np.array_equal(m.edge_tags,
                          np.where(m.edge_counts == 1, DIRICHLET, INTERIOR))


def _lshape_traction(x, y):
    return "N" if x > 0.99 or y < -0.99 else "D"


def _reference_mesh(name):
    """One of the two meshes pinned in tests/data. Their `write` output
    and `parents` were written by the earlier per-triangle refinement
    loop, so they fix the child order."""
    if name == "lshape_neumann":
        rng = np.random.default_rng(11)
        m = _l_shape_tagged(4, _lshape_traction)
        for k in range(6):
            m = m.refine_marked(rng.random(m.n_triangles) < 0.3)
            if k == 2:
                m = m.refine_uniform()
        return m
    rng = np.random.default_rng(12)
    m = unit_square(3, {"left": "N", "top": "N"})
    for _ in range(5):
        m = m.refine_marked(rng.random(m.n_triangles) < 0.25)
    return m


def _parents_text(mesh):
    return "".join(f"{p}\n" for p in mesh.parents.tolist())


@pytest.mark.parametrize("name", ["lshape_neumann", "square_left_top"])
def test_refinement_matches_pinned_files(tmp_path, name):
    m = _reference_mesh(name)
    m.write(tmp_path / "mesh.txt")
    assert ((tmp_path / "mesh.txt").read_bytes()
            == (DATA / f"mesh_{name}.txt").read_bytes())
    assert _parents_text(m) == (DATA / f"mesh_{name}.parents").read_text()
    assert m.has_neumann
