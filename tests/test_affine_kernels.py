"""Affine kernels against their quadrature-axis formulas.

The element matrices and pullbacks of forms.py and space.py work on the
reference element and map the result once per element. The oracles
below are the direct formulas: basis gradients pulled back at every
quadrature point of every element, then summed over the points. Both
must agree to rounding, within 1e-13 of each array's largest entry, on
a skewed mesh and on a graded L-shape mesh, for P1 and P2 velocity, at
shared and at per-element points.
"""

import numpy as np
import pytest

from stokes_stab import forms, mesh as msh
from stokes_stab.space import (FeSpace, physical_points, pressure_values,
                               scalar_basis, side_reference_points,
                               velocity_gradients, velocity_values)

from oracles import assemble_B, whole_mesh_scatter


def _skewed_mesh():
    base = msh.unit_square(4)
    x, y = base.vertices.T
    rng = np.random.default_rng(3)
    v = np.column_stack([x + 0.6 * y, 0.3 * x + 0.4 * y])
    v += rng.uniform(-0.02, 0.02, size=v.shape) * (x * (1 - x) > 0)[:, None]
    return msh.TriMesh(v, base.triangles, base.boundary_tag_dict())


def _graded_lshape():
    m = msh.l_shape(4)
    for _ in range(4):
        near = np.linalg.norm(m.corner_coords.mean(axis=1), axis=1) < 0.3
        m = m.refine_marked(near)
    return m


def _oracle_grads(space, ref_pts):
    _, gref = scalar_basis(space.pair.velocity_degree, ref_pts)
    it = space.mesh.inv_jacobians_t
    gref = np.broadcast_to(gref, (len(it),) + gref.shape[-3:])
    return np.einsum("eba,eqia->eqib", it, gref)


def _oracle_strain(space):
    rule = forms.volume_rule(space, "volume_matrix")
    w, g = rule.weights, _oracle_grads(space, rule.points)
    nbf = g.shape[2]
    t1 = np.einsum("q,eqib,eqjb->eij", w, g, g)
    t2 = np.einsum("q,eqid,eqjc->eijdc", w, g, g)
    loc = 0.5 * (np.einsum("eij,cd->eicjd", t1, np.eye(2))
                 + t2.transpose(0, 1, 4, 2, 3))
    loc = loc * (2.0 * space.mesh.areas)[:, None, None, None, None]
    return loc.reshape(-1, 2 * nbf, 2 * nbf)


def _oracle_B(space):
    rule = forms.volume_rule(space, "volume_matrix")
    w, g = rule.weights, _oracle_grads(space, rule.points)
    vd = space.element_dofs[:, :2 * space.n_basis]
    A_uu = whole_mesh_scatter(vd, vd, _oracle_strain(space),
                              (space.n_u, space.n_u))
    pval, _ = scalar_basis(1, rule.points)
    div_loc = np.einsum("q,eqic,ql->eicl", w, g, pval)
    div_loc = -div_loc.reshape(-1, 2 * space.n_basis, 3) \
        * (2.0 * space.mesh.areas)[:, None, None]
    A_up = whole_mesh_scatter(vd, space.mesh.triangles, div_loc,
                              (space.n_u, space.n_p))
    return A_uu, A_up


def _assert_close(new, old):
    new, old = (a.toarray() if hasattr(a, "toarray") else a
                for a in (new, old))
    assert new.shape == old.shape
    assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))


@pytest.mark.parametrize("make_mesh", [_skewed_mesh, _graded_lshape])
@pytest.mark.parametrize("pair", ["P1P1", "P2P1"])
def test_affine_kernels_match_quadrature_axis_oracle(make_mesh, pair):
    mesh = make_mesh()
    space = FeSpace(mesh, pair)
    for new, old in zip(assemble_B(space), _oracle_B(space)):
        _assert_close(new, old)
    _, M_D = forms.inverse_inequality_pencils(space)
    _assert_close(M_D[mesh.shape_classes], _oracle_strain(space))

    rng = np.random.default_rng(7)
    u = rng.standard_normal(space.n_u)
    p = rng.standard_normal(space.n_p)
    pts = forms.quadrature(forms.error_degree(space.pair.velocity_degree)
                           ).points
    _assert_close(physical_points(mesh, pts),
                  mesh.corner_coords[:, None, 0, :]
                  + np.einsum("eab,qb->eqa", mesh.jacobians, pts))

    # shared points on all elements, then the per-element points of
    # all three sides of every element
    per_elem = side_reference_points(mesh, np.array([0.1, 0.5, 0.8]))
    per_elem = per_elem.reshape(mesh.n_triangles, -1, 2)
    lc = space.local_velocity_coefs(u)
    pc = space.local_pressure_coefs(p)
    for ref in (pts, per_elem):
        val, _ = scalar_basis(space.pair.velocity_degree, ref)
        val = np.broadcast_to(val, (len(lc),) + val.shape[-2:])
        _assert_close(velocity_values(space, u, ref),
                      np.einsum("eqi,eic->eqc", val, lc))
        # P2 from the affine tables P0 + xi_0 P1 + xi_1 P2, P1 constant
        G = velocity_gradients(space, u, ref)
        _assert_close(G, np.einsum("eqib,eic->eqcb",
                                   _oracle_grads(space, ref), lc))
        if pair == "P1P1":
            assert np.array_equal(G, np.broadcast_to(G[:, :1], G.shape))
        pval, _ = scalar_basis(1, ref)
        pval = np.broadcast_to(pval, (len(pc),) + pval.shape[-2:])
        _assert_close(pressure_values(space, p, ref),
                      np.einsum("eqi,ei->eq", pval, pc))

