"""Each field is evaluated once per space and quadrature rule.

forms.rule_values keeps the values of the data at the points of each
rule on a space. One level of assembly, solve and estimation evaluates
f on the load rule and on the error rule, g on the load rule, and every
exact field on the error rule, each once; a following efficiency audit
evaluates none of them again. The error norms read the exact fields at
the cached points of the error rule and keep no values. (u is also
evaluated at the Dirichlet nodes for the boundary values.)
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from stokes_stab import estimator, forms, solver, study
from stokes_stab.space import FeSpace, physical_points


def _counted(fn, counts, name, sizes=None):
    def call(x, y):
        counts[name] += 1
        if sizes is not None:
            sizes.append(np.size(x))
        return fn(x, y)
    return call


@pytest.mark.parametrize("pair", ["P1P1", "P2P1"])
def test_one_level_evaluates_each_field_once_per_rule(pair, monkeypatch):
    base = study.get_case("NONZERO_G").problem()
    counts = Counter()
    u_sizes = []
    exact = forms.ExactSolution(
        **{name: _counted(getattr(base.exact, name), counts, name,
                          u_sizes if name == "u" else None)
           for name in ("u", "grad_u", "p")})
    problem = dataclasses.replace(
        base, f=_counted(base.f, counts, "f"),
        g=_counted(base.g, counts, "g"), exact=exact)

    def counted_points(mesh, ref_pts):
        counts["physical_points"] += 1
        return physical_points(mesh, ref_pts)
    monkeypatch.setattr(forms, "physical_points", counted_points)

    space = FeSpace(study.get_case("NONZERO_G").make_mesh(4), pair)
    sol = solver.solve(forms.assemble_system(space, problem))
    report = estimator.global_report(sol, space, problem)
    # u is evaluated once more, at the Dirichlet nodes only, for the lift
    expected = {"f": 2, "g": 1, "u": 2, "grad_u": 1, "p": 1,
                "physical_points": 2}
    assert counts == expected
    assert u_sizes[0] == len(space.dirichlet_nodes) < space.n_nodes
    estimator.efficiency_audit(sol, space, problem, report)
    assert counts == expected


@pytest.mark.parametrize("pair", ["P1P1", "P2P1"])
def test_no_exact_field_stays_cached(pair):
    case = study.get_case("NONZERO_G")
    problem = case.problem()
    space = FeSpace(case.make_mesh(4), pair)
    sol = solver.solve(forms.assemble_system(space, problem))
    estimator.global_report(sol, space, problem)
    exact = {problem.exact.u, problem.exact.grad_u, problem.exact.p}
    kept = {fn for _, fn in space.rule_cache}
    assert {problem.f, problem.g, None} <= kept
    assert not kept & exact


def test_rule_values_are_read_only_and_shared():
    space = FeSpace(study.get_case("SMOOTH_SQUARE").make_mesh(2), "P1P1")
    points = forms.rule_values(space, 4)
    assert points.shape == (space.mesh.n_triangles, 9, 2)
    assert forms.rule_values(space, 4) is points
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[0, 0, 0] = 1.0

    # an array fn keeps for itself stays writeable
    own = np.ones(points.shape)
    vals = forms.rule_values(space, 4, lambda x, y: own)
    assert not vals.flags.writeable and own.flags.writeable


def test_rule_values_keep_each_function_apart():
    space = FeSpace(study.get_case("SMOOTH_SQUARE").make_mesh(2), "P2P1")
    counts = Counter()
    f1 = _counted(lambda x, y: np.stack([x, y], axis=-1), counts, "f1")
    f2 = _counted(lambda x, y: np.stack([y, -x], axis=-1), counts, "f2")
    v1 = forms.rule_values(space, 6, f1)
    v2 = forms.rule_values(space, 6, f2)
    xy = forms.rule_values(space, 6)
    assert np.array_equal(v1, xy)
    assert np.array_equal(v2, np.stack([xy[..., 1], -xy[..., 0]], axis=-1))
    assert forms.rule_values(space, 6, f1) is v1
    assert forms.rule_values(space, 6, f2) is v2
    # another rule is another evaluation
    forms.rule_values(space, 8, f1)
    assert counts == {"f1": 2, "f2": 1}
