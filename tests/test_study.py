"""Manufactured cases, convergence tables, and the adaptive loop."""

import dataclasses
import math
from functools import cached_property

import numpy as np
import pytest

from stokes_stab import forms, solver, study
from stokes_stab.mesh import TriMesh
from stokes_stab.study import (
    adaptive_study,
    builtin_cases,
    dorfler_mark,
    get_case,
    uniform_study,
)

EXACT_CASES = ["SMOOTH_SQUARE", "NEUMANN_STRIP", "NONZERO_G"]


def test_builtin_case_names():
    names = [c.name for c in builtin_cases()]
    assert names == ["SMOOTH_SQUARE", "NEUMANN_STRIP", "NONZERO_G",
                     "LSHAPE_PEAK"]
    with pytest.raises(KeyError):
        get_case("VORTEX")


def test_case_names_match_builtin_cases():
    assert study.CASE_NAMES == tuple(c.name for c in builtin_cases())


@pytest.mark.parametrize("name", EXACT_CASES)
def test_manufactured_data_satisfies_pde(name):
    # cross-check the symbolic forcing against finite differences of
    # the closed-form fields at random interior points
    rng = np.random.default_rng(11)
    c = get_case(name)._callables()
    pts = rng.uniform(0.2, 0.8, size=(100, 2))
    x, y = pts[:, 0], pts[:, 1]
    h = 1e-4

    def u(x, y):
        return c["u"](x, y)

    uxx = (u(x + h, y) - 2 * u(x, y) + u(x - h, y)) / h ** 2
    uyy = (u(x, y + h) - 2 * u(x, y) + u(x, y - h)) / h ** 2
    uxy = (u(x + h, y + h) - u(x + h, y - h) - u(x - h, y + h)
           + u(x - h, y - h)) / (4 * h ** 2)
    Au = np.stack([uxx[:, 0] + 0.5 * uyy[:, 0] + 0.5 * uxy[:, 1],
                   0.5 * uxy[:, 0] + 0.5 * uxx[:, 1] + uyy[:, 1]], axis=-1)
    px = (c["p"](x + h, y) - c["p"](x - h, y)) / (2 * h)
    py = (c["p"](x, y + h) - c["p"](x, y - h)) / (2 * h)
    f_fd = np.stack([px, py], axis=-1) - Au
    assert np.abs(f_fd - c["f"](x, y)).max() < 1e-6

    ux = (u(x + h, y) - u(x - h, y)) / (2 * h)
    uy = (u(x, y + h) - u(x, y - h)) / (2 * h)
    g_fd = ux[:, 0] + uy[:, 1]
    g = c["g"](x, y) if c["g"] is not None else np.zeros_like(x)
    assert np.abs(g_fd - g).max() < 1e-6


def test_gradient_callable_matches_fields():
    rng = np.random.default_rng(5)
    c = get_case("SMOOTH_SQUARE")._callables()
    pts = rng.uniform(0.1, 0.9, size=(50, 2))
    x, y = pts[:, 0], pts[:, 1]
    h = 1e-6
    gx = (c["u"](x + h, y) - c["u"](x - h, y)) / (2 * h)
    gy = (c["u"](x, y + h) - c["u"](x, y - h)) / (2 * h)
    G = c["grad_u"](x, y)
    assert np.abs(G[..., 0] - gx).max() < 1e-8
    assert np.abs(G[..., 1] - gy).max() < 1e-8


def test_neumann_traction_matches_stress():
    c = get_case("NEUMANN_STRIP")._callables()
    y = np.linspace(0, 1, 33)
    x = np.ones_like(y)
    G = c["grad_u"](x, y)
    D = 0.5 * (G + np.swapaxes(G, -1, -2))
    sig = D - c["p"](x, y)[:, None, None] * np.eye(2)
    t = sig @ np.array([1.0, 0.0])
    assert np.abs(t - c["t"](x, y)).max() < 1e-12


def test_top_neumann_case_takes_its_normal_from_the_side():
    sym = pytest.importorskip("sympy")
    x, y = sym.symbols("x y")
    case = study.ManufacturedCase(
        name="TOP", domain="unit_square", u_expr=(y ** 2, x ** 2),
        p_expr=x + y - 1, f_expr=None, neumann_side="top")
    assert case.neumann_normal == (0, 1)
    c = case._callables()
    xs = np.linspace(0, 1, 33)
    ys = np.ones_like(xs)
    G = c["grad_u"](xs, ys)
    sig = 0.5 * (G + np.swapaxes(G, -1, -2)) \
        - c["p"](xs, ys)[:, None, None] * np.eye(2)
    assert np.abs(sig @ np.array([0.0, 1.0]) - c["t"](xs, ys)).max() < 1e-12
    # P2P1 holds u and p, so the traction on the top side is consistent
    # exactly when the discrete solution is exact
    table = uniform_study(case, "P2P1", 2, n0=2)
    assert all(r.err_H1_u + r.err_L2_p < 1e-12 for r in table.rows)


def test_unknown_neumann_side_is_rejected():
    with pytest.raises(ValueError, match="left, right, bottom, top"):
        study.ManufacturedCase(name="X", domain="unit_square",
                               neumann_side="north")


@pytest.mark.parametrize("name", ["SMOOTH_SQUARE", "NONZERO_G"])
def test_dirichlet_case_pressure_has_zero_mean(name):
    from stokes_stab.forms import quadrature
    from stokes_stab.space import physical_points
    case = get_case(name)
    mesh = case.make_mesh(8)
    q = quadrature(8)
    xy = physical_points(mesh, q.points)
    vals = case._callables()["p"](xy[..., 0], xy[..., 1])
    integral = float(np.einsum("q,eq,e->", q.weights, vals, 2 * mesh.areas))
    assert abs(integral) < 1e-12


def test_uniform_study_shape_and_h_halving():
    t = uniform_study("SMOOTH_SQUARE", "P1P1", levels=3, n0=2)
    assert len(t.rows) == 3
    assert len(t.rates) == 2
    for a, b in zip(t.rows, t.rows[1:]):
        assert abs(a.h / b.h - 2.0) < 1e-13
        assert b.n_u > a.n_u
    assert t.alpha == 0.1
    assert math.isinf(t.c_i)
    # formatted table mentions every level
    text = str(t)
    assert "SMOOTH_SQUARE" in text and "P1P1" in text


def test_zero_error_study_reports_nan_rates_and_effectivity():
    # zero data on the unit square: the discrete solution and every
    # error are exactly 0, so no ratio of them is defined
    sym = pytest.importorskip("sympy")
    case = study.ManufacturedCase(
        name="ZERO", domain="unit_square",
        u_expr=(sym.Integer(0), sym.Integer(0)), p_expr=sym.Integer(0),
        f_expr=None)
    t = uniform_study(case, "P1P1", 2, n0=2)
    assert [r.err_H1_u + r.err_L2_p for r in t.rows] == [0.0, 0.0]
    assert all(math.isnan(r.effectivity) for r in t.rows)
    assert len(t.rates) == len(t.osc_rates) == 1
    assert math.isnan(t.rates[0]) and math.isnan(t.osc_rates[0])
    assert "ZERO" in str(t)


def test_levels_run_without_malloc_trim(monkeypatch):
    # the path of a C library without malloc_trim: _release_free_heap,
    # which global_report calls before the error norms, does nothing,
    # and a bare solve and _solve_level give the bits of a trimmed level
    _, space, problem = study._set_up("NEUMANN_STRIP", "P2P1", None, 4)
    sol, rep = study._solve_level(space, problem, "level 0")
    monkeypatch.setattr(solver, "_malloc_trim", None)
    solved = solver.solve(forms.assemble_system(space, problem))
    level, level_rep = study._solve_level(space, problem, "level 0")
    for other in (solved, level):
        assert np.array_equal(other.u, sol.u)
        assert np.array_equal(other.p, sol.p)
    assert level_rep.true_errors == rep.true_errors
    assert np.array_equal(level_rep.eta_K, rep.eta_K)
    assert np.array_equal(level_rep.eta_E, rep.eta_E)
    assert np.array_equal(level_rep.osc_K_f, rep.osc_K_f)


def test_uniform_study_rates_first_order_pair():
    t = uniform_study("SMOOTH_SQUARE", "P1P1", levels=3, n0=4)
    assert t.rates[-1] > 0.8
    assert all(r.effectivity > 1.0 for r in t.rows)


def test_uniform_study_rates_second_order_pair():
    t = uniform_study("NONZERO_G", "P2P1", levels=3, n0=4)
    assert t.rates[-1] > 1.7


def test_uniform_study_rejects_too_few_levels():
    with pytest.raises(ValueError):
        uniform_study("SMOOTH_SQUARE", "P1P1", levels=1)


def test_uniform_study_estimator_only_case():
    t = uniform_study("LSHAPE_PEAK", "P1P1", levels=2, n0=4)
    assert math.isnan(t.rows[0].err_H1_u)
    assert math.isnan(t.rows[0].effectivity)
    # rates fall back to the estimator column
    assert len(t.rates) == 1
    assert t.rates[0] > 0
    assert t.rows[0].eta > t.rows[1].eta


def test_alpha_passed_through_and_robust():
    rates = []
    for alpha in (0.05, 0.1, 0.2):
        t = uniform_study("SMOOTH_SQUARE", "P1P1", levels=3, n0=4,
                          alpha=alpha)
        assert t.alpha == alpha
        rates.append(t.rates[-1])
    assert max(rates) - min(rates) < 0.1


def test_pressure_gauge_shift_moves_only_pressure():
    # adding a constant to the exact pressure of the Neumann case
    # shifts the traction data and hence the discrete pressure by the
    # same constant, leaving the velocity untouched
    from stokes_stab import solver
    from stokes_stab.forms import assemble_system
    from stokes_stab.space import FeSpace

    base = get_case("NEUMANN_STRIP")
    shifted = dataclasses.replace(base, name="SHIFTED",
                                  p_expr=base.p_expr + 5)
    us, ps = [], []
    for case in (base, shifted):
        space = FeSpace(case.make_mesh(4), "P1P1")
        sol = solver.solve(assemble_system(space, case.problem(alpha=0.1)))
        us.append(sol.u)
        ps.append(sol.p)
    assert np.abs(us[0] - us[1]).max() < 1e-8
    shift = ps[1] - ps[0]
    assert np.abs(shift - 5.0).max() < 1e-8


def test_dorfler_marking_greedy_prefix():
    from stokes_stab.mesh import unit_square
    mesh = unit_square(2)
    eta_K = np.full(mesh.n_triangles, 0.01)
    eta_K[:4] = np.sqrt([5.0, 3.0, 1.0, 0.5])
    eta_E = np.zeros(mesh.n_edges)

    # indicator mass ~9.5: theta = 0.5 needs ~2.4, one element
    m = dorfler_mark(mesh, eta_K, eta_E, 0.5)
    assert list(m) == [0]
    # theta^2 = 0.7 needs ~6.65, two elements
    m = dorfler_mark(mesh, eta_K, eta_E, np.sqrt(0.7))
    assert list(m) == [0, 1]
    assert np.all(np.diff(m) > 0)

    # theta close to 1 marks every element with positive indicator
    all_marked = dorfler_mark(mesh, eta_K, eta_E, 0.9999999)
    assert len(all_marked) == mesh.n_triangles

    with pytest.raises(ValueError):
        dorfler_mark(mesh, eta_K, eta_E, 1.5)


def test_dorfler_marking_splits_edge_mass():
    # a single interior edge indicator is shared by its two elements;
    # either one alone meets a small enough target
    from stokes_stab.mesh import unit_square
    mesh = unit_square(1)
    inner = int(np.where(mesh.edge_tags == 0)[0][0])
    eta_K = np.zeros(mesh.n_triangles)
    eta_E = np.zeros(mesh.n_edges)
    eta_E[inner] = np.sqrt(2.0)
    m = dorfler_mark(mesh, eta_K, eta_E, 0.6)
    assert len(m) == 1
    m = dorfler_mark(mesh, eta_K, eta_E, 0.8)
    assert len(m) == 2


def test_dorfler_marking_ignores_rounding_noise():
    # the L-shape's indicators come in mirror-image pairs, equal up to
    # rounding; noise at that level must not change the marked set
    from stokes_stab.space import FeSpace
    rng = np.random.default_rng(0)
    _, space, problem = study._set_up("LSHAPE_PEAK", "P1P1", None, None)
    changed = 0
    for it in range(8):
        _, rep = study._solve_level(space, problem, f"iteration {it}")
        mesh = space.mesh
        marked = dorfler_mark(mesh, rep.eta_K, rep.eta_E, 0.5)
        for _ in range(20):
            eta_K, eta_E = (e * (1.0 + 1e-14 * rng.standard_normal(e.shape))
                            for e in (rep.eta_K, rep.eta_E))
            changed += not np.array_equal(
                dorfler_mark(mesh, eta_K, eta_E, 0.5), marked)
        space = FeSpace(mesh.refine_marked(marked), space.pair)
    assert changed == 0


def test_dorfler_marking_ties_go_in_element_order():
    from stokes_stab.mesh import unit_square
    mesh = unit_square(2)
    eta_K = np.full(mesh.n_triangles, 0.01)
    eta_K[[5, 2]] = 1.0
    eta_K[5] *= 1.0 + 1e-13
    # one of the two tied elements reaches the target: the first
    m = dorfler_mark(mesh, eta_K, np.zeros(mesh.n_edges), 0.5)
    assert list(m) == [2]


def test_adaptive_study_monotone_and_stopping():
    log = adaptive_study("LSHAPE_PEAK", "P1P1", theta=0.5, max_iters=6)
    etas = log.etas
    # at most one transient increase while the load is under-resolved
    increases = sum(1 for a, b in zip(etas, etas[1:]) if b >= a)
    assert increases <= 1
    assert etas[-1] < etas[0]
    assert all(b >= a for a, b in zip(log.dofs, log.dofs[1:]))
    nts = [s.mesh.n_triangles for s in log.steps]
    assert all(b > a for a, b in zip(nts, nts[1:]))

    # target_eta cuts the loop short
    target = etas[2] * 1.0001
    log2 = adaptive_study("LSHAPE_PEAK", "P1P1", theta=0.5, max_iters=6,
                          target_eta=target)
    assert len(log2.steps) == 3
    assert log2.etas[-1] <= target


def test_adaptive_steps_keep_no_derived_geometry():
    # each finished iteration's mesh drops its cached geometry once the
    # next mesh is built; the last keeps what its level computed
    log = adaptive_study("LSHAPE_PEAK", "P1P1", theta=0.5, max_iters=3)
    cached = {name for name, attr in vars(TriMesh).items()
              if isinstance(attr, cached_property)}
    for step in log.steps[:-1]:
        assert not cached & set(vars(step.mesh))
    assert "jacobians" in vars(log.steps[-1].mesh)


def test_adaptive_study_validates_arguments():
    with pytest.raises(ValueError):
        adaptive_study("LSHAPE_PEAK", "P1P1", theta=1.2)
    with pytest.raises(ValueError):
        adaptive_study("LSHAPE_PEAK", "P1P1", max_iters=0)


def _field_generator():
    # tools/write_fields.py, which writes src/stokes_stab/_fields.py
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "tools" / "write_fields.py"
    spec = importlib.util.spec_from_file_location("write_fields", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generated_fields_are_current():
    pytest.importorskip("sympy")
    from pathlib import Path
    from stokes_stab import _fields
    committed = Path(_fields.__file__).read_text()
    assert _field_generator().fields_source() == committed, (
        "src/stokes_stab/_fields.py differs from what the installed sympy "
        "prints; regenerate it with `python tools/write_fields.py`")


def _expr_and_fn(exprs, fns):
    """(expression, lambdify function) pairs of two nested field tuples."""
    if isinstance(exprs, tuple):
        for e, fn in zip(exprs, fns):
            yield from _expr_and_fn(e, fn)
    elif exprs is not None:
        yield exprs, fns


@pytest.mark.parametrize("name", EXACT_CASES)
def test_horner_fields_match_expanded_lambdify(name):
    # Horner form only regroups each polynomial's products and sums:
    # every field agrees with a plain lambdify of its expanded
    # expression to rounding, and takes fewer powers
    import inspect
    sym = pytest.importorskip("sympy")
    x, y = sym.symbols("x y")
    case = get_case(name)
    fns = study._lambdified(case)
    rng = np.random.default_rng(31)
    px, py = rng.uniform(-0.5, 1.5, size=(2, 2000))
    n_poly = powers = plain_powers = 0
    for key, exprs in study._field_exprs(case).items():
        for e, fn in _expr_and_fn(exprs, fns[key]):
            if not e.free_symbols:
                continue
            assert e.is_polynomial(x, y), key
            n_poly += 1
            plain = sym.lambdify((x, y), sym.expand(e), "numpy")
            got = np.broadcast_to(fn(px, py), px.shape)
            want = plain(px, py)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            powers += inspect.getsource(fn).count("**")
            plain_powers += inspect.getsource(plain).count("**")
    assert n_poly >= 9
    assert powers < plain_powers / 2


def test_non_polynomial_fields_are_lambdified_as_derived():
    # LSHAPE_PEAK's exp load is not a polynomial: it keeps its own form
    import inspect
    sym = pytest.importorskip("sympy")
    x, y = sym.symbols("x y")
    case = get_case("LSHAPE_PEAK")
    fns = study._lambdified(case)
    px, py = np.random.default_rng(32).uniform(-1.0, 1.0, size=(2, 500))
    pairs = list(_expr_and_fn(study._field_exprs(case)["f"], fns["f"]))
    assert len(pairs) == 2
    for e, fn in pairs:
        assert e.has(sym.exp) and not e.is_polynomial(x, y)
        plain = sym.lambdify((x, y), e, "numpy")
        assert inspect.getsource(fn) == inspect.getsource(plain)
        assert np.array_equal(fn(px, py), plain(px, py))


@pytest.mark.parametrize("name", study.CASE_NAMES)
def test_generated_fields_bit_equal_to_lambdify(name):
    # the committed functions and sympy's lambdify of the same case agree
    # bit for bit, through the one wrapper both are evaluated with
    pytest.importorskip("sympy")
    case = get_case(name)
    generated = case._callables()
    derived = {key: None if fn is None else study._vectorize(fn)
               for key, fn in study._lambdified(case).items()}
    assert generated.keys() == derived.keys()
    rng = np.random.default_rng(23)
    for shape in [(), (17,), (6, 7)]:
        x, y = rng.uniform(-1.0, 1.0, size=(2, *shape))
        for key, fn in generated.items():
            if fn is None:
                assert derived[key] is None
                continue
            a, b = fn(x, y), derived[key](x, y)
            assert a.dtype == b.dtype and a.shape == b.shape, key
            assert a.shape[:len(shape)] == shape, key
            assert np.array_equal(a, b), key


def test_replaced_case_derives_its_fields_with_sympy():
    # a copy is not a builtin case, so it is derived from its own
    # expressions; the builtin case keeps its generated fields
    pytest.importorskip("sympy")
    base = get_case("NONZERO_G")
    shifted = dataclasses.replace(base, p_expr=base.p_expr + 1)
    x, y = np.array([0.25, 0.5]), np.array([0.5, 0.75])
    assert np.allclose(shifted._callables()["p"](x, y),
                       base._callables()["p"](x, y) + 1, rtol=0, atol=1e-15)
    assert shifted.name == base.name and get_case("NONZERO_G") is base


@pytest.mark.parametrize("copier", ["copy", "deepcopy", "pickle"])
def test_copied_builtin_case_keeps_its_expressions(copier, monkeypatch):
    import copy
    import functools
    import pickle
    pytest.importorskip("sympy")
    # fresh builtin cases, whose expressions no earlier test has read
    monkeypatch.setattr(study, "builtin_cases", functools.lru_cache()(
        study.builtin_cases.__wrapped__))
    base = get_case("NEUMANN_STRIP")
    dup = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda c: pickle.loads(pickle.dumps(c))}[copier](base)
    assert dup is not base
    assert dup.p_expr - base.p_expr == 0
    x, y = np.array([0.3, 0.9]), np.array([0.2, 0.4])
    assert np.array_equal(dup.problem().t(x, y), base.problem().t(x, y))
