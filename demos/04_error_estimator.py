"""
Residual error estimation and its efficiency audit
==================================================

Computes the residual estimator for a solved flow: element residuals
h_K ||f + div(D(u_h)) - grad p_h||_K plus the divergence misfit, edge
terms from stress jumps across interior edges, and data oscillation.
With a closed-form solution at hand the effectivity index eta / error
is observable directly; the per-element audit bounds each indicator by
the local error on its patch, the practical check of two-sided
reliability.
"""

import numpy as np

from stokes_stab import (
    FeSpace,
    assemble_system,
    efficiency_audit,
    get_case,
    global_report,
    solve,
)

case = get_case("SMOOTH_SQUARE")

for n in (4, 8, 16):
    space = FeSpace(case.make_mesh(n), "P1P1")
    problem = case.problem()
    solution = solve(assemble_system(space, problem))
    report = global_report(solution, space, problem)
    norms = report.true_errors
    print(f"n = {n:2d}: eta = {report.eta:.4e}, "
          f"error = {norms['err_H1_u'] + norms['err_L2_p']:.4e}, "
          f"effectivity = {report.effectivity:.3f}, "
          f"osc_f = {report.osc_f:.2e}")

# effectivity settles to a constant: the estimator tracks the error
# up to a mesh-independent factor

# the audit divides each element indicator by the patch error around it;
# stability of the largest ratio under refinement is the efficiency
# statement made elementwise
print()
for n in (4, 8, 16):
    space = FeSpace(case.make_mesh(n), "P1P1")
    problem = case.problem()
    solution = solve(assemble_system(space, problem))
    report = global_report(solution, space, problem)
    audit = efficiency_audit(solution, space, problem, report)
    print(f"n = {n:2d}: max patch ratio = {audit.max_ratio:.3f}, "
          f"median = {np.median(audit.ratios):.3f}, "
          f"exact-in-space sentinels: {audit.n_sentinel}")
