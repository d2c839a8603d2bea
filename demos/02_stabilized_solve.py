"""
Why equal-order elements need stabilization
===========================================

Solves a smooth manufactured flow with P1 velocity / P1 pressure on the
unit square. That pairing violates the discrete saddle stability
condition, so the plain Galerkin system is singular: spurious pressure
modes live in the kernel. Subtracting the alpha-weighted element
residual term restores solvability and the pressure comes out clean.
"""

from stokes_stab import (
    FeSpace,
    SolverError,
    assemble_system,
    combined_error,
    functional_norms,
    get_case,
    solve,
)

case = get_case("SMOOTH_SQUARE")
space = FeSpace(case.make_mesh(8), "P1P1")
print(f"mesh: {len(space.mesh.triangles)} triangles, "
      f"{space.n_u} velocity dofs, {space.n_p} pressure dofs")

# attempt the unstabilized system first: alpha = 0 keeps the raw
# saddle form and the factorization hits a zero pivot
try:
    solve(assemble_system(space, case.problem(alpha=0.0)))
    print("alpha = 0: solved (unexpected on this pairing)")
except SolverError as exc:
    print(f"alpha = 0 fails: {exc}")

# the stabilized run: alpha = 0.1 is the equal-order default
problem = case.problem(alpha=0.1)
solution = solve(assemble_system(space, problem))
norms, _ = functional_norms(space, solution, problem.exact)
print("\nalpha = 0.1:")
print(f"  velocity H1 error  {norms['err_H1_u']:.4e}")
print(f"  pressure L2 error  {norms['err_L2_p']:.4e}")
print(f"  combined           {combined_error(norms):.4e}")

# the enclosed-flow case pins the pressure gauge with a mean constraint;
# the reported multiplier is the residual of that constraint
print(f"  gauge multiplier   {solution.multiplier:.2e}")

# P2P1 on the same mesh: stable by itself, stabilization only needs to
# respect the inverse inequality bound C_I (alpha defaults to C_I / 4)
space2 = FeSpace(case.make_mesh(8), "P2P1")
problem2 = case.problem()
solution2 = solve(assemble_system(space2, problem2))
norms2, _ = functional_norms(space2, solution2, problem2.exact)
print(f"\nP2P1, default alpha: combined error "
      f"{combined_error(norms2):.4e}")
