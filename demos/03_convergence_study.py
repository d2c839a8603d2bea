"""
Manufactured-solution convergence rates
=======================================

Runs the built-in smooth vortex case through a sequence of uniformly
refined meshes for both element pairs and prints the convergence
tables. The combined error ||u - u_h||_1 + ||p - p_h||_0 should drop
like h for P1P1 and h^2 for P2P1; the data oscillation term decays at
least one order faster, which is what licenses reading the estimator
as an error proxy.
"""

from stokes_stab import uniform_study
from stokes_stab.study import CASE_NAMES

print("available cases:", ", ".join(CASE_NAMES))
print()

for pair, levels in (("P1P1", 5), ("P2P1", 4)):
    table = uniform_study("SMOOTH_SQUARE", pair, levels=levels, n0=4)
    print(table)
    print(f"last rate: {table.rates[-1]:.3f}, "
          f"oscillation rate: {table.osc_rates[-1]:.3f}")
    print()

# the same harness handles inhomogeneous divergence (div u = g != 0)
# and Neumann outflow data; rates are unchanged
table = uniform_study("NONZERO_G", "P2P1", levels=4, n0=4)
print(table)
print(f"last rate: {table.rates[-1]:.3f}")
