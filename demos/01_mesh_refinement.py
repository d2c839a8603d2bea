"""
Triangle meshes, audits, and newest-vertex bisection
====================================================

Builds structured meshes on the unit square and the L-shape, checks
their structural invariants, then refines a marked subset of elements
and watches the minimum angle: bisection by the newest vertex never
degrades the angle below half of the initial one, so repeated local
refinement stays shape regular.
"""

import numpy as np

from stokes_stab import l_shape, unit_square
from stokes_stab.mesh import MIN_ANGLE_DEG

# a 4x4 criss-cross grid of the unit square: 2*n*n right isoceles triangles
mesh = unit_square(4)
print(f"unit square n=4: {len(mesh.vertices)} vertices, "
      f"{len(mesh.triangles)} triangles, h_max = {mesh.diameters.max():.4f}")

# every mesh carries its own audit: conformity, orientation, tag
# coverage and a smallest angle of MIN_ANGLE_DEG
report = mesh.audit()
print(f"audit passes: {report.ok} (min angle threshold {MIN_ANGLE_DEG} deg)")

# uniform refinement quarters every triangle
fine = mesh.refine_uniform()
print(f"uniformly refined: {len(fine.triangles)} triangles, "
      f"h_max = {fine.diameters.max():.4f}")


# local refinement: mark the triangles touching the re-entrant corner of
# the L-shape and bisect; the closure keeps the mesh conforming
mesh = l_shape(4)
print(f"\nL-shape n=4: {len(mesh.triangles)} triangles, "
      f"min angle = {mesh.min_angle_deg:.1f} deg")

for sweep in range(6):
    at_corner = np.all(np.abs(mesh.vertices[mesh.triangles]) < 1e-12,
                       axis=2)
    marked = np.flatnonzero(at_corner.any(axis=1))
    mesh = mesh.refine_marked(marked)
    print(f"sweep {sweep}: marked {len(marked):3d} at the corner, "
          f"now {len(mesh.triangles):4d} triangles, "
          f"min angle = {mesh.min_angle_deg:.1f} deg, "
          f"audit: {mesh.audit().ok}")

# the angle never leaves the initial 45 degrees on this structured start:
# bisection cycles through at most four similarity classes per triangle
