"""Seeded L-shape mesh in the `trimesh v1` text format, built with numpy only.

The domain is [-1,1]^2 minus the open quadrant (0,1]x(0,1], the same
L-shape the program meshes itself. Each unit quadrant is cut into
CELLS x CELLS squares and each square into two triangles, alternating
the diagonal, so the mesh has 6 * CELLS^2 triangles. Interior vertices
move by a seed-dependent uniform jitter of at most JITTER cell widths
per coordinate; the boundary, the connectivity and the triangle count
do not depend on the seed.
"""

import numpy as np

CELLS = 39                  # 6 * 39^2 = 9126 triangles
JITTER = 0.2
AUDIT_MIN_ANGLE_DEG = 10.0  # threshold of TriMesh.audit()


def _connectivity(m):
    """Vertex grid indices, triangles and the interior-vertex mask."""
    n = 2 * m
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = ~((i > m) & (j > m))
    vid = np.full((n + 1, n + 1), -1, dtype=np.int64)
    vid[keep] = np.arange(np.count_nonzero(keep))
    on_boundary = ((i == 0) | (i == n) | (j == 0) | (j == n)
                   | ((i == m) & (j >= m)) | ((j == m) & (i >= m)))
    interior = (~on_boundary)[keep]

    ci, cj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    cell = ~((ci >= m) & (cj >= m))
    ci, cj = ci[cell], cj[cell]
    a, b = vid[ci, cj], vid[ci + 1, cj]
    c, d = vid[ci + 1, cj + 1], vid[ci, cj + 1]
    # counterclockwise, longest edge (the cell diagonal) first
    even = ((ci + cj) % 2 == 0)[:, None]
    first = np.where(even, np.stack([c, a, b], axis=1),
                     np.stack([b, d, a], axis=1))
    second = np.where(even, np.stack([a, c, d], axis=1),
                      np.stack([d, b, c], axis=1))
    triangles = np.stack([first, second], axis=1).reshape(-1, 3)
    coords = np.column_stack([i[keep], j[keep]]).astype(float) / m - 1.0
    return coords, triangles, interior


def _boundary_edges(triangles):
    edges = np.sort(np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                                    triangles[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    return uniq[counts == 1]


def min_angle_deg(vertices, triangles):
    c = vertices[triangles]
    worst = 180.0
    for k in range(3):
        a = c[:, (k + 1) % 3] - c[:, k]
        b = c[:, (k + 2) % 3] - c[:, k]
        cos = np.einsum("td,td->t", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        worst = min(worst, float(np.degrees(np.arccos(np.clip(cos, -1, 1))).min()))
    return worst


def signed_areas(vertices, triangles):
    p0, p1, p2 = (vertices[triangles[:, k]] for k in range(3))
    d1, d2 = p1 - p0, p2 - p0
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def generate(seed):
    """Return (file text, vertices, triangles) of the seeded mesh."""
    coords, triangles, interior = _connectivity(CELLS)
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-JITTER, JITTER, size=(int(interior.sum()), 2)) / CELLS
    vertices = coords.copy()
    vertices[interior] += shift
    bnd = _boundary_edges(triangles)
    lines = ["trimesh v1", f"vertices {len(vertices)}"]
    lines += [f"{x!r} {y!r}" for x, y in vertices.tolist()]
    lines.append(f"triangles {len(triangles)}")
    lines += [f"{a} {b} {c}" for a, b, c in triangles.tolist()]
    lines.append(f"boundary {len(bnd)}")
    lines += [f"{a} {b} D" for a, b in bnd.tolist()]
    return "\n".join(lines) + "\n", vertices, triangles


def _after_vertices(text):
    return text[text.index("\ntriangles "):]


def generate_checked(seed):
    """Generate the mesh for `seed` and check the generator's promises.

    Returns (text, expect, problems): expect holds the vertex and
    triangle counts and the minimum angle the audit should report;
    problems lists every broken promise (same seed, same bytes; another
    seed, same connectivity; counterclockwise triangles; minimum angle
    above the audit threshold).
    """
    text, vertices, triangles = generate(seed)
    other_text, other_vertices, _ = generate(seed + 1)
    problems = []
    if generate(seed)[0] != text:
        problems.append("same seed produced different bytes")
    if _after_vertices(other_text) != _after_vertices(text):
        problems.append("another seed changed the triangle or boundary block")
    if np.array_equal(other_vertices, vertices):
        problems.append("another seed did not move the vertices")
    angle = min_angle_deg(vertices, triangles)
    for name, v in (("mesh", vertices), ("mesh of seed+1", other_vertices)):
        if not np.all(signed_areas(v, triangles) > 0):
            problems.append(f"{name} has triangles that are not counterclockwise")
        if min_angle_deg(v, triangles) <= AUDIT_MIN_ANGLE_DEG:
            problems.append(f"{name} has an angle below the audit threshold")
    expect = {"n_vertices": len(vertices), "n_triangles": len(triangles),
              "min_angle_deg": angle}
    return text, expect, problems
