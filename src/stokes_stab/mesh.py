"""Conforming triangle meshes: generation, refinement, audit, file I/O.

Triangles are stored counterclockwise with the refinement edge first:
the edge between local vertices 0 and 1 is the one bisected by
newest-vertex bisection, and local vertex 2 is the newest vertex.
Generators put the longest edge first, which keeps bisection shape
quality bounded over arbitrarily many refinement rounds.
"""

import math
import warnings
from functools import cached_property

import numpy as np

# edge tag codes (edge_tags array)
INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

_TAG_TO_STR = {DIRICHLET: "D", NEUMANN: "N"}
_STR_TO_TAG = {"D": DIRICHLET, "N": NEUMANN}

# reference triangle corners, used to map local vertex -> barycentric point
REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# candidate (edge, vertex) or (vertex, vertex) pairs the audit holds at once
_PAIR_BUDGET = 1 << 16


class MeshError(Exception):
    """Invalid mesh data or an operation that would produce one."""


class MeshFormatError(MeshError):
    """Malformed mesh file; message carries the offending line number."""


def utf8_error_line(exc):
    """The line number of the first byte that a UTF-8 decode rejected,
    from its UnicodeDecodeError: the valid text before the byte, and a
    stand-in for it, split into lines. exc.start indexes exc.object,
    the bytes after any byte-order mark."""
    return len((exc.object[:exc.start].decode() + "x").splitlines())


class TriMesh:
    """Immutable conforming triangulation of a polygonal domain.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise, refinement edge first
    boundary_tags : dict mapping sorted vertex pairs (i, j) to "D" or "N"
    parents : optional (nt,) int array, index of the parent triangle in the
        mesh this one was refined from (-1 for generated meshes)
    validate : when False, skip the boundary-coverage and orientation
        checks so that deliberately broken meshes can be built for audit
    """

    def __init__(self, vertices, triangles, boundary_tags, parents=None,
                 validate=True):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError(f"vertices must be (nv, 2), got {vertices.shape}")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError(f"triangles must be (nt, 3), got {triangles.shape}")
        if not len(triangles):
            raise MeshError("mesh has no triangles")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise MeshError("triangle vertex index out of range")

        self.vertices = vertices
        self.triangles = triangles
        if parents is None:
            parents = np.full(len(triangles), -1, dtype=np.int64)
        self.parents = np.ascontiguousarray(parents, dtype=np.int64)

        self._build_edges(boundary_tags, validate)
        if validate:
            # not "<= 0": a NaN area must fail too
            bad = np.flatnonzero(~(self.signed_areas > 0.0))
            if bad.size:
                raise MeshError(
                    f"triangles not counterclockwise: {bad.tolist()[:10]}")
            if not np.any(self.edge_tags == DIRICHLET):
                raise MeshError("mesh has no Dirichlet boundary edges")
        for arr in (self.vertices, self.triangles, self.parents, self.edges,
                    self.t2e, self.e2t, self.edge_counts, self.edge_tags):
            arr.flags.writeable = False

    def _build_edges(self, boundary_tags, validate):
        nt, nv = len(self.triangles), len(self.vertices)
        # edge opposite local vertex i is (v_{i+1}, v_{i+2}); the key
        # i*nv + j of a sorted pair (i, j) orders edges lexicographically
        a = self.triangles[:, [1, 2, 0]]
        b = self.triangles[:, [2, 0, 1]]
        flat = (np.minimum(a, b) * nv + np.maximum(a, b)).ravel()
        # one stable sort groups the 3*nt entries by edge, each edge's
        # triangles in ascending order; the first two of them fill e2t
        order = np.argsort(flat, kind="stable")
        starts = np.diff(flat[order], prepend=-1) != 0
        flat_edge = np.cumsum(starts) - 1
        keys = flat[order[starts]]
        self.edges = np.column_stack(np.divmod(keys, nv))
        self.t2e = np.empty((nt, 3), dtype=np.int64)
        self.t2e.reshape(-1)[order] = flat_edge

        ne = len(self.edges)
        self.e2t = np.full((ne, 2), -1, dtype=np.int64)
        flat_tri = order // 3
        # triangles per edge; more than two is a conformity failure
        self.edge_counts = counts = np.bincount(flat_edge, minlength=ne)
        first = np.cumsum(counts) - counts
        rank = np.arange(3 * nt) - first[flat_edge]
        keep = rank < 2
        self.e2t[flat_edge[keep], rank[keep]] = flat_tri[keep]
        if validate and np.any(counts > 2):
            bad = np.flatnonzero(counts > 2)
            raise MeshError(
                f"edges shared by more than two triangles: {bad.tolist()[:10]}")

        self.edge_tags = np.zeros(ne, dtype=np.int8)
        boundary = counts == 1
        seen = np.zeros(ne, dtype=bool)
        pairs = np.sort(np.array(list(boundary_tags), dtype=np.int64)
                        .reshape(-1, 2), axis=1)
        wanted = pairs[:, 0] * nv + pairs[:, 1]
        found = np.searchsorted(keys, wanted)
        # a pair outside the vertex range could alias another edge's key
        hit = (pairs[:, 0] >= 0) & (pairs[:, 1] < nv) & (found < ne)
        hit[hit] = keys[found[hit]] == wanted[hit]
        found[~hit] = -1
        for pair, idx, tag in zip(map(tuple, pairs.tolist()), found.tolist(),
                                  boundary_tags.values()):
            if idx < 0:
                if validate:
                    raise MeshError(f"tagged edge {pair} not present in mesh")
                continue
            if tag not in _STR_TO_TAG:
                raise MeshError(f"unknown boundary tag {tag!r} on edge {pair}")
            if seen[idx]:
                raise MeshError(f"edge {pair} tagged more than once")
            seen[idx] = True
            self.edge_tags[idx] = _STR_TO_TAG[tag]
        if validate:
            missing = boundary & ~seen
            if np.any(missing):
                pairs = [(int(a), int(b)) for a, b in self.edges[missing][:10]]
                raise MeshError(f"untagged boundary edges: {pairs}")
            stray = seen & ~boundary
            if np.any(stray):
                pairs = [(int(a), int(b)) for a, b in self.edges[stray][:10]]
                raise MeshError(f"interior edges carry boundary tags: {pairs}")

    # ------------------------------------------------------------------
    # geometry

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)

    @cached_property
    def corner_coords(self):
        """(nt, 3, 2) coordinates of triangle corners."""
        return self.vertices[self.triangles]

    @cached_property
    def jacobians(self):
        """(nt, 2, 2) affine map Jacobians, columns v1-v0 and v2-v0."""
        return _jacobians(self.corner_coords)

    @cached_property
    def signed_areas(self):
        return _signed_areas(self.jacobians)

    @cached_property
    def areas(self):
        return np.abs(self.signed_areas)

    @cached_property
    def inv_jacobians_t(self):
        """(nt, 2, 2) inverse-transpose Jacobians for gradient pushforward."""
        J = self.jacobians
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        out = np.empty_like(J)
        out[:, 0, 0] = J[:, 1, 1]
        out[:, 0, 1] = -J[:, 1, 0]
        out[:, 1, 0] = -J[:, 0, 1]
        out[:, 1, 1] = J[:, 0, 0]
        return out / det[:, None, None]

    @cached_property
    def edge_lengths(self):
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    @cached_property
    def diameters(self):
        """(nt,) longest edge length of each triangle."""
        return self.edge_lengths[self.t2e].max(axis=1)

    @cached_property
    def shape_classes(self):
        """(nt,) shape class of each triangle, numbered in order of first
        appearance.

        Triangles share a class when their Jacobians and diameters agree
        byte for byte: every element kernel depends on the triangle
        through these alone (diameters come from the vertices, not from
        the Jacobian, so they can differ in the last bit where the
        Jacobians agree). Bytes, not values, so -0.0 and 0.0 fall apart
        and a kernel evaluated on one member of a class is, bit for bit,
        that of every other.
        """
        key = np.empty((self.n_triangles, 5))
        key[:, :4] = self.jacobians.reshape(-1, 4)
        key[:, 4] = self.diameters
        _, first, cls = np.unique(key.view(np.dtype((np.void, 40))).ravel(),
                                  return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        return rank[cls]

    @cached_property
    def shape_representatives(self):
        """(n_classes,) first triangle of each shape class, ascending:
        where shape_classes first exceeds all classes before it."""
        seen = np.maximum.accumulate(self.shape_classes)
        return np.flatnonzero(np.diff(seen, prepend=-1))

    @cached_property
    def unit_vertices(self):
        """(nv, 2) read-only vertices scaled by the power of two that
        puts the largest finite |coordinate| in [1, 2). The scaling is
        exact, so angles, orientations and relative distances keep
        their bits wherever no product of the unscaled coordinates
        overflows or underflows."""
        v = self.vertices
        big = np.max(np.abs(v), where=np.isfinite(v), initial=0.0)
        scaled = np.ldexp(v, 1 - np.frexp(big)[1])
        scaled.flags.writeable = False
        return scaled

    @cached_property
    def min_angle_deg(self):
        """Smallest interior angle over all triangles, in degrees, the
        same at every scale of the mesh (taken on unit_vertices). An
        angle beside a side of zero length counts as 0."""
        c = self.unit_vertices[self.triangles]
        a = c[:, [1, 2, 0]] - c
        b = c[:, [2, 0, 1]] - c
        ab = np.linalg.norm(a, axis=2) * np.linalg.norm(b, axis=2)
        cosang = np.divide(np.einsum("kid,kid->ki", a, b), ab,
                           out=np.ones_like(ab), where=ab != 0.0)
        return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))).min())

    def drop_derived(self):
        """Forget the cached geometry arrays (corner_coords, jacobians,
        inv_jacobians_t and the other cached properties); each is
        computed again if read."""
        for name, attr in vars(TriMesh).items():
            if isinstance(attr, cached_property):
                self.__dict__.pop(name, None)

    def boundary_tag_dict(self):
        """Boundary tags as {(i, j): "D"|"N"} with i < j."""
        tagged = self.edge_tags != INTERIOR
        return {(i, j): _TAG_TO_STR[tag] for (i, j), tag in zip(
            self.edges[tagged].tolist(), self.edge_tags[tagged].tolist())}

    @property
    def has_neumann(self):
        return bool(np.any(self.edge_tags == NEUMANN))

    # ------------------------------------------------------------------
    # refinement

    def refine_uniform(self):
        """Split every triangle into four congruent children.

        Each child again stores its longest edge first, so repeated
        uniform refinement produces only similarity copies of the
        original triangles.
        """
        nv = self.n_vertices
        mid = 0.5 * (self.vertices[self.edges[:, 0]]
                     + self.vertices[self.edges[:, 1]])
        new_vertices = np.vstack([self.vertices, mid])

        t = self.triangles
        # midpoint vertex ids per local edge (opposite vertex 0, 1, 2)
        m0 = nv + self.t2e[:, 0]
        m1 = nv + self.t2e[:, 1]
        m2 = nv + self.t2e[:, 2]
        children = np.stack([
            np.column_stack([t[:, 0], m2, m1]),
            np.column_stack([m2, t[:, 1], m0]),
            np.column_stack([m1, m0, t[:, 2]]),
            np.column_stack([m0, m1, m2]),
        ], axis=1).reshape(-1, 3)
        parents = np.repeat(np.arange(self.n_triangles), 4)
        tags = self._split_tags(nv + np.arange(self.n_edges))
        return TriMesh(new_vertices, children, tags, parents=parents)

    def _split_tags(self, midpoint_id):
        """Boundary tags of the refined mesh: a tagged edge with midpoint
        vertex midpoint_id[e] passes its tag to both halves, one with
        midpoint_id[e] < 0 keeps it whole."""
        tags = {}
        mids = midpoint_id[self.edge_tags != INTERIOR].tolist()
        for ((i, j), tag), m in zip(self.boundary_tag_dict().items(), mids):
            if m < 0:
                tags[(i, j)] = tag
            else:
                # midpoints are numbered after every vertex of this mesh
                tags[(i, m)] = tags[(j, m)] = tag
        return tags

    def refine_marked(self, marked):
        """Newest-vertex bisection of the marked triangles.

        The marked set is first closed: bisecting a triangle's
        refinement edge may create a hanging node in the neighbor, which
        is then forced to bisect as well. The result is conforming and
        every marked triangle is strictly smaller than before.
        """
        marked = np.asarray(marked)
        if marked.dtype == bool:
            marked = np.flatnonzero(marked)
        marked = np.unique(marked.astype(np.int64))
        if marked.size == 0:
            return self
        if marked.min() < 0 or marked.max() >= self.n_triangles:
            raise MeshError("marked triangle index out of range")
        if np.any(self.edge_counts > 2):
            raise MeshError("cannot refine an edge of three or more triangles")

        # closure: a triangle with any marked edge must bisect its own
        # refinement edge; iterate to a fixpoint
        edge_marked = np.zeros(self.n_edges, dtype=bool)
        new = self.t2e[marked, 2]
        while new.size:
            edge_marked[new] = True
            # only the triangles on an edge marked in the last pass can
            # need their own refinement edge split
            near = self.e2t[new]
            ref = self.t2e[near[near >= 0], 2]
            new = ref[~edge_marked[ref]]

        nv = self.n_vertices
        split_edges = np.flatnonzero(edge_marked)
        midpoint_id = np.full(self.n_edges, -1, dtype=np.int64)
        midpoint_id[split_edges] = nv + np.arange(len(split_edges))
        mid = 0.5 * (self.vertices[self.edges[split_edges, 0]]
                     + self.vertices[self.edges[split_edges, 1]])
        new_vertices = np.vstack([self.vertices, mid])

        # children in order: bisecting the refinement edge (v0, v1) at m2
        # gives (v2, v0, m2) and (v1, v2, m2); a half whose outer edge is
        # split too is bisected again at m1 or m0. Closure makes m2 >= 0
        # whenever m0 or m1 is.
        t = self.triangles
        v0, v1, v2 = t.T
        m0, m1, m2 = midpoint_id[self.t2e].T
        s0, s1, s2 = (m0 >= 0)[:, None], (m1 >= 0)[:, None], (m2 >= 0)[:, None]

        def rows(*cols):
            return np.stack(cols, axis=-1)

        kids = np.stack([
            np.where(s1, rows(m2, v2, m1), np.where(s2, rows(v2, v0, m2), t)),
            rows(v0, m2, m1),
            np.where(s0, rows(m2, v1, m0), rows(v1, v2, m2)),
            rows(v2, m2, m0),
        ], axis=1)
        keep = np.hstack([np.ones_like(s2), s1, s2, s0])
        return TriMesh(new_vertices, kids[keep], self._split_tags(midpoint_id),
                       parents=np.nonzero(keep)[0])

    # ------------------------------------------------------------------
    # audit

    def audit(self, min_angle_deg=10.0):
        """Run structural checks and return an AuditReport.

        Checks orientation, conformity (shared edges, hanging nodes,
        duplicate and unused vertices), boundary tag coverage, and a
        minimum-angle threshold. Runs on meshes built with
        validate=False, so broken inputs are reported instead of
        rejected. The geometric checks run on unit_vertices, so a mesh
        gets the same report at every scale: no product of coordinates
        overflows or underflows, and the absolute tolerance of
        coincident vertices is relative to the mesh's extent.
        """
        checks = {}
        unit = self.unit_vertices

        areas = _signed_areas(_jacobians(unit[self.triangles]))
        bad_orient = np.flatnonzero(~(areas > 0.0))
        checks["orientation"] = (bad_orient.size == 0,
                                 [f"triangle {k}" for k in bad_orient[:20]])

        conf = []
        counts = self.edge_counts
        over = counts > 2
        for e, c in zip(self.edges[over], counts[over]):
            conf.append(f"edge {(int(e[0]), int(e[1]))} shared by {c} triangles")

        used = np.zeros(self.n_vertices, dtype=bool)
        used[self.triangles.ravel()] = True
        for v in np.flatnonzero(~used)[:20]:
            conf.append(f"vertex {v} unused")

        for i, j in self._coincident_vertices(unit):
            conf.append(f"vertices {i} and {j} coincide")

        conf.extend(self._hanging_nodes(unit))
        checks["conformity"] = (len(conf) == 0, conf[:20])

        tag_issues = []
        boundary = counts == 1
        untagged = boundary & (self.edge_tags == INTERIOR)
        for e in self.edges[untagged][:20]:
            tag_issues.append(f"boundary edge {(int(e[0]), int(e[1]))} untagged")
        stray = ~boundary & (self.edge_tags != INTERIOR)
        for e in self.edges[stray][:20]:
            tag_issues.append(f"interior edge {(int(e[0]), int(e[1]))} carries a tag")
        if not np.any(self.edge_tags == DIRICHLET):
            tag_issues.append("no Dirichlet edges")
        checks["boundary_tags"] = (len(tag_issues) == 0, tag_issues)

        ang = self.min_angle_deg
        checks["min_angle"] = (
            ang >= min_angle_deg,
            [] if ang >= min_angle_deg else
            [f"min angle {ang:.3f} deg below threshold {min_angle_deg}"])
        return AuditReport(checks)

    @staticmethod
    def _coincident_vertices(vertices):
        """First 20 pairs (i, j), i < j, of the (nv, 2) vertices closer
        than 1e-12 in x and in y.

        Each finite vertex is tested against those in its box grown
        past the tolerance; one that is not finite is close to none.
        """
        x, y = vertices.T
        ids = np.flatnonzero(np.isfinite(vertices).all(axis=1))
        box = vertices[ids]
        found = np.empty((0, 2), dtype=np.int64)
        for q, b in _box_pairs(vertices, box - 2e-12, box + 2e-12):
            # each pair once; most are a vertex and itself
            a = ids[q]
            later = a < b
            a, b = a[later], b[later]
            close = ((np.abs(x[b] - x[a]) < 1e-12)
                     & (np.abs(y[b] - y[a]) < 1e-12))
            found = _first_pairs(found, a[close], b[close])
        return [(int(i), int(j)) for i, j in found]

    def _hanging_nodes(self, vertices):
        """Vertices lying strictly inside an edge of some triangle, with
        the mesh's vertices at the (nv, 2) coordinates given.

        Only edges with both ends finite are scanned, and the tolerance
        is 1e-9 of the longest of them: an edge with a non-finite end (a
        mesh built with validate=False) has no interior to hang on. Only
        vertices inside an edge's bounding box, grown by twice the
        tolerance, are tested; _box_pairs finds them. The first 20 hits
        in (edge, vertex) order are reported.
        """
        ends = self.edges
        finite = np.isfinite(vertices).all(axis=1)
        if not finite.all():   # copy the edges only when some are cut
            ends = ends[finite[ends].all(axis=1)]
        pa, pb = vertices[ends[:, 0]], vertices[ends[:, 1]]
        d = pb - pa
        L2 = np.einsum("ed,ed->e", d, d)
        tol = 1e-9 * math.sqrt(L2.max()) if len(L2) else 0.0
        if not tol > 0:
            # no such edge, or all of length 0: "dist < tol" fails
            return []
        lo = np.minimum(pa, pb) - 2 * tol
        hi = np.maximum(pa, pb) + 2 * tol
        found = np.empty((0, 2), dtype=np.int64)
        # a vertex that is not finite fails the test (t is NaN or
        # infinite), so _box_pairs may skip it
        for e, v in _box_pairs(vertices, lo, hi):
            # most pairs are an edge and one of its ends: dropped first
            other = (v != ends[e, 0]) & (v != ends[e, 1])
            e, v = e[other], v[other]
            rel = vertices[v] - pa[e]
            t = np.einsum("kd,kd->k", rel, d[e]) / L2[e]
            perp = rel - t[:, None] * d[e]
            dist = np.hypot(perp[:, 0], perp[:, 1])
            on = (dist < tol) & (t > 1e-9) & (t < 1 - 1e-9)
            found = _first_pairs(found, e[on], v[on])
        # ends keeps the edges in order, so its (edge, vertex) order is
        # the mesh's
        return [f"vertex {v} hangs on edge "
                f"{(int(ends[e, 0]), int(ends[e, 1]))}"
                for e, v in found]

    # ------------------------------------------------------------------
    # file I/O

    def write(self, path):
        """Write the mesh in the plain-text trimesh v1 format."""
        lines = ["trimesh v1", f"vertices {self.n_vertices}"]
        lines.extend(f"{float(x)!r} {float(y)!r}" for x, y in self.vertices)
        lines.append(f"triangles {self.n_triangles}")
        lines.extend(f"{a} {b} {c}" for a, b, c in self.triangles)
        tags = self.boundary_tag_dict()
        lines.append(f"boundary {len(tags)}")
        lines.extend(f"{i} {j} {tag}" for (i, j), tag in tags.items())
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @staticmethod
    def read(path, validate=True):
        """Read a mesh from the plain-text trimesh v1 format, UTF-8
        text that may start with a byte-order mark.

        validate=False defers structural checking to audit(), letting
        broken meshes be loaded for inspection.

        The format and every message are defined by a line-by-line
        parser. The vertex and triangle blocks first go whole through
        np.loadtxt, which accepts a strict subset of what float() and
        int() accept, with equal values; a block it rejects or warns
        about is parsed again line by line, which then names the first
        defect.
        """
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            raw = data.decode("utf-8-sig").splitlines()
        except UnicodeDecodeError as exc:
            raise MeshFormatError(f"line {utf8_error_line(exc)}: not UTF-8 "
                                  f"text ({exc.reason})") from None
        del data
        end = max(len(raw), 1)  # the line named when the file ends early
        # the content lines, comment cut and blanks dropped, and their
        # line numbers; strip() returns a line with nothing to strip
        # itself, so a file without comments is not copied
        cut = [line.split("#", 1)[0].strip() if "#" in line
               else line.strip() for line in raw]
        del raw
        numbers = np.flatnonzero(
            np.fromiter(map(bool, cut), bool, len(cut))) + 1
        lines = list(filter(None, cut))
        del cut
        at = 0  # index in lines of the next content line

        def next_line():
            nonlocal at
            if at == len(lines):
                return end, None
            at += 1
            return int(numbers[at - 1]), lines[at - 1]

        def defect(k, what):
            """The error naming content line k and its text."""
            return MeshFormatError(
                f"line {numbers[k]}: {what} in {lines[k]!r}")

        ln, line = next_line()
        if line is None:
            raise MeshFormatError(
                f"line {ln}: expected 'trimesh v1' header, file ended")
        if line != "trimesh v1":
            raise MeshFormatError(f"line {ln}: expected 'trimesh v1' header, "
                                  f"got {line!r}")

        def count(keyword):
            """N of the `keyword N` line."""
            ln, line = next_line()
            if line is None:
                raise MeshFormatError(f"line {ln}: missing '{keyword} N' line")
            parts = line.split()
            if len(parts) != 2 or parts[0] != keyword:
                raise MeshFormatError(
                    f"line {ln}: expected '{keyword} N', got {line!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise MeshFormatError(
                    f"line {ln}: bad count {parts[1]!r}") from None
            if n < 0:
                raise MeshFormatError(f"line {ln}: negative count {n}")
            return n

        def parse_lines(n, noun, form, parse):
            """Yield parse(ln, line, fields) of each of the next n
            lines, in file order."""
            for k in range(n):
                ln, line = next_line()
                if line is None:
                    raise MeshFormatError(f"line {ln}: expected {n} {noun} "
                                          f"lines, file ended after {k}")
                parts = line.split()
                if len(parts) != len(form.split()):
                    raise MeshFormatError(
                        f"line {ln}: expected '{form}', got {line!r}")
                yield parse(ln, line, parts)

        def read_array(keyword, noun, form, parse, dtype):
            """The `keyword N` block as an (N, columns) array, and the
            index in lines of its first row."""
            nonlocal at
            n = count(keyword)
            first, width = at, len(form.split())
            # a short block is left to parse_lines, which names its
            # first defect or where the file ended
            if 0 < n <= len(lines) - at:
                # numpy before 2.4 reads an int64 token such as "2.0"
                # or "2.7" through float() and truncates it, with only
                # a DeprecationWarning; any warning sends the block to
                # parse_lines, whatever the numpy version or the
                # caller's warning filters
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        rows = np.loadtxt(lines[at:at + n], dtype=dtype,
                                          ndmin=2)
                except (ValueError, Warning):
                    rows = None
                if rows is not None and rows.shape[1] == width:
                    at += n
                    return rows, first
            return np.fromiter(parse_lines(n, noun, form, parse),
                               (dtype, width)), first

        def coordinates(ln, line, parts):
            try:
                return [float(p) for p in parts]
            except ValueError:
                raise MeshFormatError(
                    f"line {ln}: bad coordinate in {line!r}") from None

        def indices(ln, line, parts):
            try:
                ids = [int(p) for p in parts]
            except ValueError:
                raise MeshFormatError(
                    f"line {ln}: bad vertex index in {line!r}") from None
            if not all(0 <= i < nv for i in ids):
                raise MeshFormatError(
                    f"line {ln}: vertex index out of range in {line!r}")
            return ids

        def boundary_edge(ln, line, parts):
            i, j = indices(ln, line, parts[:2])
            if parts[2] not in _STR_TO_TAG:
                raise MeshFormatError(
                    f"line {ln}: boundary tag must be D or N, "
                    f"got {parts[2]!r}")
            return ln, (min(i, j), max(i, j)), parts[2]

        vertices, first = read_array("vertices", "vertex", "x y",
                                     coordinates, float)
        # float() takes "nan" and "inf"; caught on the array, at no cost
        # per line
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        if bad.size:
            raise defect(first + bad[0], "non-finite coordinate")
        nv = len(vertices)
        triangles, first = read_array("triangles", "triangle", "i j k",
                                      indices, np.int64)
        # indices() checks the range of the rows it parses; loadtxt's
        # rows are checked here
        bad = np.flatnonzero(((triangles < 0) | (triangles >= nv)).any(axis=1))
        if bad.size:
            raise defect(first + bad[0], "vertex index out of range")
        tags = {}
        for ln, key, tag in parse_lines(count("boundary"), "boundary",
                                        "i j TAG", boundary_edge):
            if key in tags:
                raise MeshFormatError(f"line {ln}: edge {key} tagged twice")
            tags[key] = tag

        ln, line = next_line()
        if line is not None:
            raise MeshFormatError(f"line {ln}: trailing content {line!r}")
        try:
            return TriMesh(vertices, triangles, tags, validate=validate)
        except MeshError as exc:
            raise MeshFormatError(f"line {ln}: {exc}") from None


class AuditReport:
    """Outcome of TriMesh.audit: named checks with offender lists."""

    def __init__(self, checks):
        self.checks = checks

    @property
    def ok(self):
        return all(passed for passed, _ in self.checks.values())

    def __str__(self):
        lines = []
        for name, (passed, issues) in self.checks.items():
            lines.append(f"{name}: {'ok' if passed else 'FAIL'}")
            lines.extend(f"  {msg}" for msg in issues)
        return "\n".join(lines)


def _jacobians(c):
    """(nt, 2, 2) affine map Jacobians of triangles with (nt, 3, 2)
    corners c, columns v1-v0 and v2-v0."""
    return np.stack([c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]], axis=2)


def _signed_areas(J):
    """(nt,) signed areas of triangles with (nt, 2, 2) Jacobians J."""
    return 0.5 * (J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0])


def _window_pairs(start, stop):
    """Yield (q, pos) index arrays of every pair start[q] <= pos < stop[q].

    Pairs come in ascending q, in slices of at most _PAIR_BUDGET, so
    memory stays bounded however many positions one window holds.
    """
    counts = np.maximum(stop - start, 0)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    for k0 in range(0, offsets[-1], _PAIR_BUDGET):
        k = np.arange(k0, min(k0 + _PAIR_BUDGET, offsets[-1]))
        q = np.searchsorted(offsets, k, side="right") - 1
        yield q, start[q] + (k - offsets[q])


def _strip_windows(points, lo, hi):
    """Windows of the finite points in the boxes lo[q] <= . <= hi[q],
    up to x.

    Returns (order, box, start, stop): order holds the indices of the
    finite points, sorted by (x-strip, y); for each (box, strip) pair,
    in ascending box order, box names the box and start:stop the range
    of order holding the strip's points with y in the box. The strips
    are equal, at least as wide as the mean box and at most one per
    point (also where the mean is 0 or the x-range overflows), so a box
    meets at most 2 + (its width) / (mean width) of them. No bound is
    NaN.
    """
    ids = np.flatnonzero(np.isfinite(points).all(axis=1))
    n = len(ids)
    if not n:
        none = np.empty(0, dtype=np.int64)
        return none, none, none, none
    x, y = points[ids].T
    x0 = float(x.min())
    span = float(x.max()) - x0
    width = float(np.mean(hi[:, 0] - lo[:, 0]))
    ns = max(1, int(span / width)) if span < width * n else n
    bounds = x0 + span / ns * np.arange(1, ns)

    def strip(v):
        # monotone in v, so a box's points lie in its strips strip(lo)
        # to strip(hi)
        return np.searchsorted(bounds, v, side="right")

    # sort key strip * n + (rank of y): the y-range of a box is a range
    # of ranks, and so a range of the order within each strip
    by_y = np.argsort(y, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_y] = np.arange(n)
    key = strip(x) * n + rank
    order = np.argsort(key)
    key = key[order]
    r_lo = np.searchsorted(y[by_y], lo[:, 1], side="left")
    r_hi = np.searchsorted(y[by_y], hi[:, 1], side="right")
    s_lo = strip(lo[:, 0])
    per = strip(hi[:, 0]) - s_lo + 1
    box = np.repeat(np.arange(len(lo)), per)
    # the strip of each window: s_lo of its box, plus its rank there
    s = np.arange(len(box)) - np.repeat(np.cumsum(per) - per - s_lo, per)
    start = np.searchsorted(key, s * n + r_lo[box])
    stop = np.searchsorted(key, s * n + r_hi[box])
    return ids[order], box, start, stop


def _box_pairs(points, lo, hi):
    """Yield (q, p) index arrays of every finite point p in every closed
    box lo[q] <= . <= hi[q], in ascending q.

    The candidates are drawn from _window_pairs over _strip_windows, so
    each slice holds at most _PAIR_BUDGET of them. No bound is NaN.
    """
    order, box, start, stop = _strip_windows(points, lo, hi)
    x = points[:, 0]
    for w, pos in _window_pairs(start, stop):
        q, p = box[w], order[pos]
        inside = (x[p] >= lo[q, 0]) & (x[p] <= hi[q, 0])
        yield q[inside], p[inside]


def _first_pairs(found, a, b):
    """The first 20 rows of found plus (a, b) in lexicographic order."""
    merged = np.concatenate([found, np.column_stack([a, b])])
    return merged[np.lexsort((merged[:, 1], merged[:, 0]))][:20]


# ----------------------------------------------------------------------
# generators

def _grid_mesh(xs, keep, tag_of):
    """Mesh of the cells of the grid xs x xs that keep selects.

    Cell (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1) and
    d = (i, j+1), grid vertex (i, j) being (xs[i], xs[j]). Every kept
    cell, in i-major order, gives the triangles (c, a, b) and (a, c, d):
    the diagonal a-c is the longest edge of both, so it is stored first.
    Grid vertices of no kept cell are dropped. A grid edge with a kept
    cell on one side only is a boundary edge, tagged tag_of(x, y) at its
    midpoint; tag_of is called in the mesh's edge order.
    """
    m = len(xs)
    gid = np.arange(m * m).reshape(m, m)
    a, b, c, d = (g[keep] for g in (gid[:-1, :-1], gid[1:, :-1],
                                    gid[1:, 1:], gid[:-1, 1:]))
    tris = np.stack([c, a, b, a, c, d], axis=1).reshape(-1, 3)
    used = np.zeros(m * m, dtype=bool)
    used[tris] = True
    remap = np.cumsum(used) - 1
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])[used]

    cells = np.pad(keep, 1)
    # edge (i, j)-(i+1, j) lies between cells (i, j-1) and (i, j), edge
    # (i, j)-(i, j+1) between cells (i-1, j) and (i, j)
    on_x = cells[1:-1, 1:] != cells[1:-1, :-1]
    on_y = cells[1:, 1:-1] != cells[:-1, 1:-1]
    pairs = remap[np.concatenate([
        np.column_stack([gid[:-1][on_x], gid[1:][on_x]]),
        np.column_stack([gid[:, :-1][on_y], gid[:, 1:][on_y]])])]
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    mids = 0.5 * (vertices[pairs[:, 0]] + vertices[pairs[:, 1]])
    tags = {(i, j): tag_of(x, y) for (i, j), (x, y) in zip(pairs.tolist(), mids)}
    return TriMesh(vertices, remap[tris], tags)


def unit_square(n, boundary=None):
    """Structured mesh of [0,1]^2 with 2*n^2 triangles.

    Every cell is split along the same diagonal and the diagonal, being
    the longest edge, is stored first. boundary optionally maps side
    names (left/right/bottom/top) to "D" or "N"; default all Dirichlet.
    """
    if n < 1:
        raise MeshError(f"unit_square needs n >= 1, got {n}")
    if boundary is None:
        boundary = {}
    if not isinstance(boundary, dict):
        raise MeshError("boundary must be None or a side->tag dict")
    unknown = set(boundary) - {"left", "right", "bottom", "top"}
    if unknown:
        raise MeshError(f"unknown boundary side names: {sorted(unknown)}")
    bad = {v for v in boundary.values() if v not in ("D", "N")}
    if bad:
        raise MeshError(f"boundary tags must be D or N, got {sorted(bad)}")

    def tag_of(x, y):
        # side naming is in x/y terms: bottom y=0, left x=0
        side = ("bottom" if y == 0.0 else "top" if y == 1.0
                else "left" if x == 0.0 else "right")
        return boundary.get(side, "D")

    return _grid_mesh(np.linspace(0.0, 1.0, n + 1),
                      np.ones((n, n), dtype=bool), tag_of)


def l_shape(n, boundary=None):
    """Structured mesh of [-1,1]^2 minus the open quadrant (0,1]x(0,1].

    n cells per axis direction of the full square, n even so the
    reentrant corner at the origin is a mesh vertex. All boundary parts
    are Dirichlet unless boundary is a callable mapping an edge
    midpoint (x, y) to "D" or "N".
    """
    if n < 2 or n % 2:
        raise MeshError(f"l_shape needs even n >= 2, got {n}")
    if boundary is not None and not callable(boundary):
        raise MeshError("l_shape boundary must be None or a callable")

    def tag_of(x, y):
        tag = "D" if boundary is None else boundary(x, y)
        if tag not in ("D", "N"):
            raise MeshError(f"boundary callable returned {tag!r}")
        return tag

    xs = np.linspace(-1.0, 1.0, n + 1)
    # cells whose center has x > 0 and y > 0 are cut out
    positive = 0.5 * (xs[:-1] + xs[1:]) > 0.0
    return _grid_mesh(xs, ~np.logical_and.outer(positive, positive), tag_of)


def generate_structured(domain, n, boundary=None):
    """Build a structured mesh of a named domain ("unit_square", "l_shape")."""
    if domain == "unit_square":
        return unit_square(n, boundary)
    if domain == "l_shape":
        return l_shape(n, boundary)
    raise MeshError(f"unknown domain {domain!r}; "
                    "expected unit_square or l_shape")
