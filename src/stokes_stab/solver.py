"""Direct solution of the saddle system, CG solution of the mass
matrices, and solution norms."""

import contextlib
import ctypes
import functools
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse.linalg import cg, splu

from . import forms
from .space import pressure_values, velocity_gradients, velocity_values


class SolverError(Exception):
    """Factorization or residual failure; message names the failing part.

    blas_output holds what the failed factorization wrote to stdout
    (BLAS input-checker complaints); it is kept off the process's
    stdout and out of the message.
    """

    def __init__(self, message, blas_output=""):
        super().__init__(message)
        self.blas_output = blas_output


try:
    _fflush = ctypes.CDLL(None).fflush
    _fflush.argtypes = [ctypes.c_void_p]
    _fflush.restype = ctypes.c_int
except (OSError, TypeError, AttributeError):
    _fflush = None


def _flush_c_stdio():
    """fflush(NULL): write out every C stdio buffer to its descriptor."""
    if _fflush is not None:
        _fflush(None)


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (OSError, TypeError, AttributeError):
    _malloc_trim = None   # not glibc


def _release_free_heap():
    """malloc_trim(0): give the C heap's free pages back to the system.

    glibc returns freed heap memory only when the free block at the
    top of the heap outgrows a threshold that rises with the largest
    block freed, up to 64 MB. Below it, the pages a phase freed stay
    resident, and a later phase's arrays can come on top of them. The
    one call is on entry to functional_norms, so the exact fields'
    arrays do not come on top of the estimator's freed pages. Without
    it, fresh processes of the 3-level SMOOTH_SQUARE P1P1 study from
    n0 = 16 peak at 90.6 MB instead of 87.6 (ru_maxrss medians, 10
    pairs, 2 vCPUs), and the NEUMANN_STRIP P2P1 one at 112.6 MB
    instead of 111.3. A trim after each solve or before the output
    files lowered no peak and cost a minor fault per page it returned.
    Each call costs about a millisecond.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def _factorize(K):
    """splu(K) with fd 1 sent to a temporary file while it runs.

    A failing factorization can make the BLAS input checker print
    " ** On entry to DGEMV ..." lines, straight to fd 1 or into the
    C stdio buffer, depending on the build. Both stdout layers are
    flushed before the redirect so earlier output keeps its place; on
    failure the C buffer is flushed into the file as well, and the
    RuntimeError leaves with the captured text as `blas_output`. When
    fd 1 cannot be duplicated (it is closed, say), splu runs plainly.
    """
    try:
        saved = os.dup(1)
    except OSError:
        return splu(K)
    try:
        sys.stdout.flush()
        _flush_c_stdio()
        with tempfile.TemporaryFile() as sink:
            os.dup2(sink.fileno(), 1)
            try:
                return splu(K)
            except RuntimeError as exc:
                _flush_c_stdio()
                sink.seek(0)
                exc.blas_output = sink.read().decode(errors="replace")
                raise
            finally:
                os.dup2(saved, 1)
    finally:
        os.close(saved)


LEAF_SIZE = 32


def nested_dissection(cells, coords, weights):
    """Geometric nested-dissection groups of a weighted graph.

    The graph has n vertices at coords (n, 2); every row of the
    (m, k) index array cells is a clique of it (the nodes of an
    element, or the two ends of an edge). weights (n,) counts the
    unknowns of each vertex, so part sizes and medians are in
    unknowns. A part heavier than LEAF_SIZE is cut at the weighted
    median coordinate along its longer extent: vertices below it form
    the lower half, the rest (ties included, so a structured mesh gets
    straight cuts) the upper half. The vertices of each half adjacent
    to the other form its boundary; the lighter boundary (the upper
    one on a tie) becomes the part's separator, ordered after both
    halves, which are cut in turn. Each level cuts all its parts at
    once.

    Returns slots (n,): the position of the first unknown of each
    vertex's group, so np.argsort(slots, kind="stable") eliminates the
    groups in order and keeps the vertices of a group in index order.
    Raises ValueError when a part too heavy to stop at has all its
    vertices at one point.
    """
    n = len(coords)
    a, b = np.triu_indices(cells.shape[1], 1)
    ei, ej = cells[:, a].ravel(), cells[:, b].ravel()
    key = np.sort(np.minimum(ei, ej).astype(np.int64) * n
                  + np.maximum(ei, ej))
    key = key[np.diff(key, prepend=-1) != 0]
    ei, ej = np.divmod(key, n)           # edges inside one part
    weights = np.asarray(weights, dtype=np.intp)
    slots = np.empty(n, dtype=np.intp)   # first position of each group
    label = np.zeros(n, dtype=np.intp)   # part of a vertex, -1 placed
    idx = np.arange(n)                   # unplaced vertices, by part
    start = np.zeros(1, dtype=np.intp)   # first position of each part

    def part_sums(lab, mask, w):
        return np.bincount(lab[mask], w[mask],
                           minlength=len(start)).astype(np.intp)

    while len(idx):
        lab, w = label[idx], weights[idx]
        total = part_sums(lab, slice(None), w)
        small = total <= LEAF_SIZE
        done = small[lab]
        slots[idx[done]] = start[lab[done]]
        label[idx[done]] = -1
        keep = ~small
        idx, lab = idx[~done], (np.cumsum(keep) - 1)[lab[~done]]
        start, total = start[keep], total[keep]
        if not len(idx):
            break
        size = np.bincount(lab, minlength=len(start))
        first = np.cumsum(size) - size
        xy = coords[idx]
        lo = np.minimum.reduceat(xy, first)
        axis = np.argmax(np.maximum.reduceat(xy, first) - lo, axis=1)
        val = xy[np.arange(len(idx)), axis[lab]]
        order = np.lexsort((val, lab))
        idx, lab, val = idx[order], lab[order], val[order]
        w = weights[idx]
        # the weighted median: the vertex holding unknown total // 2
        # of its part, counted in sorted order
        mid = np.cumsum(total) - total + total // 2
        med = val[np.searchsorted(np.cumsum(w), mid, side="right")]
        # a median on the part's lowest value would leave the lower
        # half empty; that value then goes below the cut
        at_low = med == lo[np.arange(len(lo)), axis]
        lower = (val < med[lab]) | (at_low[lab] & (val == med[lab]))
        if np.any(np.bincount(lab[lower], minlength=len(start)) == size):
            # nothing above the cut: the part has no extent to cut along
            raise ValueError(f"more than {LEAF_SIZE} unknowns share one "
                             "location")
        label[idx] = 2 * lab + ~lower
        li, lj = label[ei], label[ej]
        cross = li != lj
        up = (li[cross] & 1).astype(bool)   # ei is the upper end
        bound = np.zeros((2, n), dtype=bool)  # lower, upper boundary
        bound[0, np.where(up, ej[cross], ei[cross])] = True
        bound[1, np.where(up, ei[cross], ej[cross])] = True
        bl, bu = bound[:, idx]
        from_low = part_sums(lab, bl, w) < part_sums(lab, bu, w)
        s = np.where(from_low[lab], bl, bu)
        sep = np.zeros(n, dtype=bool)
        sep[idx[s]] = True
        n_sep = part_sums(lab, s, w)
        n_low = part_sums(lab, lower & ~s, w)
        slots[idx[s]] = (start + total - n_sep)[lab[s]]
        label[idx[s]] = -1
        idx = idx[~s]
        start = np.column_stack([start, start + n_low]).ravel()
        inside = ~(cross | (li < 0) | sep[ei] | sep[ej])
        ei, ej = ei[inside], ej[inside]
    return slots


@dataclass
class DiscreteSolution:
    """Solution fields in the full dof ordering.

    u has interleaved velocity components per node (Dirichlet dofs
    zero), p one value per mesh vertex. multiplier is the Lagrange
    multiplier of the mean-pressure constraint when one was used.
    diagnostics records n_unknowns, alpha and how the factorization
    went: ordering ("multifrontal", or "colamd" when the fallback
    fired), fill_nnz (the W entries of the front factor, one block per
    front class, whose LUs keep k^2 entries per class on top; or nnz of
    SuperLU's L + U), pivot_ratio (smallest over largest pivot),
    residual_initial (before refinement), refined (whether a
    refinement step, two more sweeps over the factor, ran) and
    fallback. A multifrontal solve adds
    fronts, the number of fronts (nested-dissection groups), and
    fronts_factored, the number of front classes, each factored once.
    """

    u: np.ndarray
    p: np.ndarray
    residual: float
    multiplier: float = None
    diagnostics: dict = field(default_factory=dict)


def _blocks(system):
    """Rows of system.matrix of the free velocity dofs and of the
    pressure dofs, each in increasing dof order."""
    vel = system.rows[:system.n_u]
    return vel[vel >= 0], system.rows[system.n_u:-1]


def _zero_pivot(pivots):
    """The one pivot rule: a |pivot| <= 1e-14 max(largest, 1) is zero."""
    return np.any(pivots <= 1e-14 * max(pivots.max(initial=0.0), 1.0))


def _velocity_factor(system):
    """SuperLU factor of the free velocity block; SolverError if singular."""
    vel, _ = _blocks(system)
    try:
        lu = _factorize(system.matrix[vel][:, vel].tocsc())
    except RuntimeError as exc:
        raise SolverError("velocity block itself fails to factorize",
                          getattr(exc, "blas_output", "")) from None
    if _zero_pivot(np.abs(lu.U.diagonal())):
        raise SolverError("velocity block itself is singular")
    return lu


def _diagnose(system, reason):
    """Try to localize a solve failure to a block of the saddle system."""
    msg = [f"linear solve failed: {reason}"]
    try:
        _velocity_factor(system)
    except SolverError as exc:
        msg.append(str(exc))
    else:
        msg.append("velocity block factorizes cleanly; the failure "
                   "sits in the pressure/saddle coupling")
        if system.alpha == 0.0:
            msg.append("alpha = 0: equal-order pairs are singular "
                       "without stabilization")
    return "; ".join(msg)


def _checked_solve(product, b, solve, pivots, stored):
    """Solve K x = b with a factor of K, with the checks and one
    refinement.

    product(x) returns K x, solve(r) returns K^-1 r by the factor's
    stored sweeps, pivots holds the absolute values of the factor's
    pivots and stored its entry count. The pivots are checked before
    the first solve. A relative residual above 1e-12 gets one step of
    iterative refinement, one more solve on b - K x; a backward-stable
    solve leaves about 1e-15, but the fronts pivot only inside their
    own block, and where a front pivot is tiny (P1P1 at alpha = 1e-6:
    4e-13 of the largest) the first solve can leave 2e-10 and a
    solution 4e-9 off, which one step brings to 1e-15 and 2e-13.
    Returns (x, relative residual, factorization stats); raises
    SolverError naming the check that failed, or a residual still above
    1e-9 after the step.
    """
    if _zero_pivot(pivots):
        raise SolverError("factorization produced a zero pivot")
    x = solve(b)
    bnorm = max(float(np.linalg.norm(b)), 1e-30)
    if not np.all(np.isfinite(x)):
        raise SolverError("non-finite solution values")
    res = res_initial = float(np.linalg.norm(product(x) - b)) / bnorm
    if res > 1e-12:
        x = x + solve(b - product(x))
        res = float(np.linalg.norm(product(x) - b)) / bnorm
    if not np.all(np.isfinite(x)) or res > 1e-9:
        raise SolverError(f"relative residual {res:.3e} above 1e-9 after "
                          "iterative refinement")
    stats = {"fill_nnz": stored,
             "pivot_ratio": float(pivots.min() / pivots.max()),
             "residual_initial": res_initial,
             "refined": res_initial > 1e-12}
    return x, res, stats


def _factor_and_solve(K, b):
    """splu(K), with COLAMD and partial pivoting, and _checked_solve
    with it.

    The pivot check reads lu.U, and the first read makes SuperLU build
    CSC copies of L and U that live as long as lu: scipy's SuperLU
    object offers only L, U, nnz, perm_c, perm_r, shape and solve. So
    fill_nnz reads lu.L at no further cost; lu.nnz counts differently
    (1687 against L.nnz + U.nnz = 1094 on a random 50 x 50 matrix).
    SuperLU's own RuntimeError names a line of its C source, so it
    leaves as a fixed message.
    """
    try:
        lu = _factorize(K)
    except RuntimeError as exc:
        raise SolverError("matrix is singular to working precision",
                          getattr(exc, "blas_output", "")) from None
    return _checked_solve(K.dot, b, lu.solve, np.abs(lu.U.diagonal()),
                          lu.L.nnz + lu.U.nnz)


# CG steps per column in mass_solve: the Jacobi-scaled P1 and P2 mass
# matrices take at most 34 on every mesh tried, graded ones included
MASS_CG_STEPS = 100


def mass_solve(M, b):
    """Solve M x = b for a mass matrix M and b (n, k), column by column
    by CG with the Jacobi preconditioner diag(M)^-1.

    The Jacobi-scaled Galerkin mass matrix has a spectrum bounded
    independently of h and of grading (Wathen 1987), so CG converges
    in a fixed number of steps. A column short of a relative residual
    of 1e-15 after MASS_CG_STEPS steps, or holding a non-finite value,
    sends the system to _factor_and_solve; any other exception (a
    MemoryError, say) leaves at once. The CG steps run with every
    OpenBLAS on one thread: their vector products are too short to
    share. With the default threads on 2 CPUs, the solves of a 3-level
    NEUMANN_STRIP P2P1 study from n0 = 16 took 35-49 ms in 7 of 8 fresh
    processes and 435 ms in the eighth; on one thread, 29-38 ms in all
    8.
    """
    jacobi = sp.diags(1.0 / M.diagonal())
    x = np.empty_like(b)
    with _one_blas_thread():
        for j in range(b.shape[1]):
            x[:, j], info = cg(M, b[:, j], rtol=1e-15, atol=0.0,
                               maxiter=MASS_CG_STEPS, M=jacobi)
            if info != 0 or not np.all(np.isfinite(x[:, j])):
                return _factor_and_solve(M.tocsc(), b)[0]
    return x


# ----------------------------------------------------------------------
# multifrontal factorization of the saddle matrix

def _openblas_controls(path):
    """(get, set) thread-count functions of the OpenBLAS at path, or
    None when it is not one, under the names a plain and a scipy
    build export, with and without the 64-bit integer suffix."""
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    for prefix in ("openblas", "scipy_openblas"):
        for suffix in ("", "64_"):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                get.argtypes = []
                set_.restype = None
                set_.argtypes = [ctypes.c_int]
                return get, set_
    return None


@functools.cache
def _loaded_openblas():
    """Thread controls of every OpenBLAS mapped into this process.

    numpy and scipy each bundle their own; they are found as
    threadpoolctl finds them, by the library paths in /proc/self/maps,
    once: both are loaded when this module is, and reading the file
    takes 0.6 ms. Empty where that file cannot be read.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps
                     if "openblas" in line}
    except OSError:
        return []
    controls = [_openblas_controls(path) for path in sorted(paths)]
    return [c for c in controls if c is not None]


@contextlib.contextmanager
def _one_blas_thread():
    """Every loaded OpenBLAS on one thread inside the block, each
    restored to its own count on leaving.

    The front factorization makes thousands of small BLAS and LAPACK
    calls through numpy's and scipy's OpenBLAS; on a 2-CPU host their
    two worker pools fight over the cores, and the numeric pass at
    NEUMANN_STRIP P2P1 n = 64 took 2.9 s instead of 0.27 s.
    """
    saved = [(set_, get()) for get, set_ in _loaded_openblas()]
    for set_, _ in saved:
        set_(1)
    try:
        yield
    finally:
        for set_, count in saved:
            set_(count)


class _Fronts(NamedTuple):
    """The symbolic structure of the front factorization of a system.

    fronts holds the rows of each group's front, kids its children
    (ascending), and rel, for each child, the positions of its rows
    below in its parent's front. classes holds each group's front
    class, numbered in order of first appearance, and last_reader, for
    each class, the last group whose assembly reads the class's update
    matrix (-1 when none does). elements holds, for each class, what
    the assembly of its first group reads of the element matrices: the
    shape classes of the group's elements and the front positions of
    their rows, len(front) at a Dirichlet dof.
    """

    fronts: list
    kids: list
    rel: list
    classes: list
    last_reader: list
    elements: list


def _front_structure(system):
    """Symbolic pass of the front factorization of an AssembledSystem.

    The groups are the row ranges starting at system.groups (ascending,
    the first at 0). Each element goes to the group that eliminates its
    first row, the elements of a group in index order. The front of
    group g holds its own rows, then the rows below them that its
    elements or its children's fronts reach, ascending; its parent is
    the group of its first row below. A row whose entries of K sum to
    exactly zero stays in the front: the rows come from the element
    dofs, not from K.

    Each group also gets a front class, numbered in order of first
    appearance: the groups of one class have equal keys, so they
    assemble bit-identical fronts. The key is what the assembly in
    _front_factor reads: k own rows, the front size nf, the number of
    elements and its children's classes; then, as bytes, the elements'
    shape classes, the front positions of their rows and each child's
    positions in the front. The lengths of the byte parts follow from
    the rest, so equal keys mean equal inputs. The keys live only as
    long as this pass. Returns a _Fronts.
    """
    n = len(system.rhs)
    groups = system.groups
    ends = np.append(groups[1:], n)
    gid = np.repeat(np.arange(len(groups)), ends - groups)
    rows = system.element_rows
    rows = np.where(rows < 0, n, rows)   # a Dirichlet dof sorts last
    owner = gid[rows.min(axis=1)]
    order = np.argsort(owner, kind="stable")
    rows, shapes = rows[order], system.classes[order]
    first = np.searchsorted(owner[order], np.arange(len(groups) + 1))
    fronts, kids, rel = [], [[] for _ in groups], [None] * len(groups)
    classes, last_reader, elements, seen = [], [], [], {}
    groups, ends, first = groups.tolist(), ends.tolist(), first.tolist()
    for g, (start, end) in enumerate(zip(groups, ends)):
        a, z = first[g], first[g + 1]
        er = rows[a:z]
        parts = [np.arange(start, end, dtype=rows.dtype), er.ravel()]
        parts += [fronts[c][ends[c] - groups[c]:] for c in kids[g]]
        f = np.concatenate(parts)
        f.sort()
        keep = np.empty(len(f), dtype=bool)
        keep[0] = True
        np.not_equal(f[1:], f[:-1], out=keep[1:])
        f = f[keep]
        if f[-1] == n:
            f = f[:-1]
        for c, below in zip(kids[g], parts[2:]):
            rel[c] = f.searchsorted(below)
        fronts.append(f)
        at = f.searchsorted(er)
        key = (end - start, len(f), z - a, *(classes[c] for c in kids[g]),
               b"".join((shapes[a:z], at, *(rel[c] for c in kids[g]))))
        cls = seen.setdefault(key, len(elements))
        if cls == len(elements):   # the class's first group
            elements.append((shapes[a:z], at))
            last_reader.append(-1)
            for c in kids[g]:
                last_reader[classes[c]] = g
        classes.append(cls)
        if len(f) > end - start:
            kids[gid[f[end - start]]].append(g)
    return _Fronts(fronts, kids, rel, classes, last_reader, elements)


def _front_factor(system):
    """The front factorization of an AssembledSystem's matrix K from its
    element matrices, each front class factored once, as (solve, pivots,
    stored, classes).

    _front_structure(system) gives the fronts, their classes and the
    elements each class's first group assembles. That group sums its
    elements' matrices (system.table by shape class, at their rows'
    front positions, in element order; the entries of Dirichlet dofs go
    to an extra last row and column of the front, which nothing reads)
    plus its children's update matrices into its front, factors the own
    block F11 by getrf (partial pivoting inside the block), forms
    W = F11^-1 F21^T (k x m for k own and m rows below) and the update
    F22 - F21 W, which the assembly of each parent's class reads. The
    other groups of the class would assemble the same front bit for
    bit, so they take its factor as it is. A front is freed at once,
    an update after the last assembly that reads it; each class keeps
    its LU, pivots and W. With F11 symmetric (F12 = F21^T is not read),
    K = [[I, 0], [W^T, I]] [[F11, 0], [0, S]] [[I, W], [0, I]] for each
    front in turn, so solve(b) returns K^-1 b by a forward sweep, which
    subtracts W^T x1 from each group's rows below and solves for x1
    with F11's LU, then a backward sweep, which subtracts W x2 from
    each group's unknowns in reverse order. pivots holds |U_ii| of
    every class's front, stored the entries of the classes' W blocks
    (their LUs hold k^2 each on top), and classes their number.

    Nothing pivots across fronts: a front pivot that is tiny against
    its column shows in pivots, and _checked_solve refines or rejects.
    Raises SolverError when a getrf meets an exactly zero pivot.
    """
    groups = system.groups
    starts = groups.tolist()
    ends = np.append(groups[1:], len(system.rhs)).tolist()
    fronts, kids, rel, classes, last_reader, elements = \
        _front_structure(system)
    factors, updates = [], {}   # by class
    for g, (start, end, f, cls) in enumerate(zip(starts, ends, fronts,
                                                  classes)):
        if cls < len(factors):   # not the class's first group
            continue
        k, nf = end - start, len(f)
        shapes, at = elements[cls]
        # entry (i, j) of an element's matrix, entry (j, i) of its
        # class's table, goes to front entry (at[i], at[j]); row and
        # column nf take the Dirichlet dofs'
        idx = at[:, None, :] * (nf + 1) + at[:, :, None]
        # (a group may own no element: bincount then gives integers)
        F = np.bincount(idx.ravel(), system.table[shapes].ravel(),
                        minlength=(nf + 1) ** 2).astype(float, copy=False)
        for c in kids[g]:
            r = rel[c]
            # no index repeats, but numpy 2's add.at beats F[i] += u
            # (4.9 against 10.0 us for a 49 x 49 update)
            np.add.at(F, (r[:, None] * (nf + 1) + r).ravel(),
                      updates[classes[c]].ravel())
        for c in kids[g]:   # two children may share a class
            if last_reader[classes[c]] == g:
                updates.pop(classes[c], None)
        F = F.reshape(nf + 1, nf + 1)
        lu, piv, info = dgetrf(F[:k, :k])
        if info != 0:
            raise SolverError("factorization produced a zero pivot")
        W = dgetrs(lu, piv, F[k:nf, :k].T)[0]
        U = F[k:nf, :k] @ W
        updates[cls] = np.subtract(F[k:nf, k:nf], U, out=U)
        factors.append((lu, piv, W))
        del F
    del updates
    pivots = np.abs(np.concatenate([lu.diagonal() for lu, _, _ in factors]))
    stored = sum(W.size for _, _, W in factors)
    steps = [(start, end, f[end - start:], *factors[cls])
             for start, end, f, cls in zip(starts, ends, fronts, classes)]

    def solve(b):
        x = np.array(b, dtype=float)
        for start, end, rows, lu, piv, W in steps:
            x[rows] -= W.T @ x[start:end]
            x[start:end] = dgetrs(lu, piv, x[start:end])[0]
        for start, end, rows, _, _, W in reversed(steps):
            x[start:end] -= W @ x[rows]
        return x

    return solve, pivots, stored, len(factors)


def _front_solve(system):
    """_checked_solve of the system by _front_factor, its residuals
    taken from the class tables (AssembledSystem.product), every
    OpenBLAS on one thread through the factorization and the sweeps.
    Its stats add fronts, the number of groups, and fronts_factored,
    the number of front classes, each factored once."""
    with _one_blas_thread():
        solve, pivots, stored, classes = _front_factor(system)
        x, res, stats = _checked_solve(system.product, system.rhs, solve,
                                       pivots, stored)
    stats.update(fronts=len(system.groups), fronts_factored=classes)
    return x, res, stats


def solve(system):
    """Factorize and solve, with a residual check and one refinement step.

    The system's matrix is factored by fronts on its nested-dissection
    groups, each front assembled from the element matrices and each
    distinct front factored once (_front_factor); the residuals are
    products with the class tables, so the whole matrix is not built.
    The factor keeps each front class's W and the LU of its own block,
    so the solve is a forward and a backward sweep over them, and a
    refinement step is two more sweeps on the residual. SuperLU with
    COLAMD takes over when the fronts fail their pivot or residual
    check, on system.matrix, built then; any other exception (a
    MemoryError, say) leaves at once.
    diagnostics["fill_nnz"] counts the W entries held, the class LUs'
    k^2 entries per class on top, or SuperLU's L + U. Raises
    SolverError before any factorization when the right-hand side is
    not finite, and when both factorizations fail their checks (a zero
    pivot, a non-finite solution, a relative residual above 1e-9 after
    the refinement step), naming each one's reason and localizing the
    failure to a block of the system.
    """
    b = system.rhs
    if not np.all(np.isfinite(b)):
        raise SolverError("non-finite right-hand side: the problem data "
                          "(f, g, t or the boundary values) is not finite")
    ordering = "multifrontal"
    try:
        xo, res, stats = _front_solve(system)
    except SolverError as fronts:
        ordering = "colamd"
        try:
            xo, res, stats = _factor_and_solve(system.matrix, b)
        except SolverError as exc:
            raise SolverError(
                _diagnose(system, f"fronts: {fronts}; COLAMD: {exc}"),
                exc.blas_output) from None
    rows = system.rows[:-1]
    free = rows >= 0
    full = np.zeros(len(rows))
    if system.dirichlet_values is not None:
        full[:system.n_u] = system.dirichlet_values
    full[free] = xo[rows[free]]
    sigma = system.pressure_scale
    full[system.n_u:] *= sigma
    return DiscreteSolution(
        u=full[:system.n_u], p=full[system.n_u:], residual=res,
        multiplier=sigma * float(xo[-1]) if system.bordered else None,
        diagnostics={"n_unknowns": len(b), "alpha": system.alpha,
                     "ordering": ordering,
                     "fallback": ordering == "colamd", **stats},
    )


def functional_norms(space, solution, exact, elementwise=False):
    """Errors of a discrete solution against closed-form fields.

    Returns a dict with err_L2_u, err_H1_u (full norm), err_D_u
    (symmetric-gradient seminorm) and err_L2_p. With elementwise, it
    also returns the (ne, 2) squared strain and pressure errors of each
    element, ||D(u - u_h)||_K^2 and ||p - p_h||_K^2, as a second value.

    Each exact field is evaluated here once, at the error rule's points
    that forms.rule_values keeps, and its values are dropped once read.
    The values are only read, never written, since
    a callable may keep the array it returns. The velocity and pressure
    errors are built in the arrays of the discrete values, which this
    function owns, and the gradient error one component at a time, so
    no array of the gradient's size is built besides the exact and the
    discrete gradients.
    """
    _release_free_heap()
    rule = forms.quadrature(forms.error_degree(space.pair.velocity_degree))
    w, pts = rule.weights, rule.points
    xy = forms.rule_values(space, rule.degree)
    scale = 2.0 * space.mesh.areas

    def exact_values(fn):
        return np.asarray(fn(xy[..., 0], xy[..., 1]), dtype=float)

    def integrals(a, b, spec="q,eq,eq->e"):
        # per element, the integral of the pointwise product of a and b
        return scale * np.einsum(spec, w, a, b)

    eu = velocity_values(space, solution.u, pts)
    eu -= exact_values(exact.u)
    l2u = integrals(eu, eu, "q,eqc,eqc->e").sum()
    del eu

    gx = exact_values(exact.grad_u)
    gh = velocity_gradients(space, solution.u, pts)

    def error(c, b):
        return np.subtract(gx[..., c, b], gh[..., c, b])

    def squared(c, b):
        e = error(c, b)
        return integrals(e, e)

    # |e|^2 is the sum of all e_cb^2,
    # |sym e|^2 = e_00^2 + e_11^2 + (e_01 + e_10)^2 / 2
    diagonal = squared(0, 0) + squared(1, 1)
    e01, e10 = error(0, 1), error(1, 0)
    del gx, gh
    h1semi = (diagonal + integrals(e01, e01) + integrals(e10, e10)).sum()
    e01 += e10
    strain = diagonal + 0.5 * integrals(e01, e01)
    del e01, e10

    ep = pressure_values(space, solution.p, pts)
    ep -= exact_values(exact.p)
    pressure = integrals(ep, ep)
    norms = {
        "err_L2_u": float(np.sqrt(l2u)),
        "err_H1_u": float(np.sqrt(l2u + h1semi)),
        "err_D_u": float(np.sqrt(strain.sum())),
        "err_L2_p": float(np.sqrt(pressure.sum())),
    }
    if elementwise:
        return norms, np.column_stack([strain, pressure])
    return norms


def combined_error(norms):
    """Scalar error driving rates and effectivity: ||e_u||_1 + ||e_p||_0."""
    return float(norms["err_H1_u"] + norms["err_L2_p"])


def schur_pressure_probe(space, problem):
    """Smallest generalized eigenvalue of the pressure Schur complement.

    Assembles the stabilized system, forms
    S = B A^{-1} B^T + alpha * S_pp densely on the pressure space, and
    returns the smallest eigenvalue of S q = lambda M_p q (the constant
    mode is skipped when the whole boundary is Dirichlet, since it is
    fixed by the gauge, not by the discretization). A mesh-independent
    lower bound on this value is the discrete counterpart of saddle
    stability. Dense linear algebra: intended for coarse probe meshes.
    Raises SolverError when the velocity block is singular.
    """
    system = forms.assemble_system(space, problem)
    vel, pres = _blocks(system)
    K = system.matrix
    Bt = K[vel][:, pres].toarray()
    S = Bt.T @ _velocity_factor(system).solve(Bt) - K[pres][:, pres].toarray()
    S = 0.5 * (S + S.T)
    Mp = forms.pressure_mass(space).toarray()
    # S is that of the scaled pressure unknowns, sigma^2 times p's
    vals = scipy.linalg.eigh(S, Mp, eigvals_only=True) \
        / system.pressure_scale ** 2
    if system.bordered:
        # gauge mode: S annihilates constants in the enclosed case
        if not vals[0] < 1e-8 * max(vals[-1], 1e-30):
            raise SolverError(
                "expected a zero Schur mode for the constant pressure, "
                f"got {vals[0]:.3e}")
        return float(vals[1])
    return float(vals[0])
