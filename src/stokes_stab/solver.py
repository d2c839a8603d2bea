"""Direct solution of the assembled saddle system and solution norms."""

import ctypes
import functools
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import splu

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
    block freed, up to 64 MB. Below it the pages freed by assembly and
    by the previous level stay resident, and the saddle factor, the
    peak of a level, comes on top of them. Called once per solve, it
    lowers the peak resident set of the adaptive L-shape P1P1 loop
    (22 levels) from 116 to 101 MB.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def _factorize(K, **options):
    """splu(K, **options) with fd 1 sent to a temporary file while it runs.

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
        return splu(K, **options)
    try:
        sys.stdout.flush()
        _flush_c_stdio()
        with tempfile.TemporaryFile() as sink:
            os.dup2(sink.fileno(), 1)
            try:
                return splu(K, **options)
            except RuntimeError as exc:
                _flush_c_stdio()
                sink.seek(0)
                exc.blas_output = sink.read().decode(errors="replace")
                raise
            finally:
                os.dup2(saved, 1)
    finally:
        os.close(saved)


# Fast path (ordered_solve): SuperLU factors the saddle matrix, or the
# mass matrix of the osc_K projection, in the nested-dissection order
# it is given (permc_spec="NATURAL") and keeps the diagonal pivot
# unless it is below 1e-8 times the largest entry of its column. Two
# settings that look equivalent are not:
#  - diag_pivot_thresh=0 leaves a ~1e-17 pivot on the constant-pressure
#    mode just before the mean-pressure border and a ~1e16 one on the
#    border; the pivot check rejects that, so every solve would fall
#    back. 1e-8 swaps two rows and keeps the fill; larger thresholds
#    swap more rows and grow it (full partial pivoting, 1.0, multiplies
#    it by 4.5 at P1P1 n = 32, and worse on larger meshes).
#  - SuperLU's MMD orderings (permc_spec="MMD_AT_PLUS_A" and the
#    others) have crashed the process intermittently on the alpha = 0
#    P1P1 matrix, whose pressure block is empty; NATURAL and COLAMD
#    have not.
# SuperLU's Relax and PanelSize stay at their defaults. With scipy
# 1.17.1, panel_size=32 makes the process segfault at exit (exit code
# 139, after a correct solve) and relax=32 has corrupted the heap;
# relax 1, 4 or 16 and panel_size 4 or 16 ran cleanly but gained
# nothing beyond the noise.
ORDERED_SPLU = {"permc_spec": "NATURAL", "diag_pivot_thresh": 1e-8,
                "options": {"SymmetricMode": True}}
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
    went: ordering ("nested_dissection" or "colamd"), fill_nnz
    (nnz of L + U), pivot_ratio (smallest over largest pivot),
    residual_initial (before refinement), refined and fallback.
    """

    u: np.ndarray
    p: np.ndarray
    residual: float
    multiplier: float = None
    diagnostics: dict = field(default_factory=dict)


def _blocks(system):
    """Rows of system.matrix of the free velocity dofs and of the
    pressure dofs, each in the order of system.free_dofs."""
    at = np.empty_like(system.order)
    at[system.order] = np.arange(len(at))
    nuf = system.n_u_free
    return at[:nuf], at[nuf:nuf + system.n_p]


def _diagnose(system, reason):
    """Try to localize a solve failure to a block of the saddle system."""
    vel, _ = _blocks(system)
    msg = [f"linear solve failed: {reason}"]
    try:
        A = system.matrix[vel][:, vel].tocsc()
        lu = _factorize(A)
        x = lu.solve(np.ones(len(vel)))
        if np.all(np.isfinite(x)):
            msg.append("velocity block factorizes cleanly; the failure "
                       "sits in the pressure/saddle coupling")
            if system.alpha == 0.0:
                msg.append("alpha = 0: equal-order pairs are singular "
                           "without stabilization")
            elif not system.bordered:
                msg.append("check the boundary tags: without a Neumann "
                           "part the pressure gauge must be pinned")
        else:
            msg.append("velocity block itself is singular")
    except RuntimeError:
        msg.append("velocity block itself fails to factorize")
    return "; ".join(msg)


def _factor_and_solve(K, b, **options):
    """splu(K, **options) and solve, with the checks and one refinement.

    Returns (x, relative residual, factorization stats); raises
    SolverError naming the check that failed.

    K is factored as it is handed over; the saddle matrix is the one
    forms.assemble_system scattered, so it is the only copy of K alive
    at the factor (12 MB at NEUMANN_STRIP P2P1 n = 64, 36,737
    unknowns). The pivot check costs memory: the first read of lu.U
    makes SuperLU build CSC copies of both L and U, which live as long
    as lu. There they take 64 MB next to 65 MB for the saddle factor
    itself, and 13.5 MB next to 12 MB for the P2 mass factor of osc_K
    (resident set from /proc/self/statm). scipy's SuperLU object offers
    only L, U, nnz, perm_c, perm_r, shape and solve, so the diagonal
    cannot be read without those copies. fill_nnz then reads lu.L at
    no further cost; lu.nnz counts differently (1687 against
    L.nnz + U.nnz = 1094 on a random 50 x 50 matrix).
    """
    try:
        lu = _factorize(K, **options)
    except RuntimeError as exc:
        raise SolverError(str(exc),
                          getattr(exc, "blas_output", "")) from None

    # a structurally nonsingular but numerically singular matrix can
    # slip through splu; a vanishing pivot means the solve would only
    # produce garbage
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() <= 1e-14 * max(pivots.max(), 1.0):
        raise SolverError("factorization produced a zero pivot")

    x = lu.solve(b)
    bnorm = max(float(np.linalg.norm(b)), 1e-30)
    if not np.all(np.isfinite(x)):
        raise SolverError("non-finite solution values")
    res = res_initial = float(np.linalg.norm(K @ x - b)) / bnorm
    if res > 1e-9:
        x = x + lu.solve(b - K @ x)
        res = float(np.linalg.norm(K @ x - b)) / bnorm
    if not np.all(np.isfinite(x)) or res > 1e-9:
        raise SolverError(f"relative residual {res:.3e} above 1e-9 after "
                          "iterative refinement")
    stats = {"fill_nnz": lu.L.nnz + lu.U.nnz,
             "pivot_ratio": float(pivots.min() / pivots.max()),
             "residual_initial": res_initial,
             "refined": res_initial > 1e-9}
    return x, res, stats


def ordered_solve(K, b, order):
    """Solve K x = b for a CSC matrix K given in its elimination order.

    Row i of K and b is unknown order[i]. K is factored as it is, with
    ORDERED_SPLU, first. When that fails its pivot or residual check,
    the same K is factored again with SuperLU's default COLAMD ordering
    and partial pivoting. Returns (x, relative residual, stats), x by
    unknown (x[order] is the solution of K), stats as from
    _factor_and_solve plus the ordering used and whether the fallback
    fired; raises the SolverError of the COLAMD attempt when that
    fails too.
    """
    try:
        xo, res, stats = _factor_and_solve(K, b, **ORDERED_SPLU)
        ordering, fallback = "nested_dissection", False
    except SolverError:
        xo, res, stats = _factor_and_solve(K, b)
        ordering, fallback = "colamd", True
    x = np.empty_like(xo)
    x[order] = xo
    return x, res, {"ordering": ordering, "fallback": fallback, **stats}


def solve(system):
    """Factorize and solve, with a residual check and one refinement step.

    ordered_solve of the system's matrix in its elimination order.
    Raises SolverError, with the failure localized to a block of the
    system, when both of its factorizations fail, or the relative
    residual stays above 1e-9 after one step of iterative refinement.
    """
    K = system.matrix
    _release_free_heap()
    try:
        x, res, stats = ordered_solve(K, system.rhs, system.order)
    except SolverError as exc:
        raise SolverError(_diagnose(system, str(exc)),
                          exc.blas_output) from None

    multiplier = None
    if system.bordered:
        multiplier = float(x[-1])
        x = x[:-1]

    full = np.zeros(system.n_u + system.n_p)
    if system.dirichlet_values is not None:
        full[:system.n_u] = system.dirichlet_values
    full[system.free_dofs] = x
    return DiscreteSolution(
        u=full[:system.n_u], p=full[system.n_u:], residual=res,
        multiplier=multiplier,
        diagnostics={"n_unknowns": K.shape[0], "alpha": system.alpha,
                     **stats},
    )


def functional_norms(space, solution, exact):
    """Errors of a discrete solution against closed-form fields.

    Returns a dict with err_L2_u, err_H1_u (full norm), err_D_u
    (symmetric-gradient seminorm) and err_L2_p.
    """
    rule = forms.quadrature(forms.error_degree(space.pair.velocity_degree))
    w, pts = rule.weights, rule.points
    scale = 2.0 * space.mesh.areas

    exact_values = functools.partial(forms.rule_values, space, rule.degree)
    eu = velocity_values(space, solution.u, pts) - exact_values(exact.u)
    eg = velocity_gradients(space, solution.u, pts) \
        - exact_values(exact.grad_u)
    ep = pressure_values(space, solution.p, pts) - exact_values(exact.p)

    def cell_int(sq):
        return scale * np.einsum("q,eq->e", w, sq)

    l2u = cell_int(np.einsum("eqc,eqc->eq", eu, eu)).sum()
    h1semi = cell_int(np.einsum("eqcb,eqcb->eq", eg, eg)).sum()
    D = 0.5 * (eg + eg.transpose(0, 1, 3, 2))
    dsemi = cell_int(np.einsum("eqcb,eqcb->eq", D, D)).sum()
    l2p = cell_int(ep ** 2).sum()
    return {
        "err_L2_u": float(np.sqrt(l2u)),
        "err_H1_u": float(np.sqrt(l2u + h1semi)),
        "err_D_u": float(np.sqrt(dsemi)),
        "err_L2_p": float(np.sqrt(l2p)),
    }


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
    """
    system = forms.assemble_system(space, problem)
    vel, pres = _blocks(system)
    K = system.matrix
    A = K[vel][:, vel].tocsc()
    Bt = K[vel][:, pres].toarray()
    C = -K[pres][:, pres].toarray()

    lu = splu(A)
    S = Bt.T @ lu.solve(Bt) + C
    S = 0.5 * (S + S.T)
    Mp = forms.pressure_mass(space).toarray()
    vals = scipy.linalg.eigh(S, Mp, eigvals_only=True)
    if system.bordered:
        # gauge mode: S annihilates constants in the enclosed case
        if not vals[0] < 1e-8 * max(vals[-1], 1e-30):
            raise SolverError(
                "expected a zero Schur mode for the constant pressure, "
                f"got {vals[0]:.3e}")
        return float(vals[1])
    return float(vals[0])
