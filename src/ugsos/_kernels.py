"""Hot numeric kernels in numpy, and two handles on the OpenBLAS that numpy
loaded: its thread count, and its LAPACKE ?syevr/?heevr, which the SDP
solver's PSD projection uses to compute one side of a block's spectrum.

The one BLAS-thread rule is `blas_threads_for(dim)`: one OpenBLAS thread
when `dim`, the largest matrix the body factors or multiplies, is below
`ONE_THREAD_MAX_DIM`, else the current count.  The SDP solve, `validate`'s
charge blocks, the Chebyshev fit and the brute-force scan run under it.

The brute-force scan splits the vertices into two halves and scores all
assignments of one block of high-half labels against all low-half labels
with one GEMM: about k^(n-1) * j*k flops with j = floor((n-1)/2), and
memory for the low half's tables (about j*k^(j+1) floats) plus one block of
2^16 scores, not for the k^(n-1) states.

``perfbench/run.py`` times the brute-force oracle as
``instances.brute_force_opt`` in its ``certify`` workload.

`PartialEig` computes the eigenpairs of one real symmetric or complex
Hermitian matrix whose eigenvalues lie in a value range, by LAPACK's
dsyevr / zheevr with RANGE='V' (Dhillon & Parlett, Linear Algebra Appl.
387, 2004): the cost falls with the number of pairs wanted, so a block of
rank 1 costs a fraction of a full `np.linalg.eigh`.  The routine is bound
through ctypes on first use, not at import.  Its buffers are allocated once
per `PartialEig`, sized by one workspace query, and their pointers kept,
because at the solver's block sizes (dim 8 to 300) the per-call overhead of
fetching them is a visible part of the call.  The solver uses it only on
blocks of dimension 8 and more (`admm.PARTIAL_EIG_DIVISOR`).
"""
import contextlib
import ctypes
import functools
import math

import numpy as np


# ---------------------------------------------------------------------------
# Brute-force assignment scan (ug-core oracle).
#
# Assignments fix x_0 = 0 (global-shift symmetry of affine instances) and
# enumerate the remaining n-1 labels as a base-k counter, vertex 1 the lowest
# digit.  Returns the code of the first best assignment and its satisfied
# weight.
#
# The scan is block-factored.  With j = (n-1)//2 low vertices L = 1..j and
# the high vertices H = j+1..n-1, code = hi*k^j + lo, and the satisfied
# weight of (hi, lo) is V_H[hi] + V_L[lo] + (P_H[hi] C) . P_L[lo]: V_L / V_H
# weigh the edges inside each side (an edge at vertex 0 belongs to its other
# endpoint's side), P_L / P_H are the one-hot label tables of the sides, and
# C[(h,b),(l,a)] sums the weights of the crossing edges that hold when x_h =
# b and x_l = a.  A block of hi rows is one GEMM against P_L^T, so the scan
# costs about k^(n-1) * j*k flops.  Only the low side is tabulated: V_L and
# P_L^T (about j*k^(j+1) floats) and C (|H|*j*k^2); the high side is decoded
# block by block.  Memory is those tables plus one block, below the state
# count except at n = 3, where k^(j+1) = k^2 is the state count.  With one
# low vertex (n = 3 or 4) P_L^T is the k x k identity and is not built: at
# n = 3, k = 1000 it would add 8 MB to a 9 MB scan and a k x k GEMM per
# block.
# ---------------------------------------------------------------------------

_BLOCK_FLOATS = 1 << 16


def _side_labels(vertices, start, count, n, k):
    """(n, count) labels of `vertices` under the codes start..start+count-1
    of that side, the first vertex the lowest base-k digit; the other rows
    are 0."""
    xs = np.zeros((n, count), dtype=np.int64)
    c = np.arange(start, start + count)
    for v in vertices:
        xs[v] = c % k
        c //= k
    return xs


def brute_force_scan(eu, ev, ew, eshift, n, k):
    """First best code of the x_0 = 0 assignments and its satisfied weight,
    for edges (eu, ev) in either orientation and shifts in [0, k), scanned
    in blocks of about 2^16 (hi, lo) pairs (see above), under the thread
    rule for its GEMM's inner dimension j*k."""
    eu, ev = np.asarray(eu), np.asarray(ev)
    ew, eshift = np.asarray(ew, dtype=float), np.asarray(eshift)
    j = (n - 1) // 2
    low, high = list(range(1, j + 1)), list(range(j + 1, n))
    low_u, low_v = eu <= j, ev <= j  # vertex 0 or L
    in_low = low_u & low_v
    cross = (low_u != low_v) & (eu != 0) & (ev != 0)
    in_high = ~in_low & ~cross

    def inside(xs, e):
        sat = (xs[eu[e]] - xs[ev[e]]) % k == eshift[e][:, None]
        return ew[e] @ sat

    with blas_threads_for(j * k):                # the GEMM's inner dimension
        nlo, nhi = k ** j, k ** len(high)
        xl = _side_labels(low, 0, nlo, n, k)
        vl = inside(xl, in_low)
        if j == 1:
            plt = None  # P_L^T is the k x k identity: a block is G itself
        else:
            plt = np.zeros((j * k, nlo))  # P_L^T
            plt[np.arange(j)[:, None] * k + xl[low], np.arange(nlo)] = 1.0
        # C[h, b] is the row (h, b) of C; a crossing edge holds when
        # x_l - x_h = t, so at (x_h, x_l) = (b, b + t)
        flip = ~low_u[cross]
        l_end = np.where(flip, ev[cross], eu[cross])
        h_end = np.where(flip, eu[cross], ev[cross])
        t = np.where(flip, -eshift[cross], eshift[cross])[:, None]
        b = np.arange(k)
        C = np.zeros((len(high), k, j * k))
        np.add.at(C, (h_end[:, None] - j - 1, b, (l_end[:, None] - 1) * k
                      + (b + t) % k), ew[cross][:, None])
        step = max(1, _BLOCK_FLOATS // nlo)
        best_code, best_wsat = 0, -1.0
        for h0 in range(0, nhi, step):
            xh = _side_labels(high, h0, min(step, nhi - h0), n, k)
            # rows of G = P_H C, one gathered row of C per high vertex
            G = C[np.arange(len(high))[:, None], xh[high]].sum(axis=0)
            block = G if plt is None else G @ plt
            block += inside(xh, in_high)[:, None]
            block += vl
            i = int(np.argmax(block))
            if block.flat[i] > best_wsat:
                best_wsat = float(block.flat[i])
                best_code = h0 * nlo + i
    # the winner's weight, correctly rounded whatever order the blocks summed
    hi, lo = divmod(best_code, nlo)
    x = (_side_labels(high, hi, 1, n, k) + _side_labels(low, lo, 1, n, k))[:, 0]
    return best_code, math.fsum(ew[(x[eu] - x[ev]) % k == eshift])


# ---------------------------------------------------------------------------
# Subset cut scan (sse_profile).
#
# For a batch of vertex subsets (rows of `combos`, all the same cardinality)
# returns phi(S) = 1 - W(S,S)/vol(S) for each subset.
# ---------------------------------------------------------------------------

def subset_cut_scan(combos, W, deg):
    vol = deg[combos].sum(axis=1)
    internal = np.zeros(combos.shape[0])
    c = combos.shape[1]
    for i in range(c):
        for j in range(c):
            internal += W[combos[:, i], combos[:, j]]
    return 1.0 - internal / vol


# ---------------------------------------------------------------------------
# BLAS threads.
#
# numpy's OpenBLAS is found among the shared objects mapped into this process
# and driven through ctypes.  Without an OpenBLAS (another BLAS, or no
# /proc/self/maps) the thread calls below are no-ops and `PartialEig` is
# unavailable.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _openblas_libs():
    """ctypes handles of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line})
    except OSError:
        return ()
    handles = []
    for path in paths:
        try:
            handles.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(handles)


@functools.lru_cache(maxsize=1)
def _openblas_thread_fns():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    for handle in _openblas_libs():
        for name in ("scipy_openblas_%s_num_threads64_",
                     "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
            get = getattr(handle, name % "get", None)
            put = getattr(handle, name % "set", None)
            if get is not None and put is not None:
                get.argtypes = []
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                put.restype = None
                return get, put
    return None


def get_blas_threads():
    """Current OpenBLAS thread count, or None when no OpenBLAS is loaded."""
    fns = _openblas_thread_fns()
    return None if fns is None else int(fns[0]())


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the body with `n` OpenBLAS threads, restoring the count after
    (no effect when no OpenBLAS is loaded)."""
    fns = _openblas_thread_fns()
    if fns is None:
        yield
        return
    get, put = fns
    prev = int(get())
    put(int(n))
    try:
        yield
    finally:
        put(prev)


# Bodies whose largest matrix is below this dimension run on one BLAS
# thread.  Sweep of np.linalg.eigh on random symmetric matrices (2-core
# x86-64, numpy 2.4 with OpenBLAS), ms wall per call, 1 thread vs 2 threads:
#   dim 129: 1.9-2.0 vs 1.8-2.5    dim 201: 5.3-5.7 vs 5.2-5.8
#   dim 301: 12.9-15.0 vs 11.3-14.2  dim 376: 21.3-24.8 vs 19.6-20.8
#   dim 451: 35.5-38.4 vs 27.6-31.3
# Two threads cost about twice the CPU at every size and save wall time only
# from about 300 on; the idle second thread spins after each two-thread call,
# and that CPU is billed to whatever runs next.
ONE_THREAD_MAX_DIM = 300


def blas_threads_for(dim: int):
    """Context for a body whose largest factored or multiplied matrix has
    dimension `dim`: one OpenBLAS thread below ONE_THREAD_MAX_DIM, the
    current count otherwise; the count is restored on exit and on raise."""
    if dim < ONE_THREAD_MAX_DIM:
        return blas_threads(1)
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Partial eigensolver (module docstring).
# ---------------------------------------------------------------------------

_COL_MAJOR = 102


@functools.lru_cache(maxsize=2)
def _lapacke_evr(real: bool):
    """(LAPACKE_dsyevr_work if `real` else LAPACKE_zheevr_work, its integer
    type) from the loaded OpenBLAS, or None when no OpenBLAS exports it."""
    kind = "dsy" if real else "zhe"
    for handle in _openblas_libs():
        for name, cint in ((f"scipy_LAPACKE_{kind}evr_work64_", ctypes.c_int64),
                           (f"LAPACKE_{kind}evr_work64_", ctypes.c_int64),
                           (f"LAPACKE_{kind}evr_work", ctypes.c_int32)):
            fn = getattr(handle, name, None)
            if fn is None:
                continue
            ptr, char, dbl = ctypes.c_void_p, ctypes.c_char, ctypes.c_double
            # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol,
            # m, w, z, ldz, isuppz, work, lwork, [rwork, lrwork,] iwork,
            # liwork
            rwork = [] if real else [ptr, cint]
            fn.argtypes = ([ctypes.c_int, char, char, char, cint, ptr, cint,
                            dbl, dbl, cint, cint, dbl, ptr, ptr, ptr, cint,
                            ptr, ptr, cint] + rwork + [ptr, cint])
            fn.restype = cint
            return fn, cint
    return None


class PartialEig:
    """The eigenpairs with eigenvalues in (vl, vu] of n x n real symmetric
    (`real`) or complex Hermitian matrices.  The caller writes the matrix's
    lower triangle into `a` (column-major; the triangle `np.linalg.eigh`
    reads) before each call, which overwrites it.  Runs on numpy's OpenBLAS,
    so `blas_threads` governs it.

    `available(real)` says whether the loaded OpenBLAS exports the routine;
    the first such check binds it."""

    @staticmethod
    def available(real: bool) -> bool:
        return _lapacke_evr(real) is not None

    def __init__(self, n: int, real: bool):
        self.fn, cint = _lapacke_evr(real)
        self.n, self.real = n, real
        itype = np.int64 if cint is ctypes.c_int64 else np.int32
        dtype = float if real else complex
        # zeroed: a Hermitian `a`'s diagonal imaginary parts are never
        # written by the caller
        self.a = np.zeros((n, n), dtype=dtype, order="F")
        self.z = np.empty((n, n), dtype=dtype, order="F")
        self.w = np.empty(n)
        self.m = np.zeros(1, dtype=itype)
        self.isuppz = np.empty(2 * n, dtype=itype)
        # the query writes only the sizes the routine takes (dsyevr has no
        # rwork), so the others must not be read from uninitialized memory
        work, rwork, iwork = (np.zeros(1, dtype), np.zeros(1),
                              np.zeros(1, dtype=itype))
        self._run(self._arguments(work, -1, rwork, -1, iwork, -1))  # query
        self.work = np.empty(int(work[0].real), dtype)
        self.rwork = np.empty(0 if real else int(rwork[0]))
        self.iwork = np.empty(int(iwork[0]), dtype=itype)
        self._args = self._arguments(self.work, self.work.size, self.rwork,
                                     self.rwork.size, self.iwork,
                                     self.iwork.size)

    def _arguments(self, work, lwork, rwork, lrwork, iwork, liwork) -> list:
        """The routine's arguments, with vl = 0 and vu = 1 at entries 7 and
        8."""
        n = self.n
        rwork = [] if self.real else [rwork.ctypes.data, lrwork]
        return ([_COL_MAJOR, b"V", b"V", b"L", n, self.a.ctypes.data, n,
                 0.0, 1.0, 0, 0, 0.0, self.m.ctypes.data, self.w.ctypes.data,
                 self.z.ctypes.data, n, self.isuppz.ctypes.data,
                 work.ctypes.data, lwork] + rwork
                + [iwork.ctypes.data, liwork])

    def __call__(self, vl: float, vu: float):
        """(w, Z): the m eigenvalues of `a` in (vl, vu], ascending, and the
        n x m matrix Z whose columns are their unit eigenvectors; both are
        views into buffers that the next call overwrites.  A nonzero LAPACK
        info raises LinAlgError."""
        self._args[7], self._args[8] = vl, vu
        self._run(self._args)
        m = int(self.m[0])
        return self.w[:m], self.z[:, :m]

    def _run(self, args):
        info = self.fn(*args)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"{'dsyevr' if self.real else 'zheevr'} failed: info = {info}")
