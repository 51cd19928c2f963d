"""Hot numeric kernels in numpy, and a handle on the thread count of the
OpenBLAS that numpy loaded.

The brute-force scan splits the vertices into two halves and scores all
assignments of one block of high-half labels against all low-half labels
with one GEMM: about k^(n-1) * j*k flops with j = floor((n-1)/2), and
memory for the low half's tables (about j*k^(j+1) floats) plus one block of
2^16 scores, not for the k^(n-1) states.

``perfbench/run.py`` times the brute-force oracle as
``instances.brute_force_opt`` in its ``certify`` workload.
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
# low vertex (n = 3 or 4) P_L^T is the k x k identity and is not built.
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
    in blocks of about 2^16 (hi, lo) pairs (see above)."""
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
# /proc/self/maps) the thread calls below are no-ops.
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


def set_blas_threads(n: int):
    """Set the OpenBLAS thread count; returns the previous count (None and
    no effect when no OpenBLAS is loaded)."""
    prev = get_blas_threads()
    if prev is not None:
        _openblas_thread_fns()[1](int(n))
    return prev


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the body with `n` OpenBLAS threads, restoring the count after."""
    prev = set_blas_threads(n)
    try:
        yield
    finally:
        if prev is not None:
            set_blas_threads(prev)
