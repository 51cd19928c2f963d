"""Hot numeric kernels with a numba fast path and a pure-numpy fallback,
and a thread-count control for the BLAS that numpy loaded.

The fallback is selected automatically when numba is missing, or explicitly
by setting the environment variable ``UGSOS_NO_NUMBA=1`` before import.
``perfbench/run.py`` times the brute-force oracle as
``instances.brute_force_opt`` in its ``certify`` workload.
"""
import contextlib
import ctypes
import functools
import os

import numpy as np

_want_numba = os.environ.get("UGSOS_NO_NUMBA", "0") not in ("1", "true", "yes")

if _want_numba:
    try:
        from numba import njit
        HAS_NUMBA = True
    except ImportError:  # pragma: no cover - depends on environment
        HAS_NUMBA = False
else:
    HAS_NUMBA = False


# ---------------------------------------------------------------------------
# Brute-force assignment scan (ug-core oracle).
#
# Assignments fix x_0 = 0 (global-shift symmetry of affine instances) and
# enumerate the remaining n-1 labels as a base-k counter.  Returns the code of
# the best assignment and its satisfied weight.
# ---------------------------------------------------------------------------

def _brute_force_scan_py(eu, ev, ew, eshift, n, k):
    total = k ** (n - 1) if n > 1 else 1
    best_code = 0
    best_wsat = -1.0
    chunk = 1 << 14
    codes_all = np.arange(total, dtype=np.int64)
    for lo in range(0, total, chunk):
        codes = codes_all[lo:lo + chunk]
        # decode base-k digits for vertices 1..n-1; vertex 0 stays 0
        xs = np.zeros((n, codes.size), dtype=np.int64)
        c = codes.copy()
        for v in range(1, n):
            xs[v] = c % k
            c //= k
        sat = (xs[eu] - xs[ev]) % k == eshift[:, None]
        wsat = ew @ sat
        i = int(np.argmax(wsat))
        if wsat[i] > best_wsat:
            best_wsat = float(wsat[i])
            best_code = int(codes[i])
    return best_code, best_wsat


if HAS_NUMBA:

    @njit(cache=True)
    def _brute_force_scan_nb(eu, ev, ew, eshift, n, k):  # pragma: no cover - jitted
        total = 1
        for _ in range(n - 1):
            total *= k
        best_code = 0
        best_wsat = -1.0
        x = np.zeros(n, dtype=np.int64)
        m = eu.shape[0]
        for code in range(total):
            c = code
            for v in range(1, n):
                x[v] = c % k
                c //= k
            wsat = 0.0
            for e in range(m):
                if (x[eu[e]] - x[ev[e]]) % k == eshift[e]:
                    wsat += ew[e]
            if wsat > best_wsat:
                best_wsat = wsat
                best_code = code
        return best_code, best_wsat

    brute_force_scan = _brute_force_scan_nb
else:
    brute_force_scan = _brute_force_scan_py


# ---------------------------------------------------------------------------
# Subset cut scan (sse_profile).
#
# For a batch of vertex subsets (rows of `combos`, all the same cardinality)
# returns phi(S) = 1 - W(S,S)/vol(S) for each subset.
# ---------------------------------------------------------------------------

def _subset_cut_scan_py(combos, W, deg):
    vol = deg[combos].sum(axis=1)
    internal = np.zeros(combos.shape[0])
    c = combos.shape[1]
    for i in range(c):
        for j in range(c):
            internal += W[combos[:, i], combos[:, j]]
    return 1.0 - internal / vol


if HAS_NUMBA:

    @njit(cache=True)
    def _subset_cut_scan_nb(combos, W, deg):  # pragma: no cover - jitted
        m, c = combos.shape
        out = np.empty(m)
        for r in range(m):
            vol = 0.0
            internal = 0.0
            for i in range(c):
                vi = combos[r, i]
                vol += deg[vi]
                for j in range(c):
                    internal += W[vi, combos[r, j]]
            out[r] = 1.0 - internal / vol
        return out

    subset_cut_scan = _subset_cut_scan_nb
else:
    subset_cut_scan = _subset_cut_scan_py


# ---------------------------------------------------------------------------
# BLAS threads.
#
# numpy's OpenBLAS is found among the shared objects mapped into this process
# and driven through ctypes.  Without an OpenBLAS (another BLAS, or no
# /proc/self/maps) every call below is a no-op.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _openblas_thread_fns():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
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
