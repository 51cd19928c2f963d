"""Hot numeric kernels in numpy, and a thread-count control for the BLAS
that numpy loaded.

``perfbench/run.py`` times the brute-force oracle as
``instances.brute_force_opt`` in its ``certify`` workload.
"""
import contextlib
import ctypes
import functools

import numpy as np


# ---------------------------------------------------------------------------
# Brute-force assignment scan (ug-core oracle).
#
# Assignments fix x_0 = 0 (global-shift symmetry of affine instances) and
# enumerate the remaining n-1 labels as a base-k counter.  Returns the code of
# the first best assignment and its satisfied weight.
# ---------------------------------------------------------------------------

def brute_force_scan(eu, ev, ew, eshift, n, k):
    """Scan in chunks of 2^14 codes, each decoded from lo + arange(chunk).
    Labels are int8 for k < 128, so the m x chunk label differences take
    1 MB per 64 edges and memory does not grow with the state count."""
    total = k ** (n - 1) if n > 1 else 1
    label = np.int8 if k < 128 else np.int64
    shift = eshift.astype(label)[:, None]
    best_code = 0
    best_wsat = -1.0
    chunk = 1 << 14
    for lo in range(0, total, chunk):
        c = lo + np.arange(min(chunk, total - lo), dtype=np.int64)
        # decode base-k digits for vertices 1..n-1; vertex 0 stays 0
        xs = np.zeros((n, c.size), dtype=label)
        for v in range(1, n):
            xs[v] = c % k
            c //= k
        sat = (xs[eu] - xs[ev]) % k == shift
        wsat = ew @ sat
        i = int(np.argmax(wsat))
        if wsat[i] > best_wsat:
            best_wsat = float(wsat[i])
            best_code = lo + i
    return best_code, best_wsat


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
