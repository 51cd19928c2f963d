"""ADMM for the SDP  maximize c.y  subject to  y[0] = 1 and A(y) PSD, where
A maps the coordinates y onto real symmetric or Hermitian blocks packed in
one vector (`_Block`) whose Euclidean inner product is their Frobenius one.
`solve` reads six members of its layout: `size` (of y), `packed_size`,
`blocks` (the `_Block`s in packed order), `A`, its `adjoint`, and `counts`,
the diagonal of A^T A, which must be diagonal.

ADMM: closed-form y-update, PSD projection of each block (the dual iterate U
is the rest), over-relaxation 1.6, a residual-balanced penalty from
`ADMM_RHO0` (doubled or halved after every 50th iteration while one
residual exceeds ten times the other), and safeguarded type-II Anderson
acceleration of the projected point S = X + U (`_Anderson`; Walker & Ni
2011, Zhang, O'Donoghue & Boyd 2020).  It stops when both residuals and the
duality gap |c.y - r_0| are at most tol, r = c + A^T(-rho U) with -rho U
PSD, as SCS does (O'Donoghue et al., JOTA 169, 2016); small residuals alone
can stop short of the optimum.  The loop runs under the BLAS-thread rule
(`_kernels.blas_threads_for`) for its largest block.  Besides its
eigensolves, an iteration makes a fixed, small set of numpy calls that
round as the plain formulas do.

Near a low-rank optimum (the unique-games blocks are rank 1 there) the
smaller side of a block's spectrum usually holds one eigenpair.  Each
block's `_BlockSplit` remembers that side and its size m; when
PARTIAL_EIG_DIVISOR * (m + 1) <= dim, the next projection computes all of
that side, and only it, by LAPACK's dsyevr / zheevr with a value range
(`_kernels.PartialEig`): exact whatever the prediction, so a wrong one costs
only time.  The first step, larger sides and an OpenBLAS without the
LAPACKE symbols run `eigh`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ugsos import _kernels
from ugsos.errors import ParameterError

ADMM_MAX_ITERS = 100_000
ADMM_OVER_RELAX = 1.6
# Anderson acceleration of the ADMM fixed-point map keeps the last
# ANDERSON_MEMORY steps and regularizes its least-squares problem by
# ANDERSON_REG times the trace of its Gram matrix.  Iterations at memory
# 5, 10 and 20 (and without acceleration; J(6,2) capped at 5000 a solve),
# from ADMM_RHO0:
#   cube3 D=4 seed 0, tol 1e-7            180    62    41   (1387)
#   J(5,2) D=4 seed 0, tol 3e-3            82    36    36    (683)
#   criterion 10's ten J(6,2) seeds      1808   941   810  (12003)
# The history is what sets the solve's peak memory; 20 doubles it.
ANDERSON_MEMORY = 10
ANDERSON_REG = 1e-10
_TINY = np.finfo(float).tiny
# ADMM's initial penalty, on the balancing rule's power-of-two lattice (each
# change clears the Anderson history).  Iterations to the stopping test at
# rho0 = 1/256, 1/128, 1/64, 1/32, 1/16:
#   J(5,2) D=4 seed 0, tol 3e-3           31    39    36    51    74
#   cube3 D=4 seed 0, tol 1e-7            57    60    62    62    76
#   criterion 5's ten cube3 seeds        527   495   521   579   688
#   criterion 10's ten J(6,2) seeds      573   683   941  1684  2934
#   the acceptance suite's 21 solves    1632  1022   746   703   542
# |sdp - reference| on cube3 is 6.5e-9, 1.2e-9, 1.9e-11, 2.3e-10, 7.8e-9.
ADMM_RHO0 = 1.0 / 64
# The PSD projection of a block computes only the side of its spectrum that
# held m eigenpairs at the previous step when PARTIAL_EIG_DIVISOR * (m + 1)
# <= dim (`_BlockSplit`).  Sweep of one `_psd_split` of a packed block with
# m positive eigenvalues, eigh vs partial, us wall per call (best of three
# passes, one BLAS thread, 2-core x86-64, numpy 2.4 with OpenBLAS), real
# blocks / Hermitian ones:
#   dim 8:    m=1 33 vs 32 / 45 vs 30       m=4 35 vs 39 / 47 vs 48
#   dim 16:   m=1 66 vs 35 / 83 vs 43       m=8 71 vs 83 / 106 vs 78
#   dim 57:   m=1 392 vs 191 / 559 vs 269   m=7 435 vs 299 / 568 vs 421
#             m=14 432 vs 518 / 852 vs 891  m=28 468 vs 863 / 1006 vs 1359
#   dim 129:  m=1 2091 vs 839 / 5140 vs 2431
#             m=16 2211 vs 1838 / 5076 vs 3613
#             m=32 2130 vs 3018 / 5161 vs 4980
#   dim 201:  m=1 5650 vs 2036 / 15681 vs 7496
#             m=25 5086 vs 4827 / 15596 vs 10504
#             m=50 5159 vs 7499 / 15137 vs 13766
# The partial call wins 2-3x at m = 1 and breaks even near m = dim/8 on real
# blocks (later on Hermitian ones); at dim 8 the two tie.  The rule keeps
# every block below dimension 8 on eigh, and that matters beyond speed:
# `verify --tier quick` solves a 3-vertex k=2 triangle (blocks 4 and 3)
# whose ADMM trajectory is chaotic under round-off (a 1e-16 relative nudge
# to the projection moves it from 65 iterations to 76-116).
PARTIAL_EIG_DIVISOR = 8


class _Block:
    """A stored block, packed as its lower triangle (real parts, then a
    complex block's strictly lower imaginary parts), weighted sqrt(2) off
    the diagonal and sqrt(weight) throughout: Frobenius inner products.

    Matrices are read and written through their floats (a complex entry's
    real and imaginary parts adjacent), so `pack` is one gather and one
    multiply and filling a matrix from a packed block is one unweighting
    and one scatter, with no complex temporaries: `c_at` and `f_at` hold
    each packed entry's position among the floats of a C-order and of a
    Fortran-order matrix, and `w` its weight.  Unweighting divides a real
    part by its weight but multiplies an imaginary part by the weight's
    reciprocal (`imag_scale`), as the complex division (v_re + 1j v_im) / f
    rounds (numpy divides by a complex denominator by Smith's method), so
    the solver's iterates are those of that formula to the last bit."""

    def __init__(self, dim: int, real: bool, weight: float, start: int):
        self.dim, self.real, self.weight = dim, real, weight
        self.rows, self.cols = np.tril_indices(dim)
        self.off = self.rows != self.cols
        self.f = math.sqrt(weight) * np.where(self.off, math.sqrt(2.0), 1.0)
        c_at = self.rows * dim + self.cols
        f_at = self.cols * dim + self.rows
        if real:
            self.c_at, self.f_at, self.w = c_at, f_at, self.f
        else:
            self.c_at = np.concatenate((2 * c_at, 2 * c_at[self.off] + 1))
            self.f_at = np.concatenate((2 * f_at, 2 * f_at[self.off] + 1))
            self.w = np.concatenate((self.f, self.f[self.off]))
            self.imag_scale = 1.0 / self.f[self.off]
        self.part = slice(start, start + self.w.size)

    def unweighted(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The lower triangle of the block packed in v, its floats in packed
        order, written into `out`."""
        n = self.rows.size
        np.divide(v[:n], self.f, out=out[:n])
        if not self.real:
            np.multiply(v[n:], self.imag_scale, out=out[n:])
        return out

    def unpack(self, v: np.ndarray) -> np.ndarray:
        """The lower triangle of the block packed in v (all `eigh` reads)."""
        M = np.zeros((self.dim, self.dim), dtype=float if self.real else complex)
        _floats(M)[self.c_at] = self.unweighted(v, np.empty(v.size))
        return M

    def pack(self, M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The block of the C-order matrix M packed (into `out` if given)."""
        return np.multiply(_floats(M).take(self.c_at), self.w, out=out)


def _floats(M: np.ndarray) -> np.ndarray:
    """The floats of M in C order, flat: a view of a C-contiguous M."""
    return M.reshape(-1).view(np.float64)


class _BlockSplit:
    """One block's PSD splits within one solve: the side of the spectrum
    the last split rebuilt from (`positive`) and its number of eigenpairs
    (`m`, None before the first split), the block's `_kernels.PartialEig`
    once a split needs it, and the number of splits that used it."""

    def __init__(self, block: _Block):
        self.block, self.positive, self.m = block, True, None
        self.eig, self.partial_calls = None, 0
        self.kernel = _kernels.PartialEig.available(block.real)

    def predicts(self) -> bool:
        """Whether the next split computes only the remembered side: when
        PARTIAL_EIG_DIVISOR * (m + 1) <= dim and the kernel is there."""
        return (self.m is not None and self.kernel
                and PARTIAL_EIG_DIVISOR * (self.m + 1) <= self.block.dim)

    def side_pairs(self, s: np.ndarray):
        """(eigenvalues, eigenvector columns) of the packed block s on the
        remembered side: all those in (0, B] or in (-B, 0], with
        B = 1 + 2 ||S||_F above the spectral radius."""
        b = self.block
        if self.eig is None:
            self.eig = _kernels.PartialEig(b.dim, b.real)
            # the column-major input's floats, and the unweighted block
            self.floats = self.eig.a.ravel(order="F").view(np.float64)
            self.lower = np.empty(b.w.size)
        self.floats[b.f_at] = b.unweighted(s, self.lower)
        bound = 1.0 + 2.0 * math.sqrt(s @ s) / math.sqrt(b.weight)
        self.partial_calls += 1
        return self.eig(*((0.0, bound) if self.positive else (-bound, 0.0)))


def _psd_split(S: np.ndarray, split: _BlockSplit,
               out: np.ndarray | None = None) -> np.ndarray:
    """S_+ for the block of `split` packed in S, written into `out` if
    given, rebuilt from the block's smaller eigenspace (module docstring):
    the predicted side alone, or `eigh` of the unpacked lower triangle."""
    partial = split.predicts()
    if partial:
        lam, V = split.side_pairs(S)
        positive = split.positive
    else:
        M = split.block.unpack(S)
        lam, V = np.linalg.eigh(M)
        nneg = int(np.searchsorted(lam, 0.0))      # eigenvalues ascend
        positive = 2 * nneg >= len(lam)
        side = slice(nneg, None) if positive else slice(0, nneg)
        lam, V = lam[side], V[:, side]
    part = (V * lam) @ V.conj().T
    split.positive, split.m = positive, lam.size
    if positive:
        return split.block.pack(part, out)
    if partial:
        return np.subtract(S, split.block.pack(part, out), out=out)
    # rounded as M - part, not S - pack(part): the iterates of the blocks
    # below dim 8, which always take this branch, stay the same
    return split.block.pack(np.subtract(M, part, out=part), out)


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map S -> T(S) on
    vectors of length dim (Walker & Ni, SIAM J. Numer. Anal. 49, 2011).

    Each point S takes two calls.  `accepts(g)` records the residual
    g = T(S) - S.  `step(T)` then returns the next point T - sum_j c_j dT_j,
    where dT_j and dG_j are the differences of T and of g over the last
    ANDERSON_MEMORY points and c minimizes |g - sum_j c_j dG_j|^2 + reg |c|^2, with
    reg = ANDERSON_REG times the trace of the Gram matrix
    H_ij = <dG_i, dG_j>.  With an empty history that is T itself, the plain
    step.

    Safeguard: when S was extrapolated and its residual is larger than the
    residual at the point before, `accepts` clears the history and returns
    False; the caller then takes the plain step the extrapolation replaced,
    which starts a new history.  The verdict comes before `step` so that the
    caller can drop the plain step it kept for a rejection before `step`
    allocates: the history is what sets the solve's peak memory."""

    def __init__(self, dim: int):
        self.memory = ANDERSON_MEMORY
        self.dT = np.empty((self.memory, dim))
        self.dG = np.empty((self.memory, dim))
        self.gram = np.empty((self.memory, self.memory))
        self.eye = np.eye(self.memory)
        self.reset()

    def reset(self):
        self.count = 0          # differences recorded since the last reset
        self.last = None        # T and g, and |g|, at the last point
        self.pending = None     # g and |g| at the current point

    def accepts(self, g: np.ndarray) -> bool:
        gnorm = math.sqrt(g @ g)
        # with a history, the current point was extrapolated
        if self.count and gnorm > self.last[2]:
            self.reset()
            return False
        self.pending = (g, gnorm)
        return True

    def step(self, T: np.ndarray) -> np.ndarray:
        g, gnorm = self.pending
        if self.last is not None:
            t0, g0, _ = self.last
            j = self.count % self.memory
            np.subtract(T, t0, out=self.dT[j])
            np.subtract(g, g0, out=self.dG[j])
            self.count += 1
            m = min(self.count, self.memory)
            self.gram[j, :m] = self.gram[:m, j] = self.dG[:m] @ self.dG[j]
        self.last, self.pending = (T, g, gnorm), None
        if not self.count:
            return T
        m = min(self.count, self.memory)
        H = self.gram[:m, :m]
        # the tiny floor keeps an all-zero history solvable (c = 0)
        reg = ANDERSON_REG * H.trace() + _TINY
        coef = np.linalg.solve(H + reg * self.eye[:m, :m], self.dG[:m] @ g)
        s = coef @ self.dT[:m]
        np.subtract(T, s, out=s)
        return s


@dataclass(frozen=True)
class Solution:
    """`solve`'s result: y, r = c - rho A^T(U), the final rho, the iteration
    count, both residuals, convergence and the partial-projection count."""

    y: np.ndarray
    r: np.ndarray
    rho: float
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool
    partial_projections: int


def solve(layout, c: np.ndarray, tol: float, max_iters: int) -> Solution:
    """Maximize c.y subject to y[0] = 1 and A(y) PSD by ADMM from y = e_0
    (module docstring), in at most `max_iters` iterations.  A cap below 1,
    or a tol that is not finite and positive, raises ParameterError."""
    if max_iters < 1:
        raise ParameterError(f"max_iters must be at least 1, not {max_iters}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"tol must be finite and positive, not {tol}")
    rho, gamma = ADMM_RHO0, ADMM_OVER_RELAX
    c_rho = c / rho
    y = np.zeros(layout.size)
    y[0] = 1.0
    X = layout.A(y)
    U = np.zeros(layout.packed_size)
    converged = False
    accel = _Anderson(layout.packed_size)
    splits = [_BlockSplit(b) for b in layout.blocks]
    # the temporaries that an iteration consumes as soon as it forms them
    work, work2 = np.empty((2, layout.packed_size))
    with _kernels.blas_threads_for(max(b.dim for b in layout.blocks)):
        for it in range(max_iters):
            # y-update: diagonal normal equations
            y_new = layout.adjoint(np.subtract(X, U, out=work))
            y_new += c_rho
            y_new /= layout.counts
            y_new[0] = 1.0
            Ay = layout.A(y_new)
            # the Douglas-Rachford map of the current point S = X + U is
            # T = gamma A(y) + (1 - gamma) X + U, with residual gamma (A(y) - X)
            g = np.subtract(Ay, X)
            g *= gamma
            if accel.accepts(g):
                # T takes U's buffer, which the iteration no longer reads
                np.multiply(Ay, gamma, out=work)
                work += np.multiply(X, 1.0 - gamma, out=work2)
                T = np.add(work, U, out=U)
                plain = (y_new, X, T)
                S = accel.step(T)
            else:
                # safeguard: redo the plain step the extrapolation replaced
                y_new, X, S = plain
                Ay = layout.A(y_new)
            # X-update: PSD projection of each block; U takes the negative part
            X_new = np.empty_like(S)
            for split in splits:
                _psd_split(S[split.block.part], split, X_new[split.block.part])
            U = S - X_new
            r_pri = np.subtract(Ay, X_new, out=work)
            pri = math.sqrt(r_pri @ r_pri)
            # the dual residual is read only by the stopping test once the
            # primal one passes, by the rebalancing and by the last record
            if pri <= tol or it % 50 == 49 or it == max_iters - 1:
                r_dua = layout.adjoint(np.subtract(X_new, X, out=work))
                dua = rho * math.sqrt(r_dua @ r_dua)
            X = X_new
            y = y_new
            if pri <= tol and dua <= tol:
                r = c - rho * layout.adjoint(U)
                if abs(c @ y - r[0]) <= tol:
                    converged = True
                    break
            if it % 50 == 49 and (pri > 10.0 * dua or dua > 10.0 * pri):
                scale = 2.0 if pri > dua else 0.5
                rho *= scale
                U /= scale
                c_rho = c / rho
                accel.reset()
    if not converged:
        r = c - rho * layout.adjoint(U)
    return Solution(y, r, rho, it + 1, pri, dua, converged,
                    sum(s.partial_calls for s in splits))
