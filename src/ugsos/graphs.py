"""Constraint-graph generators and spectral utilities.

Families: the noisy hypercube, the short-code graph, the Johnson graph, and
its Cayley approximation on [n]^l.  Spectral utilities: eigendecomposition of
the random-walk matrix in the stationary inner product, expansion / Dirichlet
forms and exhaustive small-set expansion profiles.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, isqrt

import numpy as np

from ugsos import _kernels
from ugsos.errors import ParameterError, SizeCapError

# the most vertices a generator builds or spectral_decompose takes: each
# holds a dense N x N float64 weight matrix (800 MB at the cap)
VERTEX_CAP = 10**4
SSE_EXHAUSTIVE_CAP = 10**7
SSE_SAMPLE_COUNT = 10**6
# the most c-sets the exhaustive profile holds in one array
_SSE_BATCH = 1 << 16
# WeightedGraph compares W with W^T in square tiles of about this many
# entries, so that its check allocates no N x N temporary and reads each
# transposed tile while it is still in cache
SYMMETRY_BLOCK = 1 << 14


def _is_symmetric(W: np.ndarray, atol: float) -> bool:
    """Whether max |W - W^T| <= atol, absolutely (False when W holds a NaN
    or an infinity), read in tiles of about SYMMETRY_BLOCK entries on and
    above the diagonal."""
    n = len(W)
    b = max(1, isqrt(SYMMETRY_BLOCK))
    with np.errstate(invalid="ignore"):             # inf - inf
        return all(np.abs(W[i:i + b, j:j + b] - W[j:j + b, i:i + b].T)
                   .max(initial=0.0) <= atol
                   for i in range(0, n, b) for j in range(i, n, b))


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric weighted graph; self-loops allowed (noisy families have them).

    `labels` carries family-specific vertex semantics (bit tuples, subsets,
    coordinate tuples); `meta` records the generating family and parameters.
    """

    num_vertices: int
    W: np.ndarray
    labels: tuple = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.shape != (self.num_vertices, self.num_vertices):
            raise ParameterError("weight matrix shape mismatch")
        if not _is_symmetric(W, 1e-12):
            raise ParameterError("weight matrix must be symmetric and finite")
        if W.min(initial=0.0) < -1e-15:
            raise ParameterError("negative edge weight")
        if W.sum() <= 0:
            raise ParameterError("graph has zero total weight")
        object.__setattr__(self, "W", W)

    @property
    def degrees(self) -> np.ndarray:
        return self.W.sum(axis=1)

    def transition(self) -> np.ndarray:
        deg = self.degrees
        if np.any(deg <= 0):
            raise ParameterError("graph has an isolated vertex")
        return self.W / deg[:, None]


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of the random-walk matrix in the pi inner product.

    `eigenvalues` are descending; `eigenvectors` columns are right
    eigenvectors of the transition matrix, orthonormal under <.,.>_pi.
    """

    pi: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    transition: np.ndarray


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def noisy_hypercube(d: int, eps: float) -> WeightedGraph:
    """Noise graph on {+-1}^d: w(u,v) = eps^h (1-eps)^(d-h) with h the Hamming
    distance, realized as the d-fold Kronecker power of the one-bit noise
    matrix.  Contains self-loops; rows already sum to 1."""
    if d < 1:
        raise ParameterError("d must be >= 1")
    if 2**d > VERTEX_CAP:
        raise SizeCapError(f"noisy_hypercube caps at 2^d <= {VERTEX_CAP}")
    if not 0.0 <= eps < 1.0:
        raise ParameterError("eps must lie in [0, 1)")
    base = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
    W = np.array([[1.0]])
    for _ in range(d):
        W = np.kron(W, base)
    labels = tuple(itertools.product((1, -1), repeat=d))
    return WeightedGraph(2**d, W, labels, {"family": "hypercube", "d": d, "eps": eps})


def shortcode_graph(d: int, n: int) -> WeightedGraph:
    """Short-code graph: the Cayley graph of Reed-Muller RM(d, n) generated by
    its minimum-weight codewords.  Vertex p is a mask over the multilinear
    monomials of degree <= d on F_2^n; p and q are adjacent when p - q has
    truth-table weight 2^(n-d), i.e. it factors as a product of d linearly
    independent affine forms.  Returns the one-step random-walk matrix."""
    if not (1 <= d < n <= 4):
        raise SizeCapError("shortcode_graph requires 1 <= d < n <= 4")
    monos = [list(c) for r in range(d + 1)
             for c in itertools.combinations(range(n), r)]
    if len(monos) > 12:
        raise SizeCapError("short-code vertex count exceeds 2^12")
    N = 1 << len(monos)
    points = np.array(list(itertools.product((0, 1), repeat=n)), dtype=bool)
    # E[j, x]: monomial j at point x, so (bits of p) E mod 2 is p's truth table
    E = np.array([points[:, m].all(axis=1) for m in monos], dtype=np.int64)
    bits = np.arange(N)[:, None] >> np.arange(len(monos)) & 1
    gens = np.flatnonzero((bits @ E % 2).sum(axis=1) == 1 << (n - d))
    p = np.arange(N)[:, None]
    W = np.zeros((N, N))
    W[p, p ^ gens] = 1.0 / len(gens)
    return WeightedGraph(N, W, tuple(range(N)),
                         {"family": "shortcode", "d": d, "n": n})


def johnson_graph(n: int, l: int, alpha: float) -> WeightedGraph:
    """Johnson graph J_{n,l,alpha}: vertices are l-subsets of [n], adjacency
    iff the intersection has size (1-alpha)l.  Unit weights."""
    target = l - _check_alpha(l, alpha)    # (1 - alpha) * l
    if not l < n:
        raise ParameterError("need l < n")
    if comb(n, l) > VERTEX_CAP:
        raise SizeCapError(f"johnson_graph caps at C(n,l) <= {VERTEX_CAP}")
    verts = list(itertools.combinations(range(n), l))
    N = len(verts)
    # incidence rows: B B^T counts the common elements of two subsets
    B = np.zeros((N, n))
    B[np.arange(N)[:, None], verts] = 1.0
    W = (B @ B.T == target).astype(float)
    np.fill_diagonal(W, 0.0)
    return WeightedGraph(N, W, tuple(verts),
                         {"family": "johnson", "n": n, "l": l, "alpha": alpha})


def johnson_cayley_graph(n: int, l: int, alpha: float) -> WeightedGraph:
    """Cayley approximation C_{n,l,alpha} on [n]^l: resample a uniformly
    random set of alpha*l coordinates with fresh uniform values.  Weights are
    the transition probabilities (the walk is doubly stochastic); self-loops
    arise because a resampled coordinate may repeat its old value."""
    m = _check_alpha(l, alpha)
    if n**l > VERTEX_CAP:
        raise SizeCapError(f"johnson_cayley_graph caps at n^l <= {VERTEX_CAP}")
    verts = list(itertools.product(range(n), repeat=l))
    N = len(verts)
    denom = comb(l, m)
    # the weight of a pair that differs in `diff` coordinates, 0 above m
    weight = np.array([comb(l - diff, m - diff) / denom * n**(-m)
                       if diff <= m else 0.0 for diff in range(l + 1)])
    X = np.array(verts, dtype=np.int64).reshape(N, l)
    diff = np.zeros((N, N), dtype=np.int8)
    for c in range(l):
        diff += X[:, c, None] != X[:, c]
    W = weight[diff]
    return WeightedGraph(N, W, tuple(verts),
                         {"family": "cayley", "n": n, "l": l, "alpha": alpha})


def _check_alpha(l: int, alpha: float) -> int:
    """alpha * l, once alpha lies in (0, 1] and alpha * l is an integer."""
    if not (0.0 < alpha <= 1.0):
        raise ParameterError("alpha must lie in (0, 1]")
    m = alpha * l
    if abs(m - round(m)) > 1e-9:
        raise ParameterError(f"alpha*l = {m} must be an integer")
    return round(m)


# ---------------------------------------------------------------------------
# Spectral utilities
# ---------------------------------------------------------------------------

def spectral_decompose(g: WeightedGraph) -> SpectralData:
    """Eigendecomposition of the walk matrix via the symmetrized form
    D^(1/2) T D^(-1/2); eigenvalues within 1e-9 of [-1,1] are clamped."""
    if g.num_vertices > VERTEX_CAP:
        raise SizeCapError(f"spectral_decompose caps at {VERTEX_CAP} vertices")
    deg = g.degrees
    total = deg.sum()
    if total <= 0:
        raise ParameterError("degenerate graph: zero total weight")
    if np.any(deg <= 0):
        raise ParameterError("degenerate graph: isolated vertex")
    pi = deg / total
    s = np.sqrt(deg)
    S = g.W / np.outer(s, s)
    lam, phi = np.linalg.eigh(S)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    phi = phi[:, order]
    if np.any(np.abs(lam) > 1.0 + 1e-9):
        raise ParameterError("walk eigenvalue outside [-1,1] beyond tolerance")
    lam = np.clip(lam, -1.0, 1.0)
    V = (phi / s[:, None]) * np.sqrt(total)
    return SpectralData(pi=pi, eigenvalues=lam, eigenvectors=V,
                        transition=g.W / deg[:, None])


@dataclass(frozen=True)
class ExpansionReport:
    dirichlet: float      # <f, Lf>_pi
    mean: float           # E_pi[f]
    phi: float | None     # edge expansion, for 0/1-valued f


def expansion(g: WeightedGraph, spectral: SpectralData, f) -> ExpansionReport:
    """Dirichlet form <f, Lf>_pi, mean E_pi[f], and (for 0/1-valued f) the
    edge expansion phi(S) = <f, Lf>_pi / E_pi[f]."""
    f = np.asarray(f, dtype=float)
    pi, walk = spectral.pi, spectral.transition @ f
    dirichlet = float(np.sum(pi * f * f)) - float(np.sum(pi * f * walk))
    mean = float(np.sum(pi * f))
    is_indicator = np.all((np.abs(f) < 1e-12) | (np.abs(f - 1.0) < 1e-12))
    phi = None
    if is_indicator:
        if mean == 0.0:
            raise ParameterError("expansion ratio undefined: E_pi[f] = 0")
        phi = dirichlet / mean
    return ExpansionReport(float(dirichlet), mean, phi)


@dataclass(frozen=True)
class SseProfile:
    min_phi_by_size: dict
    exhaustive: bool
    argmin_by_size: dict


def sse_profile(g: WeightedGraph, delta: float, seed=None) -> SseProfile:
    """Minimum edge expansion over vertex sets of pi-measure <= delta, keyed
    by cardinality.  Exhaustive when the number of candidate sets is below
    1e7; otherwise a uniform sample of 1e6 sets, flagged as an estimate."""
    deg = g.degrees
    total = deg.sum()
    pi = deg / total
    n = g.num_vertices
    # the most vertices a set of measure <= delta can hold
    cmax = int(np.searchsorted(np.cumsum(np.sort(pi)), delta + 1e-15, "right"))
    count = sum(comb(n, c) for c in range(1, cmax + 1))
    exhaustive = count <= SSE_EXHAUSTIVE_CAP
    if exhaustive:
        # each size in bounded batches, so memory does not grow with C(n, c)
        def sized(c):
            sets = itertools.combinations(range(n), c)
            while chunk := list(itertools.islice(sets, _SSE_BATCH)):
                yield c, np.array(chunk, dtype=np.int64)
        batches = itertools.chain.from_iterable(map(sized, range(1, cmax + 1)))
    else:
        # lazy, so each size is drawn just before its 1000 sets; a set is
        # the c smallest of n uniform keys, all 1000 from one (1000, n) draw
        rng = np.random.default_rng(seed)
        sizes = (int(rng.integers(1, cmax + 1))
                 for _ in range(SSE_SAMPLE_COUNT // 1000))
        batches = ((c, np.argpartition(rng.random((1000, n)), c - 1,
                                       axis=1)[:, :c])
                   for c in sizes)
    best, arg = {}, {}
    for c, batch in batches:
        batch = batch[pi[batch].sum(axis=1) <= delta + 1e-15]
        if batch.size == 0:
            continue
        phis = _kernels.subset_cut_scan(batch, g.W, deg)
        i = int(np.argmin(phis))
        if c not in best or phis[i] < best[c]:
            best[c] = float(phis[i])
            arg[c] = tuple(int(v) for v in batch[i])
    return SseProfile(best, exhaustive, arg)

