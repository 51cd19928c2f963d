"""Constraint-graph generators and spectral utilities.

Families: the noisy hypercube, the short-code graph, the Johnson graph, and
its Cayley approximation on [n]^l.  Spectral utilities: eigendecomposition of
the random-walk matrix in the stationary inner product, expansion / Dirichlet
forms and exhaustive small-set expansion profiles.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from math import comb

import numpy as np

from ugsos import _kernels
from ugsos.errors import ParameterError, SizeCapError

# the most vertices a generator builds or spectral_decompose takes: each
# holds a dense N x N float64 weight matrix (800 MB at the cap)
VERTEX_CAP = 10**4
SSE_EXHAUSTIVE_CAP = 10**7
SSE_SAMPLE_COUNT = 10**6
# WeightedGraph compares W with W^T in row blocks of about this many entries,
# so that its check allocates no N x N temporary
SYMMETRY_BLOCK = 1 << 20


def _is_symmetric(W: np.ndarray, atol: float) -> bool:
    """Whether max |W - W^T| <= atol, absolutely (False when W holds a NaN
    or an infinity), read in row blocks of about SYMMETRY_BLOCK entries."""
    n = len(W)
    step = max(1, SYMMETRY_BLOCK // max(n, 1))
    with np.errstate(invalid="ignore"):             # inf - inf
        return all(np.abs(W[i:i + step] - W[:, i:i + step].T).max(initial=0.0)
                   <= atol for i in range(0, n, step))


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


def _affine_products(d: int, n: int):
    """All products of d affine forms over F_2^n with linearly independent
    linear parts (no nonempty subset of them XORs to 0), as multilinear
    monomial-sets (frozensets of variable sets)."""

    def multiply(poly: frozenset, a: int, b: int) -> frozenset:
        # poly * (sum_{i in a} x_i + b) in the multilinear quotient (x^2 = x)
        acc = set()
        for mono in poly:
            for i in range(n):
                if a >> i & 1:
                    m = mono | {i}
                    acc ^= {frozenset(m)}
            if b:
                acc ^= {mono}
        return frozenset(acc)

    forms = [(a, b) for a in range(1, 1 << n) for b in (0, 1)]
    products = set()
    for combo in itertools.combinations(forms, d):
        linear = [a for (a, _) in combo]
        if not all(functools.reduce(operator.xor, sub) for r in range(1, d + 1)
                   for sub in itertools.combinations(linear, r)):
            continue
        poly = frozenset({frozenset()})
        for (a, b) in combo:
            poly = multiply(poly, a, b)
        if poly:
            products.add(poly)
    return products


def shortcode_graph(d: int, n: int) -> WeightedGraph:
    """Short-code graph: vertices are degree-<=d multilinear polynomials over
    F_2^n; p and q are adjacent in the base graph when p - q factors as a
    product of d linearly independent affine forms.  Returns the one-step
    random-walk matrix of the base graph."""
    if not (1 <= d < n <= 4):
        raise SizeCapError("shortcode_graph requires 1 <= d < n <= 4")
    monos = [frozenset(c) for r in range(d + 1)
             for c in itertools.combinations(range(n), r)]
    if len(monos) > 12:
        raise SizeCapError("short-code vertex count exceeds 2^12")
    mono_bit = {m: i for i, m in enumerate(monos)}

    def mask(poly: frozenset) -> int:
        out = 0
        for m in poly:
            out |= 1 << mono_bit[m]
        return out

    diff_masks = {mask(p) for p in _affine_products(d, n)}
    N = 1 << len(monos)
    A = np.zeros((N, N))
    for p in range(N):
        for dm in diff_masks:
            A[p, p ^ dm] = 1.0
    W = A / A.sum(axis=1, keepdims=True)
    return WeightedGraph(N, W, tuple(range(N)),
                         {"family": "shortcode", "d": d, "n": n})


def johnson_graph(n: int, l: int, alpha: float) -> WeightedGraph:
    """Johnson graph J_{n,l,alpha}: vertices are l-subsets of [n], adjacency
    iff the intersection has size (1-alpha)l.  Unit weights."""
    _check_alpha(l, alpha)
    if not l < n:
        raise ParameterError("need l < n")
    if comb(n, l) > VERTEX_CAP:
        raise SizeCapError(f"johnson_graph caps at C(n,l) <= {VERTEX_CAP}")
    target = round((1.0 - alpha) * l)
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
    _check_alpha(l, alpha)
    if n**l > VERTEX_CAP:
        raise SizeCapError(f"johnson_cayley_graph caps at n^l <= {VERTEX_CAP}")
    m = round(alpha * l)
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


def _check_alpha(l: int, alpha: float):
    if not (0.0 < alpha <= 1.0):
        raise ParameterError("alpha must lie in (0, 1]")
    if abs(alpha * l - round(alpha * l)) > 1e-9:
        raise ParameterError(f"alpha*l = {alpha * l} must be an integer")


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
    order = np.sort(pi)
    cmax = 0
    acc = 0.0
    for c in range(1, n + 1):
        acc += order[c - 1]
        if acc <= delta + 1e-15:
            cmax = c
        else:
            break
    count = sum(comb(n, c) for c in range(1, cmax + 1))
    exhaustive = count <= SSE_EXHAUSTIVE_CAP
    if exhaustive:
        batches = ((c, np.array(list(itertools.combinations(range(n), c)),
                                dtype=np.int64)) for c in range(1, cmax + 1))
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

