"""Fourier analysis on the Johnson graph and its Cayley approximation,
closed-form eigenvalues, the structure-theorem inequality, subcube search,
and the end-to-end subcube rounding pipeline.

The Cayley approximation C_{n,l,alpha} lives on [n]^l and resamples a random
alpha*l-subset of coordinates; its eigenvalues have the closed binomial form
of `johnson_eigenvalue` and its functions decompose into levels by the number
of coordinates a character touches.  The level decomposition here works with
real restriction densities and inclusion-exclusion, not character sums, so
the closed-form eigenvalues double as an independent cross-check.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from ugsos.errors import ParameterError, SizeCapError
from ugsos.graphs import WeightedGraph, _check_alpha, johnson_cayley_graph
from ugsos.instances import UgInstance
from ugsos.rounding import (RoundingOutcome, _conditioned, _edge_arrays,
                            _score, cond_marginals, partial_to_full)
from ugsos.sos import PseudoExpectation

LEVEL_CAP = 4 * 10**5
SUBCUBE_CAP = 10**5
LEVEL_BOUND_SLACK = 1e-8


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def johnson_eigenvalue(l: int, alpha: float, t: int) -> float:
    """Walk eigenvalue of C_{n,l,alpha} on characters touching t coordinates:
    C(l-t, (1-alpha)l-t) / C(l, (1-alpha)l), zero once t exceeds (1-alpha)l."""
    if not 0 <= t <= l:
        raise ParameterError(f"character degree t = {t} outside [0, {l}]")
    m = _check_alpha(l, alpha)
    keep = l - m  # (1 - alpha) * l
    if t > keep:
        return 0.0
    return comb(l - t, keep - t) / comb(l, keep)


def eigenvalue_multiset(n: int, l: int, alpha: float) -> np.ndarray:
    """All n^l walk eigenvalues of C_{n,l,alpha} with multiplicities
    C(l,t) (n-1)^t, sorted descending."""
    vals = []
    for t in range(l + 1):
        vals.extend([johnson_eigenvalue(l, alpha, t)] * (comb(l, t) * (n - 1)**t))
    return np.sort(np.array(vals))[::-1]


def subcube_expansion(l: int, alpha: float, r: int) -> float:
    """Edge expansion of an r-restricted subcube of the Johnson graph:
    phi = 1 - C(l-r, alpha*l)/C(l, alpha*l), whatever the ground-set size."""
    m = _check_alpha(l, alpha)
    if not 0 <= r <= l - 1:
        raise ParameterError(f"restriction size r = {r} outside [0, {l - 1}]")
    if l - r < m:
        return 1.0
    return 1.0 - comb(l - r, m) / comb(l, m)


def _check_degree(D: int):
    """Raise ParameterError unless `johnson_pipeline` rounds degree D."""
    if D not in (2, 4):
        raise ParameterError("johnson_pipeline supports D in {2, 4}")


def _check_eps(eps: float):
    """Raise ParameterError unless eps is finite and >= 0."""
    if not (math.isfinite(eps) and eps >= 0):
        raise ParameterError(f"eps must be finite and >= 0, got {eps}")


def expansion_bound_check(l: int, alpha: float, eps: float):
    """r = floor(32 eps / alpha) and the bound phi(J|_A) <= 200 eps, valid
    when r <= l/4.  Returns (r, phi, bound holds or None if r out of range).
    Raises ParameterError unless eps is finite and >= 0."""
    _check_alpha(l, alpha)
    _check_eps(eps)
    r = math.floor(32.0 * eps / alpha)
    if r > l / 4 or r > l - 1:
        return r, None, None
    phi = subcube_expansion(l, alpha, r)
    return r, phi, phi <= 200.0 * eps


# ---------------------------------------------------------------------------
# Subcubes and restriction densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubcubeId:
    """The restricted subcube J|_A of a Johnson graph: A = `elements`, a set
    of distinct nonnegative ground-set elements that every vertex (an l-set)
    must contain.  The empty A is the whole graph."""

    elements: tuple

    def __post_init__(self):
        elems = tuple(int(e) for e in self.elements)
        if len(set(elems)) != len(elems):
            raise ParameterError("restriction elements must be distinct")
        if any(e < 0 for e in elems):
            raise ParameterError("restriction elements must be nonnegative")
        object.__setattr__(self, "elements", elems)


def subcube_vertices(graph: WeightedGraph, sub: SubcubeId) -> list:
    """Vertex indices of the subcube in the graph's labeling."""
    a = set(sub.elements)
    return [i for i, lab in enumerate(graph.labels) if a <= set(lab)]


def restriction_density(F: np.ndarray, A, n: int | None = None,
                        l: int | None = None) -> float:
    """delta_A(F): the mean of F over the subcube restricted by A.

    F is a flat vector over the C(n,l) l-subsets in lexicographic
    combination order (A is a subset every vertex must contain; n and l are
    then required)."""
    F = np.asarray(F, dtype=float)
    A = tuple(int(a) for a in A)
    if not A:
        return float(np.mean(F))
    if n is None or l is None:
        raise ParameterError("flat set-indexed F needs n and l")
    a = set(A)
    vals = [F[i] for i, verts in enumerate(itertools.combinations(range(n), l))
            if a <= set(verts)]
    if not vals:
        raise ParameterError(f"restriction {A} matches no vertex")
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Level decomposition on [n]^l
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelDecomposition:
    levels: tuple            # F_0..F_l as tensors on [n]^l
    level_weights: tuple     # eta_i = <F_i, F_i>_pi
    reduced: tuple           # f_{i,F} as tensors on [n]^i
    densities: tuple         # D_j: mean over all but the first j coordinates
    parseval_residual: float
    pointwise_residual: float
    c6_residual: float


def _is_permutation_invariant(F: np.ndarray) -> bool:
    # the adjacent transpositions generate the symmetric group
    return all(np.allclose(F, np.swapaxes(F, i, i + 1), atol=1e-10)
               for i in range(F.ndim - 1))


def level_decompose(F: np.ndarray) -> LevelDecomposition:
    """Split F on [n]^l into level functions by inclusion-exclusion over
    restriction densities: f_i(X) = sum_{B subset [i]} (-1)^(i-|B|) D_|B|(X_B)
    and F_i(X) = sum_{|I|=i} f_i(X|_I).  F must be permutation-invariant, as
    D_|B| stands at every axis subset B (ParameterError otherwise).  The
    level sums add 2^l tensors of n^l entries, so 2^l n^l is capped at
    `LEVEL_CAP` (SizeCapError)."""
    F = np.asarray(F, dtype=float)
    l, n = F.ndim, F.shape[0]
    if 2**l * F.size > LEVEL_CAP:
        raise SizeCapError(
            f"level_decompose caps at 2^l n^l <= {LEVEL_CAP}")
    if not _is_permutation_invariant(F):
        raise ParameterError("level_decompose needs a permutation-invariant F")
    # D_j: average over the last l - j axes
    D = [F.mean(axis=tuple(range(j, l))) if j < l else F for j in range(l + 1)]
    # f_i on [n]^i by inclusion-exclusion; broadcasting D_|B| onto axes B
    reduced = []
    for i in range(l + 1):
        f = np.zeros((n,) * i)
        for rsize in range(i + 1):
            for B in itertools.combinations(range(i), rsize):
                shape = [n if ax in B else 1 for ax in range(i)]
                f = f + (-1) ** (i - rsize) * np.reshape(D[rsize], shape)
        reduced.append(f)
    # F_i = sum over i-subsets I of axes of f_i(X|_I)
    levels = []
    for i in range(l + 1):
        Fi = np.zeros((n,) * l)
        for I in itertools.combinations(range(l), i):
            shape = [n if ax in I else 1 for ax in range(l)]
            Fi = Fi + reduced[i].reshape(shape)
        levels.append(Fi)
    eta = tuple(float(np.mean(Fi**2)) for Fi in levels)
    parseval = abs(sum(eta) - float(np.mean(F**2)))
    pointwise = float(np.max(np.abs(sum(levels) - F)))
    c6 = max(abs(eta[i] - comb(l, i) * float(np.mean(reduced[i]**2)))
             for i in range(l + 1))
    return LevelDecomposition(tuple(levels), eta, tuple(reduced), tuple(D),
                              parseval, pointwise, c6)


@dataclass(frozen=True)
class LevelBoundReport:
    rows: tuple   # (i, eta_i, bound_i, holds)

    @property
    def passed(self) -> bool:
        return all(r[3] for r in self.rows)


def _mean_sq_density(F: np.ndarray, j: int) -> float:
    """E over j-subsets Y of [n] of delta_Y(F)^2, via the density tensor."""
    if j == 0:
        return float(np.mean(F)) ** 2
    n = F.shape[0]
    l = F.ndim
    Dj = F.mean(axis=tuple(range(j, l)))
    total = cnt = 0.0
    for Y in itertools.combinations(range(n), j):
        total += Dj[Y] ** 2
        cnt += 1
    return total / cnt


def level_weight_bound_check(F: np.ndarray, r: int) -> LevelBoundReport:
    """eta_i <= 2^i C(l,i) sum_{j<=i} C(i,j) E_Y[delta_Y(F)^2] for i <= r,
    each within LEVEL_BOUND_SLACK."""
    F = np.asarray(F, dtype=float)
    dec = level_decompose(F)
    l = F.ndim
    msq = [_mean_sq_density(F, j) for j in range(min(r, l) + 1)]
    rows = []
    for i in range(min(r, l) + 1):
        bound = 2**i * comb(l, i) * sum(comb(i, j) * msq[j]
                                        for j in range(i + 1))
        rows.append((i, dec.level_weights[i], bound,
                     dec.level_weights[i] <= bound + LEVEL_BOUND_SLACK))
    return LevelBoundReport(tuple(rows))


# ---------------------------------------------------------------------------
# Structure theorem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureReport:
    variant: str
    lhs: float           # <F, L F>_pi
    rhs: float           # the structure lower bound
    residual: float      # lhs - rhs
    mean: float
    density_term: float
    booleanity_term: float
    order_n_slack: float | None  # J-variant only: the unquantified O(1/n) part

    @property
    def holds(self) -> bool:
        return self.residual >= -1e-8


def structure_inequality_check(F: np.ndarray, r: int, n: int, l: int,
                               alpha: float, variant: str = "C",
                               graph: WeightedGraph | None = None) -> StructureReport:
    """<F, LF>_pi >= (1-(1-alpha)^(r+1)) [E F - 8^r C(l,r) sum_{j<=r}
    E_Y[delta_Y(F)^2] + B(F)] with B(F) = E[F^2 - F].

    For the C-variant the inequality is exact and `holds` must be True; for
    the J-variant the bound carries an unquantified (1 - O_l(1/n)) factor on
    E F, so the report exposes that slack separately instead of asserting."""
    F = np.asarray(F, dtype=float)
    if np.any(F < -1e-12) or np.any(F > 1.0 + 1e-12):
        raise ParameterError("structure check needs F valued in [0,1]")
    if variant not in ("C", "J"):
        raise ParameterError(f"unknown variant {variant!r}")
    if graph is None:
        if variant != "C":
            raise ParameterError("J-variant needs the Johnson graph")
        graph = johnson_cayley_graph(n, l, alpha)
    T = graph.transition()
    deg = graph.degrees
    pi = deg / deg.sum()
    flat = F.reshape(-1)
    mean = float(pi @ flat)
    lhs = float(pi @ (flat * (flat - T @ flat)))
    boolean = float(pi @ (flat**2 - flat))
    if variant == "C":
        density = sum(_mean_sq_density(F, j) for j in range(r + 1))
    else:
        density = 0.0
        for j in range(r + 1):
            vals = [restriction_density(flat, Y, n, l) ** 2
                    for Y in itertools.combinations(range(n), j)]
            density += float(np.mean(vals))
    factor = 1.0 - (1.0 - alpha) ** (r + 1)
    rhs = factor * (mean - 8**r * comb(l, r) * density + boolean)
    slack = None
    if variant == "J":
        # the unquantified O_l(1/n) term scales the mean
        slack = factor * mean / n
    return StructureReport(variant, lhs, rhs, lhs - rhs, mean,
                           density, boolean, slack)


# ---------------------------------------------------------------------------
# Subcube search and pipeline
# ---------------------------------------------------------------------------

def find_best_subcube(pE, inst: UgInstance, graph: WeightedGraph,
                      r_max: int):
    """Maximize `cr_val` over restricted subcubes J|_A, |A| <= r_max (pE
    conditioned once); ties go to smaller |A|, then lexicographic A."""
    n = graph.meta.get("n")
    if n is None:
        raise ParameterError("graph lacks Johnson metadata")
    if comb(n, max(r_max, 1)) > SUBCUBE_CAP:
        raise SizeCapError(f"subcube search caps at C(n, r) <= {SUBCUBE_CAP}")
    cond = cond_marginals(pE)
    best = None
    for r in range(r_max + 1):
        for A in itertools.combinations(range(n), r):
            sub = SubcubeId(A)
            verts = subcube_vertices(graph, sub)
            if len(verts) < 2:
                continue
            try:
                edges = _edge_arrays(inst, verts)
            except ParameterError:
                continue  # no internal edges
            cv = float(np.mean(_score(_conditioned(cond, verts), edges)))
            if best is None or cv > best[1] + 1e-15:
                best = (sub, cv)
    if best is None:
        raise ParameterError("no subcube has internal edges")
    return best


def johnson_pipeline(inst: UgInstance, pE: PseudoExpectation,
                     graph: WeightedGraph, eps: float,
                     r_override: int | None = None) -> RoundingOutcome:
    """Round a solved degree-D table (D in {2, 4}, shift-symmetric, as
    `solve_sdp` returns it) on the Johnson graph `graph`: repeatedly round
    the restricted subcube of best CR value and rerandomize it, until the
    running value drops below 1 - 2*eps (`partial_to_full`).

    Subcubes J|_A range over |A| <= r, with the restriction budget
    r = min(floor(32 eps/alpha), floor(l/4)) unless `r_override` sets it.
    The budget is 0 for every l < 4, so on J(n, 2) and J(n, 3) the search
    scores only the whole graph and the first step rounds every vertex;
    `r_override` is the way into the restriction regime there.  The choice
    is driven by measured CR values, so the paper's beta = 201 eps plays no
    part.  Raises ParameterError unless eps is finite and >= 0, with or
    without `r_override`."""
    _check_degree(pE.degree)
    meta = graph.meta
    if meta.get("family") != "johnson":
        raise ParameterError("johnson_pipeline needs a Johnson graph")
    l, alpha = meta["l"], meta["alpha"]
    _check_eps(eps)
    r = (min(math.floor(32.0 * eps / alpha), math.floor(l / 4))
         if r_override is None else r_override)

    def subroutine(mu):
        sub, cv = find_best_subcube(mu, inst, graph, r)
        verts = subcube_vertices(graph, sub)
        return verts, {"cr_val": cv, "subcube": sub.elements}

    return partial_to_full(inst, pE, subroutine, eps)
