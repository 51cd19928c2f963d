"""Degree-D sum-of-squares moment relaxation of the unique-games integer
program in the charge basis, solved by `admm`, and the pseudodistribution
calculus (evaluation, symmetrization, conditioning, independent copies,
rerandomization, validity checking) over the index and tables of `basis`.

A pseudoexpectation is its index plus one float64 array of moments in id
order, whether it comes from the solver, a point mass, a mixture, a JSON file
or the calculus; symmetrize, rerandomize, condition, the moment matrix and the
partition table are gathers from that array.  The array fills by degree
block (block d = ids offset[d]:offset[d+1]) on first read: `_array(d)`
fills blocks 0..d and returns that prefix, `_array()` the whole table.  The
solver's table (one FFT per block), a rerandomized one (a gather from the
base's blocks <= d) and a product copy (products of the base's moments)
fill lazily; every other table is filled when it is made.  So a reader
pays only for the degrees it reads: the rounding reads pair moments, the
conditioned shift potential triples.  A key becomes an id through a key ->
id map (`moment`, and through it `evaluate` and `pe`, canonicalizes first; a
product copy multiplies the base's moments at the key's two parts and fills
nothing) or a `basis` table (`MomentIndex.mul` for `condition`'s products,
`_halves` for a product copy's parts).  `pair_moments` reshapes blocks 1 and
2 into the pairwise tensor that the rounding, the potentials, the
shift-symmetry check and `edge_agreement` (the value, edge by edge) read.

Relaxation
----------
`build_relaxation` states the SDP over `basis._ChargeLayout`, with the UG
objective over its coordinates; `DIM_CAP` bounds the full-basis dimension.
`solve_sdp` solves it by `admm.solve`, which pins y[0] = yhat(empty) = 1;
as |yhat(g)| <= 1 (pseudo-Cauchy-Schwarz), the solver's r bounds the SDP
value, and OPT, from above (`_ChargeLayout.upper_bound`).  The full-label
table is one FFT per degree (`_full_moments_from_reduced`) over the grid of
`basis._fft_ids`, each run when its block is first read.

Validation
----------
`validate` reads the smallest moment-matrix eigenvalue from the charge
blocks of `basis._ChargeFrame`.  Round-off leaves an off-charge part E, and
by Weyl's inequality lambda_min(M) >= min over the blocks of
lambda_min - ||E||_F; for a product copy E = E_b (x) Mt_b + B_b (x) E_b
restricted to the product basis (B_b, E_b the base's blocks and off-charge
part), so ||E||_F <= sqrt(2) ||E_b||_F ||M_b||_F.  A self-conjugate block
takes a real `eigvalsh` (`_real_form`); the imaginary round-off it drops
lies inside the blocks, E outside, and the Weyl term is the Frobenius norm
of both, with the round-off of a self-conjugate product block counted
again for its unsolved swap image when c_0 != c_1.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ugsos import _kernels, admm
from ugsos.basis import (MomentIndex, _ChargeLayout, _charge_frame,
                         _charge_layout, _fft_ids, _halves, _index_size,
                         _product_ids, _real_form, moment_index)
from ugsos.errors import DegreeError, NullEventError, ParameterError, SizeCapError
from ugsos.instances import UgInstance

DIM_CAP = 4000
COND_FLOOR = 1e-9
SYM_CHECK_TOL = 1e-6
# `validate` splits a moment matrix by charge when its off-charge part is at
# most this fraction of its Frobenius norm: round-off leaves 1-4 u on a
# shift-symmetric table, u = 2^-53, a table that is not one leaves O(1).
CHARGE_SPLIT_TOL = 1e-12


# ---------------------------------------------------------------------------
# Monomial algebra
# ---------------------------------------------------------------------------

def canon_key(pairs):
    """Canonical form of a product of indicator variables.

    `pairs` is an iterable of (vertex, label) or (vertex, label, copy).
    Returns the sorted, collapsed key, or None for the zero monomial (two
    different labels at the same vertex/copy)."""
    seen = {}
    for p in pairs:
        if len(p) == 2:
            v, a = p
            c = 0
        else:
            v, a, c = p
        if (v, c) in seen:
            if seen[(v, c)] != a:
                return None
        else:
            seen[(v, c)] = a
    return tuple(sorted((v, a, c) for (v, c), a in seen.items()))


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            km = None if k1 is None or k2 is None else canon_key(k1 + k2)
            if km is not None:
                out[km] = out.get(km, 0.0) + c1 * c2
    return out


# -- standard polynomials ---------------------------------------------------

def ug_objective_poly(inst: UgInstance) -> dict:
    """E_{(u,v)~E} sum_a X_{u,a} X_{v,a - shift}: the UG value polynomial."""
    out: dict = {}
    k = inst.k
    for (u, v, w, s) in inst.edges:
        cw = w / inst.total_weight
        for a in range(k):
            key = canon_key(((u, a, 0), (v, (a - s) % k, 0)))
            out[key] = out.get(key, 0.0) + cw
    return out


# ---------------------------------------------------------------------------
# PseudoExpectation
# ---------------------------------------------------------------------------

class _Moments(Mapping):
    """Read-only view of a table's moments, canonical key -> value, in id
    order."""

    def __init__(self, pE: "PseudoExpectation"):
        self._pE = pE

    def __getitem__(self, key):
        pE = self._pE
        return pE._array().item(pE.index.id_of[key])

    def __iter__(self):
        return iter(self._pE.index.keys)

    def __len__(self):
        return len(self._pE.index)


class PseudoExpectation:
    """Moment table of a degree-D pseudoexpectation over canonical keys: one
    float64 array over `moment_index(num_vertices, k, degree, copy_count)`.

    `moments` is that array, or a mapping from canonical keys to values that
    is scattered into it once (keys it omits read as 0), or None for a table
    that `_fill(d)` fills block by block on first read (module docstring).
    A product copy (see `product_copy`) is a view of its base table `_base`.
    Immutable by convention: all calculus operations return new
    objects.
    """

    def __init__(self, degree: int, k: int, num_vertices: int, moments,
                 copy_count: int = 1, flags=None,
                 _base: "PseudoExpectation | None" = None, _fill=None):
        self.degree, self.k, self.num_vertices = degree, k, num_vertices
        self.copy_count = copy_count
        self.flags = {} if flags is None else flags
        self._base = _base  # set for product-copy views
        if isinstance(moments, Mapping):
            ids = self.index.id_of
            values = np.zeros(len(ids))
            values[[ids[key] for key in moments]] = list(moments.values())
            moments = values
        self._values = moments      # None until a lazy table's first fill
        self._fill = _fill          # block d's values, for a lazy table
        self._filled = degree if _fill is None else -1   # blocks in _values

    @property
    def moments(self) -> Mapping:
        return _Moments(self)

    @property
    def index(self) -> MomentIndex:
        return moment_index(self.num_vertices, self.k, self.degree,
                            self.copy_count)

    def _array(self, degree: int | None = None) -> np.ndarray:
        """The moments of degree <= `degree` (default: all) in id order, a
        prefix of the table, after filling the blocks not yet filled."""
        top = self.degree if degree is None else degree
        offset = self.index.offset
        if self._filled < top:
            if self._values is None:
                self._values = np.empty(len(self.index))
            for d in range(self._filled + 1, top + 1):
                self._values[offset[d]:offset[d + 1]] = self._fill(d)
                self._filled = d
            if top == self.degree:
                self._fill = None   # the sources it holds can go
        return (self._values if top == self.degree
                else self._values[:offset[top + 1]])

    def moment(self, key) -> float:
        """pE[key] for a monomial spelled as (vertex, label) pairs or
        (vertex, label, copy) triples in any order; 0.0 for the zero
        monomial (None, or two labels at one vertex and copy).  Raises
        DegreeError above the degree and ParameterError for a vertex, label
        or copy outside the table."""
        key = None if key is None else canon_key(key)
        if key is None:
            return 0.0
        d = len(key)
        if self._base is not None:
            # the base's moments at the two copies' parts, from the base's
            # key map, which a key outside the table misses; nothing fills
            parts = [tuple([(v, a, 0) for v, a, c in key if c == copy])
                     for copy in (0, 1)]
            i, j = map(self._base.index.id_of.get, parts)
            if None in (i, j) or d > self.degree or sum(map(len, parts)) < d:
                self._check(key)    # raises
            values = self._base._array(d)
            return values.item(i) * values.item(j)
        i = self.index.id_of.get(key)
        if i is None:
            self._check(key)    # raises: every key in the table has an id
        if self._filled < d:
            self._array(d)
        return self._values.item(i)

    def _check(self, key):
        """Raise DegreeError for a canonical key above the degree and
        ParameterError for one outside the table: else the key has an id."""
        if len(key) > self.degree:
            raise DegreeError(
                f"monomial degree {len(key)} exceeds budget {self.degree}")
        if any(v not in range(self.num_vertices) or a not in range(self.k)
               or c not in range(self.copy_count) for (v, a, c) in key):
            raise ParameterError(f"monomial {key} is outside the table")

    def pe(self, poly: dict) -> float:
        """Linear extension of the moment mapping: `evaluate(self, poly)`."""
        return evaluate(self, poly)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        items = sorted(self.moments.items())
        return json.dumps({
            "degree": self.degree,
            "k": self.k,
            "n": self.num_vertices,
            "copy_count": self.copy_count,
            "moments": [[[list(p) for p in key], val] for key, val in items],
        })

    @classmethod
    def from_json(cls, text: str) -> "PseudoExpectation":
        """Load a table written by `to_json`.  Raises ParameterError unless
        it holds exactly the canonical keys of degree <= D (a missing one
        would read as 0), each with a value that is finite in float64."""
        try:
            d = json.loads(text)
            degree, k, n = d["degree"], d["k"], d["n"]
            copies = d.get("copy_count", 1)
            moments = {tuple(tuple(p) for p in key): val
                       for key, val in d["moments"]}
        except (ValueError, TypeError, KeyError) as exc:
            raise ParameterError(f"malformed pseudoexpectation file: {exc}")
        header = (degree, k, n, copies)
        if (any(type(x) is not int or x < 0 for x in header)
                or copies not in (1, 2)):
            raise ParameterError(f"bad pseudoexpectation header {header}")
        size = _index_size(n, k, degree, copies)
        if len(moments) != size:
            raise ParameterError(f"table has {len(moments)} of {size} moments")
        known = moment_index(n, k, degree, copies).id_of
        for key, val in moments.items():
            if (key not in known or type(val) not in (int, float)
                    or not abs(val) <= float(np.finfo(float).max)
                    or any(type(x) is not int for p in key for x in p)):
                raise ParameterError(f"bad moment entry {key}: {val!r}")
        return cls(degree=degree, k=k, num_vertices=n, moments=moments,
                   copy_count=copies)


def evaluate(pE: PseudoExpectation, poly) -> float:
    """Linear extension of the moment mapping: sum of coef * pE.moment(mono)
    over `poly`, a mapping from monomials (any spelling `moment` reads) to
    coefficients, added in order."""
    return sum((coef * pE.moment(mono) for mono, coef in poly.items()), 0.0)


def point_mass_pe(num_vertices: int, k: int, x, degree: int = 4) -> PseudoExpectation:
    """Moment table of the point mass on the integral assignment x: a moment
    is 1 where every pair of its key agrees with x, and 0 elsewhere.
    Raises ParameterError unless x has one label in [0, k) per vertex."""
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (num_vertices,):
        raise ParameterError(
            f"assignment has length {x.shape}, expected {num_vertices}")
    if np.any((x < 0) | (x >= k)):
        raise ParameterError("assignment entries must lie in [0, k)")
    L = moment_index(num_vertices, k, degree).slots
    values = ((L == 0) | (L == x + 1)).all(axis=1).astype(float)
    return PseudoExpectation(degree, k, num_vertices, values,
                             flags={"mixture": ((1.0, tuple(x.tolist())),)})


def mixture_pe(num_vertices: int, k: int, weighted_assignments,
               degree: int = 4) -> PseudoExpectation:
    """Moment table of a finite mixture of point masses: their weighted sum,
    added in the given order.  Raises ParameterError on a negative weight
    or a total weight that is not positive."""
    total = sum(w for (w, _) in weighted_assignments)
    if any(w < 0 for (w, _) in weighted_assignments) or not total > 0:
        raise ParameterError("mixture weights must be >= 0, with sum > 0")
    acc = np.zeros(len(moment_index(num_vertices, k, degree)))
    for (w, x) in weighted_assignments:
        acc += (w / total) * point_mass_pe(num_vertices, k, x, degree)._array()
    comps = tuple((w / total, tuple(int(v) for v in x))
                  for (w, x) in weighted_assignments)
    return PseudoExpectation(degree, k, num_vertices, acc,
                             flags={"mixture": comps})


# ---------------------------------------------------------------------------
# Relaxation
# ---------------------------------------------------------------------------

@dataclass
class SdpProblem:
    """The degree-D relaxation in the charge basis: the charge monomials of
    the matrix basis and of the moments (slot entry = charge), the layout,
    and the objective over the coordinates."""

    inst: UgInstance
    degree: int
    rbasis: MomentIndex
    rmoments: MomentIndex
    layout: _ChargeLayout
    objective_vec: np.ndarray     # over the real coordinates (maximize c.y)


def _charge_objective(inst: UgInstance, layout: _ChargeLayout) -> np.ndarray:
    """The UG objective over the coordinates: [x_u - x_v = s] is
    (1/k) sum_j omega^(-js) chi_u^j chi_v^(-j)."""
    k = inst.k
    c = np.zeros(layout.size)
    c[0] = 1.0 / k
    eu, ev, w, s = inst._arrays
    j = np.arange(1, k)
    # chi_u^j is the charge monomial of degree 1 with id 1 + u (k-1) + j - 1
    m = layout.position(layout.rmoments.mul(
        eu[:, None] * (k - 1) + j, ev[:, None] * (k - 1) + k - j).ravel())
    coef = ((w / inst.total_weight / k)[:, None]
            * np.exp(-2j * np.pi * np.outer(s, j) / k)).ravel()
    np.add.at(c, layout.re[m], coef.real)
    np.add.at(c, layout.im[m], -layout.sign[m] * coef.imag)
    return c


def build_relaxation(inst: UgInstance, D: int) -> SdpProblem:
    """Degree-D moment relaxation of the UG integer program."""
    if D not in (2, 4, 6):
        raise ParameterError("D must be one of {2, 4, 6}")
    n, k = inst.num_vertices, inst.k
    full_dim = _index_size(n, k, D // 2)
    if full_dim > DIM_CAP:
        raise SizeCapError(
            f"moment-matrix dimension {full_dim} exceeds cap {DIM_CAP}")
    layout = _charge_layout(n, k, D)
    return SdpProblem(inst=inst, degree=D, rbasis=layout.rbasis,
                      rmoments=layout.rmoments, layout=layout,
                      objective_vec=_charge_objective(inst, layout))


def _full_moments_from_reduced(yhat: np.ndarray, n: int, k: int, D: int,
                               d: int | None = None) -> np.ndarray:
    """The canonical full-label moments of degree d (of every degree <= D
    when d is None), in id order, from the complex charge moments yhat over
    `moment_index(n, k - 1, D)`: pE[prod_{u in S} X_{u,a_u}] =
    k^-|S| sum_g omega^(-g.a) yhat(g) over g in Z_k^S, one `np.fft.fftn`
    per degree over the (C(n,d), k, ..., k) layout of the ids."""
    if d is None:
        return np.concatenate([_full_moments_from_reduced(yhat, n, k, D, e)
                               for e in range(D + 1)])
    block = yhat[_fft_ids(n, k, D, d)].reshape((-1,) + (k,) * d)
    if d:
        block = np.fft.fftn(block, axes=tuple(range(1, d + 1))) / k**d
    return block.real.ravel()


def solve_sdp(problem: SdpProblem, tol: float = 1e-7,
              max_iters: int = admm.ADMM_MAX_ITERS) -> PseudoExpectation:
    """Maximize the UG objective over shift-invariant degree-D
    pseudoexpectations by `admm.solve` (ParameterError as there) from the
    uniform independent distribution y = e_0.  Flags: "sdp_value" c.y, the
    certified "sdp_upper_bound" >= OPT (it may lie below c.y of a
    tol-feasible y), "duality_gap" c.y - r_empty, `admm.Solution`'s fields
    of the same names, and "unconverged": True if the cap was hit.  The
    table's block d is the FFT of the degree-d grid, run on first read."""
    lay, c, inst = problem.layout, problem.objective_vec, problem.inst
    sol = admm.solve(lay, c, tol, max_iters)
    yhat, D = lay.moments(sol.y), problem.degree
    n, k = inst.num_vertices, inst.k
    flags = {"sdp_value": float(c @ sol.y),
             "sdp_upper_bound": lay.upper_bound(sol.r),
             "duality_gap": float(c @ sol.y - sol.r[0]),
             "iterations": sol.iterations,
             "primal_residual": sol.primal_residual,
             "dual_residual": sol.dual_residual, "rho": sol.rho,
             "partial_projections": sol.partial_projections}
    if not sol.converged:
        flags["unconverged"] = True
    # looked up in the module at each fill, so a wrapper set there sees it
    return PseudoExpectation(
        D, k, n, None, flags=flags,
        _fill=lambda d: _full_moments_from_reduced(yhat, n, k, D, d))


# ---------------------------------------------------------------------------
# Calculus
# ---------------------------------------------------------------------------

def symmetrize(pE: PseudoExpectation) -> PseudoExpectation:
    """Uniform mixture over global label shifts: pE_sym[m] =
    (1/k) sum_s pE[m shifted by -s].  Preserves the objective; marginals
    become uniform."""
    if pE.copy_count != 1:
        raise ParameterError("symmetrize requires copy_count = 1")
    k = pE.k
    values = pE._array()
    total = np.zeros(len(values))
    for t in range(k):
        total += values[pE.index.relabel((np.arange(k) - t) % k)]
    flags = dict(pE.flags)
    if "mixture" in flags:
        # the symmetrized distribution is the shift-spread mixture
        flags["mixture"] = tuple(
            (w / k, tuple((xi + s) % k for xi in x))
            for (w, x) in flags["mixture"] for s in range(k))
    return PseudoExpectation(pE.degree, k, pE.num_vertices, total / k,
                             flags=flags)


def pair_moments(pE: PseudoExpectation) -> np.ndarray:
    """(n, n, k, k) tensor P[u, v, a, b] = pE[X_{u,a} X_{v,b}] of a
    single-copy table of degree >= 2, read from its degree-1 and degree-2
    blocks: the pairs u < v come in `np.triu_indices` order (the index's
    slot-subset order) with the labels as a base-k code, and P[u, u] is
    diag(pE[X_{u,.}]) by Booleanity and disjointness."""
    if pE.copy_count != 1 or pE.degree < 2:
        raise ParameterError(
            "pair_moments needs a single-copy table of degree >= 2")
    n, k = pE.num_vertices, pE.k
    offset, values = pE.index.offset, pE._array(2)
    pairs = values[offset[2]:offset[3]].reshape(-1, k, k)
    P = np.zeros((n, n, k, k))
    u, v = np.triu_indices(n, 1)
    P[u, v] = pairs
    P[v, u] = pairs.transpose(0, 2, 1)
    w, a = np.arange(n)[:, None], np.arange(k)
    P[w, w, a, a] = values[offset[1]:offset[2]].reshape(n, k)
    return P


def edge_agreement(pE: PseudoExpectation, inst: UgInstance) -> np.ndarray:
    """Per-edge pseudo-probability of satisfaction, in `inst.edges` order:
    pE[X_u - X_v = s] = sum_a P[u, v, a, a - s] at edge (u, v, w, s), with P
    the `pair_moments` tensor."""
    eu, ev, _, s = inst._arrays
    a = np.arange(pE.k)
    return pair_moments(pE)[eu[:, None], ev[:, None], a,
                            (a - s[:, None]) % pE.k].sum(axis=1)


def check_shift_symmetric(pE: PseudoExpectation) -> float:
    """Max deviation of the degree <= 2 moments under a global label shift
    by one; a shift-symmetric table has deviation 0.  A deviation above
    `SYM_CHECK_TOL` raises ParameterError."""
    P = pair_moments(pE)
    worst = float(np.abs(P - np.roll(P, -1, axis=(2, 3))).max())
    if worst > SYM_CHECK_TOL:
        raise ParameterError(
            f"pseudoexpectation is not shift-symmetric (deviation {worst:.3e})")
    return worst


def condition(pE: PseudoExpectation, event) -> PseudoExpectation:
    """Reweigh by the indicator monomial `event`: pE'[m] = pE[m event]/pE[event].

    The result has degree D - 2*deg(event).  Conditioning on an event with
    pseudo-probability below `COND_FLOOR` raises NullEventError (the
    "pPr = 0 means conditional = 0" convention lives inside the potential
    formulas, not here), and on one with a vertex, label or copy outside
    the table ParameterError."""
    event = canon_key(event)
    if event is None:
        raise NullEventError("conditioning on the zero monomial")
    pE._check(event)
    e, n, k, c = len(event), pE.num_vertices, pE.k, pE.copy_count
    new_deg = pE.degree - 2 * e
    if new_deg < 0:
        raise DegreeError("event too large for the degree budget")
    # ids do not depend on the degree: each from the smallest index holding it
    values, ev = pE._array(new_deg + e), moment_index(n, k, e, c).id_of[event]
    p_event = float(values[ev])
    if p_event < COND_FLOOR:
        raise NullEventError(
            f"pE[event] = {p_event:.3e} below floor {COND_FLOOR}")
    ids = moment_index(n, k, new_deg + e, c).mul(
        np.arange(len(moment_index(n, k, new_deg, c))), ev)
    new = np.where(ids < 0, 0.0, values[ids] / p_event)
    return PseudoExpectation(new_deg, k, n, new, copy_count=c,
                             flags=_solver_status(pE))


def product_copy(pE: PseudoExpectation) -> PseudoExpectation:
    """Independent second copy: pE_{X,X'}[X^a (X')^b] = pE[X^a] pE[X^b],
    a valid degree-D pseudoexpectation.

    Its 2-copy table (`moments`, `to_json`, `condition`) fills block d on
    first read: the base's moments at each key's two parts, whose ids
    `basis._halves` holds.  A scalar read (`moment`, `pe`) multiplies the
    base's moments at its key's parts and fills nothing.  `validate` never
    fills it: the charge blocks are products of the base's transformed
    moment matrix, and the partition residuals come from the base's
    residual table."""
    if pE.copy_count != 1:
        raise ParameterError("product_copy requires copy_count = 1")
    n, k, D = pE.num_vertices, pE.k, pE.degree

    def fill(d):
        parts, values = _halves(n, k, D, d), pE._array(d)
        return values[parts[:, 0]] * values[parts[:, 1]]

    return PseudoExpectation(D, k, n, None, copy_count=2,
                             flags=dict(pE.flags), _base=pE, _fill=fill)


def rerandomize(pE: PseudoExpectation, S) -> PseudoExpectation:
    """Replace the moments on the vertex set S with uniform independent
    marginals: pE'[m] = (1/k^t) pE[m with S-pairs removed], t = #S-pairs.
    Shift-symmetry is preserved.  Block d is read from pE's blocks <= d on
    first read.  Raises ParameterError on a vertex outside [0, n)."""
    if pE.copy_count != 1:
        raise ParameterError("rerandomize requires copy_count = 1")
    S = set(S)
    if any(v not in range(pE.num_vertices) for v in S):
        raise ParameterError(f"vertex set {S} leaves [0, {pE.num_vertices})")
    dropped = np.isin(np.arange(pE.num_vertices), list(S))
    scale = np.array([pE.k**i for i in range(pE.degree + 1)], dtype=float)

    def fill(d):
        ids, lost = pE.index._drop(dropped, d)
        return (pE._array(d)[ids] / scale[lost][:, None]).ravel()

    return PseudoExpectation(pE.degree, pE.k, pE.num_vertices, None,
                             flags=_solver_status(pE), _fill=fill)


def _solver_status(pE: PseudoExpectation) -> dict:
    """The flags a derived pseudoexpectation inherits: `unconverged`, so a
    solve that hit its iteration cap stays marked through the calculus."""
    return {f: pE.flags[f] for f in ("unconverged",) if f in pE.flags}


@dataclass(frozen=True)
class ValidationReport:
    """`min_eigenvalue` bounds the moment matrix's smallest eigenvalue from
    below; `off_charge_bound` is the Weyl term subtracted from the charge
    blocks' smallest one, 0.0 on the dense path (see `validate`)."""
    min_eigenvalue: float
    max_partition_residual: float
    scaling_deviation: float
    tol: float
    off_charge_bound: float

    @property
    def passed(self) -> bool:
        return (self.min_eigenvalue >= -self.tol
                and self.max_partition_residual <= self.tol
                and self.scaling_deviation <= self.tol)


def moment_matrix(pE: PseudoExpectation) -> np.ndarray:
    """Moment matrix over canonical monomials of degree <= D/2 (both copies
    for product pseudoexpectations): the dense matrix, which `validate`
    splits by charge or, off charge, hands to `eigvalsh`.

    A product-copy entry (a, b) is pE[a_0 b_0] pE[a_1 b_1], with a_c the
    copy-c part of a, so that matrix is the entrywise product of two gathers
    from the base moment matrix: the same floats the entry-by-entry products
    give (a structural zero may come out as -0.0)."""
    if pE._base is not None:
        left, right = _halves(pE.num_vertices, pE.k, pE.degree // 2).T
        Mb = moment_matrix(pE._base)
        return Mb[np.ix_(left, left)] * Mb[np.ix_(right, right)]
    return np.append(pE._array(), 0.0)[_product_ids(pE.index)]


def _charge_split(pE: PseudoExpectation, Mb: np.ndarray):
    """(smallest eigenvalue over the charge blocks, Weyl term) of pE's
    moment matrix, from Mb, the moment matrix of pE or of its base; None
    when Mb's off-charge part exceeds CHARGE_SPLIT_TOL ||Mb||_F.  A
    self-conjugate block takes the real `eigvalsh` of its `_real_form`; the
    imaginary parts dropped lie inside the blocks and the off-charge part
    outside them, so the Weyl term is the Frobenius norm of both."""
    frame = _charge_frame(pE.num_vertices, pE.k, pE.degree // 2)
    sizes = ([len(ids) for ids, _ in frame.blocks] if pE._base is None
             else [len(l) for l, _, _, _ in frame.product_blocks])
    with _kernels.blas_threads_for(max(sizes)):
        Mt = frame.transform(Mb)
        weyl = float(np.linalg.norm(Mt[frame.charge[:, None] != frame.charge]))
        norm = float(np.linalg.norm(Mb))
        if weyl > CHARGE_SPLIT_TOL * norm:
            return None
        # one block alive at a time, for peak memory
        if pE._base is None:
            blocks = ((Mt[np.ix_(ids, ids)], p, 1)
                      for ids, p in frame.blocks)
        else:
            blocks = ((Mt[np.ix_(l, l)] * Mt[np.ix_(r, r)], p, copies)
                      for l, r, p, copies in frame.product_blocks)
            weyl *= math.sqrt(2.0) * norm
        lam, dropped = math.inf, 0.0
        for B, partner, copies in blocks:
            if partner is not None:
                R = _real_form(B, partner)
                dropped += copies * float(np.vdot(R.imag, R.imag))
                B = R.real
            lam = min(lam, float(np.linalg.eigvalsh(B)[0]))
    return lam, math.hypot(weyl, math.sqrt(dropped))


def _partition_table(pE: PseudoExpectation):
    """(amp, res) over monomials m of degree d < D: amp[d] is the largest
    |pE[m]| and res[d] the largest partition residual
    |sum_a pE[m X_{u,a}] - pE[m]| over all vertices u and copies.

    Each sum is one label axis of the (C(S, d+1), k, ..., k) grid of the
    degree-(d+1) block, summed in label order; its m drops that axis's slot
    from the subset and keeps the other labels' code."""
    index, D, k = pE.index, pE.degree, pE.k
    values = pE._array()
    pm = values[:index.offset[D]]
    worst = np.zeros(len(pm))
    eye = np.eye(index.n * index.copies, dtype=bool)    # slot -> its mask
    for d in range(D):
        subsets = index.subsets[d + 1]
        grid = values[index.offset[d + 1]:index.offset[d + 2]].reshape(
            (len(subsets),) + (k,) * (d + 1))
        for i in range(d + 1):
            total = np.zeros((len(subsets), k**d))
            for a in range(k):
                total += grid.take(a, axis=i + 1).reshape(len(subsets), k**d)
            rest = eye[np.delete(subsets, i, axis=1)].any(axis=1)
            m = (index.offset[d] + np.arange(k**d)
                 + (index.subset_rank(rest) * k**d)[:, None])
            np.maximum.at(worst, m, np.abs(total - pm[m]))
    amp, res = [0.0] * D, [0.0] * D
    for d in range(D):
        part = slice(index.offset[d], index.offset[d + 1])
        if part.start < part.stop:
            amp[d] = max(0.0, float(np.abs(pm[part]).max()))
            res[d] = max(0.0, float(worst[part].max()))
    return amp, res


def validate(pE: PseudoExpectation, tol: float = 1e-6) -> ValidationReport:
    """Check the pseudoexpectation axioms numerically: scaling pE[1] = 1,
    PSD moment matrix, and the partition constraint.

    Booleanity/disjointness and moment-matrix entry aliasing hold
    structurally: moments live in a canonical-key table, so two entries with
    the same product read the same number.  The scaling pE[1] is the moment
    matrix's entry at the empty monomial (row and column 0).

    The smallest eigenvalue is that of the charge blocks (module docstring)
    less `off_charge_bound`, the Weyl term: a lower bound on the dense one.
    A table whose (a product copy: whose base's) off-charge part exceeds
    CHARGE_SPLIT_TOL ||M||_F -- it is not shift-symmetric, as a point mass
    or a conditioned table -- and a 2-copy JSON table take the dense
    `eigvalsh` of `moment_matrix` instead, with `off_charge_bound` 0.0.

    A product copy is checked through its factors.  At a monomial
    m = (m_0, m_1) its partition residual on copy 0 is
    |pE[m_1]| r(m_0, u), with r the base's own residual; so the largest one
    is the largest res[d_0] amp[d_1] over d_0 + d_1 < D from the base's
    `_partition_table`."""
    base = pE if pE._base is None else pE._base
    Mb = moment_matrix(base)
    m00 = float(Mb[0, 0] if base is pE else Mb[0, 0] * Mb[0, 0])
    split = _charge_split(pE, Mb) if base.copy_count == 1 else None
    if split is None:
        M = Mb if base is pE else moment_matrix(pE)
        split = float(np.linalg.eigvalsh(M)[0]), 0.0
    lam, weyl = split
    if pE._base is not None:
        amp, res = _partition_table(pE._base)
        max_part = max((res[d] * amp[e] for d in range(pE.degree)
                        for e in range(pE.degree - d)), default=0.0)
    else:
        max_part = max(_partition_table(pE)[1], default=0.0)
    return ValidationReport(lam - weyl, max_part, abs(m00 - 1.0), tol, weyl)
