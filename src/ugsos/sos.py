"""Degree-D sum-of-squares moment relaxation of the unique-games integer
program in the charge basis, solved by `admm`, and the pseudodistribution
calculus (evaluation, symmetrization, conditioning, independent copies,
rerandomization, validity checking).

Monomials
---------
The integer program's variables are indicators X_{u,a} ("vertex u gets label
a") with Booleanity X^2 = X, disjointness X_{u,a} X_{u,b} = 0 for a != b, and
the partition constraint sum_a X_{u,a} = 1.  A canonical monomial key is a
sorted tuple of (vertex, label, copy) triples with at most one label per
(vertex, copy); any product with two labels at one vertex is the zero
monomial (represented as None and never stored).  `copy` is 0 except after
`product_copy`, which introduces an independent second copy X'.

`moment_index(n, k, D, copies)` ranks the canonical keys of degree <= D with
integer ids, ordered by degree, then by the lexicographic order of their slot
subsets, then by label code.  With S = n * copies slots (slot
copy * n + vertex), a key of degree d is a d-subset of the slots plus a label
per chosen slot, and its id is offset[d] + rank * k^d + code: offset[d]
counts the keys of lower degree, rank is the lexicographic rank of the slot
subset (from a binomial table) and code reads the labels, slot by slot, as a
base-k number.  So a degree-d block is a (C(S, d), k, ..., k) grid: the
subset's rank, then one label axis per chosen slot, the first slot the most
significant.  A table whose keys keep their subset, or gain or lose one
slot, needs only ranks of subsets (`MomentIndex.subsets`, `subset_rank`) and
arithmetic on the label codes: a label bijection permutes each block's codes
(`relabel`: the shifts of `symmetrize`, the charge negation g -> -g), a
partition sum adds one label axis of the degree-(d+1) grid into the d-subset
that remains, and a moment-matrix entry of two keys sits at their union's
rank with each label digit weighted by its place in the union.  The index
also stores every key as a row of slot entries (label + 1, or 0 for an
unused slot), which `rank` maps back to ids: conditioning products, dropped
vertices and a product copy's two parts are rankings of such rows.

A pseudoexpectation is its index plus one float64 array of moments in id
order, whether it comes from the solver, a point mass, a mixture, a JSON file
or the calculus; symmetrize, rerandomize, condition, the moment matrix and the
partition table are gathers from that array.  A scalar read (`moment`, and
through it `evaluate` and `pe`) canonicalizes the monomial and reads the
array through the index's shared key -> id map (a product copy multiplies
two scalar reads of its base), and `pair_moments` reshapes its degree-1 and
degree-2 blocks into the pairwise tensor that the rounding, the potentials,
the shift-symmetry check and `edge_agreement` (the value, edge by edge)
read.

Relaxation
----------
`build_relaxation` states the SDP in the characters chi_u^j =
sum_a omega^(ja) X_{u,a}, omega = exp(2 pi i / k).  They obey chi^g chi^h =
chi^(g+h) for g in Z_k^n, so the partition, Booleanity and disjointness
constraints hold by construction; a charge monomial chi^g is a row of
`moment_index(n, k - 1, .)` with slot entry g_u.  The solver searches
shift-invariant tables only, so its output needs no `symmetrize`; the SDP
restricted to them has the same value (Gatermann & Parrilo, J. Pure Appl.
Algebra 192, 2004).  Those have only charge-0 moments yhat(g) (sum g = 0
mod k), with yhat(-g) = conj yhat(g): the real coordinates y are one per
g = -g and (re, im) per conjugate pair.  The moment matrix over
k^(-|supp g|/2) chi^g, |supp g| <= D/2, reads yhat(g - h) at (g, h), so it
splits by charge c = sum g, block -c the conjugate of block c.
`_ChargeLayout` (cached per (n, k, D)) is the layout `admm.solve` reads: it
stores c = 0..floor(k/2), a block with c = -c in a real cos/sin basis (a
fixed unitary change), the others as Hermitian blocks of weight 2, all
packed into one vector whose Euclidean inner product is the Frobenius one;
A is a sparse map onto it with A^T A diagonal.  `DIM_CAP` bounds the
full-basis dimension.

`solve_sdp` solves it by `admm.solve`, which pins y[0] = yhat(empty) = 1;
as |yhat(g)| <= 1 (pseudo-Cauchy-Schwarz), the solver's r bounds the SDP
value, and OPT, from above (`_ChargeLayout.upper_bound`).  The full-label
table is one FFT per degree (`_full_moments_from_reduced`) over a grid of
ids built from the ranks of each slot subset's sub-subsets (`_fft_ids`).

Validation
----------
`validate` reads the smallest moment-matrix eigenvalue from charge blocks.
The unitary label DFT on each vertex subset S, X_{S,a} -> k^(-|S|/2) sum_a
omega^(g.a) X_{S,a}, splits a shift-symmetric table's moment matrix into
blocks of equal charge sum g mod k, block -c the conjugate of block c, so
one block per pair is solved (`_ChargeFrame`).  A product copy's block
(c_0, c_1) has entries Mt_b[g_0, h_0] Mt_b[g_1, h_1], gathered from the
base's transformed matrix Mt_b; block (c_1, c_0) holds the same products of
the same two floats in permuted order, so one block per orbit under
conjugation and the copy swap is solved.  Round-off leaves an off-charge
part E, and by Weyl's inequality lambda_min(M) >= min over the blocks of
lambda_min - ||E||_F; for a product copy E = E_b (x) Mt_b + B_b (x) E_b
restricted to the product basis (B_b, E_b the base's blocks and off-charge
part), so ||E||_F <= sqrt(2) ||E_b||_F ||M_b||_F.  A self-conjugate block
(c = -c, for a product copy (c_0, c_1) = (-c_0, -c_1)) is closed under
negating every frequency, which conjugates its entries, so in the basis
(x +- conj x)/sqrt2 it is real (Gatermann & Parrilo, as in the solver) and
takes a real `eigvalsh` (`_real_form`); the imaginary round-off it drops
lies inside the blocks, E outside, and the Weyl term is the Frobenius norm
of both, with the round-off of a self-conjugate product block counted
again for its unsolved swap image when c_0 != c_1.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ugsos import _kernels, admm
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


def _index_size(n: int, k: int, D: int, copies: int = 1) -> int:
    """Number of canonical keys of degree <= D."""
    return sum(math.comb(n * copies, d) * k**d for d in range(D + 1))


class MomentIndex:
    """Integer ids of the canonical keys of degree <= D over n vertices, k
    labels and `copies` copies, ordered by degree, then by lexicographic
    slot subset, then by label code (see the module docstring); `len` is
    the number of keys.

    `slots` holds key i as row i: label + 1 at slot copy * n + vertex, 0
    where the key has no pair.  `rank` maps such rows back to ids, so it
    answers every "which key is this product" question in one vectorized
    call.  Build it through the cached `moment_index`."""

    def __init__(self, n: int, k: int, D: int, copies: int = 1):
        self.n, self.k, self.degree, self.copies = n, k, D, copies
        # slot entries reach k, and label shifts subtract up to k - 1
        self.dtype = np.int8 if k < 127 else np.int32
        S = n * copies
        self._binom = np.array([[math.comb(a, b) for b in range(D + 1)]
                                for a in range(S + 1)], dtype=np.int64)
        self._kpow = k ** np.arange(D + 1, dtype=np.int64)
        counts = self._binom[S] * self._kpow
        self.offset = np.concatenate(([0], np.cumsum(counts)))

    def __len__(self):
        return int(self.offset[-1])

    @functools.cached_property
    def subsets(self) -> list:
        """subsets[d]: the d-subsets of the slots as rows of ascending slot
        numbers, row r the subset of rank r."""
        S = self.n * self.copies
        return [np.array(list(itertools.combinations(range(S), d)),
                         dtype=np.intp).reshape(math.comb(S, d), d)
                for d in range(self.degree + 1)]

    def subset_rank(self, chosen: np.ndarray) -> np.ndarray:
        """Ranks of the slot subsets marked True along the last axis of
        `chosen` (any leading shape), each of size <= D."""
        S = chosen.shape[-1]
        d = chosen.sum(axis=-1)
        # lex rank: C(S, d) - 1 - sum_i C(S-1-s_i, d-i) over the chosen
        # slots s_0 < s_1 < ...
        left = np.where(chosen, d[..., None] + chosen - chosen.cumsum(-1), 0)
        terms = np.where(chosen, self._binom[S - 1 - np.arange(S), left], 0)
        return self._binom[S, d] - 1 - terms.sum(axis=-1)

    def relabel(self, f) -> np.ndarray:
        """Per id, the id of its key with every label a replaced by f[a], f
        a permutation of range(k): the subset keeps its rank, and the code
        is permuted digit by digit."""
        f = np.asarray(f, dtype=np.int64)
        code, out = np.zeros(1, dtype=np.int64), []
        for d, subsets in enumerate(self.subsets):
            if d:
                code = (code[:, None] * self.k + f).ravel()
            ranks = np.arange(len(subsets))[:, None] * self._kpow[d]
            out.append((self.offset[d] + ranks + code).ravel())
        return np.concatenate(out)

    @functools.cached_property
    def slots(self) -> np.ndarray:
        S, k = self.n * self.copies, self.k
        blocks = []
        for d, combos in enumerate(self.subsets):
            labels = np.array(list(itertools.product(range(1, k + 1),
                                                     repeat=d)),
                              dtype=self.dtype).reshape(k**d, d)
            block = np.zeros((len(combos), len(labels), S), dtype=self.dtype)
            for i in range(d):
                block[np.arange(len(combos)), :, combos[:, i]] = labels[:, i]
            blocks.append(block.reshape(len(combos) * len(labels), S))
        return np.concatenate(blocks)

    @functools.cached_property
    def keys(self) -> list:
        """The keys as tuples, in id order."""
        n, k = self.n, self.k
        pairs = np.empty(n * self.copies * k, dtype=object)
        pairs[:] = [(s % n, a, s // n)
                    for s in range(n * self.copies) for a in range(k)]
        out = []
        for d in range(self.degree + 1):
            block = self.slots[self.offset[d]:self.offset[d + 1]]
            rows, cols = np.nonzero(block)
            codes = (cols * k + block[rows, cols] - 1).reshape(len(block), d)
            chosen = pairs[codes].tolist()
            out += (map(tuple, chosen) if self.copies == 1
                    else (tuple(sorted(c)) for c in chosen))
        return out

    def rank(self, L: np.ndarray) -> np.ndarray:
        """Ids of the keys whose slot rows are L (any leading shape); -1 for
        a row of degree above D."""
        P = L > 0
        d = P.sum(axis=-1)
        over = d > self.degree
        d = np.minimum(d, self.degree)
        S = L.shape[-1]
        rank = self._binom[S, d] - 1
        code = np.zeros_like(rank)
        seen = np.zeros_like(rank)
        for s in range(S):
            p = P[..., s]
            # lex rank: C(S, d) - 1 - sum_i C(S-1-s_i, d-i) over the chosen
            # slots s_0 < s_1 < ...
            left = np.maximum(d - seen, 0)
            rank -= np.where(p, self._binom[S - 1 - s, left], 0)
            code = np.where(p, code * self.k + L[..., s] - 1, code)
            seen += p
        ids = self.offset[d] + rank * self._kpow[d] + code
        return np.where(over, -1, ids)

    def mul(self, a, b) -> np.ndarray:
        """Ids of the products of the keys with ids a and b (broadcast);
        -1 for the zero monomial."""
        A, B = self.slots[a], self.slots[b]
        clash = ((A > 0) & (B > 0) & (A != B)).any(axis=-1)
        return np.where(clash, -1, self.rank(np.maximum(A, B)))

    def rows(self, keys) -> np.ndarray:
        """Slot rows of keys given as tuples of (vertex, label, copy)."""
        L = np.zeros((len(keys), self.n * self.copies), dtype=self.dtype)
        for row, key in zip(L, keys):
            for (v, a, c) in key:
                row[c * self.n + v] = a + 1
        return L

    @functools.cached_property
    def id_of(self) -> dict:
        """Canonical key -> id, for scalar lookups."""
        return dict(zip(self.keys, range(len(self))))


@functools.lru_cache(maxsize=32)
def moment_index(n: int, k: int, D: int, copies: int = 1) -> MomentIndex:
    return MomentIndex(n, k, D, copies)


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
    is scattered into it once (keys it omits read as 0).  A product copy (see
    `product_copy`) is a view of its base table: a scalar read multiplies
    two base moments, and the whole array is gathered on first use.
    Immutable by convention: all calculus operations return new
    objects.
    """

    def __init__(self, degree: int, k: int, num_vertices: int, moments,
                 copy_count: int = 1, flags=None,
                 _base: "PseudoExpectation | None" = None):
        self.degree, self.k, self.num_vertices = degree, k, num_vertices
        self.copy_count = copy_count
        self.flags = {} if flags is None else flags
        self._base = _base  # set for product-copy views
        if isinstance(moments, Mapping):
            ids = self.index.id_of
            values = np.zeros(len(ids))
            values[[ids[key] for key in moments]] = list(moments.values())
            moments = values
        self._values = moments

    @property
    def moments(self) -> Mapping:
        return _Moments(self)

    @property
    def index(self) -> MomentIndex:
        return moment_index(self.num_vertices, self.k, self.degree,
                            self.copy_count)

    def _array(self) -> np.ndarray:
        """The moments in id order."""
        if self._values is None:
            self._values = _gather(self, self.index.slots)
        return self._values

    def moment(self, key) -> float:
        """pE[key] for a monomial spelled as (vertex, label) pairs or
        (vertex, label, copy) triples in any order; 0.0 for the zero
        monomial (None, or two labels at one vertex and copy).  Raises
        DegreeError above the degree and ParameterError for a vertex, label
        or copy outside the table."""
        key = None if key is None else canon_key(key)
        if key is None:
            return 0.0
        if len(key) > self.degree:
            raise DegreeError(
                f"monomial degree {len(key)} exceeds budget {self.degree}")
        if self._base is not None and self._values is None:
            # the two base moments `_gather` multiplies, without gathering
            # the 2-copy table; the base checks vertices and labels
            if any(c not in (0, 1) for (_, _, c) in key):
                raise ParameterError(f"monomial {key} is outside the table")
            parts = [tuple(p[:2] for p in key if p[2] == c) for c in (0, 1)]
            return self._base.moment(parts[0]) * self._base.moment(parts[1])
        i = self.index.id_of.get(key)
        if i is None:
            raise ParameterError(f"monomial {key} is outside the table")
        return self._array().item(i)

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
        the table holds exactly the canonical keys of degree <= D: on a key
        that is not canonical, exceeds the degree or names a vertex, label or
        copy out of range, and on a missing key (it would read as 0)."""
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


class _ChargeLayout:
    """What the charge-basis SDP needs of (n, k, D) (module docstring): the
    coordinates, the stored blocks and A from coordinates to packed blocks,
    a sparse matrix (t_row, t_col, t_coef).  Built by `_charge_layout`."""

    def __init__(self, n: int, k: int, D: int):
        self.k = k
        # g -> k - g on the slot entries 1..k-1 (labels 0..k-2)
        self._negation = np.arange(k - 2, -1, -1)
        self.rbasis = moment_index(n, k - 1, D // 2)
        self.rmoments = moment_index(n, k - 1, D)
        self._negated = self.rmoments.relabel(self._negation)  # id of -g
        self._coordinates()
        B = self.rbasis.slots
        charge = B.sum(axis=1, dtype=np.int64) % k
        partner = self.rbasis.relabel(self._negation)  # of -g
        scale = float(k) ** (-0.5 * (B > 0).sum(axis=1))
        self.blocks, terms, start = [], [], 0
        for c in range(k // 2 + 1):
            ids = np.flatnonzero(charge == c)
            real = 2 * c % k == 0
            block = admm._Block(ids.size, real, 1.0 if real else 2.0, start)
            fns = self._basis(ids, partner, scale, real)
            terms += [(row + start, col, coef) for row, col, coef
                      in self._entries(block, fns, B)]
            self.blocks.append(block)
            start = block.part.stop
        self.packed_size = start
        # sum the terms of each (packed entry, coordinate) pair, drop zeros
        rows, cols, coefs = map(np.concatenate, zip(*terms))
        key, inv = np.unique(rows * self.size + cols, return_inverse=True)
        coef = np.bincount(inv, weights=coefs)
        keep = np.abs(coef) > 1e-12
        self.t_row, self.t_col = np.divmod(key[keep], self.size)
        self.t_coef = coef[keep]
        # the diagonal of A^T A, which is diagonal (module docstring)
        self.counts = np.bincount(self.t_col, weights=self.t_coef**2,
                                  minlength=self.size)

    def _coordinates(self):
        """Coordinates of the charge-0 moments in id order, one for g = -g
        and two for a pair: yhat(g) = y[re[g]] + 1j sign[g] y[im[g]]."""
        k, G = self.k, self.rmoments.slots
        ids = np.flatnonzero(G.sum(axis=1, dtype=np.int64) % k == 0)
        partner = self._negated[ids]
        first, single = partner > ids, partner == ids
        width = np.where(first, 2, np.where(single, 1, 0))
        start = np.cumsum(width) - width
        self.size = int(width.sum())
        self.charge0 = ids
        self.re, self.im = np.zeros((2, len(G)), dtype=np.int64)
        self.sign = np.zeros(len(G))
        own = first | single
        self.re[ids[own]], self.im[ids[first]] = start[own], start[first] + 1
        self.sign[ids[first]] = 1.0
        later, mate = ids[~own], partner[~own]
        self.re[later], self.im[later] = self.re[mate], self.im[mate]
        self.sign[later] = -1.0
        self.pairs = (start[first], start[first] + 1)
        self.reals = start[single][1:]       # coordinate 0 is yhat(empty)

    @staticmethod
    def _basis(ids, partner, scale, real):
        """Basis functions as two (rbasis id, coef) terms: the scaled
        characters s chi^g, or in a real block s (chi^g + chi^-g)/sqrt2,
        s (chi^g - chi^-g)/(i sqrt2) and the real s chi^g with g = -g."""
        fns, r = [], 1.0 / math.sqrt(2.0)
        for i in ids.tolist():
            s, j = scale[i], int(partner[i])
            if not real or j == i:
                fns.append((i, s, i, 0.0))
            elif j > i:
                fns += [(i, s * r, j, s * r), (i, -1j * s * r, j, 1j * s * r)]
        g1, q1, g2, q2 = zip(*fns)
        return ((np.array(g1, dtype=np.intp), np.array(q1, dtype=complex)),
                (np.array(g2, dtype=np.intp), np.array(q2, dtype=complex)))

    def _entries(self, block, fns, B):
        """(packed entry, coordinate, coef) triples of one block: entry
        (i, j) is E[f_i conj(f_j)] = sum q q' yhat(g - g'), and each yhat
        reads one or two coordinates.  A zero q (a complex block's second
        term, and that of a real g = -g) adds nothing and is skipped."""
        rows, cols, k = block.rows, block.cols, self.k
        # where each off-diagonal entry's imaginary part is packed
        imag_at = rows.size + np.cumsum(block.off) - 1
        (g1, _), (g2, _) = fns
        # ids of g - g' for the term pairs (first, first), (first, second),
        # ... at every entry; in a real block the second term's charge is
        # the negation of the first's, so the pairs that start with it
        # negate those that start with the first
        diff = {(0, 0): self.rmoments.rank((B[g1[rows]] - B[g1[cols]]) % k)}
        if block.real:
            diff[0, 1] = self.rmoments.rank((B[g1[rows]] - B[g2[cols]]) % k)
            diff[1, 0] = self._negated[diff[0, 1]]
            diff[1, 1] = self._negated[diff[0, 0]]
        for (a, b), ids in diff.items():
            (_, qa), (_, qb) = fns[a], fns[b]
            at = np.flatnonzero((qa[rows] != 0) & (qb[cols] != 0))
            if not at.size:
                continue
            r, c = rows[at], cols[at]
            alpha = qa[r] * qb[c].conj() * block.f[at]
            m = ids[at]
            re, im, sign = self.re[m], self.im[m], self.sign[m]
            yield at, re, alpha.real
            yield at, im, -sign * alpha.imag
            if not block.real:
                off = block.off[at]
                yield imag_at[at[off]], re[off], alpha.imag[off]
                yield imag_at[at[off]], im[off], (sign * alpha.real)[off]

    def A(self, y: np.ndarray) -> np.ndarray:
        """The packed blocks of the moment matrix of coordinates y."""
        terms = y.take(self.t_col)
        terms *= self.t_coef
        return np.bincount(self.t_row, weights=terms,
                           minlength=self.packed_size)

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        terms = r.take(self.t_row)
        terms *= self.t_coef
        return np.bincount(self.t_col, weights=terms, minlength=self.size)

    def moments(self, y: np.ndarray) -> np.ndarray:
        """The complex charge moments yhat over `rmoments` (0 off charge 0)."""
        out = np.zeros(len(self.rmoments), dtype=complex)
        ids = self.charge0
        out[ids] = y[self.re[ids]] + 1j * self.sign[ids] * y[self.im[ids]]
        return out

    def upper_bound(self, r: np.ndarray) -> float:
        """r_empty + sum over the other coordinates of |r|, a pair's two
        taken together, which bounds r . y since |yhat(g)| <= 1."""
        re, im = self.pairs
        return float(r[0] + np.hypot(r[re], r[im]).sum()
                     + np.abs(r[self.reals]).sum())


_charge_layout = functools.lru_cache(maxsize=16)(_ChargeLayout)


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


@functools.lru_cache(maxsize=16)
def _product_ids(index: MomentIndex) -> np.ndarray:
    """The ids of the products of two keys of degree <= D/2 of `index`
    (-1 = zero monomial), the moment matrix's entries: read-only and cached
    per index, so `moment_matrix` is a gather after its first call.

    The (d1, d2) block, d1 <= d2, is a (C(S, d1), k^d1, C(S, d2), k^d2)
    grid: a subset pair (A, B) fixes the rank of their union U and each
    label digit's weight k^(|U| - 1 - place in U) (0 for B's digits at
    slots of A), and a shared slot with two labels zeroes the entry."""
    half, k = index.degree // 2, index.k
    dim = int(index.offset[half + 1])
    E = np.empty((dim, dim), dtype=np.int64)
    subsets = index.subsets[:half + 1]
    eye = np.eye(index.n * index.copies, dtype=bool)    # slot -> its mask
    chosen = [eye[T].any(axis=1) for T in subsets]
    digits = [np.indices((k,) * d).reshape(d, k**d) for d in range(half + 1)]
    for d1, d2 in itertools.combinations_with_replacement(range(half + 1), 2):
        A, B = subsets[d1], subsets[d2]
        union = chosen[d1][:, None] | chosen[d2][None]
        size = union.sum(axis=-1)
        place = index._kpow[size[..., None] - union.cumsum(axis=-1)]
        wA = np.take_along_axis(place, A[:, None], axis=-1)
        wB = np.where(chosen[d1][:, B], 0,
                      np.take_along_axis(place, B[None], axis=-1))
        ids = ((index.offset[size] + index.subset_rank(union)
                * index._kpow[size])[:, None, :, None]
               + (wA @ digits[d1]).transpose(0, 2, 1)[..., None]
               + (wB @ digits[d2])[:, None])
        clash = np.zeros(ids.shape, dtype=bool)
        for i, j in itertools.product(range(d1), range(d2)):
            same = A[:, i, None] == B[None, :, j]
            differ = digits[d1][i][:, None] != digits[d2][j]
            clash |= same[:, None, :, None] & differ[None, :, None, :]
        block = np.where(clash, -1, ids).reshape(len(A) * k**d1,
                                                len(B) * k**d2)
        rows = slice(index.offset[d1], index.offset[d1 + 1])
        cols = slice(index.offset[d2], index.offset[d2 + 1])
        E[rows, cols] = block
        E[cols, rows] = block.T
    E.flags.writeable = False
    return E


def _charge_objective(inst: UgInstance, layout: _ChargeLayout) -> np.ndarray:
    """The UG objective over the coordinates: [x_u - x_v = s] is
    (1/k) sum_j omega^(-js) chi_u^j chi_v^(-j)."""
    n, k = inst.num_vertices, inst.k
    c = np.zeros(layout.size)
    c[0] = 1.0 / k
    eu, ev, w, s = inst._arrays
    j = np.arange(1, k)
    e, t = np.arange(len(eu))[:, None], np.arange(k - 1)[None, :]
    G = np.zeros((len(eu), k - 1, n), dtype=layout.rmoments.dtype)
    G[e, t, eu[:, None]] = j
    G[e, t, ev[:, None]] = k - j
    m = layout.rmoments.rank(G).ravel()
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


@functools.lru_cache(maxsize=16)
def _fft_ids(n: int, k: int, D: int) -> np.ndarray:
    """Per full-label key, the id of the charge monomial whose charges are
    its labels (label 0 drops the slot): the grid the FFT transforms.

    At degree d a key's charge monomial keeps the slots of its nonzero
    labels, so its id is the rank of that sub-subset of the key's subset
    plus a term of the label code alone: the 2^d sub-subsets of every
    d-subset are ranked once, and each code picks its own."""
    full, charge = moment_index(n, k, D), moment_index(n, k - 1, D)
    out = []
    for d, subsets in enumerate(full.subsets):
        bit = 1 << np.arange(d - 1, -1, -1)     # place i's bit in a mask
        kept = np.arange(2**d)[:, None] & bit > 0   # kept[mask, i]
        chosen = np.zeros((len(subsets), n, 2**d), dtype=bool)
        chosen[np.arange(len(subsets))[:, None], subsets] = kept.T
        sub = charge.subset_rank(chosen.transpose(0, 2, 1))
        sub *= charge._kpow[kept.sum(axis=1)]
        # per code: its drop mask, and the charge degree and code it keeps
        labels = np.indices((k,) * d).reshape(d, k**d)
        nonzero = labels > 0
        mask = bit @ nonzero
        code = np.zeros(k**d, dtype=np.int64)
        for i in range(d):
            code = np.where(nonzero[i], code * (k - 1) + labels[i] - 1, code)
        out.append((sub[:, mask] + (charge.offset[nonzero.sum(0)]
                                    + code)).ravel())
    return np.concatenate(out)


def _full_moments_from_reduced(yhat: np.ndarray, n: int, k: int,
                               D: int) -> np.ndarray:
    """Every canonical full-label moment of degree <= D, in id order, from
    the complex charge moments yhat over `moment_index(n, k - 1, D)`:
    pE[prod_{u in S} X_{u,a_u}] = k^-|S| sum_g omega^(-g.a) yhat(g) over g
    in Z_k^S, one `np.fft.fftn` per degree over the (C(n,d), k, ..., k)
    layout of the ids."""
    index = moment_index(n, k, D)
    grid = yhat[_fft_ids(n, k, D)]
    out = np.empty(len(index))
    for d in range(D + 1):
        part = slice(index.offset[d], index.offset[d + 1])
        block = grid[part].reshape((-1,) + (k,) * d)
        if d:
            block = np.fft.fftn(block, axes=tuple(range(1, d + 1))) / k**d
        out[part] = block.real.ravel()
    return out


def solve_sdp(problem: SdpProblem, tol: float = 1e-7,
              max_iters: int = admm.ADMM_MAX_ITERS) -> PseudoExpectation:
    """Maximize the UG objective over shift-invariant degree-D
    pseudoexpectations by `admm.solve` (ParameterError as there) from the
    uniform independent distribution y = e_0.  Flags: "sdp_value" c.y, the
    certified "sdp_upper_bound" >= OPT (it may lie below c.y of a
    tol-feasible y), "duality_gap" c.y - r_empty, `admm.Solution`'s fields
    of the same names, and "unconverged": True if the cap was hit."""
    lay, c, inst = problem.layout, problem.objective_vec, problem.inst
    sol = admm.solve(lay, c, tol, max_iters)
    moments = _full_moments_from_reduced(lay.moments(sol.y), inst.num_vertices,
                                         inst.k, problem.degree)
    flags = {"sdp_value": float(c @ sol.y),
             "sdp_upper_bound": lay.upper_bound(sol.r),
             "duality_gap": float(c @ sol.y - sol.r[0]),
             "iterations": sol.iterations,
             "primal_residual": sol.primal_residual,
             "dual_residual": sol.dual_residual, "rho": sol.rho,
             "partial_projections": sol.partial_projections}
    if not sol.converged:
        flags["unconverged"] = True
    return PseudoExpectation(problem.degree, inst.k, inst.num_vertices,
                             moments, flags=flags)


# ---------------------------------------------------------------------------
# Calculus
# ---------------------------------------------------------------------------

def _gather(pE: PseudoExpectation, L: np.ndarray) -> np.ndarray:
    """pE's moments at the keys with slot rows L (over pE's slots, degree
    <= pE.degree); a product copy multiplies its base's moments at the two
    copies' parts."""
    n = pE.num_vertices
    if pE._base is not None:
        base = pE._base.index
        values = pE._base._array()
        return values[base.rank(L[:, :n])] * values[base.rank(L[:, n:])]
    return pE._array()[pE.index.rank(L)]


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
    offset, values = pE.index.offset, pE._array()
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
    if any(v not in range(pE.num_vertices) or a not in range(pE.k)
           or c not in range(pE.copy_count) for (v, a, c) in event):
        raise ParameterError(f"event {event} is outside the table")
    new_deg = pE.degree - 2 * len(event)
    if new_deg < 0:
        raise DegreeError("event too large for the degree budget")
    ev = pE.index.rows([event])[0]
    p_event = float(_gather(pE, ev[None])[0])
    if p_event < COND_FLOOR:
        raise NullEventError(
            f"pE[event] = {p_event:.3e} below floor {COND_FLOOR}")
    L = moment_index(pE.num_vertices, pE.k, new_deg, pE.copy_count).slots
    zero = ((L > 0) & (ev > 0) & (L != ev)).any(axis=1)
    new = np.where(zero, 0.0, _gather(pE, np.maximum(L, ev)) / p_event)
    return PseudoExpectation(new_deg, pE.k, pE.num_vertices, new,
                             copy_count=pE.copy_count,
                             flags=_solver_status(pE))


def product_copy(pE: PseudoExpectation) -> PseudoExpectation:
    """Independent second copy: pE_{X,X'}[X^a (X')^b] = pE[X^a] pE[X^b].

    The 2-copy table, which `moments` and `to_json` use, is gathered from
    the base's on first use; until then a scalar read (`moment`, `pe`)
    multiplies the base's moments at the two copies' parts.  The result is
    a valid degree-D pseudoexpectation.  `validate` never gathers it: the
    charge blocks are products of the base's transformed moment matrix,
    and the partition residuals come from the base's residual table."""
    if pE.copy_count != 1:
        raise ParameterError("product_copy requires copy_count = 1")
    return PseudoExpectation(pE.degree, pE.k, pE.num_vertices, None,
                             copy_count=2, flags=dict(pE.flags), _base=pE)


def rerandomize(pE: PseudoExpectation, S) -> PseudoExpectation:
    """Replace the moments on the vertex set S with uniform independent
    marginals: pE'[m] = (1/k^t) pE[m with S-pairs removed], t = #S-pairs.
    Shift-symmetry is preserved.  Raises ParameterError on a vertex outside
    [0, n)."""
    if pE.copy_count != 1:
        raise ParameterError("rerandomize requires copy_count = 1")
    S = set(S)
    if any(v not in range(pE.num_vertices) for v in S):
        raise ParameterError(f"vertex set {S} leaves [0, {pE.num_vertices})")
    if not S:
        return PseudoExpectation(pE.degree, pE.k, pE.num_vertices,
                                 pE._array(), flags=dict(pE.flags))
    drop = [v for v in range(pE.num_vertices) if v in S]
    L = pE.index.slots.copy()
    t = (L[:, drop] > 0).sum(axis=1)
    L[:, drop] = 0
    scale = np.array([pE.k**i for i in range(pE.degree + 1)], dtype=float)
    new = _gather(pE, L) / scale[t]
    return PseudoExpectation(pE.degree, pE.k, pE.num_vertices, new,
                             flags=_solver_status(pE))


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
        frame = _charge_frame(pE.num_vertices, pE.k, pE.degree // 2)
        Mb = moment_matrix(pE._base)
        return (Mb[np.ix_(frame.left, frame.left)]
                * Mb[np.ix_(frame.right, frame.right)])
    return np.append(pE._array(), 0.0)[_product_ids(pE.index)]


class _ChargeFrame:
    """The charge blocks of the moment-matrix basis of (n, k, D/2) (module
    docstring): `dft[d]`, the label DFT on each d-subset; `charge` per basis
    function; `blocks`, the ids of one charge per conjugate pair; `left` and
    `right`, the base ids of each product-basis monomial's two copies'
    parts, and `product_blocks` theirs per orbit of (c_0, c_1) under
    conjugation and the copy swap (c_0, c_1) -> (c_1, c_0).  Each block
    carries the local positions of its functions' negations (g -> -g on
    every slot) when it is self-conjugate, and None else; a product block
    also carries the number of self-conjugate blocks it stands for, its
    own swap image included."""

    def __init__(self, n: int, k: int, half: int):
        index = moment_index(n, k, half)
        self.offset, self.dft, charge = index.offset, [], []
        for d in range(half + 1):
            g = np.array(list(itertools.product(range(k), repeat=d)),
                         dtype=np.int64).reshape(k**d, d)
            self.dft.append(np.exp(2j * np.pi / k * (g @ g.T)) / k**(d / 2))
            charge.append(np.tile(g.sum(axis=1) % k, math.comb(n, d)))
        self.charge = np.concatenate(charge)
        two = moment_index(n, k, half, copies=2)
        L = two.slots
        self.left, self.right = index.rank(L[:, :n]), index.rank(L[:, n:])
        negate = -np.arange(k) % k
        flip, flip2 = index.relabel(negate), two.relabel(negate)
        self.blocks = []
        for c in range(k):
            ids = np.flatnonzero(self.charge == c)
            if c <= -c % k:
                self.blocks.append((ids, np.searchsorted(ids, flip[ids])
                                    if c == -c % k else None))
        pair = self.charge[self.left] * k + self.charge[self.right]
        self.product_blocks = []
        for a, b in itertools.product(range(k), repeat=2):
            rows, conj = np.flatnonzero(pair == a * k + b), (-a % k, -b % k)
            if rows.size and (a, b) <= min(conj, (b, a), conj[::-1]):
                self.product_blocks.append(
                    (self.left[rows], self.right[rows],
                     np.searchsorted(rows, flip2[rows])
                     if (a, b) == conj else None, 1 + (a != b)))

    def transform(self, M: np.ndarray) -> np.ndarray:
        """F M F^H = F (F M)^H for a symmetric M, F the DFT on every subset:
        one matmul per degree on the (C(n, d), k^d) layout of the rows."""
        out = M
        for _ in range(2):
            out = out.conj().T.astype(complex, order="C")
            for d, F in enumerate(self.dft[1:], start=1):
                part = slice(self.offset[d], self.offset[d + 1])
                out[part] = (F @ out[part].reshape(-1, len(F), len(out))
                             ).reshape(-1, len(out))
        return out


_charge_frame = functools.lru_cache(maxsize=16)(_ChargeFrame)


def _real_form(B: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Q^H B Q for the unitary Q with columns e_i (partner[i] = i) and
    (e_i + e_j)/sqrt2, -i (e_i - e_j)/sqrt2 (i < j = partner[i]), in that
    order: real when B[partner][:, partner] = conj(B), as a self-conjugate
    charge block of a real matrix is (Gatermann & Parrilo 2004)."""
    at = np.arange(len(partner))
    one, lo = np.flatnonzero(at == partner), np.flatnonzero(at < partner)
    s, m, r = one.size, lo.size, math.sqrt(0.5)
    R = B[np.ix_(*2 * [np.concatenate((one, lo, partner[lo]))])]
    for X, phase in ((R.T, -1j * r), (R, 1j * r)):  # columns by Q, rows by Q^H
        a, b = X[s:s + m], X[s + m:]
        X[s:s + m], X[s + m:] = (a + b) * r, (a - b) * phase
    return R


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
                 + (index.subset_rank(rest) * index._kpow[d])[:, None])
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
