"""The moment index and every table that depends only on (n, k, D), each
built once and cached; `sos` holds the calculus over them.

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
rank with each label digit weighted by its place in the union.  A two-copy
subset lists its copy-0 slots first, so a two-copy key's code is its copy-0
part's code followed by its copy-1 part's, and `_halves` reads both parts'
ids from the subset's two ranks.  Dropping the pairs at a set of slots
(`_drop`, for `rerandomize`) ranks each subset's rest once and recombines
the code from the kept digits.  A key can also be spelled as a row of slot
entries (label + 1, or 0 for an unused slot), which `rank` maps back to
ids: `slots` holds every key's row, and `mul` multiplies keys through the
rows of its operands alone, read off their subsets and codes.

Charge bases
------------
The SDP is stated in the characters chi_u^j = sum_a omega^(ja) X_{u,a},
omega = exp(2 pi i / k).  They obey chi^g chi^h = chi^(g+h) for g in Z_k^n,
so the partition, Booleanity and disjointness constraints hold by
construction; a charge monomial chi^g is a row of `moment_index(n, k - 1, .)`
with slot entry g_u.  The solver searches shift-invariant tables only, so
its output needs no `symmetrize`; the SDP restricted to them has the same
value (Gatermann & Parrilo, J. Pure Appl. Algebra 192, 2004).  Those have
only charge-0 moments yhat(g) (sum g = 0 mod k), with yhat(-g) = conj
yhat(g): the real coordinates y are one per g = -g and (re, im) per
conjugate pair.  The moment matrix over k^(-|supp g|/2) chi^g,
|supp g| <= D/2, reads yhat(g - h) at (g, h), so it splits by charge
c = sum g, block -c the conjugate of block c.  `_ChargeLayout` is the layout
`admm.solve` reads: it stores c = 0..floor(k/2), a block with c = -c in a
real cos/sin basis (a fixed unitary change), the others as Hermitian blocks
of weight 2, all packed into one vector whose Euclidean inner product is the
Frobenius one; A is a sparse map onto it with A^T A diagonal.  `_fft_ids`
maps each full-label key to the charge monomial that the FFT reads for it.

The unitary label DFT on each vertex subset S, X_{S,a} -> k^(-|S|/2) sum_a
omega^(g.a) X_{S,a}, splits a shift-symmetric table's moment matrix into
blocks of equal charge sum g mod k, block -c the conjugate of block c, so
one block per pair is solved (`_ChargeFrame`).  A product copy's block
(c_0, c_1) has entries Mt_b[g_0, h_0] Mt_b[g_1, h_1], gathered from the
base's transformed matrix Mt_b; block (c_1, c_0) holds the same products of
the same two floats in permuted order, so one block per orbit under
conjugation and the copy swap is solved.  A self-conjugate block (c = -c,
for a product copy (c_0, c_1) = (-c_0, -c_1)) is closed under negating every
frequency, which conjugates its entries, so in the basis (x +- conj x)/sqrt2
it is real (Gatermann & Parrilo) and takes a real `eigvalsh` (`_real_form`).
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ugsos import admm


def _index_size(n: int, k: int, D: int, copies: int = 1) -> int:
    """Number of canonical keys of degree <= D."""
    return sum(math.comb(n * copies, d) * k**d for d in range(D + 1))


class MomentIndex:
    """Integer ids of the canonical keys of degree <= D over n vertices, k
    labels and `copies` copies, ordered by degree, then by lexicographic
    slot subset, then by label code (see the module docstring); `len` is
    the number of keys.

    `slots` holds key i as row i: label + 1 at slot copy * n + vertex, 0
    where the key has no pair, and `rank` maps such rows back to ids.
    Build it through the cached `moment_index`."""

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

    @functools.cached_property
    def digits(self) -> list:
        """digits[d]: the label codes of degree d as a (d, k^d) array, column
        `code` its labels, the first slot's the most significant."""
        return [np.indices((self.k,) * d).reshape(d, self.k**d)
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
        f, out = np.asarray(f, dtype=np.int64), []
        for d, (subsets, digits) in enumerate(zip(self.subsets, self.digits)):
            code = self._kpow[:d][::-1] @ f[digits]
            ranks = np.arange(len(subsets))[:, None] * self._kpow[d]
            out.append((self.offset[d] + ranks + code).ravel())
        return np.concatenate(out)

    @functools.cached_property
    def slots(self) -> np.ndarray:
        S, blocks = self.n * self.copies, []
        for combos, labels in zip(self.subsets, self.digits):
            size = labels.shape[1]
            block = np.zeros((len(combos), size, S), dtype=self.dtype)
            block[np.arange(len(combos))[:, None], :, combos] = labels + 1
            blocks.append(block.reshape(len(combos) * size, S))
        return np.concatenate(blocks)

    @functools.cached_property
    def keys(self) -> list:
        """The keys as tuples, in id order."""
        n, k, S = self.n, self.k, self.n * self.copies
        pairs = np.empty(S * k, dtype=object)
        pairs[:] = [(s % n, a, s // n) for s in range(S) for a in range(k)]
        out = [()]
        for combos, labels in zip(self.subsets[1:], self.digits[1:]):
            codes = (combos[:, None] * k + labels.T).reshape(-1, len(labels))
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

    def _rows_of(self, ids: np.ndarray) -> np.ndarray:
        """The `slots` rows of the flat ids alone, read off their subsets
        and codes: a (len(ids), S) view of a slot-major array, so that
        `rank` reads each slot's column contiguously."""
        d = np.searchsorted(self.offset, ids, side="right") - 1
        out = np.zeros((self.n * self.copies, ids.size), dtype=self.dtype)
        for e in range(1, d.max(initial=0) + 1):
            at = np.flatnonzero(d == e)
            rank, code = np.divmod(ids[at] - self.offset[e], self._kpow[e])
            out[self.subsets[e][rank].T, at] = self.digits[e][:, code] + 1
        return out.T

    def mul(self, a, b) -> np.ndarray:
        """Ids of the products of the keys with ids a and b (broadcast);
        -1 for the zero monomial and for a product of degree above D."""
        a, b = np.broadcast_arrays(a, b)
        A, B = self._rows_of(a.ravel()), self._rows_of(b.ravel())
        clash = ((A > 0) & (B > 0) & (A != B)).any(axis=-1)
        ids = np.where(clash, -1, self.rank(np.maximum(A, B)))
        return ids.reshape(a.shape)

    def _drop(self, dropped: np.ndarray, d: int):
        """(ids, lost) for the keys of degree d with their pairs at the slots
        where `dropped` is True removed: ids[rank, code] the id of the rest
        of the key with that subset rank and label code, lost[rank] the
        number of pairs removed.  Each subset's rest is ranked once, and, as
        in `relabel`, the code is recombined digit by digit: a kept place
        weighs k to the number of kept places after it."""
        subsets = self.subsets[d]
        keep = ~dropped[subsets]
        after = keep[:, ::-1].cumsum(axis=1)[:, ::-1] - keep
        weight = np.where(keep, self._kpow[after], 0)
        chosen = np.zeros((len(subsets), self.n * self.copies), dtype=bool)
        chosen[np.arange(len(subsets))[:, None], subsets] = keep
        size = keep.sum(axis=1)
        start = self.offset[size] + self.subset_rank(chosen) * self._kpow[size]
        return start[:, None] + weight @ self.digits[d], d - size

    @functools.cached_property
    def id_of(self) -> dict:
        """Canonical key -> id, for scalar lookups."""
        return dict(zip(self.keys, range(len(self))))


_moment_index = functools.lru_cache(maxsize=32)(MomentIndex)


def moment_index(n: int, k: int, D: int, copies: int = 1) -> MomentIndex:
    """The cached index of (n, k, D, copies): one object however the
    arguments are spelled."""
    return _moment_index(n, k, D, copies)


@functools.lru_cache(maxsize=64)
def _halves(n: int, k: int, D: int, d: int | None = None) -> np.ndarray:
    """(N, 2), read-only: per key of degree d of `moment_index(n, k, D, 2)`
    (of every degree <= D when d is None), the ids of its copy-0 and copy-1
    parts.  Each subset's parts are ranked once, and a code is (copy-0
    code) k^d1 + (copy-1 code), d1 the copy-1 degree (module docstring)."""
    if d is None:
        out = np.concatenate([_halves(n, k, D, e) for e in range(D + 1)])
    else:
        one, eye = moment_index(n, k, D), np.eye(2 * n, dtype=bool)
        T = moment_index(n, k, D, 2).subsets[d]
        chosen = eye[T].any(axis=1).reshape(-1, 2, n)   # per copy
        size = chosen.sum(axis=-1)
        start = one.offset[size] + one.subset_rank(chosen) * one._kpow[size]
        code = np.divmod(np.arange(k**d), one._kpow[size[:, 1, None]])
        out = (start[:, None] + np.stack(code, axis=-1)).reshape(-1, 2)
    out.flags.writeable = False
    return out


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
               + (wA @ index.digits[d1]).transpose(0, 2, 1)[..., None]
               + (wB @ index.digits[d2])[:, None])
        clash = np.zeros(ids.shape, dtype=bool)
        for i, j in itertools.product(range(d1), range(d2)):
            same = A[:, i, None] == B[None, :, j]
            differ = index.digits[d1][i][:, None] != index.digits[d2][j]
            clash |= same[:, None, :, None] & differ[None, :, None, :]
        block = np.where(clash, -1, ids).reshape(len(A) * k**d1,
                                                len(B) * k**d2)
        rows = slice(index.offset[d1], index.offset[d1 + 1])
        cols = slice(index.offset[d2], index.offset[d2 + 1])
        E[rows, cols] = block
        E[cols, rows] = block.T
    E.flags.writeable = False
    return E


@functools.lru_cache(maxsize=64)
def _fft_ids(n: int, k: int, D: int, d: int | None = None) -> np.ndarray:
    """Per full-label key of degree d (of every degree <= D when d is None),
    the id of the charge monomial whose charges are its labels (label 0
    drops the slot): the grid the FFT transforms.

    A key's charge monomial keeps the slots of its nonzero labels, so its id
    is the rank of that sub-subset of the key's subset plus a term of the
    label code alone: the 2^d sub-subsets of every d-subset are ranked once,
    and each code picks its own."""
    if d is None:
        return np.concatenate([_fft_ids(n, k, D, e) for e in range(D + 1)])
    full, charge = moment_index(n, k, D), moment_index(n, k - 1, D)
    subsets, labels = full.subsets[d], full.digits[d]
    bit = 1 << np.arange(d - 1, -1, -1)     # place i's bit in a mask
    kept = np.arange(2**d)[:, None] & bit > 0   # kept[mask, i]
    chosen = np.zeros((len(subsets), n, 2**d), dtype=bool)
    chosen[np.arange(len(subsets))[:, None], subsets] = kept.T
    sub = charge.subset_rank(chosen.transpose(0, 2, 1))
    sub *= charge._kpow[kept.sum(axis=1)]
    # per code: its drop mask, and the charge degree and code it keeps
    nonzero = labels > 0
    mask = bit @ nonzero
    after = nonzero[::-1].cumsum(axis=0)[::-1] - nonzero  # kept after i
    code = (np.where(nonzero, labels - 1, 0) * charge._kpow[after]).sum(0)
    return (sub[:, mask] + (charge.offset[nonzero.sum(0)] + code)).ravel()


class _ChargeLayout:
    """What the charge-basis SDP needs of (n, k, D) (module docstring): the
    coordinates, the stored blocks and A from coordinates to packed blocks,
    a sparse matrix (t_row, t_col, t_coef).  Built by `_charge_layout`, one
    block's terms at a time: blocks own disjoint packed rows, so summing
    each block's terms per (row, coordinate) pair as they come gives what
    summing every block's at once would."""

    def __init__(self, n: int, k: int, D: int):
        self.k = k
        self.rbasis = moment_index(n, k - 1, D // 2)
        self.rmoments = moment_index(n, k - 1, D)
        # g -> k - g on the slot entries 1..k-1 (labels 0..k-2)
        negation = np.arange(k - 2, -1, -1)
        negated = self._coordinates(negation)
        B = self.rbasis.slots
        charge = B.sum(axis=1, dtype=np.int64) % k
        partner = self.rbasis.relabel(negation)  # of -g
        scale = float(k) ** (-0.5 * (B > 0).sum(axis=1))
        self.blocks, terms, start = [], [], 0
        for c in range(k // 2 + 1):
            ids = np.flatnonzero(charge == c)
            real = 2 * c % k == 0
            block = admm._Block(ids.size, real, 1.0 if real else 2.0, start)
            fns = self._basis(ids, partner, scale, real)
            row, col, coef = self._summed(
                self._entries(block, fns, B, negated))
            terms.append((row + start, col, coef))
            self.blocks.append(block)
            start = block.part.stop
        self.packed_size = start
        self.t_row, self.t_col, self.t_coef = map(np.concatenate, zip(*terms))
        # the diagonal of A^T A, which is diagonal (module docstring)
        self.counts = np.bincount(self.t_col, weights=self.t_coef**2,
                                  minlength=self.size)

    def _coordinates(self, negation: np.ndarray) -> np.ndarray:
        """Coordinates of the charge-0 moments `charge0` (in id order), by
        position p there: yhat(g) = y[re[p]] + 1j sign[p] y[im[p]], one
        coordinate for g = -g and two for a pair.  Returns the position of
        each one's negation -g.  Degree d's charge-0 moments are its codes
        of charge sum 0 under every subset, and negation keeps the subset
        and permutes those codes."""
        k, index = self.k, self.rmoments
        ids, negated, at = [], [], 0
        for d, digits in enumerate(index.digits):
            zero = np.flatnonzero((digits + 1).sum(axis=0) % k == 0)
            neg = index._kpow[:d][::-1] @ negation[digits[:, zero]]
            rank = np.arange(index._binom[index.n, d])[:, None]
            base = index.offset[d] + rank * index._kpow[d]
            ids.append((base + zero).ravel())
            negated.append((at + rank * zero.size
                            + np.searchsorted(zero, neg)).ravel())
            at += ids[-1].size
        self.charge0, negated = np.concatenate(ids), np.concatenate(negated)
        p = np.arange(at)
        first, single = negated > p, negated == p
        width = np.where(first, 2, np.where(single, 1, 0))
        start = np.cumsum(width) - width
        self.size = int(width.sum())
        self.re, self.im = np.zeros((2, at), dtype=np.int64)
        self.sign = np.zeros(at)
        own = first | single
        self.re[own], self.im[first] = start[own], start[first] + 1
        self.sign[first] = 1.0
        later, mate = ~own, negated[~own]
        self.re[later], self.im[later] = self.re[mate], self.im[mate]
        self.sign[later] = -1.0
        self.pairs = (start[first], start[first] + 1)
        self.reals = start[single][1:]       # coordinate 0 is yhat(empty)
        return negated

    def position(self, ids: np.ndarray) -> np.ndarray:
        """The positions of charge-0 ids in `charge0`, which index `re`,
        `im` and `sign`."""
        return np.searchsorted(self.charge0, ids)

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

    def _entries(self, block, fns, B, negated):
        """(packed entry, coordinate, coef) triples of one block: entry
        (i, j) is E[f_i conj(f_j)] = sum q q' yhat(g - g'), and each yhat
        reads one or two coordinates.  A zero q (a complex block's second
        term, and that of a real g = -g) adds nothing and is skipped."""
        rows, cols = np.tril_indices(block.dim)
        offdiag, k = rows != cols, self.k
        # where each off-diagonal entry's imaginary part is packed
        imag_at = rows.size + np.cumsum(offdiag) - 1
        (g1, _), (g2, _) = fns
        # positions of g - g' for the term pairs (first, first), (first,
        # second), ... at every entry; in a real block the second term's
        # charge is the negation of the first's, so the pairs that start
        # with it negate those that start with the first
        diff = {(0, 0): self.position(
            self.rmoments.rank((B[g1[rows]] - B[g1[cols]]) % k))}
        if block.real:
            diff[0, 1] = self.position(
                self.rmoments.rank((B[g1[rows]] - B[g2[cols]]) % k))
            diff[1, 0] = negated[diff[0, 1]]
            diff[1, 1] = negated[diff[0, 0]]
        for (a, b), p in diff.items():
            (_, qa), (_, qb) = fns[a], fns[b]
            at = np.flatnonzero((qa[rows] != 0) & (qb[cols] != 0))
            if not at.size:
                continue
            r, c = rows[at], cols[at]
            alpha = qa[r] * qb[c].conj() * block.f[at]
            m = p[at]
            re, im, sign = self.re[m], self.im[m], self.sign[m]
            yield at, re, alpha.real
            yield at, im, -sign * alpha.imag
            if not block.real:
                off = offdiag[at]
                yield imag_at[at[off]], re[off], alpha.imag[off]
                yield imag_at[at[off]], im[off], (sign * alpha.real)[off]

    def _summed(self, terms):
        """One block's terms (packed entry, coordinate, coef) summed per
        pair, the pairs in row-major order, zero sums dropped.  The stable
        sort keeps each pair's terms in the order they came and `bincount`
        adds them in it, as one sum over every block's terms would
        (`np.add.reduceat` adds a pair's tail first and rounds apart)."""
        rows, cols, coefs = map(np.concatenate, zip(*terms))
        key = rows * self.size + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.empty(key.size, dtype=bool)
        new[:1], new[1:] = True, key[1:] != key[:-1]
        coef = np.bincount(np.cumsum(new) - 1, weights=coefs[order])
        keep = np.abs(coef) > 1e-12
        row, col = np.divmod(key[new][keep], self.size)
        return row, col, coef[keep]

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
        out[self.charge0] = y[self.re] + 1j * self.sign * y[self.im]
        return out

    def upper_bound(self, r: np.ndarray) -> float:
        """r_empty + sum over the other coordinates of |r|, a pair's two
        taken together, which bounds r . y since |yhat(g)| <= 1."""
        re, im = self.pairs
        return float(r[0] + np.hypot(r[re], r[im]).sum()
                     + np.abs(r[self.reals]).sum())


_charge_layout = functools.lru_cache(maxsize=16)(_ChargeLayout)


class _ChargeFrame:
    """The charge blocks of the moment-matrix basis of (n, k, D/2) (module
    docstring): `dft[d]`, the label DFT on each d-subset; `charge` per basis
    function; `blocks`, the ids of one charge per conjugate pair, and
    `product_blocks`, the base ids of the product basis's copy parts
    (`_halves`) per orbit of (c_0, c_1) under conjugation and the copy swap
    (c_0, c_1) -> (c_1, c_0).  Each block carries the local positions of
    its functions' negations (g -> -g on every slot) when it is
    self-conjugate, and None else; a product block also carries the number
    of self-conjugate blocks it stands for, its own swap image included."""

    def __init__(self, n: int, k: int, half: int):
        index = moment_index(n, k, half)
        self.offset, self.dft, charge = index.offset, [], []
        for d, g in enumerate(index.digits):
            self.dft.append(np.exp(2j * np.pi / k * (g.T @ g)) / k**(d / 2))
            charge.append(np.tile(g.sum(axis=0) % k, math.comb(n, d)))
        self.charge = np.concatenate(charge)
        two = moment_index(n, k, half, 2)
        left, right = _halves(n, k, half).T
        negate = -np.arange(k) % k
        flip, flip2 = index.relabel(negate), two.relabel(negate)
        self.blocks = []
        for c in range(k):
            ids = np.flatnonzero(self.charge == c)
            if c <= -c % k:
                self.blocks.append((ids, np.searchsorted(ids, flip[ids])
                                    if c == -c % k else None))
        pair = self.charge[left] * k + self.charge[right]
        self.product_blocks = []
        for a, b in itertools.product(range(k), repeat=2):
            rows, conj = np.flatnonzero(pair == a * k + b), (-a % k, -b % k)
            if rows.size and (a, b) <= min(conj, (b, a), conj[::-1]):
                self.product_blocks.append(
                    (left[rows], right[rows],
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
