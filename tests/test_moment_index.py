"""MomentIndex ranking, and the indexed calculus against dict-based
reference implementations (the loops the gathers replaced), under exact
float equality."""
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugsos import basis, cli, sos
from ugsos.errors import NullEventError, ParameterError
from ugsos.graphs import johnson_graph
from ugsos.instances import plant_instance
from ugsos.rounding import cond_marginals
from ugsos.basis import MomentIndex
from ugsos.sos import (PseudoExpectation, build_relaxation, canon_key,
                       check_shift_symmetric, condition, mixture_pe,
                       moment_matrix, pair_moments, point_mass_pe,
                       product_copy, rerandomize, solve_sdp, symmetrize)

from reference import (all_canonical_keys, key_mul, ref_charge_layout,
                       ref_shift_deviation, shift_key)


# -- ranking ----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(1, 4), st.integers(0, 4),
       st.sampled_from([1, 2]), st.randoms(use_true_random=False))
def test_rank_and_unrank_follow_enumeration_order(n, k, D, copies, rnd):
    idx = MomentIndex(n, k, D, copies)
    keys = list(all_canonical_keys(n, k, D, copies))
    assert idx.keys == keys and len(idx) == len(keys)
    assert np.array_equal(idx.rank(idx.slots), np.arange(len(keys)))
    pos = {key: i for i, key in enumerate(keys)}
    a = np.array([rnd.randrange(len(keys)) for _ in range(50)])
    b = np.array([rnd.randrange(len(keys)) for _ in range(50)])
    expect = []
    for i, j in zip(a, b):
        km = key_mul(keys[i], keys[j])
        expect.append(-1 if km is None or len(km) > D else pos[km])
    assert idx.mul(a, b).tolist() == expect


def test_large_alphabet_ranks_and_shifts():
    # slot entries and shifted labels outgrow int8 from k = 127 on
    idx = MomentIndex(2, 130, 2)
    keys = list(all_canonical_keys(2, 130, 2))
    assert idx.keys == keys
    assert np.array_equal(idx.rank(idx.slots), np.arange(len(keys)))
    rng = np.random.default_rng(3)
    pE = sos.PseudoExpectation(1, 130, 1, rng.random(131))
    _same(symmetrize(pE), ref_symmetrize(pE))


# -- grid tables against the per-key rank/mul reference ------------------------

def rank_partition_table(pE):
    """`sos._partition_table` as S * k rankings of every key's slot row."""
    index, D = pE.index, pE.degree
    L = index.slots[:index.offset[D]]
    values = pE._array()
    worst = np.zeros(len(L))
    for s in range(L.shape[1]):
        free = np.flatnonzero(L[:, s] == 0)
        rows, total = L[free], np.zeros(len(free))
        for a in range(1, pE.k + 1):
            rows[:, s] = a
            total += values[index.rank(rows)]
        worst[free] = np.maximum(worst[free], np.abs(total - values[free]))
    amp, res = [0.0] * D, [0.0] * D
    for d in range(D):
        part = slice(index.offset[d], index.offset[d + 1])
        if part.start < part.stop:
            amp[d] = max(0.0, float(np.abs(values[part]).max()))
            res[d] = max(0.0, float(worst[part].max()))
    return amp, res


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(2, 5), st.sampled_from([2, 4, 6]),
       st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
def test_grid_tables_match_per_key_ranking(n, k, D, copies, seed):
    while basis._index_size(n, k, D, copies) > 20_000:
        n -= 1
    rng = np.random.default_rng(seed)
    index = MomentIndex(n, k, D, copies)
    L = index.slots
    # label shifts, and the charge negation g -> k - g on entries 1..k-1
    for t in range(k):
        shifted = np.where(L > 0, (L - 1 - t) % k + 1, 0)
        assert np.array_equal(index.relabel((np.arange(k) - t) % k),
                              index.rank(shifted))
    charges = MomentIndex(n, k - 1, D, copies)
    G = charges.slots
    assert np.array_equal(charges.relabel(np.arange(k - 2, -1, -1)),
                          charges.rank(np.where(G > 0, k - G, 0)))
    pE = PseudoExpectation(D, k, n, rng.normal(size=len(index)),
                           copy_count=copies)
    assert sos._partition_table(pE) == rank_partition_table(pE)
    dim = int(index.offset[D // 2 + 1])
    rows, cols = np.indices((dim, dim))
    assert np.array_equal(basis._product_ids(index), index.mul(rows, cols))


@pytest.mark.parametrize("n, k, D", [(8, 3, 4), (10, 3, 4), (6, 2, 4),
                                     (5, 4, 4), (6, 3, 6), (0, 3, 4)])
def test_fft_ids_match_per_key_ranking(n, k, D):
    # the charge monomial of every full-label key, ranked key by key
    L = MomentIndex(n, k, D).slots
    ref = MomentIndex(n, k - 1, D).rank(np.where(L > 0, L - 1, 0))
    assert np.array_equal(basis._fft_ids.__wrapped__(n, k, D), ref)


class _RankEveryPair(basis._ChargeLayout):
    """The charge layout with every basis-term pair's differences ranked
    directly, the reference for the negation shortcut."""

    def _entries(self, block, fns, B, negated):
        rows, cols = np.tril_indices(block.dim)
        offdiag, k = rows != cols, self.k
        imag_at = rows.size + np.cumsum(offdiag) - 1
        for (ga, qa), (gb, qb) in itertools.product(fns, fns):
            at = np.flatnonzero((qa[rows] != 0) & (qb[cols] != 0))
            if not at.size:
                continue
            r, c = rows[at], cols[at]
            alpha = qa[r] * qb[c].conj() * block.f[at]
            m = self.position(self.rmoments.rank((B[ga[r]] - B[gb[c]]) % k))
            re, im, sign = self.re[m], self.im[m], self.sign[m]
            yield at, re, alpha.real
            yield at, im, -sign * alpha.imag
            if not block.real:
                off = offdiag[at]
                yield imag_at[at[off]], re[off], alpha.imag[off]
                yield imag_at[at[off]], im[off], (sign * alpha.real)[off]


@pytest.mark.parametrize("n, k, D", [(3, 3, 4), (3, 4, 6), (10, 3, 4),
                                     (4, 2, 4), (5, 5, 4), (4, 3, 6),
                                     (6, 6, 4), (1, 3, 2)])
def test_charge_layout_matches_ranking_every_pair(n, k, D):
    got, ref = basis._ChargeLayout(n, k, D), _RankEveryPair(n, k, D)
    for name in ("t_row", "t_col", "t_coef", "counts"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


@pytest.mark.parametrize("n, k, D", [(3, 2, 4), (4, 3, 4), (5, 2, 6),
                                     (8, 3, 4), (10, 3, 4), (6, 4, 4),
                                     (15, 3, 4), (8, 2, 6)])
def test_charge_layout_matches_the_whole_index_reference(n, k, D):
    got = basis._ChargeLayout(n, k, D)
    ref = ref_charge_layout(n, k, D)
    for name, want in zip(("t_row", "t_col", "t_coef", "counts"), ref):
        assert np.array_equal(getattr(got, name), want), name
    assert [(b.dim, b.real, b.part) for b in got.blocks] == ref[-1]


def test_charge_layout_build_memory_follows_one_block():
    # one block's terms at a time, and coordinate maps over the charge-0
    # moments only: built over the whole charge index the peak was 24.9 MB
    basis._moment_index.cache_clear()
    tracemalloc.start()
    try:
        basis._ChargeLayout(15, 3, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13e6


def test_moment_index_is_one_object_however_spelled():
    assert (basis.moment_index(4, 3, 2) is basis.moment_index(4, 3, 2, 1)
            is basis.moment_index(4, 3, 2, copies=1))


def test_johnson_solve_round_builds_no_slot_table(capsys):
    # products come from the operands' subsets and codes: neither the
    # solver's table nor the charge index lists every key as a slot row
    for name in dir(basis):
        cache_clear = getattr(getattr(basis, name), "cache_clear", None)
        if cache_clear is not None:
            cache_clear()
    assert cli.main(["solve-round", "--family", "johnson", "--n", "5",
                     "--l", "2", "--alpha", "0.5", "--seed", "0", "--k", "3",
                     "--eps", "0.05", "--degree", "4", "--tol", "3e-3"]) == 0
    capsys.readouterr()
    for args in [(10, 3, 4), (10, 2, 4)]:
        assert "slots" not in vars(basis.moment_index(*args))


def test_symmetrize_and_validate_rank_no_key_by_key(cube3_raw, monkeypatch):
    # the grid tables, and the product basis's copy parts (`_halves`), rank
    # subsets only, not slot rows key by key
    calls = []
    rank = MomentIndex.rank

    def spy(self, rows):
        calls.append(rows.shape)
        return rank(self, rows)

    for cache in (basis._moment_index, basis._product_ids,
                  basis._charge_frame, basis._halves):
        cache.cache_clear()
    monkeypatch.setattr(MomentIndex, "rank", spy)
    sym = symmetrize(cube3_raw)
    assert calls == []
    for pE in (cube3_raw, product_copy(sym)):
        sos.validate(pE)
    assert len(calls) <= 2


# -- dict-based references ----------------------------------------------------

def ref_symmetrize(pE):
    k = pE.k
    new = {}
    for key in pE.moments:
        for s in range(k):
            skey = shift_key(key, s, k)
            if skey in new:
                continue
            new[skey] = sum(pE.moment(shift_key(skey, -t, k))
                            for t in range(k)) / k
    return new


def ref_condition(pE, event):
    event = sos.canon_key(event)
    p_event = pE.moment(event)
    new = {}
    for m in all_canonical_keys(pE.num_vertices, pE.k,
                                pE.degree - 2 * len(event),
                                copies=pE.copy_count):
        km = key_mul(m, event)
        new[m] = pE.moment(km) / p_event if km is not None else 0.0
    return new


def ref_rerandomize(pE, S):
    S = set(S)
    if not S:
        return dict(pE.moments)
    new = {}
    for m in all_canonical_keys(pE.num_vertices, pE.k, pE.degree):
        rest = tuple(p for p in m if p[0] not in S)
        t = len(m) - len(rest)
        new[m] = pE.moment(rest) / pE.k**t
    return new


def ref_moment_matrix(pE):
    basis = list(all_canonical_keys(pE.num_vertices, pE.k, pE.degree // 2,
                                    copies=pE.copy_count))
    M = np.zeros((len(basis), len(basis)))
    for i, a in enumerate(basis):
        for j in range(i + 1):
            km = key_mul(a, basis[j])
            M[i, j] = M[j, i] = pE.moment(km) if km is not None else 0.0
    return M


def ref_partition_table(pE):
    amp = [0.0] * pE.degree
    res = [0.0] * pE.degree
    for m in all_canonical_keys(pE.num_vertices, pE.k, pE.degree - 1,
                                copies=pE.copy_count):
        d = len(m)
        pm = pE.moment(m)
        amp[d] = max(amp[d], abs(pm))
        for u in range(pE.num_vertices):
            for cpy in range(pE.copy_count):
                tot = 0.0
                for a in range(pE.k):
                    km = key_mul(m, ((u, a, cpy),))
                    if km is not None:
                        tot += pE.moment(km)
                res[d] = max(res[d], abs(tot - pm))
    return amp, res


# -- inputs -------------------------------------------------------------------

@pytest.fixture(scope="module")
def j52_raw():
    inst, _ = plant_instance(johnson_graph(5, 2, 0.5), 3, 0.05, seed=0)
    return solve_sdp(build_relaxation(inst, 2), tol=1e-4)


@pytest.fixture(scope="module")
def tables(cube3_raw, j52_raw):
    sym = symmetrize(cube3_raw)
    return {
        "cube3": cube3_raw,
        "cube3-sym": sym,
        "j52": j52_raw,
        "point-mass": point_mass_pe(4, 3, [0, 2, 1, 1]),
        "mixture": mixture_pe(4, 3, [(0.3, [0, 1, 2, 0]),
                                     (0.7, [1, 1, 0, 2])]),
        "conditioned": condition(sym, ((2, 1, 0),)),
    }


TABLES = ["cube3", "cube3-sym", "j52", "point-mass", "mixture",
          "conditioned"]


def _same(pE, ref: dict):
    got = dict(pE.moments)
    assert got.keys() == ref.keys()
    assert all(got[key] == val for key, val in ref.items())


@pytest.mark.parametrize("name", TABLES)
def test_symmetrize_matches_reference(tables, name):
    pE = tables[name]
    _same(symmetrize(pE), ref_symmetrize(pE))


@pytest.mark.parametrize("name", TABLES)
def test_condition_matches_reference(tables, name):
    pE = tables[name]
    event = max((((1, a, 0),) for a in range(pE.k)), key=pE.moment)
    _same(condition(pE, event), ref_condition(pE, event))


def test_condition_of_product_copy_matches_reference(tables):
    pE2 = product_copy(tables["cube3-sym"])
    event = ((0, 0, 0), (1, 1, 1))
    _same(condition(pE2, event), ref_condition(pE2, event))


def test_conditioning_a_product_copy_leaves_its_top_degree_unbuilt(tables):
    # a D = 4 product copy conditioned on one event reads its blocks <= 3
    pE2 = product_copy(tables["cube3-sym"])
    basis._halves.cache_clear()
    condition(pE2, ((0, 0, 0),))
    misses = basis._halves.cache_info().misses
    basis._halves(pE2.num_vertices, pE2.k, 4, 4)
    assert basis._halves.cache_info().misses == misses + 1


def test_product_copy_reads_build_no_two_copy_key_table(tables):
    # scalar reads, the fill and conditioning of a product copy take ids
    # from the base's key map, `basis._halves` and `mul` on smaller
    # indexes: the degree-D two-copy index builds no keys, key map or rows
    basis._moment_index.cache_clear()
    sym = tables["cube3-sym"]
    pE2 = product_copy(sym)
    pE2.moment(((0, 1, 0), (3, 2, 0), (1, 0, 1), (5, 2, 1)))
    condition(pE2, ((0, 0, 1),))
    condition(product_copy(sym), ((0, 0, 0), (1, 1, 1)))
    pE2._array()
    assert {"keys", "id_of", "slots"}.isdisjoint(vars(pE2.index))


@pytest.mark.parametrize("name", TABLES)
def test_rerandomize_matches_reference(tables, name):
    pE = tables[name]
    n = pE.num_vertices
    for S in ([], [1], [0, 2], list(range(n))):
        _same(rerandomize(pE, S), ref_rerandomize(pE, S))


@pytest.mark.parametrize("name", TABLES)
def test_moment_matrix_and_partition_table_match_reference(tables, name):
    pE = tables[name]
    assert np.array_equal(moment_matrix(pE), ref_moment_matrix(pE))
    assert sos._partition_table(pE) == ref_partition_table(pE)


def _charge_moments(n, k, D, comps):
    """yhat(g) = sum_x w omega^(g . x) of a mixture, over the charge
    monomials of `moment_index(n, k - 1, D)` (slot entry = charge)."""
    G = basis.moment_index(n, k - 1, D).slots.astype(np.int64)
    total = sum(w for w, _ in comps)
    yhat = np.zeros(len(G), dtype=complex)
    for w, x in comps:
        yhat += (w / total) * np.exp(2j * np.pi * (G @ np.array(x)) / k)
    return yhat


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(2, 5), st.integers(0, 4),
       st.lists(st.tuples(st.floats(0.1, 1.0),
                          st.lists(st.integers(0, 4), min_size=4,
                                   max_size=4)),
                min_size=1, max_size=3))
def test_full_moments_match_shift_symmetric_mixtures(n, k, D, draws):
    # all k shifts of each drawn assignment: only charge-0 moments survive
    comps = [(w, [(a + t) % k for a in x[:n]])
             for w, x in draws for t in range(k)]
    got = sos._full_moments_from_reduced(_charge_moments(n, k, D, comps),
                                         n, k, D)
    ref = mixture_pe(n, k, comps, D)._array()
    assert np.abs(got - ref).max() <= 1e-14


def ref_block(layout, yhat, c):
    """Block c of the moment matrix over the scaled characters
    k^(-|g|/2) chi^g of charge c, entry (g, h) = yhat(g - h), from the keys
    (label = charge - 1) and a dict of the moment keys."""
    k = layout.k
    ids = {key: i for i, key in enumerate(layout.rmoments.keys)}
    basis = [key for key in layout.rbasis.keys
             if sum(a + 1 for (_, a, _) in key) % k == c]
    charge = [{v: a + 1 for (v, a, _) in key} for key in basis]
    H = np.zeros((len(basis), len(basis)), dtype=complex)
    for i, g in enumerate(charge):
        for j, h in enumerate(charge):
            diff = {v: (g.get(v, 0) - h.get(v, 0)) % k for v in g.keys() | h}
            key = tuple(sorted((v, q - 1, 0) for v, q in diff.items() if q))
            H[i, j] = (k ** (-(len(g) + len(h)) / 2.0)) * yhat[ids[key]]
    return H


def test_blocks_match_pairwise_products():
    # a Hermitian block holds the reference entries; a block with c = -c is
    # stored in a real basis, a unitary change, so only its spectrum is kept
    rng = np.random.default_rng(11)
    for (n, k, D) in [(3, 3, 4), (3, 4, 6), (10, 3, 4), (4, 2, 4)]:
        layout = basis._charge_layout(n, k, D)
        y = rng.normal(size=layout.size)
        y[0] = 1.0
        X = layout.A(y)
        yhat = layout.moments(y)
        for c, block in enumerate(layout.blocks):
            H = ref_block(layout, yhat, c)
            M = block.unpack(X[block.part])
            M = M + np.tril(M, -1).conj().T
            assert np.abs(H - H.conj().T).max() <= 1e-15
            if block.real:
                assert M.dtype == float
                assert np.allclose(np.linalg.eigvalsh(M),
                                   np.linalg.eigvalsh(H), rtol=0, atol=1e-12)
            else:
                assert np.abs(M - H).max() <= 1e-15


# -- solver status ------------------------------------------------------------

def test_unconverged_flag_survives_every_operation(triangle_unsat):
    pE = solve_sdp(build_relaxation(triangle_unsat, 4), max_iters=5)
    assert pE.flags.get("unconverged")
    pE2 = product_copy(pE)
    derived = [symmetrize(pE), pE2, condition(pE, ((0, 0, 0),)),
               condition(pE2, ((0, 0, 0), (1, 1, 1)))]
    derived += [rerandomize(pE, S) for S in ([], [1], [0, 2], [0, 1, 2])]
    assert all(d.flags.get("unconverged") for d in derived)


# -- scalar view --------------------------------------------------------------

def test_moments_view_is_read_only_and_complete(tables):
    for name in TABLES:
        pE = tables[name]
        args = (pE.num_vertices, pE.k, pE.degree)
        assert len(pE.moments) == len(basis.moment_index(*args))
        assert list(pE.moments) == list(all_canonical_keys(*args))
    pE = tables["cube3"]
    view = pE.moments
    key = ((0, 1, 0), (5, 2, 0))
    assert view[key] == pE.moment(key)
    with pytest.raises(TypeError):
        view[key] = 0.0
    assert dict(itertools.islice(view.items(), 3)) == {
        m: pE.moment(m) for m in list(view)[:3]}


# -- pairwise moments and their readers ---------------------------------------

def ref_cond_marginals(pE, u):
    """`rounding.cond_marginals` as it read the moments key by key."""
    n, k = pE.num_vertices, pE.k
    mass = pE.moment(((u, 0, 0),))
    if mass <= sos.COND_FLOOR:
        raise NullEventError(f"pE[X_{u},0] = {mass:.3e}")
    q = np.zeros((n, k))
    for v in range(n):
        if v == u:
            q[u, 0] = 1.0
            continue
        for a in range(k):
            q[v, a] = pE.moment(canon_key(((v, a, 0), (u, 0, 0)))) / mass
    q = np.clip(q, 0.0, None)
    rows = q.sum(axis=1, keepdims=True)
    bad = rows[:, 0] <= 0.0
    q[bad] = 1.0 / k
    rows[bad] = 1.0
    return q / rows


@pytest.mark.parametrize("name", TABLES)
def test_pair_moments_match_per_key_reference(tables, name):
    pE = tables[name]
    n, k = pE.num_vertices, pE.k
    ref = np.array([pE.moment(canon_key(((u, a, 0), (v, b, 0))))
                    for u, v, a, b in itertools.product(
                        range(n), range(n), range(k), range(k))])
    assert np.array_equal(pair_moments(pE), ref.reshape(n, n, k, k))


def test_pair_moments_need_one_copy_of_degree_2():
    pE = point_mass_pe(3, 3, [0, 1, 2])
    for bad in (product_copy(pE), point_mass_pe(3, 3, [0, 1, 2], degree=1)):
        with pytest.raises(ParameterError):
            pair_moments(bad)


@pytest.mark.parametrize("name", TABLES)
def test_cond_marginals_and_symmetry_check_match_reference(tables, name):
    pE = tables[name]
    Q, mass = cond_marginals(pE)
    for u in range(pE.num_vertices):
        try:
            ref = ref_cond_marginals(pE, u)
        except NullEventError:
            assert mass[u] <= sos.COND_FLOOR
            continue
        assert np.array_equal(Q[u], ref)
    dev = ref_shift_deviation(pE)
    if dev > sos.SYM_CHECK_TOL:
        with pytest.raises(ParameterError,
                           match=re.escape(f"deviation {dev:.3e}")):
            check_shift_symmetric(pE)
    else:
        assert check_shift_symmetric(pE) == dev
