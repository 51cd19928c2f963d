"""Pseudoexpectation calculus: canonical keys, solver output, symmetrization,
conditioning, product copies, rerandomization, and the validity axioms."""
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugsos import _kernels, admm, basis, sos
from ugsos.errors import (DegreeError, NullEventError, ParameterError,
                          SizeCapError)
from ugsos.graphs import johnson_graph, noisy_hypercube
from ugsos.instances import UgInstance, brute_force_opt, plant_instance, value
from ugsos.sos import (PseudoExpectation, build_relaxation, canon_key,
                       condition, evaluate, mixture_pe, moment_matrix,
                       point_mass_pe, poly_mul, product_copy, rerandomize,
                       solve_sdp, symmetrize, ug_objective_poly, validate)

from conftest import make_triangle
from reference import all_canonical_keys, key_mul, poly_add, z_var_poly


# -- canonical keys ---------------------------------------------------------

def test_canon_key_sorts_and_collapses():
    assert canon_key(((1, 0, 0), (0, 2, 0))) == ((0, 2, 0), (1, 0, 0))
    # X_{u,a} idempotent
    assert canon_key(((0, 1, 0), (0, 1, 0))) == ((0, 1, 0),)
    # X_{u,a} X_{u,b} = 0 for a != b
    assert canon_key(((0, 0, 0), (0, 1, 0))) is None


def test_key_mul_zero_absorbs():
    assert key_mul(((0, 0, 0),), ((0, 1, 0),)) is None
    assert key_mul((), ((0, 1, 0),)) == ((0, 1, 0),)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                min_size=0, max_size=4))
def test_canon_key_idempotent(pairs):
    key = canon_key(tuple((v, a, 0) for (v, a) in pairs))
    if key is not None:
        assert canon_key(key) == key


# -- point masses and mixtures ----------------------------------------------

def test_point_mass_moments():
    pE = point_mass_pe(3, 3, [0, 1, 2])
    assert pE.moment(((0, 0, 0),)) == 1.0
    assert pE.moment(((0, 1, 0),)) == 0.0
    assert pE.moment(((0, 0, 0), (1, 1, 0))) == 1.0


def test_point_mass_is_valid():
    pE = point_mass_pe(3, 3, [0, 1, 2])
    assert validate(pE, 1e-10).passed


def test_mixture_objective_is_convex_combination(triangle_unsat):
    x1, x2 = [0, 1, 2], [0, 0, 0]
    pE = mixture_pe(3, 3, [(0.25, x1), (0.75, x2)])
    obj = ug_objective_poly(triangle_unsat)
    expect = 0.25 * value(triangle_unsat, x1) + 0.75 * value(triangle_unsat, x2)
    assert pE.pe(obj) == pytest.approx(expect, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=3, max_size=3),
       st.lists(st.integers(0, 2), min_size=3, max_size=3),
       st.floats(0.05, 0.95))
def test_mixture_is_valid_pe(x1, x2, w):
    pE = mixture_pe(3, 3, [(w, x1), (1.0 - w, x2)])
    rep = validate(pE, 1e-8)
    assert rep.passed


@pytest.mark.parametrize("x", [[0], [0, 1], [5, 0, 0], [0, -1, 0]],
                         ids=["short", "two", "label-5", "label-minus-1"])
def test_point_mass_rejects_a_bad_assignment(x):
    # one entry per vertex, each a label in [0, k), as `instances.value`
    with pytest.raises(ParameterError):
        point_mass_pe(3, 3, x)
    with pytest.raises(ParameterError):
        mixture_pe(3, 3, [(0.5, [0, 1, 2]), (0.5, x)])


@pytest.mark.parametrize("weights", [(-0.5, 1.5), (0.0, 0.0), (0.5, -0.5)])
def test_mixture_rejects_negative_weights_and_a_non_positive_total(weights):
    with pytest.raises(ParameterError):
        mixture_pe(3, 3, list(zip(weights, ([0, 1, 2], [1, 1, 0]))))


# -- polynomial arithmetic vs genuine distributions -------------------------

def test_scalar_reads_canonicalize_any_spelling():
    # pE[X_{0,0} X_{1,2}] = 1/3 on the symmetrized point mass on [0, 2, 1],
    # however the monomial is spelled
    pE = symmetrize(point_mass_pe(3, 3, [0, 2, 1]))
    pE2 = product_copy(pE)
    third = pE.moment(((0, 0, 0), (1, 2, 0)))
    assert third == pytest.approx(1.0 / 3.0)
    for mono in (((1, 2, 0), (0, 0, 0)), ((1, 2), (0, 0)),
                 ((0, 0), (1, 2, 0), (0, 0, 0))):
        for table in (pE, pE2):
            assert (table.moment(mono) == table.pe({mono: 1.0})
                    == evaluate(table, {mono: 1.0}) == third)
    # copy 1 of the product copy, spelled out of order
    mono = ((1, 2, 1), (0, 0, 0))
    assert (pE2.moment(mono) == pE2.pe({mono: 1.0})
            == evaluate(pE2, {mono: 1.0}) == third * third)
    # the zero monomial reads 0; above the degree raises
    for table in (pE, pE2):
        assert table.moment(None) == table.moment(((0, 0), (0, 1))) == 0.0
        assert evaluate(table, {((0, 0), (0, 1)): 2.0}) == 0.0
    with pytest.raises(DegreeError):
        pE2.moment(((0, 0), (1, 2), (2, 1), (0, 1, 1), (1, 0, 1)))


@pytest.mark.parametrize("mono", [((3, 0, 0),), ((0, 3),), ((-1, 0),),
                                  ((0, -1, 0),), ((0, 0, 1),),
                                  ((0, 0, -1), (1, 2))],
                         ids=["vertex-3", "label-3", "vertex-minus-1",
                              "label-minus-1", "copy-1", "copy-minus-1"])
def test_scalar_read_outside_the_table_raises(mono):
    pE = symmetrize(point_mass_pe(3, 3, [0, 2, 1]))
    with pytest.raises(ParameterError):
        pE.moment(mono)
    with pytest.raises(ParameterError):
        evaluate(pE, {mono: 1.0})
    pE2 = product_copy(pE)
    bad = ((0, 0, 2),) if mono == ((0, 0, 1),) else mono
    with pytest.raises(ParameterError):
        pE2.pe({bad: 1.0})
    assert pE2._values is None


def test_evaluate_linear_in_poly():
    pE = point_mass_pe(2, 2, [0, 1])
    p = {((0, 0, 0),): 2.0}
    q = {((1, 1, 0),): -1.0}
    assert evaluate(pE, poly_add(p, q)) == pytest.approx(
        evaluate(pE, p) + evaluate(pE, q))


def test_poly_mul_matches_pointwise_on_point_mass():
    pE = point_mass_pe(3, 3, [1, 2, 0])
    p = {((0, 1, 0),): 1.0, ((1, 0, 0),): 3.0}
    q = {((2, 0, 0),): 2.0, (): 1.0}
    assert evaluate(pE, poly_mul(p, q)) == pytest.approx(
        evaluate(pE, p) * evaluate(pE, q))


# -- solver -----------------------------------------------------------------

def test_sdp_at_least_opt_triangle_sat(triangle_sat):
    pE = solve_sdp(build_relaxation(triangle_sat, 2))
    _, opt = brute_force_opt(triangle_sat)
    assert pE.pe(ug_objective_poly(triangle_sat)) >= opt - 1e-5
    assert validate(pE, 1e-5).passed


def test_sdp_degree4_unsat_triangle(unsat_pe, triangle_unsat):
    _, opt = brute_force_opt(triangle_unsat)
    val = unsat_pe.pe(ug_objective_poly(triangle_unsat))
    assert val >= opt - 1e-5
    assert val <= 1.0 + 1e-6
    assert validate(unsat_pe, 1e-5).passed


def test_bad_degree_rejected(triangle_sat):
    with pytest.raises(ParameterError):
        build_relaxation(triangle_sat, 3)


def test_dim_cap_counts_the_full_basis_without_building_it(monkeypatch):
    # D=4, k=3: the full basis has 1 + 3n + 9 C(n,2) keys, 4006 at n = 30
    ring = UgInstance(30, 3, tuple((v, (v + 1) % 30, 1.0, 1)
                                   for v in range(30)))
    monkeypatch.setattr(basis, "MomentIndex", None)
    with pytest.raises(SizeCapError,
                       match="moment-matrix dimension 4006 exceeds cap 4000"):
        build_relaxation(ring, 4)
    monkeypatch.undo()
    # the triangle's full basis has 1 + 9 + 27 = 37 keys
    monkeypatch.setattr(sos, "DIM_CAP", 36)
    with pytest.raises(SizeCapError, match="dimension 37 exceeds cap 36"):
        build_relaxation(make_triangle(3), 4)
    monkeypatch.setattr(sos, "DIM_CAP", 37)
    build_relaxation(make_triangle(3), 4)


def test_solver_iterates_pinned():
    # the instance of `ugsos verify`'s symmetry check; per-iteration
    # optimizations of the ADMM loop must keep its iterates, so the iteration
    # count is exact and the value agrees to round-off (72 iterations in the
    # reduced basis from rho = 1/4, 50 from rho = 1)
    inst = UgInstance(3, 3, ((0, 1, 1.0, 1), (1, 2, 1.0, 0), (0, 2, 1.0, 1)))
    pE = solve_sdp(build_relaxation(inst, 4))
    assert pE.flags["iterations"] == 28
    assert abs(pE.flags["sdp_value"] - 0.9999999997010671) <= 1e-10
    assert pE.flags["rho"] == admm.ADMM_RHO0


def test_cube3_iterations_pinned(cube3_pe):
    # criterion 5's seed-0 hypercube at tol 1e-7: 2397 iterations in the
    # reduced basis without Anderson acceleration, 278 with it from
    # rho = 1/4, so a silent fall-back to the plain step or the old basis
    # shows
    assert cube3_pe.flags["iterations"] == 62


def test_johnson52_iterations_pinned():
    # the benchmark's J(5,2) instance (criterion 10's parameters, seed 0) at
    # tol 3e-3: 136 iterations in the reduced basis from rho = 1/4; the
    # charge basis stops before the balancing rule first looks
    inst, _ = plant_instance(johnson_graph(5, 2, 0.5), 3, 0.05, seed=0)
    pE = solve_sdp(build_relaxation(inst, 4), tol=3e-3)
    assert pE.flags["iterations"] == 36
    assert pE.flags["rho"] == admm.ADMM_RHO0


@pytest.mark.parametrize("kwargs", [
    {"max_iters": 0}, {"max_iters": -3}, {"tol": 0.0}, {"tol": -1e-7},
    {"tol": float("nan")}, {"tol": float("inf")}])
def test_solver_rejects_arguments_it_cannot_run_with(kwargs):
    problem = build_relaxation(make_triangle(3), 2)
    with pytest.raises(ParameterError):
        solve_sdp(problem, **kwargs)


def test_solver_stops_at_a_one_iteration_cap():
    pE = solve_sdp(build_relaxation(make_triangle(3), 2), max_iters=1)
    assert pE.flags["iterations"] == 1 and pE.flags["unconverged"]
    assert np.isfinite(pE.flags["dual_residual"])


def _affine_contraction(rng, p):
    """T(s) = L s + b on vectors of length p, with |L| = 0.9."""
    L = rng.normal(size=(p, p))
    L *= 0.9 / np.linalg.norm(L, 2)
    b = rng.normal(size=p)
    return lambda s: L @ s + b


@pytest.mark.parametrize("seed", range(5))
def test_anderson_solves_an_affine_contraction_in_memory_plus_one_steps(seed):
    # 6 coordinates, fewer than the memory: extrapolation finds the fixed
    # point within memory + 1 steps, where the plain iteration would still
    # be at about 0.9^11 of its start
    rng = np.random.default_rng(seed)
    accel = admm._Anderson(6)
    T = _affine_contraction(rng, 6)
    s = np.zeros(6)
    g0 = np.linalg.norm(T(s) - s)
    for _ in range(accel.memory + 1):
        Ts = T(s)
        if accel.accepts(Ts - s):
            s, plain = accel.step(Ts), Ts
        else:
            s = plain
    assert np.linalg.norm(T(s) - s) <= 1e-10 * g0


def test_anderson_empty_history_is_the_plain_step():
    rng = np.random.default_rng(1)
    accel = admm._Anderson(10)
    T = rng.normal(size=10)
    assert accel.accepts(rng.normal(size=10))
    assert accel.step(T) is T and accel.count == 0
    assert accel.accepts(T)
    assert accel.step(T + 1.0) is not T and accel.count == 1


def test_anderson_safeguard_rejects_a_worse_point_and_clears_history():
    rng = np.random.default_rng(2)
    accel = admm._Anderson(6)
    v = rng.normal(size=6)
    accel.accepts(v)
    accel.step(v)
    accel.accepts(0.5 * v)
    accel.step(2.0 * v)
    assert accel.count == 1       # so that point was extrapolated
    # the residual at the extrapolated point exceeds the one before it
    assert not accel.accepts(0.6 * v)
    assert accel.count == 0 and accel.last is None
    # the plain step that follows starts a fresh history
    assert accel.accepts(0.7 * v)
    T = 4.0 * v
    assert accel.step(T) is T and accel.count == 0


def test_anderson_history_resets_on_each_penalty_change(cube3_inst,
                                                        monkeypatch):
    # every iteration asks `accepts` once, so its calls count iterations,
    # whether or not the safeguard then rejects the extrapolated point
    iters, resets, plain_after = [], [], []
    inside = []
    accepts, step, reset = (admm._Anderson.accepts, admm._Anderson.step,
                            admm._Anderson.reset)

    def spy_accepts(self, g):
        iters.append(True)
        inside.append(True)
        out = accepts(self, g)
        inside.pop()
        return out

    def spy_step(self, T):
        out = step(self, T)
        if resets and resets[-1] == len(iters) - 1:
            plain_after.append(out is T)
        return out

    def spy_reset(self):
        if not inside and iters:      # not the safeguard, not construction
            resets.append(len(iters))
        reset(self)

    monkeypatch.setattr(admm._Anderson, "accepts", spy_accepts)
    monkeypatch.setattr(admm._Anderson, "step", spy_step)
    monkeypatch.setattr(admm._Anderson, "reset", spy_reset)
    _, inst, _ = cube3_inst
    problem = build_relaxation(inst, 4)
    # from rho0 = 1/64 this solve never rebalances; from these it does
    for rho0 in (1.0, 1.0 / 1024):
        for record in (iters, resets, plain_after):
            record.clear()
        monkeypatch.setattr(admm, "ADMM_RHO0", rho0)
        solve_sdp(problem, tol=1e-4)
        # rho is rebalanced only after every 50th iteration; this solve does
        # so at least once, and the step after each such reset is the plain
        # one
        assert resets and all(r % 50 == 0 for r in resets), rho0
        assert len(plain_after) == len(resets) and all(plain_after), rho0


def _dense_map(layout):
    """A as a dense (packed entries x coordinates) matrix."""
    return np.stack([layout.A(e) for e in np.eye(layout.size)], axis=1)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(2, 5), st.sampled_from([2, 4]),
       st.integers(0, 2**32 - 1))
def test_adjoint_matches_the_map_and_its_gram_is_diagonal(n, k, D, seed):
    layout = basis._charge_layout(n, k, D)
    rng = np.random.default_rng(seed)
    y = rng.normal(size=layout.size)
    r = rng.normal(size=layout.packed_size)
    lhs = float(layout.A(y) @ r)
    rhs = float(y @ layout.adjoint(r))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    if layout.size <= 200:
        A = _dense_map(layout)
        assert np.abs(A.T @ A - np.diag(layout.counts)).max() <= 1e-12


def _rotated(rng, lam, complex_=False):
    X = rng.normal(size=(lam.size, lam.size))
    if complex_:
        X = X + 1j * rng.normal(size=(lam.size, lam.size))
    Q, _ = np.linalg.qr(X)
    S = (Q * lam) @ Q.conj().T
    return (S + S.conj().T) / 2.0


def _spectrum(rng, npos, nzero=0, dim=40):
    # magnitudes from 1e-8 to 2, so that some lie close to zero
    lam = -10.0 ** rng.uniform(-8.0, 0.3, size=dim)
    lam[:npos] *= -1.0
    lam[npos:npos + nzero] = 0.0
    return lam


@pytest.mark.parametrize("npos, nzero, exact", [
    (31, 0, False),         # many positives
    (9, 0, False),          # many negatives
    (40, 0, False),         # all positive
    (0, 0, False),          # none positive
    (3, 0, False),          # few positives
    (37, 0, False),         # few negatives
    (3, 27, False),         # zero eigenvalues up to round-off
    (35, 3, False),
    (3, 27, True),          # exact zeros
    (35, 3, True),
], ids=["31", "9", "40", "0", "3", "37", "3-27", "35-3", "3-27-exact",
        "35-3-exact"])
def test_psd_split_matches_clipped_reconstruction(rng, npos, nzero, exact):
    """A packed block's first split, by eigh and rebuilt from the smaller
    side of the spectrum only, equals the clipped full reconstruction:
    npos positive and nzero zero eigenvalues of 40, on a real block and a
    Hermitian one, or with exact zeros on a permuted diagonal."""
    lam = _spectrum(rng, npos, nzero)
    if exact:
        perm = rng.permutation(lam.size)
        cases = [np.diag(lam)[perm][:, perm]]
    else:
        cases = [_rotated(rng, lam), _rotated(rng, lam, complex_=True)]
    for S in cases:
        real = not np.iscomplexobj(S)
        block = admm._Block(lam.size, real, 1.0 if real else 2.0, 0)
        split = admm._BlockSplit(block)
        assert not split.predicts()                  # first step: eigh
        mu, V = np.linalg.eigh(S)
        ref = (V * np.clip(mu, 0.0, None)) @ V.conj().T
        pos = admm._psd_split(block.pack(S), split)
        rest = block.pack(S) - pos
        # the packed block holds only the lower triangle, all eigh reads
        assert np.abs(block.unpack(pos) - np.tril(ref)).max() <= 1e-12
        assert np.abs(block.unpack(rest) - np.tril(S - ref)).max() <= 1e-12
        assert split.m <= lam.size // 2                 # the smaller side


needs_partial_eig = pytest.mark.skipif(
    not (_kernels.PartialEig.available(True)
         and _kernels.PartialEig.available(False)),
    reason="no LAPACKE dsyevr/zheevr in the BLAS")


def _spy_partial(monkeypatch):
    """Record the BLAS thread count at each partial eigensolver call."""
    seen = []
    call = _kernels.PartialEig.__call__

    def spy(self, vl, vu):
        seen.append(_kernels.get_blas_threads())
        return call(self, vl, vu)

    monkeypatch.setattr(_kernels.PartialEig, "__call__", spy)
    return seen


def _hinted_split(block, npos):
    """A split of `block` that predicts npos nonnegative eigenvalues, as
    one that has split a block with that spectrum before."""
    split = admm._BlockSplit(block)
    split.positive = 2 * npos <= block.dim
    split.m = npos if split.positive else block.dim - npos
    return split


@needs_partial_eig
@pytest.mark.parametrize("npos, nzero, exact, hint", [
    (3, 0, False, 3),       # few positives
    (37, 0, False, 37),     # few negatives
    (0, 0, False, 0),       # none positive
    (3, 27, False, 3),      # zero eigenvalues up to round-off
    (35, 3, False, 37),
    (3, 27, True, 3),       # exact zeros
    (35, 3, True, 37),
    (31, 0, False, 2),      # wrong hint: many positives
    (9, 0, False, 38),      # wrong hint: many negatives
])
def test_partial_psd_split_matches_clipped_reconstruction(
        rng, monkeypatch, npos, nzero, exact, hint):
    """With a side hint, the split of a packed block computes that side
    only, by the partial kernel, and equals the clipped full
    reconstruction, also when the hint is wrong: npos positive and nzero
    zero eigenvalues of 40, on a real block and a Hermitian one, or with
    exact zeros on a permuted diagonal.  Negating S and the hint swaps the
    side, and the split of -S is (-(S - S_+), -S_+)."""
    lam = _spectrum(rng, npos, nzero)
    if exact:
        perm = rng.permutation(lam.size)
        cases = [np.diag(lam)[perm][:, perm]]
    else:
        cases = [_rotated(rng, lam), _rotated(rng, lam, complex_=True)]
    seen = _spy_partial(monkeypatch)
    for S in cases:
        real = not np.iscomplexobj(S)
        block = admm._Block(lam.size, real, 1.0 if real else 2.0, 0)
        mu, V = np.linalg.eigh(S)
        ref = (V * np.clip(mu, 0.0, None)) @ V.conj().T
        pos = admm._psd_split(block.pack(S), _hinted_split(block, hint))
        rest = block.pack(S) - pos
        assert np.abs(block.unpack(pos) - np.tril(ref)).max() <= 1e-12
        assert np.abs(block.unpack(rest) - np.tril(S - ref)).max() <= 1e-12
        neg_pos = admm._psd_split(
            block.pack(-S), _hinted_split(block, lam.size - hint))
        neg_rest = block.pack(-S) - neg_pos
        assert np.abs(neg_pos + rest).max() <= 1e-12
        assert np.abs(neg_rest + pos).max() <= 1e-12
    assert len(seen) == 2 * len(cases)


def _reference_lower(block, v):
    """The lower triangle of the block packed in v by the complex formula
    (v_re + 1j v_im) / f, entry by entry: the reference for the float
    maps."""
    n = block.rows.size
    lower = v[:n] / block.f
    if not block.real:
        lower = lower.astype(complex)
        lower[block.off] += 1j * v[n:] / block.f[block.off]
    return lower


def _reference_pack(block, M):
    lower = M[block.rows, block.cols]
    if block.real:
        return lower * block.f
    return np.concatenate((lower.real * block.f,
                           lower.imag[block.off] * block.f[block.off]))


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 9, 36, 41, 50, 57])
def test_block_maps_equal_the_complex_formulas_exactly(monkeypatch, dim,
                                                        real):
    rng = np.random.default_rng(dim)
    block = admm._Block(dim, real, 1.0 if real else 2.0, 0)
    n = block.rows.size
    packed = []
    for _ in range(2):
        v = rng.normal(size=block.w.size)
        # mantissa 1.5: there dividing by sqrt(2) sqrt(2) and multiplying by
        # its reciprocal, as complex division by a real does, round apart
        v[::3] = (rng.choice([-1.5, 1.5], size=v[::3].size)
                  * 2.0 ** rng.integers(-30, 30, size=v[::3].size))
        packed.append(v)
    if not real:
        f = block.f[block.off]
        assert np.any(v[n:] / f != v[n:] * (1.0 / f))
    refs = []
    for v in packed:
        ref = np.zeros((dim, dim), dtype=float if real else complex)
        ref[block.rows, block.cols] = _reference_lower(block, v)
        refs.append(ref)
        M = block.unpack(v)
        assert M.dtype == ref.dtype and np.array_equal(M, ref)
        # pack reads the lower triangle of any C-order matrix
        full = rng.normal(size=(dim, dim))
        if not real:
            full = full + 1j * rng.normal(size=(dim, dim))
        out = np.full(block.w.size + 2, np.nan)
        assert block.pack(full, out[1:-1]) is not None
        assert np.array_equal(out[1:-1], _reference_pack(block, full))
        assert np.isnan(out[[0, -1]]).all()
        assert np.array_equal(block.pack(ref), _reference_pack(block, ref))
    if not _kernels.PartialEig.available(real):
        return
    # the column-major fill that the partial eigensolver reads, twice into
    # one buffer
    seen = []

    def record(self, vl, vu):
        seen.append(self.a.copy(order="A"))
        return np.zeros(0), np.zeros((dim, 0))

    monkeypatch.setattr(_kernels.PartialEig, "__call__", record)
    split = admm._BlockSplit(block)
    for v in packed:
        split.side_pairs(v)
    assert all(a.flags.f_contiguous for a in seen)
    assert all(np.array_equal(a, ref) for a, ref in zip(seen, refs))


@pytest.mark.parametrize("npos, hint", [(3, None), (37, None), (3, 3),
                                        (37, 37)],
                         ids=["eigh-positive", "eigh-negative",
                              "partial-positive", "partial-negative"])
def test_psd_split_into_a_slice_equals_its_return_value(rng, npos, hint):
    if hint is not None and not (_kernels.PartialEig.available(True)
                                 and _kernels.PartialEig.available(False)):
        pytest.skip("no LAPACKE dsyevr/zheevr in the BLAS")
    lam = _spectrum(rng, npos)
    for S in (_rotated(rng, lam), _rotated(rng, lam, complex_=True)):
        real = not np.iscomplexobj(S)
        block = admm._Block(lam.size, real, 1.0 if real else 2.0, 3)
        P = np.concatenate((np.zeros(3), block.pack(S), np.zeros(2)))

        def split():
            if hint is None:
                return admm._BlockSplit(block)
            return _hinted_split(block, hint)

        returned = admm._psd_split(P[block.part], split())
        out = np.full(P.size, np.nan)
        written = admm._psd_split(P[block.part], split(), out[block.part])
        assert np.shares_memory(written, out)
        assert np.array_equal(out[block.part], returned)
        assert np.isnan(out[:3]).all() and np.isnan(out[-2:]).all()


@needs_partial_eig
@pytest.mark.parametrize("real", [True, False])
def test_partial_eigensolver_reports_lapack_errors(real):
    eig = _kernels.PartialEig(4, real)
    eig.a[...] = np.eye(4)
    with pytest.raises(np.linalg.LinAlgError):
        eig(1.0, 0.0)                                   # empty range vl >= vu


@needs_partial_eig
@pytest.mark.parametrize("poison", [-5.0, np.nan, 3e7])
@pytest.mark.parametrize("real", [True, False])
def test_partial_eigensolver_sizes_ignore_freed_memory(poison, real):
    # small numpy buffers freed just before construction are handed to its
    # one-element workspace-query outputs; dsyevr's query never writes rwork
    freed = [np.full(1, poison) for _ in range(8)]
    del freed
    eig = _kernels.PartialEig(57, real)
    if real:
        assert eig.rwork.size == 0
    else:
        assert 0 < eig.rwork.size <= 100 * 57
    assert 0 < eig.work.size <= 100 * 57 and 0 < eig.iwork.size <= 100 * 57
    S = _rotated(np.random.default_rng(0), _spectrum(
        np.random.default_rng(1), 3, dim=57), complex_=not real)
    eig.a[...] = S
    w, _ = eig(0.0, 10.0)
    assert np.allclose(w, np.linalg.eigvalsh(S)[-3:], rtol=0, atol=1e-12)


def test_partial_path_needs_dimension_eight():
    # PARTIAL_EIG_DIVISOR * (m + 1) <= dim: a dim-7 block stays on eigh
    # even with an empty side
    assert admm.PARTIAL_EIG_DIVISOR == 8
    for dim, m, partial in ((7, 0, False), (8, 0, True), (15, 1, False),
                            (16, 1, True)):
        split = _hinted_split(admm._Block(dim, True, 1.0, 0), m)
        assert split.predicts() == (partial and _kernels.PartialEig
                                    .available(True))


@needs_partial_eig
def test_partial_eigensolver_runs_on_one_blas_thread(cube3_inst,
                                                     monkeypatch):
    if _kernels.get_blas_threads() is None:
        pytest.skip("no OpenBLAS thread control found")
    problem = build_relaxation(cube3_inst[1], 4)
    assert (max(b.dim for b in problem.layout.blocks)
            < _kernels.ONE_THREAD_MAX_DIM)
    seen = _spy_partial(monkeypatch)
    with _kernels.blas_threads(2):
        pE = solve_sdp(problem)
        assert _kernels.get_blas_threads() == 2
    assert len(seen) == pE.flags["partial_projections"] > 0
    assert set(seen) == {1}


@needs_partial_eig
def test_missing_lapacke_falls_back_to_the_same_iterates(cube3_inst,
                                                         monkeypatch):
    # criterion 5's seed-0 cube: most projections after the first step take
    # the partial path; without the LAPACKE symbols all run eigh
    problem = build_relaxation(cube3_inst[1], 4)
    seen = _spy_partial(monkeypatch)
    partial = solve_sdp(problem)
    assert len(seen) == partial.flags["partial_projections"] > 0
    monkeypatch.setattr(_kernels, "_lapacke_evr", lambda real: None)
    full = solve_sdp(problem)
    assert full.flags["partial_projections"] == 0
    assert len(seen) == partial.flags["partial_projections"]
    assert full.flags["iterations"] == partial.flags["iterations"] == 62
    assert np.abs(full._array() - partial._array()).max() <= 1e-12


def test_verify_quick_solves_keep_small_blocks_on_eigh(monkeypatch, capsys):
    # `verify --tier quick`'s three solves have blocks below dimension 8
    # only; its k=2 triangle is chaotic under round-off, so its iterates
    # hold only while those blocks keep eigh's projection
    from ugsos import cli
    solve, side_pairs = sos.solve_sdp, admm._BlockSplit.side_pairs
    dims, iterations, partial_dims = [], [], []

    def spy_solve(problem, *args, **kwargs):
        dims.extend(b.dim for b in problem.layout.blocks)
        pE = solve(problem, *args, **kwargs)
        iterations.append(pE.flags["iterations"])
        return pE

    def spy_side_pairs(self, s):
        partial_dims.append(self.block.dim)
        return side_pairs(self, s)

    monkeypatch.setattr(sos, "solve_sdp", spy_solve)
    monkeypatch.setattr(admm._BlockSplit, "side_pairs", spy_side_pairs)
    assert cli.main(["verify", "--tier", "quick"]) == 0
    assert iterations == [38, 65, 28]
    assert min(dims) < 8
    assert [d for d in partial_dims if d < 8] == []


def _spy_eigh_threads(monkeypatch, name="eigh"):
    """Record the BLAS thread count at each np.linalg.eigh call (or at
    each call of np.linalg's `name`)."""
    if _kernels.get_blas_threads() is None:
        pytest.skip("no OpenBLAS thread control found")
    seen = []
    fn = getattr(np.linalg, name)

    def spy(a):
        seen.append(_kernels.get_blas_threads())
        return fn(a)

    monkeypatch.setattr(np.linalg, name, spy)
    return seen


def test_solve_restores_blas_threads(triangle_sat, monkeypatch):
    problem = build_relaxation(triangle_sat, 2)
    seen = _spy_eigh_threads(monkeypatch)

    def boom(a):
        raise RuntimeError("eigh failed")

    with _kernels.blas_threads(2):
        solve_sdp(problem)
        assert _kernels.get_blas_threads() == 2
        assert set(seen) == {1}
        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(RuntimeError):
            solve_sdp(problem)
        assert _kernels.get_blas_threads() == 2


def test_large_dimension_keeps_blas_threads(triangle_sat, monkeypatch):
    seen = _spy_eigh_threads(monkeypatch)
    monkeypatch.setattr(_kernels, "ONE_THREAD_MAX_DIM", 0)
    with _kernels.blas_threads(2):
        solve_sdp(build_relaxation(triangle_sat, 2))
    assert set(seen) == {2}


@pytest.mark.parametrize("seed", [0, 5])
def test_duality_gap_stop_keeps_the_value_within_tol_of_opt(seed):
    # criterion 10's J(6,2) seeds at its tol 3e-3.  The stop also asks for
    # |c.y - r_empty| <= tol: on seed 5 small residuals alone stop at a gap
    # of -4.4e-3.  OPT lies between the value and the certified bound.
    inst, _ = plant_instance(johnson_graph(6, 2, 0.5), 3, 0.05, seed=seed)
    pE = solve_sdp(build_relaxation(inst, 4), tol=3e-3)
    opt = brute_force_opt(inst)[1]
    assert abs(pE.flags["duality_gap"]) <= 3e-3
    assert pE.flags["sdp_value"] >= opt - 3e-3
    assert pE.flags["sdp_upper_bound"] >= opt


# -- metamorphic checks -----------------------------------------------------

META_TOL = 1e-6


@st.composite
def small_instances(draw):
    n = draw(st.integers(2, 5))
    k = draw(st.sampled_from([2, 3, 4, 5]))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1,
                           max_size=len(pairs), unique=True))
    return UgInstance(n, k, tuple(
        (u, v, draw(st.floats(0.5, 2.0)), draw(st.integers(0, k - 1)))
        for u, v in chosen))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(small_instances(), st.sampled_from([2, 4]),
       st.randoms(use_true_random=False))
def test_gauge_relabeling_and_negation_keep_sdp_value_and_opt(inst, D, rnd):
    n, k = inst.num_vertices, inst.k
    gauge = [rnd.randrange(k) for _ in range(n)]
    perm = list(range(n))
    rnd.shuffle(perm)
    variants = [
        # x_u -> x_u + g_u sends s_uv to s_uv + g_u - g_v
        [(u, v, w, (s + gauge[u] - gauge[v]) % k)
         for u, v, w, s in inst.edges],
        [(perm[u], perm[v], w, s) for u, v, w, s in inst.edges],
        # x -> -x sends s to -s
        [(u, v, w, -s % k) for u, v, w, s in inst.edges],
    ]
    pE = solve_sdp(build_relaxation(inst, D), tol=META_TOL)
    opt = brute_force_opt(inst)[1]
    assert pE.flags["sdp_upper_bound"] >= opt - 1e-12
    for edges in variants:
        other = UgInstance(n, k, tuple(edges))
        val = solve_sdp(build_relaxation(other, D), tol=META_TOL)
        assert abs(val.flags["sdp_value"] - pE.flags["sdp_value"]) <= META_TOL
        assert brute_force_opt(other)[1] == pytest.approx(opt, abs=1e-12)


# -- symmetrization ---------------------------------------------------------

def test_symmetrize_preserves_objective_and_flattens_marginals(
        cube_pe, cube_inst):
    _, inst, _ = cube_inst
    pE = solve_sdp(build_relaxation(inst, 4))
    sym = symmetrize(pE)
    obj = ug_objective_poly(inst)
    assert sym.pe(obj) == pytest.approx(pE.pe(obj), abs=1e-10)
    for v in range(inst.num_vertices):
        for a in range(inst.k):
            assert sym.moment(((v, a, 0),)) == pytest.approx(
                1.0 / inst.k, abs=1e-8)


def test_symmetrize_point_mass_keeps_validity():
    pE = symmetrize(point_mass_pe(3, 3, [0, 1, 2]))
    assert validate(pE, 1e-10).passed
    assert pE.moment(((1, 0, 0),)) == pytest.approx(1.0 / 3.0)


# -- conditioning -----------------------------------------------------------

def test_condition_on_point_mass_label():
    pE = symmetrize(point_mass_pe(3, 3, [0, 1, 2]))
    cond = condition(pE, ((0, 0, 0),))
    # conditioning the symmetrized point mass on X_0 = 0 recovers the shift
    assert cond.moment(((1, 1, 0),)) == pytest.approx(1.0)
    assert cond.moment(((2, 2, 0),)) == pytest.approx(1.0)


def test_condition_null_event_raises():
    pE = point_mass_pe(3, 3, [0, 1, 2])
    with pytest.raises(NullEventError):
        condition(pE, ((0, 1, 0),))


@pytest.mark.parametrize("event", [((0, -1, 0),), ((0, 3, 0),),
                                   ((0, 5, 0),), ((7, 0, 0),), ((0, 0, 1),)])
def test_condition_rejects_an_event_outside_the_table(event):
    pE = symmetrize(point_mass_pe(3, 3, [0, 1, 2]))
    with pytest.raises(ParameterError):
        condition(pE, event)


def test_conditioned_matrix_stays_psd(cube_pe, cube_inst):
    _, inst, _ = cube_inst
    cond = condition(cube_pe, ((0, 0, 0),))
    eigs = np.linalg.eigvalsh(moment_matrix(cond))
    assert eigs[0] >= -1e-5


# -- product copies and rerandomization -------------------------------------

def test_product_copy_factorizes(cube_pe):
    pE2 = product_copy(cube_pe)
    a = ((0, 0, 0),)
    b = ((0, 0, 1),)
    assert pE2.moment(key_mul(a, b)) == pytest.approx(
        cube_pe.moment(a) * cube_pe.moment(a), abs=1e-12)


def test_product_copy_scalar_reads_equal_the_gathered_table(unsat_pe):
    # a scalar read multiplies the same two base floats as the gather
    pE2 = product_copy(unsat_pe)
    keys = list(all_canonical_keys(3, 3, 4, copies=2))
    reads = [pE2.moment(key) for key in keys]
    assert pE2._values is None
    table = product_copy(unsat_pe).moments
    assert reads == [table[key] for key in keys]


def test_product_copy_is_valid(cube_pe):
    pE2 = product_copy(cube_pe)
    rep = validate(pE2, 1e-5)
    assert rep.passed


def _entrywise_moment_matrix(pE):
    basis = list(all_canonical_keys(pE.num_vertices, pE.k, pE.degree // 2,
                                    copies=pE.copy_count))
    M = np.zeros((len(basis), len(basis)))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            km = key_mul(a, b)
            M[i, j] = pE.moment(km) if km is not None else 0.0
    return M


def _entrywise_partition_residual(pE):
    worst = 0.0
    for m in all_canonical_keys(pE.num_vertices, pE.k, pE.degree - 1,
                                copies=pE.copy_count):
        for u in range(pE.num_vertices):
            for cpy in range(pE.copy_count):
                tot = sum(pE.moment(key_mul(m, ((u, a, cpy),)))
                          for a in range(pE.k))
                worst = max(worst, abs(tot - pE.moment(m)))
    return worst


def test_product_moment_matrix_matches_entrywise(cube_pe):
    mix = mixture_pe(3, 3, [(0.3, [0, 1, 2]), (0.7, [1, 1, 0])])
    for pe in (cube_pe, mix):
        pE2 = product_copy(pe)
        assert np.array_equal(moment_matrix(pE2), _entrywise_moment_matrix(pE2))


def test_product_validate_matches_entrywise_with_residual():
    # off scale, so no factor of the product residual is 1; the largest one
    # pairs the degree-0 residual with the degree-3 moment (degrees 0 + 3 = D-1)
    base = mixture_pe(3, 3, [(0.4, [0, 1, 2]), (0.6, [2, 2, 1])])
    moments = {key: 0.8 * val for key, val in base.moments.items()}
    moments[((1, 0, 0),)] = 0.9
    moments[((0, 0, 0), (1, 1, 0), (2, 2, 0))] = 2.0
    moments[((0, 0, 0), (2, 1, 0))] = moments.get(((0, 0, 0), (2, 1, 0)),
                                                  0.0) - 0.05
    bad = PseudoExpectation(4, 3, 3, moments)
    pE2 = product_copy(bad)
    rep = validate(pE2, 1e-6)
    worst = _entrywise_partition_residual(pE2)
    assert worst > 1e-3 and not rep.passed
    assert rep.max_partition_residual == pytest.approx(worst, abs=1e-14)
    min_eig = float(np.linalg.eigvalsh(_entrywise_moment_matrix(pE2))[0])
    assert rep.min_eigenvalue == pytest.approx(min_eig, abs=1e-14)
    assert rep.scaling_deviation == abs(pE2.moment(()) - 1.0)


def test_z_var_identity_on_product(cube_pe, cube_inst):
    # sum_s Z_{u,s} = 1 for every u, exactly, on product pseudoexpectations
    _, inst, _ = cube_inst
    pE2 = product_copy(cube_pe)
    for u in range(inst.num_vertices):
        tot = sum(pE2.pe(z_var_poly(u, s, inst.k)) for s in range(inst.k))
        assert tot == pytest.approx(1.0, abs=1e-7)
    # scalar reads left the 2-copy table ungathered
    assert pE2._values is None


def test_rerandomize_uniformizes(cube_pe, cube_inst):
    _, inst, _ = cube_inst
    out = rerandomize(cube_pe, [0])
    for a in range(inst.k):
        assert out.moment(((0, a, 0),)) == pytest.approx(1.0 / inst.k, abs=1e-9)
        # rerandomized vertex decorrelates from the rest
        assert out.moment(canon_key(((0, a, 0), (1, 0, 0)))) == pytest.approx(
            out.moment(((0, a, 0),)) * out.moment(((1, 0, 0),)), abs=1e-9)
    assert validate(out, 1e-5).passed


def test_unconverged_flag_survives_condition_and_rerandomize(triangle_unsat):
    pE = solve_sdp(build_relaxation(triangle_unsat, 4), max_iters=5)
    assert pE.flags.get("unconverged")
    derived = [condition(pE, ((0, 0, 0),)), rerandomize(pE, set()),
               rerandomize(pE, {1})]
    assert all(d.flags.get("unconverged") for d in derived)


@pytest.mark.parametrize("S", [{99}, {-1}, {"a"}, [0, 3]])
def test_rerandomize_rejects_vertices_outside_the_table(S):
    pE = symmetrize(point_mass_pe(3, 3, [0, 1, 2]))
    with pytest.raises(ParameterError):
        rerandomize(pE, S)


def test_rerandomize_empty_is_identity(cube_pe):
    out = rerandomize(cube_pe, [])
    assert out.moment(((0, 0, 0), (1, 1, 0))) == pytest.approx(
        cube_pe.moment(((0, 0, 0), (1, 1, 0))), abs=1e-15)


# -- validity by charge blocks ---------------------------------------------

def _dense_min(pE):
    return float(np.linalg.eigvalsh(moment_matrix(pE))[0])


def _takes_charge_blocks(pE):
    base = pE if pE._base is None else pE._base
    return sos._charge_split(pE, moment_matrix(base)) is not None


@pytest.fixture(scope="module")
def charge_tables():
    """Per (k, D): a solve on a planted 2-cube, its symmetrization and the
    product copies of both."""
    out = {}
    for k in (2, 3, 4, 5):
        inst, _ = plant_instance(noisy_hypercube(2, 0.3), k, 0.05, seed=k)
        for D in (2, 4):
            raw = solve_sdp(build_relaxation(inst, D), tol=1e-6)
            sym = symmetrize(raw)
            out[k, D] = (raw, sym, product_copy(raw), product_copy(sym))
    return out


def test_validate_charge_blocks_run_on_one_blas_thread(cube_pe, monkeypatch):
    # the table's blocks (dim 17 and 16) and its product copy's (largest
    # 49) are below ONE_THREAD_MAX_DIM
    seen = _spy_eigh_threads(monkeypatch, "eigvalsh")
    with _kernels.blas_threads(2):
        for pE in (cube_pe, product_copy(cube_pe)):
            assert _takes_charge_blocks(pE) and validate(pE).passed
        assert _kernels.get_blas_threads() == 2
    assert seen and set(seen) == {1}


@pytest.mark.parametrize("D", [2, 4])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_charge_blocks_bound_the_dense_min_eigenvalue(charge_tables, k, D):
    tol = 1e-5
    for pE in charge_tables[k, D]:
        rep = validate(pE, tol)
        dense = _dense_min(pE)
        assert _takes_charge_blocks(pE)
        assert rep.min_eigenvalue <= dense + 1e-15
        assert abs(rep.min_eigenvalue - dense) <= rep.off_charge_bound + 1e-13
        assert rep.passed == (dense >= -tol
                              and rep.max_partition_residual <= tol
                              and rep.scaling_deviation <= tol)


def test_real_self_conjugate_blocks_bound_the_dense_min_eigenvalue(
        cube3_raw, cube3_pe, monkeypatch):
    # the acceptance suite's cube3 solves (tol 1e-4 raw, 1e-7 symmetrized)
    # and their product copies: the charge block 0 and the product block
    # (0, 0) take the real form
    calls = []
    real_form = basis._real_form

    def spy(B, partner):
        calls.append(len(partner))
        return real_form(B, partner)

    monkeypatch.setattr(sos, "_real_form", spy)
    for base in (cube3_raw, cube3_pe):
        for pE in (base, product_copy(base)):
            del calls[:]
            rep = validate(pE, 1e-5)
            assert calls
            assert rep.min_eigenvalue <= _dense_min(pE) + 1e-15


def _charge_pair_table(k, c, beta=1.2):
    """Two vertices, D = 2, uniform marginals and pE[X_{0,a} X_{1,b}] =
    f(b - a), f(t) = (1 + 2 beta cos(2 pi c t / k)) / k^2: shift-symmetric.
    In the label-DFT basis block j != 0 is [[1, b_j], [b_j, 1]] / k with
    b_j = beta at j = c, -c and 0 elsewhere, and block 0 has rank one, so
    for beta > 1 the only negative eigenvalue, (1 - beta) / k, lies in the
    blocks c and -c."""
    moments = {(): 1.0}
    for u, a in itertools.product(range(2), range(k)):
        moments[((u, a, 0),)] = 1.0 / k
    for a, b in itertools.product(range(k), repeat=2):
        moments[((0, a, 0), (1, b, 0))] = (
            1.0 + 2.0 * beta * np.cos(2.0 * np.pi * c * (b - a) / k)) / k**2
    return PseudoExpectation(2, k, 2, moments)


@pytest.mark.parametrize("k,c", [(4, 1), (5, 2)])
def test_a_negative_eigenvalue_in_one_charge_pair_fails_validate(k, c):
    pE = _charge_pair_table(k, c)
    for table in (pE, product_copy(pE)):
        rep = validate(table, 1e-6)
        dense = _dense_min(table)
        assert _takes_charge_blocks(table) and not rep.passed
        assert dense == pytest.approx((1.0 - 1.2) / k, abs=1e-12)
        assert rep.min_eigenvalue <= dense + 1e-15
        assert abs(rep.min_eigenvalue - dense) <= rep.off_charge_bound + 1e-13


def test_validate_subtracts_the_off_charge_bound():
    # a point mass minus its symmetrization is all off-charge; at 1e-13 it
    # splits the equal smallest eigenvalues of blocks 1 and 3 (they
    # conjugate) at first order, and the blocks alone do not see it
    pE = _charge_pair_table(4, 1)
    pm = point_mass_pe(2, 4, [0, 1], degree=2)
    off = pm._array() - symmetrize(pm)._array()
    near = PseudoExpectation(2, 4, 2, pE._array() + 1e-13 * off)
    rep = validate(near, 1e-6)
    dense = _dense_min(near)
    assert _takes_charge_blocks(near)
    assert dense < _dense_min(pE) - 1e-14
    assert rep.min_eigenvalue <= dense + 1e-15
    assert abs(rep.min_eigenvalue - dense) <= rep.off_charge_bound + 1e-13


def test_tables_that_are_not_shift_symmetric_get_the_dense_value(unsat_pe):
    mix = mixture_pe(3, 3, [(0.3, [0, 1, 2]), (0.7, [1, 1, 0])])
    two_copy = PseudoExpectation.from_json(product_copy(unsat_pe).to_json())
    for pE in (point_mass_pe(3, 3, [0, 1, 2]), mix, product_copy(mix),
               two_copy):
        rep = validate(pE, 1e-6)
        assert rep.off_charge_bound == 0.0
        assert rep.min_eigenvalue == _dense_min(pE)


# -- pseudo-Cauchy-Schwarz --------------------------------------------------

def _random_low_degree_poly(rng, n, k, degree):
    terms = {}
    for _ in range(4):
        d = int(rng.integers(0, degree + 1))
        pairs = tuple((int(v), int(rng.integers(0, k)), 0)
                      for v in rng.choice(n, size=d, replace=False))
        key = canon_key(pairs)
        if key is not None:
            terms[key] = terms.get(key, 0.0) + float(rng.normal())
    return terms


def test_pseudo_cauchy_schwarz(cube_pe, cube_inst, rng):
    _, inst, _ = cube_inst
    n, k = inst.num_vertices, inst.k
    for _ in range(100):
        p = _random_low_degree_poly(rng, n, k, cube_pe.degree // 2)
        q = _random_low_degree_poly(rng, n, k, cube_pe.degree // 2)
        lhs = evaluate(cube_pe, poly_mul(p, q)) ** 2
        rhs = (evaluate(cube_pe, poly_mul(p, p))
               * evaluate(cube_pe, poly_mul(q, q)))
        assert lhs <= rhs + 1e-7


# -- serialization ----------------------------------------------------------

def test_pe_json_round_trip_is_byte_identical(cube3_raw):
    for pE in (cube3_raw, point_mass_pe(4, 3, [0, 2, 1, 1]),
               mixture_pe(4, 3, [(0.3, [0, 1, 2, 0]), (0.7, [1, 1, 0, 2])])):
        text = pE.to_json()
        assert PseudoExpectation.from_json(text).to_json() == text


def _edited(text, edit):
    d = json.loads(text)
    edit(d)
    return json.dumps(d)


def _key_of_degree(d, degree):
    return next(key for key, _ in d["moments"] if len(key) == degree)


def test_pe_json_rejects_untrustworthy_tables(cube3_raw):
    text = cube3_raw.to_json()
    bad = [
        text[:len(text) // 2],                                    # truncated
        _edited(text, lambda d: d["moments"].pop(17)),            # missing
        _edited(text, lambda d: _key_of_degree(d, 2).reverse()),  # unsorted
        _edited(text, lambda d: _key_of_degree(d, 1).append(      # two labels
            [_key_of_degree(d, 1)[0][0], 2, 0])),
        _edited(text, lambda d: _key_of_degree(d, 4).append(      # degree 5
            [7, 0, 0])),
        _edited(text, lambda d: _key_of_degree(d, 1)[0].__setitem__(1, 3)),
        _edited(text, lambda d: d.__setitem__("degree", "4")),
        _edited(text, lambda d: d["moments"][17].__setitem__(1, math.nan)),
        _edited(text, lambda d: d["moments"][17].__setitem__(1, math.inf)),
        _edited(text, lambda d: d["moments"][17].__setitem__(1, -math.inf)),
        _edited(text, lambda d: d["moments"][17].__setitem__(1, 10**400)),
    ]
    for doc in bad:
        with pytest.raises(ParameterError):
            PseudoExpectation.from_json(doc)
    # nor may a point mass's table omit a key or hold a malformed one
    sparse = point_mass_pe(3, 3, [0, 1, 2]).to_json()
    with pytest.raises(ParameterError):
        PseudoExpectation.from_json(
            _edited(sparse, lambda d: d["moments"].pop(3)))
    with pytest.raises(ParameterError):
        PseudoExpectation.from_json(
            _edited(sparse, lambda d: d["moments"][0][0].append([0, 0, 1])))


def test_pe_json_round_trip(cube_pe):
    back = PseudoExpectation.from_json(cube_pe.to_json())
    assert back.degree == cube_pe.degree
    assert back.moment(((0, 0, 0), (1, 1, 0))) == pytest.approx(
        cube_pe.moment(((0, 0, 0), (1, 1, 0))), abs=1e-15)


_PM = point_mass_pe(3, 3, [0, 1, 2])


@pytest.mark.parametrize("call, error, match", [
    (lambda: symmetrize(product_copy(_PM)), ParameterError,
     "symmetrize requires copy_count = 1"),
    (lambda: condition(_PM, ((0, 0, 0), (0, 1, 0))), NullEventError,
     "zero monomial"),
    (lambda: condition(point_mass_pe(3, 3, [0, 1, 2], degree=2),
                       ((0, 0, 0), (1, 1, 0))), DegreeError,
     "too large for the degree budget"),
    (lambda: product_copy(product_copy(_PM)), ParameterError,
     "product_copy requires copy_count = 1"),
    (lambda: rerandomize(product_copy(_PM), [0]), ParameterError,
     "rerandomize requires copy_count = 1"),
], ids=["symmetrize-copies", "condition-zero", "condition-degree",
        "product-copy-copies", "rerandomize-copies"])
def test_input_checks_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()
