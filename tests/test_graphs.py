import itertools
import timeit
import tracemalloc
from math import comb

import numpy as np
import pytest

from ugsos import graphs
from ugsos.errors import ParameterError, SizeCapError
from ugsos.graphs import (WeightedGraph, expansion, johnson_cayley_graph,
                          johnson_graph, noisy_hypercube, shortcode_graph,
                          spectral_decompose, sse_profile)


def test_hypercube_shape_and_symmetry():
    g = noisy_hypercube(3, 0.2)
    assert g.num_vertices == 8
    assert np.allclose(g.W, g.W.T)
    assert np.all(g.W >= 0)


def test_hypercube_rows_stochastic_up_to_degree():
    g = noisy_hypercube(2, 0.3)
    T = g.transition()
    assert np.allclose(T.sum(axis=1), 1.0)


def test_spectral_decompose_consistency():
    g = noisy_hypercube(3, 0.2)
    sd = spectral_decompose(g)
    T = g.transition()
    # pi-self-adjoint walk: eigenpairs reproduce T
    rec = sd.eigenvectors @ np.diag(sd.eigenvalues) @ np.linalg.inv(sd.eigenvectors)
    assert np.allclose(rec, T, atol=1e-10)
    assert sd.eigenvalues[0] <= 1.0 + 1e-12
    assert np.allclose(sd.pi @ T, sd.pi, atol=1e-12)


def test_noisy_hypercube_spectrum_closed_form():
    # eigenvalues of the eps-noisy d-cube walk are (1-2*eps)^|S|
    d, eps = 3, 0.2
    sd = spectral_decompose(noisy_hypercube(d, eps))
    expect = sorted(((1 - 2 * eps) ** bin(S).count("1") for S in range(2 ** d)),
                    reverse=True)
    assert np.allclose(sorted(sd.eigenvalues, reverse=True), expect, atol=1e-10)


def test_johnson_graph_meta_and_labels():
    g = johnson_graph(5, 2, 0.5)
    assert g.num_vertices == 10
    assert g.meta["family"] == "johnson"
    assert all(len(lab) == 2 for lab in g.labels)


def test_johnson_alpha_validation():
    with pytest.raises(ParameterError):
        johnson_graph(6, 2, 0.3)  # alpha*l not integral


def _johnson_pair_loop(n, l, alpha):
    """J_{n,l,alpha}'s weights by the definition, pair by pair."""
    sets = [frozenset(v) for v in itertools.combinations(range(n), l)]
    target = round((1.0 - alpha) * l)
    W = np.zeros((len(sets), len(sets)))
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if len(sets[i] & sets[j]) == target:
                W[i, j] = W[j, i] = 1.0
    return W


def _cayley_pair_loop(n, l, alpha):
    """C_{n,l,alpha}'s transition probabilities by the definition."""
    m = round(alpha * l)
    verts = list(itertools.product(range(n), repeat=l))
    W = np.zeros((len(verts), len(verts)))
    for i, x in enumerate(verts):
        for j, z in enumerate(verts):
            diff = sum(1 for a, b in zip(x, z) if a != b)
            if diff <= m:
                W[i, j] = comb(l - diff, m - diff) / comb(l, m) * n**(-m)
    return W


@pytest.mark.parametrize("n,l,alpha", [
    (3, 1, 1.0), (4, 2, 0.5), (4, 2, 1.0), (5, 2, 0.5), (5, 3, 1 / 3),
    (6, 3, 2 / 3), (6, 4, 0.5), (7, 3, 1.0)])
def test_johnson_and_cayley_weights_match_their_pair_definitions(n, l, alpha):
    assert np.array_equal(johnson_graph(n, l, alpha).W,
                          _johnson_pair_loop(n, l, alpha))
    if n**l <= 400:
        assert np.array_equal(johnson_cayley_graph(n, l, alpha).W,
                              _cayley_pair_loop(n, l, alpha))


def test_cayley_labels_are_tuples():
    g = johnson_cayley_graph(4, 2, 0.5)
    assert g.num_vertices == 16
    assert all(len(lab) == 2 for lab in g.labels)


def test_shortcode_graph_basic():
    g = shortcode_graph(1, 2)
    assert g.num_vertices == 8  # degree-<=1 multilinear polys over F_2^2
    assert np.allclose(g.W, g.W.T)


def test_spectral_decompose_rejects_a_walk_eigenvalue_above_one():
    # a lower triangle 5e-6 above the upper one, whose walk eigenvalue read
    # from that triangle (as `eigh` reads it) is 1.0000025; WeightedGraph's
    # absolute symmetry check now rejects it before spectral_decompose
    # sees it, and either way it must raise rather than read as 1
    W = np.ones((3, 3)) - np.eye(3)
    W[np.tril_indices(3, -1)] += 5e-6
    with pytest.raises(ParameterError):
        spectral_decompose(WeightedGraph(3, W))


@pytest.mark.parametrize("block", [graphs.SYMMETRY_BLOCK, 20])
def test_weighted_graph_symmetry_is_absolute(monkeypatch, block):
    # max |W - W^T| <= 1e-12, with no relative slack, also when the check
    # reads W in several row blocks (20 entries: two rows of ten)
    monkeypatch.setattr(graphs, "SYMMETRY_BLOCK", block)
    W = np.ones((10, 10)) - np.eye(10)
    lifted = W.copy()
    lifted[np.tril_indices(10, -1)] += 5e-6
    with pytest.raises(ParameterError, match="must be symmetric"):
        WeightedGraph(10, lifted)
    corner = W.copy()
    corner[9, 3] += 5e-6
    with pytest.raises(ParameterError, match="must be symmetric"):
        WeightedGraph(10, corner)
    nudged = W.copy()
    nudged[9, 3] += 1e-13
    assert WeightedGraph(10, nudged).W[9, 3] == nudged[9, 3]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_weighted_graph_rejects_non_finite_weights(bad):
    W = np.ones((3, 3)) - np.eye(3)
    W[0, 1] = W[1, 0] = bad
    with pytest.raises(ParameterError, match="must be symmetric and finite"):
        WeightedGraph(3, W)


def _gf2_rank(masks):
    """Rank over GF(2) of integers read as bit vectors, by elimination."""
    rows, rank = list(masks), 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def _shortcode_reference(d, n):
    """The short-code walk from truth tables on F_2^n: p ~ q when p - q
    equals a product of d affine forms whose linear parts have rank d."""
    points = list(itertools.product((0, 1), repeat=n))
    monos = [m for r in range(d + 1)
             for m in itertools.combinations(range(n), r)]

    def table(mask):
        return tuple(sum(all(x[i] for i in m) for j, m in enumerate(monos)
                         if mask >> j & 1) % 2 for x in points)

    def affine(a, b):
        return [(sum(x[i] for i in range(n) if a >> i & 1) + b) % 2
                for x in points]

    forms = [(a, b) for a in range(1, 1 << n) for b in (0, 1)]
    products = {tuple(map(min, zip(*(affine(a, b) for a, b in combo))))
                for combo in itertools.combinations(forms, d)
                if _gf2_rank(a for a, _ in combo) == d}
    N = 1 << len(monos)
    vertex = {table(p): p for p in range(N)}
    A = np.zeros((N, N))
    for p in range(N):
        tp = table(p)
        for t in products:
            A[p, vertex[tuple(u ^ v for u, v in zip(tp, t))]] = 1.0
    return A / A.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("d,n", [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4),
                                 (3, 4)])
def test_shortcode_graph_matches_a_truth_table_reference(d, n):
    if d == 3:
        # 15 monomials of degree <= 3 over F_2^4: more than the 12 allowed
        with pytest.raises(SizeCapError):
            shortcode_graph(d, n)
        return
    assert np.array_equal(shortcode_graph(d, n).W, _shortcode_reference(d, n))


@pytest.mark.parametrize("d,n", [(1, 2), (1, 3), (2, 3), (1, 4)])
def test_shortcode_spectrum_is_the_cayley_closed_form(d, n):
    # a Cayley walk on F_2^m with generators G has the characters as its
    # eigenvectors: lambda_chi = mean over g in G of (-1)^(chi . g)
    g = shortcode_graph(d, n)
    gens = np.flatnonzero(g.W[0])
    chi = np.arange(g.num_vertices)[:, None]
    parity = np.bitwise_count(chi & gens) % 2
    closed = np.sort((1.0 - 2.0 * parity).mean(axis=1))
    assert np.allclose(np.sort(spectral_decompose(g).eigenvalues), closed,
                       rtol=0.0, atol=1e-9)


def test_shortcode_graph_builds_fast():
    # SC(2,4) has 2048 vertices and 140 generators; the construction is
    # array arithmetic on truth tables, best of three under 50 ms
    assert min(timeit.repeat(lambda: shortcode_graph(2, 4), number=1,
                             repeat=3)) < 0.05


def test_expansion_of_dictator_cut():
    g = noisy_hypercube(3, 0.1)
    sd = spectral_decompose(g)
    f = np.array([float(v & 1) for v in range(8)])
    rep = expansion(g, sd, f)
    # dictator cut: <f,Lf> = (1/4)<chi,L chi> = eps/2, mean 1/2 -> phi = eps
    assert rep.phi == pytest.approx(0.1, abs=1e-10)


def test_sse_profile_exhaustive_small():
    g = johnson_graph(5, 2, 0.5)
    prof = sse_profile(g, 0.3, seed=1)
    assert prof.exhaustive
    assert all(phi >= -1e-12 for phi in prof.min_phi_by_size.values())
    # singleton expansion of a regular graph equals 1 - W[v,v]-loop mass
    assert 1 in prof.min_phi_by_size
    # pinned: one batch per size, ascending
    assert list(prof.min_phi_by_size.items()) == [
        (1, 1.0), (2, 0.8333333333333334), (3, 0.6666666666666667)]
    assert prof.argmin_by_size == {1: (0,), 2: (0, 1), 3: (0, 1, 2)}


def test_sse_profile_exhaustive_memory_is_bounded_by_a_batch():
    # 201,376 5-sets of the 32-vertex cube make four batches of at most
    # 2^16; one batch with its kernel temporaries traces about 15 MB, while
    # all of them in one array would trace about 34 MB
    g = noisy_hypercube(5, 0.1)
    assert comb(32, 5) > graphs._SSE_BATCH
    tracemalloc.start()
    try:
        prof = sse_profile(g, 5 / 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.exhaustive
    assert peak < 24e6
    assert list(prof.argmin_by_size.items()) == [
        (1, (16,)), (2, (16, 17)), (3, (0, 1, 16)), (4, (0, 1, 16, 17)),
        (5, (0, 1, 16, 17, 18))]
    assert prof.min_phi_by_size[5] == pytest.approx(0.266302, abs=1e-12)


def test_sse_profile_sampled_branch(monkeypatch):
    g = johnson_graph(5, 2, 0.5)
    delta = 0.3
    exact = sse_profile(g, delta, seed=1)
    monkeypatch.setattr(graphs, "SSE_EXHAUSTIVE_CAP", 0)
    monkeypatch.setattr(graphs, "SSE_SAMPLE_COUNT", 20_000)
    prof = sse_profile(g, delta, seed=5)
    assert not prof.exhaustive
    pi = g.degrees / g.degrees.sum()
    for c, phi in prof.min_phi_by_size.items():
        assert phi >= exact.min_phi_by_size[c] - 1e-12
        members = prof.argmin_by_size[c]
        assert len(set(members)) == c
        assert pi[list(members)].sum() <= delta + 1e-15
    again = sse_profile(g, delta, seed=5)
    assert again.min_phi_by_size == prof.min_phi_by_size
    assert again.argmin_by_size == prof.argmin_by_size
    # pinned: each batch's size is drawn just before its sets
    assert list(prof.min_phi_by_size.items()) == [
        (3, 0.6666666666666667), (2, 0.8333333333333334), (1, 1.0)]
    assert list(prof.argmin_by_size.items()) == [
        (3, (3, 8, 1)), (2, (1, 7)), (1, (3,))]


@pytest.mark.parametrize("make", [
    lambda: noisy_hypercube(14, 0.1),
    lambda: johnson_graph(20, 5, 0.4),         # 15,504 vertices
    lambda: johnson_cayley_graph(11, 4, 0.5),  # 14,641 vertices
], ids=["hypercube-d14", "johnson-20-5", "cayley-11-4"])
def test_generators_refuse_more_vertices_than_the_cap(make):
    # each would otherwise allocate a dense N x N weight matrix (GBs)
    with pytest.raises(SizeCapError):
        make()


_ISOLATED = np.array([[1.0, 0.0], [0.0, 0.0]])   # vertex 1 has no weight


@pytest.mark.parametrize("call, error, match", [
    (lambda: WeightedGraph(3, np.zeros((2, 2))), ParameterError,
     "shape mismatch"),
    (lambda: WeightedGraph(2, [[0.0, -1.0], [-1.0, 0.0]]), ParameterError,
     "negative edge weight"),
    (lambda: WeightedGraph(2, np.zeros((2, 2))), ParameterError,
     "zero total weight"),
    (lambda: WeightedGraph(2, _ISOLATED).transition(), ParameterError,
     "isolated vertex"),
    (lambda: noisy_hypercube(0, 0.1), ParameterError, "d must be >= 1"),
    (lambda: noisy_hypercube(2, 1.0), ParameterError, "eps must lie"),
    (lambda: shortcode_graph(0, 2), SizeCapError, "1 <= d < n <= 4"),
    (lambda: johnson_graph(3, 3, 1.0), ParameterError, "need l < n"),
    (lambda: johnson_graph(5, 2, 0.0), ParameterError, "alpha must lie"),
    (lambda: spectral_decompose(WeightedGraph(2, _ISOLATED)), ParameterError,
     "degenerate graph: isolated vertex"),
    (lambda: expansion(noisy_hypercube(2, 0.1),
                       spectral_decompose(noisy_hypercube(2, 0.1)),
                       np.zeros(4)), ParameterError, "E_pi\\[f\\] = 0"),
], ids=["shape", "negative-weight", "zero-weight", "transition-isolated",
        "hypercube-d", "hypercube-eps", "shortcode-d", "johnson-l",
        "alpha-range", "spectral-isolated", "expansion-empty-set"])
def test_input_checks_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()
