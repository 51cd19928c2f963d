import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugsos import _kernels
from ugsos.errors import ConstructionError, ParameterError, SizeCapError
from ugsos.graphs import WeightedGraph, johnson_graph, noisy_hypercube
from ugsos.instances import (UgInstance, brute_force_opt, local_value,
                             plant_instance, value)

from conftest import make_triangle
from reference import plant_instance_pairs


def test_edges_canonicalized():
    inst = UgInstance(3, 3, ((2, 0, 1.0, 1),))
    (u, v, _, s), = inst.edges
    assert (u, v) == (0, 2)
    assert s == 2  # reversed orientation negates the shift mod k


def test_rejects_self_loop_and_bad_weight():
    with pytest.raises(ParameterError):
        UgInstance(2, 2, ((0, 0, 1.0, 0),))
    with pytest.raises(ParameterError):
        UgInstance(2, 2, ((0, 1, -1.0, 0),))
    with pytest.raises(ParameterError):
        UgInstance(2, 2, ())


def test_value_and_local_value_triangle():
    inst = make_triangle(3, sat=True)
    x, opt = brute_force_opt(inst)
    assert opt == 1.0
    assert value(inst, x) == 1.0
    assert all(local_value(inst, x, u) == 1.0 for u in range(3))


def test_unsat_triangle_opt():
    inst = make_triangle(3, sat=False)
    _, opt = brute_force_opt(inst)
    assert opt == pytest.approx(2.0 / 3.0)


def test_global_shift_invariance():
    inst = make_triangle(3, sat=False)
    x = np.array([0, 1, 2])
    vals = [value(inst, (x + s) % 3) for s in range(3)]
    assert max(vals) - min(vals) == 0.0


def test_brute_force_cap():
    # 2^31 states, above BRUTE_FORCE_CAP: refused before any scan
    g = noisy_hypercube(5, 0.3)
    inst, _ = plant_instance(g, 2, 0.0, seed=0)
    with pytest.raises(SizeCapError):
        brute_force_opt(inst)


def test_brute_force_checks_scan_result(monkeypatch):
    inst = make_triangle(3, sat=True)
    scan = _kernels.brute_force_scan

    def wrong_code(eu, ev, ew, eshift, n, k):
        code, wsat = scan(eu, ev, ew, eshift, n, k)
        return (code + 1) % k ** (n - 1), wsat

    monkeypatch.setattr(_kernels, "brute_force_scan", wrong_code)
    with pytest.raises(ConstructionError):
        brute_force_opt(inst)


def _scan_reference(eu, ev, ew, eshift, n, k):
    """First best code of a plain enumeration, and how many codes tie it."""
    best_code, best, ties = 0, -1.0, 0
    for code, labels in enumerate(itertools.product(range(k), repeat=n - 1)):
        x = (0,) + labels[::-1]  # vertex 1 is the lowest base-k digit
        wsat = sum(w for u, v, w, s in zip(eu, ev, ew, eshift)
                   if (x[u] - x[v]) % k == s)
        if wsat > best:
            best_code, best, ties = code, wsat, 1
        elif wsat == best:
            ties += 1
    return best_code, best, ties


def test_brute_force_scan_matches_enumeration():
    rng = np.random.default_rng(3)
    tied = 0
    # 3^9 = 19683 codes span two scan chunks; weights are dyadic, so every
    # summation order gives the same float and ties are exact
    for n, k, m in [(4, 2, 4), (5, 3, 6), (6, 4, 9), (10, 3, 14)]:
        eu = rng.integers(0, n, size=m)
        ev = (eu + rng.integers(1, n, size=m)) % n
        ew = rng.choice([0.25, 0.5, 1.0, 2.0], size=m)
        eshift = rng.integers(0, k, size=m)
        code, wsat = _kernels.brute_force_scan(eu, ev, ew, eshift, n, k)
        ref_code, ref, ties = _scan_reference(eu, ev, ew, eshift, n, k)
        assert (code, wsat) == (ref_code, ref)
        tied += ties > 1
    assert tied >= 2


def _code_weight(code, eu, ev, ew, eshift, n, k):
    """Satisfied weight of the assignment with the given code, x_0 = 0."""
    x = [0] * n
    for v in range(1, n):
        code, x[v] = divmod(code, k)
    return sum(w for u, v, w, s in zip(eu, ev, ew, eshift)
               if (x[u] - x[v]) % k == s)


def _edge_case_edges(n, k, rng):
    """Random edges plus edges at vertex 0 in both orientations, reversed
    (u > v) edges across the low/high split and parallel copies; on one
    vertex, two loops at vertex 0."""
    if n == 1:
        pick = [(0, 0), (0, 0)]
    else:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        pick = [pairs[i] for i in rng.integers(0, len(pairs), size=2 * n)]
        pick += [(0, 1), (1, 0), (0, n - 1), (n - 1, 0), (n - 1, 1),
                 (n - 1, 1), (1, n - 1)]
    eu = np.array([u for u, _ in pick], dtype=np.int64)
    ev = np.array([v for _, v in pick], dtype=np.int64)
    return eu, ev, rng.integers(0, k, size=len(pick))


# n = 1 and 2, odd and even n - 1, k = 2 and 5
SCAN_CASES = [(1, 3), (2, 5), (3, 2), (4, 2), (5, 5), (6, 2), (6, 5), (7, 2),
              (7, 5)]


@pytest.mark.parametrize("n,k", SCAN_CASES)
def test_brute_force_scan_edge_cases(n, k):
    rng = np.random.default_rng(100 * n + k)
    eu, ev, eshift = _edge_case_edges(n, k, rng)
    # dyadic weights: every summation order gives the same float
    ew = rng.choice([0.25, 0.5, 1.0, 2.0], size=eu.size)
    ref_code, ref, _ = _scan_reference(eu, ev, ew, eshift, n, k)
    assert (_kernels.brute_force_scan(eu, ev, ew, eshift, n, k)
            == (ref_code, ref))
    ew = rng.random(eu.size) + 0.1
    code, wsat = _kernels.brute_force_scan(eu, ev, ew, eshift, n, k)
    _, ref, _ = _scan_reference(eu, ev, ew, eshift, n, k)
    assert abs(wsat - ref) < 1e-12
    assert abs(_code_weight(code, eu, ev, ew, eshift, n, k) - ref) < 1e-12


def test_brute_force_scan_first_maximum_across_blocks(monkeypatch):
    # one hi row per block, and edges that leave high vertices free, so
    # tied maxima fall in different blocks
    monkeypatch.setattr(_kernels, "_BLOCK_FLOATS", 1)
    for n, k, edges in [(5, 3, [(0, 1, 1), (1, 2, 2)]),
                        (7, 2, [(1, 4, 1), (4, 2, 0), (3, 0, 1)]),
                        (6, 3, [(4, 1, 2), (2, 0, 1), (4, 3, 1)])]:
        eu, ev, eshift = (np.array(c) for c in zip(*edges))
        ew = np.ones(len(edges))
        code, wsat = _kernels.brute_force_scan(eu, ev, ew, eshift, n, k)
        ref_code, ref, ties = _scan_reference(eu, ev, ew, eshift, n, k)
        assert ties > 1
        assert (code, wsat) == (ref_code, ref)


def _j62_seed0():
    inst, _ = plant_instance(johnson_graph(6, 2, 0.5), 3, 0.05, seed=0)
    return inst


def test_brute_force_scan_j62_regression():
    inst = _j62_seed0()
    eu, ev, w, s = inst._arrays
    assert _kernels.brute_force_scan(eu, ev, w, s, 15, 3) == (1459826, 57.0)


def _spy_side_labels(monkeypatch, fail_at=None):
    """Record the BLAS thread count at each `_side_labels` call of the scan;
    the call numbered `fail_at` raises."""
    if _kernels.get_blas_threads() is None:
        pytest.skip("no OpenBLAS thread control found")
    seen = []
    side_labels = _kernels._side_labels

    def spy(*args):
        seen.append(_kernels.get_blas_threads())
        if len(seen) == fail_at:
            raise RuntimeError("scan failed")
        return side_labels(*args)

    monkeypatch.setattr(_kernels, "_side_labels", spy)
    return seen


def test_brute_force_scan_runs_on_one_blas_thread(monkeypatch):
    # J(6,2)-k3: the GEMM's inner dimension is j*k = 7 * 3 = 21; the last
    # two calls decode the winner after the count is restored
    inst = _j62_seed0()
    seen = _spy_side_labels(monkeypatch)
    with _kernels.blas_threads(2):
        assert brute_force_opt(inst)[1] == 57.0 / inst.total_weight
        assert _kernels.get_blas_threads() == 2
    assert len(seen) > 3
    assert set(seen[:-2]) == {1} and seen[-2:] == [2, 2]
    # with j*k not below ONE_THREAD_MAX_DIM the scan keeps the count
    monkeypatch.setattr(_kernels, "ONE_THREAD_MAX_DIM", 21)
    seen.clear()
    with _kernels.blas_threads(2):
        brute_force_opt(inst)
    assert set(seen) == {2}


def test_brute_force_scan_restores_blas_threads_on_raise(monkeypatch):
    seen = _spy_side_labels(monkeypatch, fail_at=3)     # in the block loop
    with _kernels.blas_threads(2):
        with pytest.raises(RuntimeError):
            brute_force_opt(_j62_seed0())
        assert _kernels.get_blas_threads() == 2
    assert seen == [1, 1, 1]


@pytest.mark.parametrize("inst", [
    _j62_seed0(),  # 3^14 states
    # a large alphabet on two vertices: a one-hot table of the high side
    # alone would take 72 MB
    UgInstance(2, 3000, ((0, 1, 1.0, 5), (1, 0, 0.5, 7)))])
def test_brute_force_scan_memory_bound(inst):
    eu, ev, w, s = inst._arrays
    tracemalloc.start()
    try:
        _kernels.brute_force_scan(eu, ev, w, s, inst.num_vertices, inst.k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _one_low_vertex_edges(n, k, seed):
    """Every ordered vertex pair once, random shifts and dyadic weights
    (so every summation order gives the same float)."""
    rng = np.random.default_rng(seed)
    eu, ev = map(np.array, zip(*itertools.permutations(range(n), 2)))
    return (eu, ev, rng.choice([0.25, 0.5, 1.0, 2.0], size=eu.size),
            rng.integers(0, k, size=eu.size))


def _enumerated_scan(eu, ev, ew, eshift, n, k):
    """First best code and weight by direct numpy enumeration of every
    x_0 = 0 assignment, vertex 1 the lowest base-k digit."""
    codes = np.arange(k ** (n - 1))
    x = np.zeros((n, codes.size), dtype=np.int64)
    for v in range(1, n):
        codes, x[v] = np.divmod(codes, k)
    wsat = ew @ ((x[eu] - x[ev]) % k == eshift[:, None])
    best = int(np.argmax(wsat))
    return best, float(wsat[best])


def test_brute_force_scan_one_low_vertex_large_alphabet():
    # n = 3: one low vertex, so the low side's one-hot table would be the
    # k x k identity (8 MB at k = 1000) and each block a GEMM against it;
    # the crossing table C (k^2 floats) is what remains
    n, k = 3, 1000
    edges = _one_low_vertex_edges(n, k, 31)
    tracemalloc.start()
    try:
        got = _kernels.brute_force_scan(*edges, n, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    assert got == _enumerated_scan(*edges, n, k)


@pytest.mark.parametrize("k", [7, 40])
def test_brute_force_scan_n4_matches_enumeration(k, monkeypatch):
    # n = 4 also has one low vertex; small blocks make the scan cross blocks
    monkeypatch.setattr(_kernels, "_BLOCK_FLOATS", 3 * k)
    edges = _one_low_vertex_edges(4, k, k)
    assert (_kernels.brute_force_scan(*edges, 4, k)
            == _enumerated_scan(*edges, 4, k))


@st.composite
def _raw_instances(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(2, 4))
    m = draw(st.integers(0, 10)) if n > 1 else 0
    eu = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    ev = [(u + draw(st.integers(1, n - 1))) % n for u in eu]
    ew = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
                       min_size=m, max_size=m))
    eshift = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    return (np.array(eu, dtype=np.int64), np.array(ev, dtype=np.int64),
            np.array(ew), np.array(eshift, dtype=np.int64), n, k)


@settings(max_examples=100, deadline=None)
@given(_raw_instances())
def test_brute_force_scan_matches_enumeration_property(args):
    ref_code, ref, _ = _scan_reference(*args)
    assert _kernels.brute_force_scan(*args) == (ref_code, ref)


def test_plant_zero_eps_is_satisfiable():
    g = noisy_hypercube(2, 0.1)
    inst, xstar = plant_instance(g, 3, 0.0, seed=5)
    assert value(inst, xstar) == 1.0


@pytest.mark.parametrize("k,eps,seed", [(2, 0.0, 0), (3, 0.2, 1),
                                         (5, 0.5, 2), (4, 1.0, 3)])
def test_plant_instance_matches_the_pair_scan(k, eps, seed):
    # same edges in the same order, same RNG calls per edge, so the same
    # shifts and planted assignment as a scan of every pair u < v
    rng = np.random.default_rng(seed)
    graphs = [noisy_hypercube(3, 0.2), johnson_graph(5, 2, 0.5)]
    for n in (2, 5, 9):
        A = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        A[0, 1] = 1.0
        graphs.append(WeightedGraph(n, A + A.T))
    # a weight in (-1e-15, 0], which WeightedGraph accepts and both skip
    W = np.ones((4, 4))
    W[0, 2] = W[2, 0] = -5e-16
    graphs.append(WeightedGraph(4, W))
    for g in graphs:
        inst, xstar = plant_instance(g, k, eps, seed=seed)
        ref, ref_xstar = plant_instance_pairs(g, k, eps, seed=seed)
        assert inst.edges == ref.edges
        assert np.array_equal(xstar, ref_xstar)
        assert all(type(u) is int and type(v) is int
                   for (u, v, _, _) in inst.edges)


def test_plant_eps_near_target():
    g = noisy_hypercube(3, 0.3)
    vals = [value(*plant_instance(g, 3, 0.2, seed=s)) for s in range(30)]
    # corruption probability 0.2 per edge; mean planted value close to 0.8
    assert 0.7 < np.mean(vals) < 0.9


def test_json_round_trip():
    inst = make_triangle(3, sat=False)
    assert UgInstance.from_json(inst.to_json()) == inst


@pytest.mark.parametrize("w", ["NaN", "Infinity", "-Infinity"])
def test_from_json_rejects_non_finite_weight(w):
    text = ('{"n": 3, "k": 2, "edges": [{"u": 0, "v": 1, "w": 1.0, '
            '"shift": 0}, {"u": 1, "v": 2, "w": %s, "shift": 1}]}' % w)
    with pytest.raises(ParameterError):
        UgInstance.from_json(text)


def test_stationary_is_degree_measure():
    inst = UgInstance(3, 2, ((0, 1, 2.0, 0), (1, 2, 1.0, 1)))
    assert np.allclose(inst.stationary, [2 / 6, 3 / 6, 1 / 6])


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.lists(st.integers(0, 3), min_size=4, max_size=4),
       st.integers(0, 10**6))
def test_value_matches_direct_count(k, shifts, seed):
    rng = np.random.default_rng(seed)
    edges = tuple((u, v, 1.0, s % k)
                  for (u, v), s in zip([(0, 1), (1, 2), (2, 3), (0, 3)], shifts))
    inst = UgInstance(4, k, edges)
    x = rng.integers(0, k, size=4)
    direct = np.mean([(x[u] - x[v]) % k == s for (u, v, _, s) in inst.edges])
    assert value(inst, x) == pytest.approx(direct)


_EDGE = ((0, 1, 1.0, 0),)
_BAD_WEIGHT = ('{"n": 2, "k": 2, "edges": '
               '[{"u": 0, "v": 1, "w": "1", "shift": 0}]}')


@pytest.mark.parametrize("call, match", [
    (lambda: UgInstance(0, 2, _EDGE), "num_vertices must be positive"),
    (lambda: UgInstance(2, 0, _EDGE), "alphabet size k must be positive"),
    (lambda: UgInstance(2, 2, ((0, 2, 1.0, 0),)), "out of range"),
    (lambda: UgInstance.from_json(_BAD_WEIGHT), "has weight '1'"),
    (lambda: value(UgInstance(2, 2, _EDGE), [0]), "assignment has length"),
    (lambda: value(UgInstance(2, 2, _EDGE), [0, 2]),
     "entries must lie in \\[0, k\\)"),
    (lambda: local_value(UgInstance(2, 2, _EDGE), [0], 0),
     "assignment length mismatch"),
    (lambda: local_value(UgInstance(2, 2, _EDGE), [0, 0], 2),
     "vertex 2 out of range"),
    (lambda: local_value(UgInstance(3, 2, _EDGE), [0, 0, 0], 2),
     "vertex 2 is isolated"),
    (lambda: plant_instance(noisy_hypercube(2, 0.3), 3, 1.5),
     "eps must lie in \\[0, 1\\]"),
    (lambda: plant_instance(noisy_hypercube(2, 0.3), 1, 0.0),
     "k must be at least 2"),
    (lambda: plant_instance(noisy_hypercube(2, 0.0), 3, 0.0),
     "no off-diagonal edges"),
], ids=["n", "k", "edge-range", "json-weight", "value-length",
        "value-labels", "local-length", "local-vertex", "local-isolated",
        "plant-eps", "plant-k", "plant-no-edges"])
def test_input_checks_raise(call, match):
    with pytest.raises(ParameterError, match=match):
        call()
