"""Closed-form spectra, restriction-density Fourier analysis, the structure
inequality, and subcube search on the Johnson graph and its Cayley model."""
import itertools
import json
import math
import time

import numpy as np
import pytest

from ugsos.errors import ParameterError, SizeCapError
from ugsos.graphs import (expansion, johnson_cayley_graph, johnson_graph,
                          noisy_hypercube, spectral_decompose)
from ugsos.instances import UgInstance, plant_instance, value
from ugsos.johnson import (SubcubeId, eigenvalue_multiset,
                           expansion_bound_check, find_best_subcube,
                           johnson_eigenvalue, johnson_pipeline,
                           level_decompose, level_weight_bound_check,
                           restriction_density, structure_inequality_check,
                           subcube_expansion, subcube_vertices)
from ugsos.sos import (build_relaxation, point_mass_pe, solve_sdp,
                       symmetrize)


def random_invariant(rng, n, l):
    """Random permutation-invariant [0,1]-valued tensor on [n]^l."""
    F = rng.random((n,) * l)
    sym = np.zeros_like(F)
    for p in itertools.permutations(range(l)):
        sym += np.transpose(F, p)
    sym /= math.factorial(l)
    sym -= sym.min()
    m = sym.max()
    return sym / m if m > 0 else sym


# -- closed-form spectra ----------------------------------------------------

@pytest.mark.parametrize("n,l,alpha", [(4, 2, 0.5), (5, 2, 0.5), (6, 2, 0.5)])
def test_eigenvalues_match_numeric(n, l, alpha):
    closed = eigenvalue_multiset(n, l, alpha)
    sd = spectral_decompose(johnson_cayley_graph(n, l, alpha))
    assert np.allclose(np.sort(closed), np.sort(sd.eigenvalues), atol=1e-8)


def test_eigenvalue_vanishes_past_support():
    assert johnson_eigenvalue(4, 0.5, 3) == 0.0
    assert johnson_eigenvalue(4, 0.5, 0) == 1.0


def test_subcube_expansion_matches_numeric_johnson():
    g = johnson_graph(6, 3, 1.0 / 3.0)
    sd = spectral_decompose(g)
    sub = SubcubeId((0,))
    f = np.zeros(g.num_vertices)
    f[subcube_vertices(g, sub)] = 1.0
    rep = expansion(g, sd, f)
    assert rep.phi == pytest.approx(subcube_expansion(3, 1.0 / 3.0, 1),
                                    abs=1e-9)


def test_expansion_bound_small_eps():
    r, phi, ok = expansion_bound_check(8, 0.5, 0.01)
    assert r == 0
    assert ok


# -- Fourier identities -----------------------------------------------------

def test_level_decomposition_identities():
    rng = np.random.default_rng(0)
    for _ in range(10):
        F = random_invariant(rng, 5, 2)
        dec = level_decompose(F)
        assert dec.parseval_residual <= 1e-8
        assert dec.pointwise_residual <= 1e-8
        assert dec.c6_residual <= 1e-8


@pytest.mark.parametrize("shape", [(4, 4), (3, 3, 3)])
def test_level_decompose_rejects_a_non_invariant_function(shape):
    # decomposed anyway, these two would get levels that are not orthogonal,
    # with Parseval residuals 0.087 and 0.118
    with pytest.raises(ParameterError, match="permutation-invariant"):
        level_decompose(np.random.default_rng(0).random(shape))


def test_restriction_recursion():
    # f_{i+1,F}(a, X) = f_{i, F|_a}(X) - f_{i,F}(X)
    rng = np.random.default_rng(1)
    F = random_invariant(rng, 4, 3)
    dec = level_decompose(F)
    for a in range(4):
        sub = level_decompose(F[a])
        for i in range(F.ndim - 1 + 1):
            if i + 1 > F.ndim:
                continue
            lhs = dec.reduced[i + 1][a] if i + 1 <= F.ndim else None
            rhs = sub.reduced[i] - dec.reduced[i]
            assert np.allclose(lhs, rhs, atol=1e-10)


def test_density_tensor_vs_flat():
    g = johnson_graph(5, 2, 0.5)
    f = np.zeros(g.num_vertices)
    sub = SubcubeId((0, 1))
    f[subcube_vertices(g, sub)] = 1.0
    # delta_{1}(indicator of sets containing {0,1}) over C(5,2)
    d = restriction_density(f, (0,), n=5, l=2)
    assert d == pytest.approx(1.0 / 4.0)


def test_level_weight_bounds():
    rng = np.random.default_rng(2)
    for _ in range(10):
        F = random_invariant(rng, 5, 2)
        assert level_weight_bound_check(F, r=2).passed


def test_level_decompose_size_cap():
    with pytest.raises(SizeCapError):
        level_decompose(np.zeros((50,) * 3))


def test_level_decompose_work_is_bounded():
    # invariance takes l - 1 transpositions, not l! permutations (l = 9 took
    # 15 s with all of them), and the 2^l n^l of the level sums is capped:
    # (2,)^16 has 65,536 entries but 2^32 terms
    F = np.indices((2,) * 9).sum(axis=0) / 9.0
    t0 = time.perf_counter()
    dec = level_decompose(F)
    assert time.perf_counter() - t0 < 1.0
    assert dec.pointwise_residual <= 1e-12 and dec.parseval_residual <= 1e-12
    t0 = time.perf_counter()
    with pytest.raises(SizeCapError, match="2\\^l n\\^l"):
        level_decompose(np.zeros((2,) * 16))
    assert time.perf_counter() - t0 < 0.1


# -- structure inequality ---------------------------------------------------

def test_structure_c_variant_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        F = random_invariant(rng, 5, 2)
        rep = structure_inequality_check(F, r=1, n=5, l=2, alpha=0.5)
        assert rep.holds


def test_structure_subcube_indicators():
    n, l, alpha = 5, 2, 0.5
    g = johnson_cayley_graph(n, l, alpha)
    for v0 in range(n):
        F = np.zeros((n, n))
        F[v0, :] = 1.0
        F[:, v0] = 1.0
        rep = structure_inequality_check(F, r=1, n=n, l=l, alpha=alpha,
                                         variant="C", graph=g)
        assert rep.holds


def test_structure_j_variant_reports_slack():
    g = johnson_graph(6, 2, 0.5)
    F = np.zeros(g.num_vertices)
    F[subcube_vertices(g, SubcubeId((0,)))] = 1.0
    rep = structure_inequality_check(F, r=1, n=6, l=2, alpha=0.5,
                                     variant="J", graph=g)
    assert rep.order_n_slack is not None
    assert rep.residual + rep.order_n_slack >= -1e-8


def test_structure_rejects_out_of_range_values():
    with pytest.raises(ParameterError):
        structure_inequality_check(np.full((4, 4), 2.0), 1, 4, 2, 0.5)


# -- subcube search and pipeline -------------------------------------------

@pytest.fixture(scope="module")
def planted_johnson():
    g = johnson_graph(5, 2, 0.5)
    inst, xstar = plant_instance(g, 3, 0.0, seed=2)
    return g, inst, xstar


def test_find_best_subcube_prefers_whole_graph_when_satisfiable(
        planted_johnson):
    g, inst, _ = planted_johnson
    pE = symmetrize(solve_sdp(build_relaxation(inst, 2), tol=1e-6))
    sub, cv = find_best_subcube(pE, inst, g, r_max=1)
    assert cv >= 1.0 - 1e-4


def test_find_best_subcube_conditions_once(planted_johnson, monkeypatch):
    # the six candidates (the whole graph and five stars) are scored from
    # one conditioned table, each as cr_val scores its vertices
    from ugsos import rounding
    g, inst, _ = planted_johnson
    pE = symmetrize(solve_sdp(build_relaxation(inst, 2), tol=1e-6))
    calls, read = [], rounding.pair_moments
    monkeypatch.setattr(rounding, "pair_moments",
                        lambda pE: calls.append(pE) or read(pE))
    scored = []
    for r in (0, 1):
        calls.clear()
        scored.append(find_best_subcube(pE, inst, g, r_max=r))
        assert len(calls) == 1
    monkeypatch.undo()
    for sub, cv in scored:
        assert cv == rounding.cr_val(pE, inst, subcube_vertices(g, sub))


def test_pipeline_degree2_recovers_planted(planted_johnson):
    g, inst, xstar = planted_johnson
    # eps=0.05 keeps the stopping threshold 1 - 2*eps strictly below the
    # (numerically just-under-1) solved value of the satisfiable instance
    pE = solve_sdp(build_relaxation(inst, 2), tol=1e-6)
    out = johnson_pipeline(inst, pE, g, 0.05)
    assert out.achieved_value == pytest.approx(1.0)
    assert np.all(out.assignment >= 0)
    for rec in out.trace:
        assert rec.drop <= 2.0 * len(rec.subgraph) / inst.num_vertices + 1e-9


def test_pipeline_keeps_the_stall_reason(planted_johnson, monkeypatch):
    # a search that keeps offering the same subcube stalls the loop after one
    # rounding; the pipeline's outcome says so
    from ugsos import johnson
    g, inst, _ = planted_johnson
    monkeypatch.setattr(johnson, "find_best_subcube",
                        lambda *args: (SubcubeId((0,)), 1.0))
    pE = solve_sdp(build_relaxation(inst, 2), tol=3e-4)
    out = johnson_pipeline(inst, pE, g, 0.45)
    assert len(out.trace) == 1
    assert out.stop_reason == "stalled"
    assert json.loads(out.to_json())["stop_reason"] == "stalled"


def test_pipeline_outcome_carries_the_solver_status(planted_johnson):
    g, inst, _ = planted_johnson
    problem = build_relaxation(inst, 2)
    for max_iters, stalled in ((5, True), (100_000, False)):
        pE = symmetrize(solve_sdp(problem, tol=1e-6, max_iters=max_iters))
        out = johnson_pipeline(inst, pE, g, 0.05)
        assert out.unconverged is stalled
        assert json.loads(out.to_json())["unconverged"] is stalled


@pytest.mark.parametrize("n,l,D,r", [(6, 2, 4, 1), (8, 4, 2, None)],
                         ids=["J62-D4-r1", "J84-D2"])
def test_pipeline_in_the_restriction_regime(n, l, D, r):
    # r = 1 (J(8,4)'s own budget, J(6,2)'s by override) lets the search pick
    # proper subcubes, so subsets are rounded and rerandomized; the values
    # reached (about 0.4-0.5 against a planted 0.95) carry no floor here
    g = johnson_graph(n, l, 0.5)
    inst, _ = plant_instance(g, 3, 0.05, seed=0)
    pE = solve_sdp(build_relaxation(inst, D), tol=3e-3)
    out = johnson_pipeline(inst, pE, g, 0.05, r_override=r)
    assert any(len(rec.subgraph) < inst.num_vertices for rec in out.trace)
    for rec in out.trace:
        assert rec.drop <= 2.0 * len(rec.subgraph) / inst.num_vertices + 1e-9
    assigned = [v for rec in out.trace for v in rec.newly_assigned]
    assert len(assigned) == len(set(assigned))
    assert out.achieved_value == value(inst, out.assignment)
    assert out.stop_reason is not None


def test_pipeline_rejects_wrong_graph():
    g = johnson_cayley_graph(4, 2, 0.5)
    inst, _ = plant_instance(g, 2, 0.0, seed=0)
    pE = point_mass_pe(16, 2, [0] * 16, degree=2)
    with pytest.raises(ParameterError, match="needs a Johnson graph"):
        johnson_pipeline(inst, pE, g, 0.0)


def test_pipeline_reads_the_degree_from_the_table(planted_johnson):
    g, inst, xstar = planted_johnson
    pE = point_mass_pe(10, 3, xstar, degree=0)
    with pytest.raises(ParameterError, match="D in"):
        johnson_pipeline(inst, pE, g, 0.05)


def test_expansion_bound_is_not_checked_past_l_over_4():
    # r = floor(32 * 0.1 / 0.5) = 6 exceeds l/4 = 1
    assert expansion_bound_check(4, 0.5, 0.1) == (6, None, None)


def _no_internal_edge_search():
    # J(4,2)'s six vertices carry none of the instance's edges
    inst = UgInstance(8, 2, ((6, 7, 1.0, 0),))
    return find_best_subcube(point_mass_pe(8, 2, [0] * 8, degree=2), inst,
                             johnson_graph(4, 2, 0.5), 0)


def _pipeline_with_eps(eps, r_override):
    # a point mass on J(4,2): the eps check comes before any rounding
    graph = johnson_graph(4, 2, 0.5)
    inst = UgInstance(6, 2, ((0, 1, 1.0, 0),))
    return johnson_pipeline(inst, point_mass_pe(6, 2, [0] * 6), graph, eps,
                            r_override=r_override)


@pytest.mark.parametrize("call, error, match", [
    (lambda: johnson_eigenvalue(3, 0.5, 1), ParameterError,
     "must be an integer"),
    (lambda: johnson_eigenvalue(2, 0.5, 3), ParameterError,
     "character degree t = 3"),
    (lambda: subcube_expansion(2, 0.5, 2), ParameterError,
     "restriction size r = 2"),
    (lambda: SubcubeId((1, 1)), ParameterError, "must be distinct"),
    (lambda: SubcubeId((-1,)), ParameterError, "must be nonnegative"),
    (lambda: restriction_density(np.ones(10), (0,)), ParameterError,
     "needs n and l"),
    (lambda: restriction_density(np.ones(10), (0, 1, 2), n=5, l=2),
     ParameterError, "matches no vertex"),
    (lambda: structure_inequality_check(np.zeros((4, 4)), 1, 4, 2, 0.5,
                                        variant="X"),
     ParameterError, "unknown variant"),
    (lambda: structure_inequality_check(np.zeros(6), 1, 4, 2, 0.5,
                                        variant="J"),
     ParameterError, "J-variant needs the Johnson graph"),
    (lambda: find_best_subcube(None, None, noisy_hypercube(2, 0.3), 0),
     ParameterError, "lacks Johnson metadata"),
    (lambda: find_best_subcube(None, None, johnson_graph(30, 2, 0.5), 5),
     SizeCapError, "C\\(n, r\\)"),
    (_no_internal_edge_search, ParameterError,
     "no subcube has internal edges"),
    (lambda: expansion_bound_check(4, 0.0, 0.05), ParameterError,
     "alpha must lie in"),
    (lambda: johnson_eigenvalue(2, -0.5, 0), ParameterError,
     "alpha must lie in"),
    (lambda: subcube_expansion(2, -0.5, 0), ParameterError,
     "alpha must lie in"),
    (lambda: johnson_eigenvalue(2, 1.5, 0), ParameterError,
     "alpha must lie in"),
    (lambda: subcube_expansion(2, 1.5, 0), ParameterError,
     "alpha must lie in"),
    (lambda: expansion_bound_check(4, 0.5, float("nan")), ParameterError,
     "eps must be finite"),
    (lambda: expansion_bound_check(4, 0.5, float("inf")), ParameterError,
     "eps must be finite"),
    (lambda: expansion_bound_check(4, 0.5, -0.1), ParameterError,
     "eps must be finite and >= 0"),
    (lambda: _pipeline_with_eps(float("nan"), None), ParameterError,
     "eps must be finite"),
    (lambda: _pipeline_with_eps(float("nan"), 0), ParameterError,
     "eps must be finite"),
    (lambda: _pipeline_with_eps(float("-inf"), 1), ParameterError,
     "eps must be finite"),
    (lambda: _pipeline_with_eps(-0.1, None), ParameterError,
     "eps must be finite and >= 0"),
], ids=["alpha-l", "character-degree", "restriction-size",
        "subcube-distinct", "subcube-negative", "density-needs-n-l",
        "density-empty", "structure-variant", "structure-j-graph",
        "search-metadata", "search-cap", "search-no-edges",
        "bound-alpha-zero", "eigenvalue-alpha-negative",
        "expansion-alpha-negative", "eigenvalue-alpha-above-one",
        "expansion-alpha-above-one", "bound-eps-nan", "bound-eps-inf",
        "bound-eps-negative", "pipeline-eps-nan", "pipeline-eps-nan-override",
        "pipeline-eps-minus-inf-override", "pipeline-eps-negative"])
def test_input_checks_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_subcube_expansion_is_one_when_no_alpha_l_set_fits():
    # l - r = 2 elements are left, fewer than alpha * l = 3
    assert subcube_expansion(4, 0.75, 2) == 1.0


def test_find_best_subcube_skips_one_vertex_subcubes(planted_johnson):
    # on J(5,2) a 2-element A fixes the vertex A itself, so r_max = 2 scores
    # the same candidates as r_max = 1
    g, inst, _ = planted_johnson
    pE = symmetrize(solve_sdp(build_relaxation(inst, 2), tol=1e-6))
    assert all(len(subcube_vertices(g, SubcubeId(A))) == 1
               for A in itertools.combinations(range(5), 2))
    assert (find_best_subcube(pE, inst, g, r_max=2)
            == find_best_subcube(pE, inst, g, r_max=1))
