"""Acceptance gate: one test per criterion, each recording a single pass/fail
line (echoed in the terminal summary by conftest).

The solved-instance suite is built once per session and shared by the
criteria that quantify over "every solved pseudoexpectation".
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from ugsos.graphs import (johnson_cayley_graph, johnson_graph,
                          noisy_hypercube, spectral_decompose)
from ugsos.instances import UgInstance, brute_force_opt, plant_instance
from ugsos.johnson import (eigenvalue_multiset, johnson_pipeline,
                           level_decompose, level_weight_bound_check,
                           structure_inequality_check, subcube_expansion)
from ugsos.potentials import phi_apx, psi, truncation_cap
from ugsos.rounding import closed_form_cr, derandomized_round, monte_carlo_cr
from ugsos.sos import (build_relaxation, canon_key, condition, evaluate,
                       moment_matrix, poly_mul, product_copy, solve_sdp,
                       symmetrize, ug_objective_poly, validate)
from ugsos.steppoly import (build_capped_step_poly, build_step_poly,
                            check_invariants, check_markov_bounds,
                            check_union_bound)

from conftest import make_triangle, record_criterion
from reference import z_var_poly

JOHNSON_SOLVER_TOL = 3e-3  # marginal accuracy; full certificate tol is 1e-7


# ---------------------------------------------------------------------------
# The solved suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteEntry:
    name: str
    inst: UgInstance
    degree: int
    raw: object        # solver output
    pe: object         # symmetrized
    opt: float


def _edge(k):
    return UgInstance(2, k, ((0, 1, 1.0, 1),))


def _path3(k):
    return UgInstance(3, k, ((0, 1, 1.0, 1), (1, 2, 1.0, k - 1)))


def _cycle4(k, sat):
    # x_0 - x_3 accumulates to 3 around the cycle; offset it by 1 to unsat
    shifts = [1, 1, 1, 3 % k if sat else (3 + 1) % k]
    return UgInstance(4, k, tuple(
        (u, v, 1.0, s) for (u, v), s in zip([(0, 1), (1, 2), (2, 3), (0, 3)],
                                            shifts)))


def _suite_specs():
    jg = {nl: johnson_graph(nl, 2, 0.5) for nl in (4, 5, 6)}
    yield "edge-k2-D2", _edge(2), 2
    yield "edge-k3-D4", _edge(3), 4
    yield "tri-sat-k2-D2", make_triangle(2, sat=True), 2
    yield "tri-sat-k2-D4", make_triangle(2, sat=True), 4
    yield "tri-unsat-k2-D2", make_triangle(2, sat=False), 2
    yield "tri-unsat-k2-D4", make_triangle(2, sat=False), 4
    yield "tri-sat-k3-D2", make_triangle(3, sat=True), 2
    yield "tri-sat-k3-D4", make_triangle(3, sat=True), 4
    yield "tri-unsat-k3-D4", make_triangle(3, sat=False), 4
    yield "path3-k3-D2", _path3(3), 2
    yield "path3-k2-D4", _path3(2), 4
    yield "cycle4-sat-k2-D2", _cycle4(2, True), 2
    yield "cycle4-unsat-k2-D4", _cycle4(2, False), 4
    yield ("cube-d2-k2-D4",
           plant_instance(noisy_hypercube(2, 0.3), 2, 0.0, seed=7)[0], 4)
    yield ("cube-d2-k3-D4",
           plant_instance(noisy_hypercube(2, 0.3), 3, 0.0, seed=8)[0], 4)
    yield ("cube-d3-k2-D2",
           plant_instance(noisy_hypercube(3, 0.3), 2, 0.0, seed=9)[0], 2)
    yield ("cube-d3-k3-D4",
           plant_instance(noisy_hypercube(3, 0.3), 3, 0.05, seed=0)[0], 4)
    yield "johnson42-k2-D2", plant_instance(jg[4], 2, 0.0, seed=1)[0], 2
    yield "johnson42-k3-D4", plant_instance(jg[4], 3, 0.0, seed=1)[0], 4
    yield "johnson52-k3-D2", plant_instance(jg[5], 3, 0.1, seed=2)[0], 2
    yield "johnson62-k3-D2", plant_instance(jg[6], 3, 0.05, seed=0)[0], 2


@pytest.fixture(scope="session")
def suite():
    entries = []
    t0 = time.time()
    for name, inst, D in _suite_specs():
        raw = solve_sdp(build_relaxation(inst, D))
        entries.append(SuiteEntry(name, inst, D, raw, symmetrize(raw),
                                  brute_force_opt(inst)[1]))
    return entries, time.time() - t0


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_sdp_validity(suite):
    entries, elapsed = suite
    ok = len(entries) >= 20 and elapsed <= 600.0
    for e in entries:
        val = e.raw.pe(ug_objective_poly(e.inst))
        ok &= validate(e.raw, 1e-5).passed
        ok &= val >= e.opt - 1e-5
    assert record_criterion(1, "sdp-validity", ok)


def test_suite_values_lie_between_opt_and_the_certified_bound(suite):
    # the duality-gap stop keeps every value within the solve's tol 1e-7 of
    # OPT, and the bound holds up to the round-off of its own sum
    entries, _ = suite
    for e in entries:
        assert e.raw.flags["sdp_value"] >= e.opt - 1e-7, e.name
        assert e.raw.flags["sdp_upper_bound"] >= e.opt - 1e-12, e.name


def test_criterion_02_symmetrization(suite):
    entries, _ = suite
    ok = True
    for e in entries:
        obj = ug_objective_poly(e.inst)
        ok &= abs(e.raw.pe(obj) - e.pe.pe(obj)) <= 1e-10
        for v in range(e.inst.num_vertices):
            for a in range(e.inst.k):
                ok &= abs(e.pe.moment(((v, a, 0),)) - 1.0 / e.inst.k) <= 1e-8
    assert record_criterion(2, "symmetrization", ok)


def test_criterion_03_rounding_floor(suite):
    entries, _ = suite
    ok = True
    for e in entries:
        beta = 0.9
        p = build_capped_step_poly(beta, 0.1, truncation_cap(e.degree))
        nu = p.eps
        delta = phi_apx(e.pe, p, e.inst)
        cf = closed_form_cr(e.pe, e.inst)
        ok &= cf >= (delta - nu) * (beta - nu) - 1e-5
        vals = monte_carlo_cr(e.pe, e.inst, 10_000, seed=17)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        # 1e-6 floor: degenerate samples leave only the solver residual
        ok &= abs(vals.mean() - cf) <= 3.0 * se + 1e-6
    assert record_criterion(3, "rounding-floor", ok)


def test_criterion_04_potential_inequality(suite):
    entries, _ = suite
    ok = True
    for e in entries:
        if e.degree < 4:
            continue  # Psi is a degree-4 functional
        beta = 0.9
        p = build_capped_step_poly(beta, 0.1, truncation_cap(e.degree))
        nu = p.eps
        phi = phi_apx(e.pe, p, e.inst)
        ok &= phi <= psi(e.pe, e.inst) / (beta - nu) + nu + 1e-5
    assert record_criterion(4, "potential-inequality", ok)


def test_criterion_05_hypercube_end_to_end():
    g = noisy_hypercube(3, 0.3)
    floor = 0.05 * 0.6**4 / 576.0
    vals = []
    ok = True
    for seed in range(10):
        inst, _ = plant_instance(g, 3, 0.05, seed=seed)
        t0 = time.time()
        pe = symmetrize(solve_sdp(build_relaxation(inst, 4)))
        out = derandomized_round(pe, inst)
        ok &= time.time() - t0 <= 300.0
        ok &= out.achieved_value >= floor
        vals.append(out.achieved_value)
    ok &= float(np.median(vals)) >= 1.0 / 3.0 + 0.05
    assert record_criterion(5, "hypercube-end-to-end", ok)


def test_criterion_06_step_polynomial():
    ok = True
    for (a, eps, d) in [(0.5, 0.1, 0.2), (0.3, 0.05, 0.1), (0.2, 0.01, 0.05)]:
        p = build_step_poly(a, eps, d)
        ok &= p.degree <= 200
        ok &= check_invariants(p).passed
        ok &= check_markov_bounds(p).passed
        ok &= check_union_bound(p).passed
    assert record_criterion(6, "step-polynomial", ok)


def test_criterion_07_johnson_spectra():
    ok = True
    for (n, l, a) in [(4, 2, 0.5), (5, 2, 0.5), (6, 2, 0.5)]:
        sd = spectral_decompose(johnson_cayley_graph(n, l, a))
        err = np.max(np.abs(np.sort(sd.eigenvalues)
                            - np.sort(eigenvalue_multiset(n, l, a))))
        ok &= err <= 1e-8
    assert record_criterion(7, "johnson-spectra", ok)


def _random_invariant(rng, n, l):
    F = rng.random((n,) * l)
    sym = sum(np.transpose(F, p) for p in itertools.permutations(range(l)))
    sym = sym / math.factorial(l)
    sym = sym - sym.min()
    return sym / max(sym.max(), 1e-12)


def test_criterion_08_fourier_identities():
    rng = np.random.default_rng(8)
    ok = True
    for (n, l) in [(4, 2), (5, 2), (6, 2)]:
        for _ in range(100):
            F = _random_invariant(rng, n, l)
            dec = level_decompose(F)
            ok &= dec.parseval_residual <= 1e-8
            ok &= dec.pointwise_residual <= 1e-8
            ok &= dec.c6_residual <= 1e-8
            # restriction recursion f_{i+1,F}(a, .) = f_{i,F|a} - f_{i,F}
            a = int(rng.integers(0, n))
            sub = level_decompose(F[a])
            for i in range(l):
                ok &= bool(np.allclose(dec.reduced[i + 1][a],
                                       sub.reduced[i] - dec.reduced[i],
                                       atol=1e-8))
            ok &= level_weight_bound_check(F, r=l - 1).passed
    assert record_criterion(8, "fourier-identities", ok)


def test_criterion_09_structure_theorem():
    rng = np.random.default_rng(9)
    ok = True
    for n in (5, 6):
        g = johnson_cayley_graph(n, 2, 0.5)
        for _ in range(200):
            F = _random_invariant(rng, n, 2)
            for r in (0, 1):
                rep = structure_inequality_check(F, r, n, 2, 0.5, "C", g)
                ok &= rep.residual >= -1e-8
        # all subcube indicators: one fixed coordinate value, and the
        # symmetric "contains a" version
        for a in range(n):
            first = np.zeros((n, n))
            first[a, :] = 1.0
            touches = first.copy()
            touches[:, a] = 1.0
            for F in (first, touches):
                for r in (0, 1):
                    rep = structure_inequality_check(F, r, n, 2, 0.5, "C", g)
                    ok &= rep.residual >= -1e-8
    assert record_criterion(9, "structure-theorem", ok)


def test_criterion_10_johnson_pipeline():
    g = johnson_graph(6, 2, 0.5)
    sd = spectral_decompose(g)
    ok = True
    for seed in range(10):
        inst, _ = plant_instance(g, 3, 0.05, seed=seed)
        pE = solve_sdp(build_relaxation(inst, 4), tol=JOHNSON_SOLVER_TOL)
        out = johnson_pipeline(inst, pE, g, 0.05)
        ok &= out.achieved_value > 1.0 / 3.0
        seen: set = set()
        for rec in out.trace:
            ok &= rec.drop <= 2.0 * len(rec.subgraph) / inst.num_vertices + 1e-9
            ok &= not (seen & set(rec.newly_assigned))
            seen |= set(rec.newly_assigned)
    # closed-form subcube expansion cross-checked against the graph
    from ugsos.graphs import expansion
    from ugsos.johnson import SubcubeId, subcube_vertices
    for r in (0, 1):
        for A in itertools.combinations(range(6), r):
            f = np.zeros(g.num_vertices)
            f[subcube_vertices(g, SubcubeId(A))] = 1.0
            phi = expansion(g, sd, f).phi
            ok &= abs(phi - subcube_expansion(2, 0.5, r)) <= 1e-9
    assert record_criterion(10, "johnson-pipeline", ok)


def test_criterion_11_pseudodistribution_facts(suite, rng):
    entries, _ = suite
    ok = True
    for e in entries:
        pe2 = product_copy(e.pe)
        # z-variable crossing identity: sum_s Z_{u,s} = 1
        for u in range(e.inst.num_vertices):
            tot = sum(pe2.pe(z_var_poly(u, s, e.inst.k))
                      for s in range(e.inst.k))
            ok &= abs(tot - 1.0) <= 1e-7
        # conditioned moment matrices stay PSD
        cond = condition(e.pe, ((0, 0, 0),))
        ok &= float(np.linalg.eigvalsh(moment_matrix(cond))[0]) >= -1e-5
        # product validity
        ok &= validate(pe2, 1e-5).passed
    # pseudo-Cauchy-Schwarz on 100 random low-degree pairs
    picks = [e for e in entries if e.degree == 4][:4]
    per = -(-100 // len(picks))
    done = 0
    for e in picks:
        n, k = e.inst.num_vertices, e.inst.k
        for _ in range(per):
            if done >= 100:
                break
            ps = []
            for _ in range(2):
                terms = {}
                for _ in range(4):
                    d = int(rng.integers(0, e.degree // 2 + 1))
                    key = canon_key(tuple(
                        (int(v), int(rng.integers(0, k)), 0)
                        for v in rng.choice(n, size=d, replace=False)))
                    if key is not None:
                        terms[key] = terms.get(key, 0.0) + float(rng.normal())
                ps.append(terms)
            p, q = ps
            lhs = evaluate(e.pe, poly_mul(p, q)) ** 2
            rhs = (evaluate(e.pe, poly_mul(p, p))
                   * evaluate(e.pe, poly_mul(q, q)))
            ok &= lhs <= rhs + 1e-7
            done += 1
    assert record_criterion(11, "pseudodistribution-facts", ok)
