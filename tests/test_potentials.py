"""Shift-partition potentials Phi and Psi, their report, and the numeric
small-set-expansion claim chain, on both genuine mixtures and solver output."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugsos import potentials
from ugsos.errors import DegreeError, ParameterError
from ugsos.graphs import (WeightedGraph, johnson_graph, noisy_hypercube,
                          shortcode_graph, spectral_decompose)
from ugsos.instances import UgInstance, local_value, plant_instance
from ugsos.potentials import (_factors, _ShiftStats, check_shift_symmetric,
                              claim_b1, claim_b2, claim_partition_expansion,
                              claim_vertex_coverage, phi_apx,
                              potential_report, psi, sp_pseudo_check,
                              truncation_cap)
from ugsos.rounding import closed_form_cr
from ugsos.sos import (COND_FLOOR, PseudoExpectation, build_relaxation,
                       canon_key, evaluate, mixture_pe, point_mass_pe,
                       poly_mul, product_copy, solve_sdp, symmetrize)
from ugsos.steppoly import build_capped_step_poly, build_step_poly

from conftest import make_triangle
from reference import phi_exact_sampled

BETA, NU = 0.3, 0.1


@pytest.fixture(scope="module")
def p_full():
    # degree unconstrained: mixtures evaluate p numerically
    return build_step_poly(BETA, NU, 0.1)


@pytest.fixture(scope="module")
def sym_pm(triangle_sat):
    return symmetrize(point_mass_pe(3, 3, [0, 2, 1]))


def test_truncation_cap_values():
    assert truncation_cap(2) == 0
    assert truncation_cap(4) == 0
    assert truncation_cap(6) == 1


def test_shift_symmetry_detector(sym_pm):
    assert check_shift_symmetric(sym_pm) <= 1e-12
    raw = point_mass_pe(3, 3, [0, 2, 1])
    with pytest.raises(ParameterError):
        check_shift_symmetric(raw)


def test_psi_of_symmetrized_satisfying_point_mass(triangle_sat, sym_pm):
    # the planted shift is recovered with pseudo-probability 1, so Psi = 1
    assert psi(sym_pm, triangle_sat) == pytest.approx(1.0, abs=1e-10)


def test_psi_requires_degree_4(triangle_sat):
    low = symmetrize(point_mass_pe(3, 3, [0, 2, 1], degree=2))
    with pytest.raises(ParameterError):
        psi(low, triangle_sat)


@st.composite
def small_tables(draw):
    """An instance on at most 5 vertices with random weights, parallel edges
    with their own shifts allowed (its last vertex isolated, so of measure
    0, when drawn so) and a table on it: a loose degree-4 solve, or a
    symmetrized mixture of 1-3 assignments or a point mass of degree 4 or
    6 (at degree 6, at most 4 vertices and 3 labels)."""
    D = draw(st.sampled_from([4, 6]))
    n = draw(st.integers(2, 5 if D == 4 else 4))
    k = draw(st.integers(2, 5 if D == 4 else 3))
    live = n - 1 if n >= 3 and draw(st.booleans()) else n
    pairs = list(itertools.combinations(range(live), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1,
                           max_size=len(pairs) + 2))
    inst = UgInstance(n, k, tuple(
        (u, v, draw(st.floats(0.1, 10.0)), draw(st.integers(0, k - 1)))
        for (u, v) in chosen))
    labels = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    kinds = ["solver", "mixture", "point"] if D == 4 else ["mixture", "point"]
    kind = draw(st.sampled_from(kinds))
    if kind == "solver":
        pE = solve_sdp(build_relaxation(inst, 4), tol=1e-3, max_iters=500)
    elif kind == "mixture":
        xs = draw(st.lists(st.tuples(st.floats(0.1, 1.0), labels),
                           min_size=1, max_size=3))
        pE = symmetrize(mixture_pe(n, k, xs, degree=D))
    else:
        pE = point_mass_pe(n, k, draw(labels), degree=D)
    return inst, pE, kind


@settings(max_examples=100, deadline=None)
@given(small_tables())
def test_psi_viol_and_local_values_match_their_per_key_definitions(table):
    # every pair (v, u) enters Psi, so u = v, u a neighbour w of v and
    # measure-0 vertices are all summed over; Phi's factors are checked on
    # the table without its mixture components, with p at the degree cap
    inst, pE, kind = table
    n, k, pi = inst.num_vertices, inst.k, inst.stationary
    val = {}        # val_u as a polynomial
    for u in range(n):
        wtot = sum(w for (_, w, _) in inst.incident[u])
        val[u] = {}
        for (v, w, s) in inst.incident[u]:
            for a in range(k):
                key = canon_key(((u, a), (v, (a - s) % k)))
                val[u][key] = val[u].get(key, 0.0) + w / wtot
    obj = {}
    for (u, v, w, s) in inst.edges:
        for a in range(k):
            key = canon_key(((u, a), (v, (a - s) % k)))
            obj[key] = obj.get(key, 0.0) + w / inst.total_weight
    p = build_capped_step_poly(BETA, NU, truncation_cap(pE.degree))
    assert _ShiftStats(pE, p, inst).viol == pytest.approx(
        1.0 - evaluate(pE, obj), abs=1e-12)
    # g_u^a = X_{u,a} p(val_u), expanded in monomials, for u of measure > 0
    g, pv = {}, {}
    for u in np.flatnonzero(pi > 0):
        pv[u], power = {(): float(p.coeffs[0])}, {(): 1.0}
        for c in p.coeffs[1:]:
            power = poly_mul(power, val[u])
            for key, x in power.items():
                pv[u][key] = pv[u].get(key, 0.0) + float(c) * x
        for a in range(k):
            g[u, a] = poly_mul({canon_key(((u, a),)): 1.0}, pv[u])
    G1, G2 = np.zeros((n, k)), np.zeros((n, n, k, k))
    G3 = np.zeros((n, n, k, k))
    for (u, a), gua in g.items():
        G1[u, a] = evaluate(pE, gua)
        cube = poly_mul(gua, poly_mul(pv[u], pv[u]))
        for (w, b), gwb in g.items():
            G2[u, w, a, b] = evaluate(pE, poly_mul(gua, gwb))
            G3[u, w, a, b] = evaluate(pE, poly_mul(cube, gwb))
    bare = PseudoExpectation(pE.degree, k, n, pE._array())
    for got, want in zip(_factors(bare, p, inst, True), (G1, G2, G3)):
        assert got == pytest.approx(want, abs=1e-12)
    if kind == "point":
        with pytest.raises(ParameterError):
            psi(pE, inst)
        return
    want = 0.0
    for v, u, s in itertools.product(range(n), range(n), range(k)):
        event = {}      # X_v - X_u = s
        for t in range(k):
            key = canon_key(((v, (s + t) % k), (u, t)))
            if key is not None:
                event[key] = event.get(key, 0.0) + 1.0
        q = evaluate(pE, event)
        if q > COND_FLOOR:
            want += pi[u] * pi[v] * q * evaluate(pE, poly_mul(event, val[v]))
    assert psi(pE, inst) == pytest.approx(want, abs=1e-12)
    locals_ = [evaluate(pE, val[u]) if pi[u] > 0 else 0.0 for u in range(n)]
    assert potential_report(pE, inst, p).local_values == pytest.approx(
        locals_, abs=1e-12)


def test_gauge_relabeling_and_negation_keep_the_potentials(cube3_pe,
                                                          cube3_inst):
    # each map sends the instance and the table along: the new table's key
    # with slot row L reads the moment of the source key given by the map
    # of L; negation sends shift s to -s
    _, inst, _ = cube3_inst
    n, k = inst.num_vertices, inst.k
    rng = np.random.default_rng(0)
    gauge, perm = rng.integers(0, k, n), rng.permutation(n)
    L = cube3_pe.index.slots.astype(np.int64)
    maps = [   # (source slot rows, edges, sign of the shift)
        # x_u -> x_u + g_u sends s_uv to s_uv + g_u - g_v
        (np.where(L > 0, (L - 1 - gauge) % k + 1, 0),
         [(u, v, w, (s + gauge[u] - gauge[v]) % k)
          for u, v, w, s in inst.edges], 1),
        (L[:, perm], [(perm[u], perm[v], w, s)
                      for u, v, w, s in inst.edges], 1),
        (np.where(L > 0, (1 - L) % k + 1, 0),
         [(u, v, w, -s % k) for u, v, w, s in inst.edges], -1),
    ]
    p = build_capped_step_poly(BETA, NU, truncation_cap(cube3_pe.degree))

    def potentials(pE, instance, sign):
        rep = potential_report(pE, instance, p)
        return [rep.phi, rep.psi, closed_form_cr(pE, instance)] + [
            rep.shift_masses[sign * s % k] for s in range(k)]
    want = potentials(cube3_pe, inst, 1)
    for rows, edges, sign in maps:
        pE = PseudoExpectation(cube3_pe.degree, k, n,
                               cube3_pe._array()[cube3_pe.index.rank(rows)])
        got = potentials(pE, UgInstance(n, k, tuple(edges)), sign)
        assert got == pytest.approx(want, abs=1e-12)


def test_phi_exact_sampled_satisfying_pair(triangle_sat, p_full):
    # identical satisfying assignments concentrate one shift class per vertex
    x = np.array([0, 2, 1])
    val = phi_exact_sampled(triangle_sat, x, x, BETA)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_phi_mixture_matches_sampled_definition(triangle_sat, sym_pm, p_full):
    val = phi_apx(sym_pm, p_full, triangle_sat)
    # symmetrized point mass = uniform mixture over the 3 global shifts;
    # both copies draw independently, every pair is fully satisfying
    comps = [np.array([(0 + s) % 3, (2 + s) % 3, (1 + s) % 3])
             for s in range(3)]
    expect = np.mean([phi_exact_sampled(triangle_sat, x1, x2, BETA)
                      for x1 in comps for x2 in comps])
    # each pair concentrates one shift class, so Phi_apx = p(1)^2 while the
    # exact indicator version gives 1; the gap is the polynomial's nu error
    assert val == pytest.approx(float(p_full(1.0)) ** 2, abs=1e-9)
    assert abs(val - expect) <= NU * (2.0 + 3 * NU)


def test_phi_nonneg_and_report_fields(triangle_sat, sym_pm, p_full):
    rep = potential_report(sym_pm, triangle_sat, p_full)
    assert rep.phi >= 0.0
    assert rep.psi == pytest.approx(1.0, abs=1e-9)
    assert rep.beta == BETA
    assert len(rep.local_values) == 3
    assert sum(rep.shift_masses) <= 1.0 + 1e-9
    assert rep.to_json()


def test_phi_bounded_by_psi_ratio_sdp(unsat_pe, triangle_unsat):
    # Phi <= Psi/(beta - nu_eff) + nu_eff for the truncated polynomial
    beta = 0.9
    p = build_capped_step_poly(beta, 0.1, truncation_cap(unsat_pe.degree))
    nu_eff = p.eps
    phi = phi_apx(unsat_pe, p, triangle_unsat)
    psi_v = psi(unsat_pe, triangle_unsat)
    assert phi <= psi_v / (beta - nu_eff) + nu_eff + 1e-5


def test_claim_chain_on_mixture(triangle_sat, sym_pm, p_full):
    # fully satisfying mixture: viol = 0, claims hold with slack to spare
    sd = spectral_decompose_instance(triangle_sat)
    assert claim_vertex_coverage(sym_pm, p_full, triangle_sat).holds
    assert claim_b1(sym_pm, p_full, triangle_sat).holds
    assert claim_partition_expansion(sym_pm, p_full, triangle_sat, sd).holds
    assert claim_b2(sym_pm, p_full, triangle_sat, sd, lam=0.5, eta=1.0).holds


def test_mixture_potentials_are_pinned(triangle_sat, sym_pm, p_full):
    # the values the per-pair loops give for Phi, the report's shift masses
    # and the claims, with p_full (degree 16, its squeeze padded by the
    # Clenshaw bound) evaluated by Clenshaw; float Horner on its monomial
    # coefficients (up to 1.1e9) moved Phi by 2.4e-7
    sd = spectral_decompose_instance(triangle_sat)
    assert phi_apx(sym_pm, p_full, triangle_sat) == pytest.approx(
        0.961394096836733, abs=1e-12)
    rep = potential_report(sym_pm, triangle_sat, p_full)
    assert rep.shift_masses == pytest.approx((0.32683568702819543,) * 3,
                                             abs=1e-12)
    claims = [claim_vertex_coverage(sym_pm, p_full, triangle_sat),
              claim_b1(sym_pm, p_full, triangle_sat),
              claim_partition_expansion(sym_pm, p_full, triangle_sat, sd),
              claim_b2(sym_pm, p_full, triangle_sat, sd, lam=0.5, eta=1.0)]
    pinned = [(0.9805070610845863, 0.9), (0.01911296424785347, 0.1),
              (0.0, 0.2), (0.03711548740421565, 0.6)]
    for claim, (lhs, rhs) in zip(claims, pinned):
        assert (claim.lhs, claim.rhs) == pytest.approx((lhs, rhs), abs=1e-12)
        assert claim.slack == 1e-5


def test_claim_chain_on_sdp(cube_pe, cube_inst):
    g, inst, _ = cube_inst
    p = build_capped_step_poly(BETA, 0.1, truncation_cap(cube_pe.degree))
    sd = spectral_decompose(g)
    assert claim_vertex_coverage(cube_pe, p, inst).holds
    assert claim_b1(cube_pe, p, inst).holds
    assert claim_partition_expansion(cube_pe, p, inst, sd).holds
    assert claim_b2(cube_pe, p, inst, sd, lam=0.5, eta=1.0).holds


def test_sp_pseudo_on_satisfiable_sdp(cube_pe, cube_inst):
    _, inst, _ = cube_inst
    p = build_capped_step_poly(BETA, 0.1, truncation_cap(cube_pe.degree))
    check, K = sp_pseudo_check(cube_pe, p, inst, lam=0.6, C=36.0, eta=1.0)
    assert check.holds and check.slack == 1e-4
    assert np.isfinite(K)


def _potentials(pE, p, inst, sd):
    """Phi, the shift masses and the four claims' (lhs, rhs) of one table."""
    claims = [claim_vertex_coverage(pE, p, inst), claim_b1(pE, p, inst),
              claim_partition_expansion(pE, p, inst, sd),
              claim_b2(pE, p, inst, sd, lam=0.5, eta=1.0)]
    return ([phi_apx(pE, p, inst)]
            + list(potential_report(pE, inst, p).shift_masses)
            + [v for c in claims for v in (c.lhs, c.rhs)])


# (a) the triangle with its own walk; (b) unequal self-loops, which the
# planted instance drops, so the walk's measure is not the instance's;
# (c) vertex 3 carries only a self-loop, so it is isolated in the instance
_LOOPY = [[3, 1, 1, 0], [1, 0.1, 1, 1], [1, 1, 0, 1], [0, 1, 1, 0.5]]
_ISOLATED = [[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize("W,D", [(None, 4), (_LOOPY, 4), (_ISOLATED, 4),
                                 (_ISOLATED, 6)],
                         ids=["triangle", "self-loops", "isolated-vertex",
                              "isolated-vertex-D6"])
def test_mixture_and_component_free_tables_agree(W, D):
    # the same moment table, once with its mixture components and once
    # without, is evaluated by both backends of the shift moments, with p
    # at the degree cap (degree 1 at D = 6)
    if W is None:
        inst = make_triangle(3, sat=True)
        sd = spectral_decompose_instance(inst)
    else:
        g = WeightedGraph(4, np.array(W, dtype=float))
        inst, _ = plant_instance(g, 3, 0.0, seed=1)
        sd = spectral_decompose(g)
    n = inst.num_vertices
    xs = [(0.6, [0, 2, 1, 1][:n]), (0.4, [1, 1, 0, 2][:n])]
    mix = symmetrize(mixture_pe(n, 3, xs, degree=D))
    bare = PseudoExpectation(mix.degree, 3, n, mix._array())
    p = build_capped_step_poly(BETA, NU, truncation_cap(D))
    assert _potentials(mix, p, inst, sd) == pytest.approx(
        _potentials(bare, p, inst, sd), abs=1e-12)


def test_an_over_degree_step_poly_needs_mixture_components(triangle_sat,
                                                            sym_pm, p_full):
    # without its components a table is read through monomial ids, which
    # only reach deg(p) <= truncation_cap(D); a product above D would read 0
    assert p_full.degree > truncation_cap(sym_pm.degree)
    bare = PseudoExpectation(sym_pm.degree, 3, 3, sym_pm._array())
    with pytest.raises(DegreeError):
        phi_apx(bare, p_full, triangle_sat)
    with pytest.raises(DegreeError):
        claim_b1(bare, p_full, triangle_sat)
    assert phi_apx(sym_pm, p_full, triangle_sat) > 0.0
    assert claim_b1(sym_pm, p_full, triangle_sat).holds


def test_phi_of_an_unsymmetrized_mixture_matches_the_definition():
    # a mixture whose pair is not concentrated on one shift, with p of a
    # degree above the cap: Phi and the shift masses of the factored pair
    # against their definitions over ordered pairs of components, with the
    # shift s = x2_u - x1_u (the masses at s = 1 and 2 differ here)
    inst, _ = plant_instance(WeightedGraph(4, np.array(_LOOPY)), 3, 0.0,
                             seed=2)
    xs = [(0.6, [0, 2, 1, 1]), (0.4, [1, 1, 0, 2])]
    p = build_step_poly(0.3, 0.1, 0.1)
    assert p.degree > truncation_cap(4)
    pi = inst.stationary
    phi, masses = 0.0, np.zeros(3)
    for w1, x1 in xs:
        pv = p(np.array([local_value(inst, x1, u) for u in range(4)]))
        for w2, x2 in xs:
            shift = (np.subtract(x2, x1) % 3)[None, :] == np.arange(3)[:, None]
            mass = (shift * pi * pv).sum(axis=1)
            phi += w1 * w2 * float(mass @ mass)
            masses += w1 * w2 * mass
    mix = mixture_pe(4, 3, xs)
    assert phi_apx(mix, p, inst) == pytest.approx(phi, abs=1e-12)
    assert _ShiftStats(mix, p, inst).masses == pytest.approx(masses,
                                                             abs=1e-12)


@pytest.mark.parametrize("name", ["phi_apx", "potential_report", "psi",
                                  "coverage", "b1", "expansion", "b2",
                                  "sp_pseudo"])
def test_potentials_reject_a_product_copy(triangle_sat, sym_pm, p_full,
                                          name):
    # every potential takes the single-copy table and builds the pair itself
    sd = spectral_decompose_instance(triangle_sat)
    call = {
        "phi_apx": lambda t: phi_apx(t, p_full, triangle_sat),
        "potential_report": lambda t: potential_report(t, triangle_sat,
                                                       p_full),
        "psi": lambda t: psi(t, triangle_sat),
        "coverage": lambda t: claim_vertex_coverage(t, p_full, triangle_sat),
        "b1": lambda t: claim_b1(t, p_full, triangle_sat),
        "expansion": lambda t: claim_partition_expansion(t, p_full,
                                                         triangle_sat, sd),
        "b2": lambda t: claim_b2(t, p_full, triangle_sat, sd, lam=0.5,
                                 eta=1.0),
        "sp_pseudo": lambda t: sp_pseudo_check(t, p_full, triangle_sat,
                                               lam=0.6, C=36.0, eta=1.0),
    }[name]
    call(sym_pm)
    with pytest.raises(ParameterError):
        call(product_copy(sym_pm))


def test_solver_output_potentials_with_degree_one_step_poly(triangle_unsat):
    # D = 6 admits deg p = 1 on solver output; pinned at the values the
    # separate monomial expansions of Phi, the masses and each claim give on
    # this solve's table.  The optimum is not unique (any mixture of optimal
    # assignments), so the values follow the solver's iterates.
    pE = symmetrize(solve_sdp(build_relaxation(triangle_unsat, 6), tol=1e-6))
    p = build_capped_step_poly(BETA, NU, truncation_cap(6))
    assert p.degree == 1
    sd = spectral_decompose_instance(triangle_unsat)
    assert phi_apx(pE, p, triangle_unsat) == pytest.approx(
        0.35059714960165383, abs=1e-12)
    masses = potential_report(pE, triangle_unsat, p).shift_masses
    assert masses == pytest.approx((0.22860450366438775,) * 3, abs=1e-12)
    lhs = [claim_vertex_coverage(pE, p, triangle_unsat).lhs,
           claim_b1(pE, p, triangle_unsat).lhs,
           claim_partition_expansion(pE, p, triangle_unsat, sd).lhs,
           claim_b2(pE, p, triangle_unsat, sd, lam=0.5, eta=1.0).lhs]
    assert lhs == pytest.approx([0.6858135109931632, 0.16611676779206197,
                                 0.2536493903991712, 0.1161064279528922],
                                abs=1e-12)


def test_cube_factors_merge_equal_monomials(monkeypatch):
    # claim_b2's cubes at D = 6 with deg p = 1 on the 3-cube (k = 2), read
    # from the moment table of a flag-stripped point mass: g_u^a has 8 terms
    # (m = 7 edge ends), and merging equal ids keeps E g p^2 g to 8 * 64
    # terms per (u, w, a, b), not 8^4, with the mixture path's values
    inst, x = plant_instance(noisy_hypercube(3, 0.3), 2, 0.05, seed=0)
    mixture = point_mass_pe(inst.num_vertices, 2, x, degree=6)
    table = PseudoExpectation(6, 2, inst.num_vertices, mixture._array())
    p = build_capped_step_poly(BETA, NU, truncation_cap(6))
    terms, times = [], potentials._times

    def spy(*args):
        out = times(*args)
        terms.append(out[0].shape[-1])
        return out
    monkeypatch.setattr(potentials, "_times", spy)
    got = _factors(table, p, inst, cubes=True)
    monkeypatch.undo()
    assert max(terms) == 8 * 64
    for a, b in zip(got, _factors(mixture, p, inst, cubes=True)):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("make, lam, rank", [
    (lambda: shortcode_graph(2, 3), 0.5, 9),        # 1 + the 8 of eigenvalue 1/2
    (lambda: johnson_graph(6, 2, 0.5), 0.75, 6),    # 1 + the 5 of 1/4
    (lambda: noisy_hypercube(3, 0.3), 0.6, 4),      # 1 + the 3 of 0.4
    (lambda: noisy_hypercube(3, 0.3), 0.5, 1),      # the constants
], ids=["sc23-half", "j62-0.75", "cube3-0.6", "cube3-half"])
def test_projector_keeps_a_whole_eigenspace_at_the_threshold(make, lam, rank):
    # 1 - lam is an eigenvalue of the walk on the first three: without a
    # tolerance, round-off kept 5 of 8, 3 of 5 and 1 of 3 of its eigenvectors
    g = make()
    sd = spectral_decompose(g)
    P = potentials._projector(sd, lam)
    assert np.linalg.matrix_rank(P) == rank
    assert np.abs(P @ P - P).max() <= 1e-9
    # pi-self-adjoint: diag(pi) P is symmetric
    assert np.abs(sd.pi[:, None] * P - (sd.pi[:, None] * P).T).max() <= 1e-12


def spectral_decompose_instance(inst):
    """Spectral data of the instance's own constraint graph."""
    n = inst.num_vertices
    W = np.zeros((n, n))
    for (u, v, w, _) in inst.edges:
        W[u, v] += w
        W[v, u] += w
    return spectral_decompose(WeightedGraph(n, W, tuple(range(n)), {}))


@pytest.mark.parametrize("fields, match", [
    ({"phi": -1e-5}, "phi = -1e-05 below -1e-6"),
    ({"psi": -1e-5}, "psi = -1e-05 below -1e-6"),
    ({"shift_masses": (0.6, 0.6)}, "shift masses sum to 1.2 > 1 \\+ 1e-6"),
])
def test_potential_report_rejects_values_out_of_range(fields, match):
    valid = dict(phi=0.0, psi=0.0, beta=0.9, nu=0.5, poly_degree=0,
                 local_values=())
    with pytest.raises(ParameterError, match=match):
        potentials.PotentialReport(**{**valid, **fields})
