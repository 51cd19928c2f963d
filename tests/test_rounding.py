import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugsos import rounding
from ugsos.basis import moment_index
from ugsos.errors import ConstructionError, NullEventError, ParameterError
from ugsos.instances import UgInstance, brute_force_opt, value
from ugsos.potentials import phi_apx, truncation_cap
from ugsos.rounding import (closed_form_cr, cond_marginals,
                            condition_and_round, cr_val, derandomized_round,
                            ind_val, monte_carlo_cr, partial_to_full)
from ugsos.sos import (COND_FLOOR, PseudoExpectation, build_relaxation,
                       point_mass_pe, product_copy, rerandomize, solve_sdp,
                       symmetrize)
from ugsos.steppoly import build_capped_step_poly

from conftest import make_triangle
from reference import ref_shift_deviation


@pytest.fixture(scope="module")
def sym_pm(triangle_sat):
    return symmetrize(point_mass_pe(3, 3, [0, 2, 1]))


def test_cond_marginals_recover_point_mass(triangle_sat, sym_pm):
    Q, mass = cond_marginals(sym_pm)
    # conditioning the shift-spread mixture on X_0 = 0 picks the s=0 copy
    assert np.allclose(Q[0], np.eye(3)[[0, 2, 1]], atol=1e-10)
    assert np.allclose(mass, 1.0 / 3.0, atol=1e-12)


def test_cond_marginals_null_event():
    # the point mass on [1, 2, 0] puts no mass on X_0 = 0: the table says
    # so, and a closed form that conditions on vertex 0 raises
    pE = point_mass_pe(3, 3, [1, 2, 0])
    _, mass = cond_marginals(pE)
    assert mass[0] <= COND_FLOOR and mass[2] == 1.0
    with pytest.raises(NullEventError, match=r"pE\[X_0,0\]"):
        cr_val(pE, make_triangle(3))


def test_closed_form_cr_on_satisfying_mixture(triangle_sat, sym_pm):
    # conditioning recovers the satisfying assignment exactly
    assert closed_form_cr(sym_pm, triangle_sat) == pytest.approx(1.0, abs=1e-10)
    assert cr_val(sym_pm, triangle_sat) == pytest.approx(1.0, abs=1e-10)


def test_ind_val_uniform_is_one_over_k(triangle_sat, sym_pm):
    # without conditioning the symmetrized marginals are uniform
    assert ind_val(sym_pm, triangle_sat) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_condition_and_round_sampled(triangle_sat, sym_pm):
    out = condition_and_round(sym_pm, triangle_sat, seed=3)
    assert out.achieved_value == pytest.approx(1.0)
    assert out.expected_value == pytest.approx(1.0, abs=1e-10)


def test_monte_carlo_consistent_with_closed_form(cube_pe, cube_inst):
    _, inst, _ = cube_inst
    vals = monte_carlo_cr(cube_pe, inst, 10_000, seed=11)
    cf = closed_form_cr(cube_pe, inst)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    # the 1e-6 floor covers the solver residual when the samples degenerate
    assert abs(vals.mean() - cf) <= 3.0 * se + 1e-6


def test_rounding_floor_from_potential(cube_pe, cube_inst):
    # closed-form CR value >= (delta - nu)(beta - nu) where delta = Phi
    _, inst, _ = cube_inst
    beta = 0.9
    p = build_capped_step_poly(beta, 0.1, truncation_cap(cube_pe.degree))
    nu = p.eps
    delta = phi_apx(cube_pe, p, inst)
    assert closed_form_cr(cube_pe, inst) >= (delta - nu) * (beta - nu) - 1e-5


def test_derandomized_beats_expectation(cube_pe, cube_inst):
    _, inst, _ = cube_inst
    out = derandomized_round(cube_pe, inst)
    assert out.achieved_value >= out.expected_value - 1e-9
    assert np.all(out.assignment >= 0)


def _ref_score(q, inst, H):
    """The independent-rounding value of H's internal edges from the label
    table q, edge by edge."""
    H = set(H)
    num = den = 0.0
    for u, v, w, s in inst.edges:
        if u in H and v in H:
            num += w * sum(q[u, a] * q[v, (a - s) % inst.k]
                           for a in range(inst.k))
            den += w
    return num / den


def _ref_greedy(q, inst, H, edges):
    """`rounding._greedy_round` as it scored fixed and unfixed neighbours in
    two branches of an incidence-list loop."""
    k = inst.k
    eu, ev, w, s = edges
    inc = {v: [] for v in H}
    for i in range(len(eu)):
        inc[int(eu[i])].append((int(ev[i]), w[i], int(s[i])))
        inc[int(ev[i])].append((int(eu[i]), w[i], int(-s[i]) % k))
    x = np.full(inst.num_vertices, -1, dtype=np.int64)
    for v in sorted(H, key=lambda v: (-q[v].max(), v)):
        scores = np.zeros(k)
        for a in range(k):
            for nb, wt, sh in inc[v]:
                if x[nb] >= 0:
                    scores[a] += wt * (1.0 if (a - x[nb]) % k == sh else 0.0)
                else:
                    scores[a] += wt * q[nb, (a - sh) % k]
        x[v] = int(np.argmax(scores))
    return x


def test_closed_forms_and_greedy_match_per_vertex_loops(
        cube_pe, cube_inst, cube3_pe, cube3_raw, cube3_inst):
    # the stacked scorer sums in another order than the loops, so the closed
    # forms may differ in the last places (1e-14 is about 90 units near 1);
    # the greedy adds the same terms in the same order, so labels are equal
    for pE, (_, inst, _) in ((cube_pe, cube_inst), (cube3_pe, cube3_inst),
                             (cube3_raw, cube3_inst)):
        Q, _ = cond_marginals(pE)
        n, pi = inst.num_vertices, inst.stationary
        ref = sum(pi[u] * _ref_score(Q[u], inst, range(n)) for u in range(n))
        assert abs(closed_form_cr(pE, inst) - ref) <= 1e-14
        for H in (list(range(n)), [0, 1, 3]):
            ref = np.mean([_ref_score(Q[u], inst, H) for u in H])
            assert abs(cr_val(pE, inst, H) - ref) <= 1e-14
            edges = rounding._edge_arrays(inst, H)
            for u in H:
                assert np.array_equal(
                    rounding._greedy_round(Q[u], inst, H, edges),
                    _ref_greedy(Q[u], inst, H, edges))


def test_derandomized_checks_greedy_result(triangle_sat, sym_pm, monkeypatch):
    # all-zero labels satisfy no edge of the satisfiable triangle, whose
    # conditional expectation is 1
    monkeypatch.setattr(rounding, "_greedy_round",
                        lambda marg, inst, H, edges: np.zeros(3, np.int64))
    with pytest.raises(ConstructionError):
        derandomized_round(sym_pm, triangle_sat)


def test_derandomized_recovers_planted(cube_pe, cube_inst):
    _, inst, xstar = cube_inst
    out = derandomized_round(cube_pe, inst)
    assert out.achieved_value == pytest.approx(1.0)


def test_derandomized_on_subgraph(cube_pe, cube_inst):
    _, inst, _ = cube_inst
    H = [0, 1, 3]
    out = derandomized_round(cube_pe, inst, H)
    outside = [v for v in range(inst.num_vertices) if v not in H]
    assert np.all(out.assignment[outside] == -1)


def test_rounding_without_conditionable_mass_raises():
    # the point mass on [1, 2, 1] gives every pE[X_{u,0}] = 0, so there is
    # no vertex to condition on
    pE = point_mass_pe(3, 3, [1, 2, 1])
    tri = make_triangle(3)
    for rnd in (condition_and_round, derandomized_round):
        with pytest.raises(NullEventError,
                           match="no vertex with conditionable label mass"):
            rnd(pE, tri)
    for cr in (closed_form_cr, lambda t, i: monte_carlo_cr(t, i, 10, seed=0)):
        with pytest.raises(NullEventError, match=r"pE\[X_0,0\]"):
            cr(pE, tri)


def test_derandomized_without_internal_edges_takes_marginal_argmax(
        triangle_sat, sym_pm):
    # H = [1] has no internal edge: its vertex takes the argmax of its
    # (uniform) marginal, the smallest label, and both values are 0
    out = derandomized_round(sym_pm, triangle_sat, [1])
    assert out.assignment.tolist() == [-1, 0, -1]
    assert out.achieved_value == 0.0 and out.expected_value == 0.0


def test_clip_renormalize_rows():
    q = np.array([[0.2, -1e-9, 0.6], [-0.1, 0.0, 0.0], [0.0, 0.0, 0.0]])
    out = rounding._clip_renormalize(q)
    assert np.array_equal(out[0], np.array([0.2, 0.0, 0.6]) / 0.8)
    assert np.array_equal(out[1:], np.full((2, 3), 1.0 / 3.0))


def test_degree_guard():
    pE = symmetrize(point_mass_pe(3, 3, [0, 2, 1], degree=0))
    with pytest.raises(ParameterError):
        condition_and_round(pE, make_triangle(3))


def test_partial_to_full_whole_graph(cube_pe, cube_inst):
    _, inst, _ = cube_inst

    def whole(mu):
        return range(inst.num_vertices), {"cr_val": cr_val(mu, inst)}

    out = partial_to_full(inst, cube_pe, whole, eps=0.05)
    assert out.achieved_value == pytest.approx(1.0)
    assert len(out.trace) == 1
    assert np.all(out.assignment >= 0)
    rec = out.trace[0]
    # value drop bounded by twice the subgraph's vertex fraction
    assert rec.drop <= 2.0 * len(rec.subgraph) / inst.num_vertices + 1e-9


def test_partial_to_full_rounds_a_table_below_the_threshold_once(
        triangle_unsat):
    # the table's value 2/3 is below 1 - 2 eps = 0.8 from the start; the
    # value test follows a rounding step, so the graph is still rounded
    x = [2, 1, 0]
    assert value(triangle_unsat, x) == pytest.approx(2.0 / 3.0)
    pE = symmetrize(point_mass_pe(3, 3, x))

    def whole(mu):
        return range(3), {}

    out = partial_to_full(triangle_unsat, pE, whole, eps=0.1)
    assert len(out.trace) == 1 and out.stop_reason == "value-threshold"
    assert out.achieved_value == pytest.approx(2.0 / 3.0)


def test_partial_to_full_requires_a_shift_symmetric_table(triangle_sat):
    pE = point_mass_pe(3, 3, [0, 2, 1])
    with pytest.raises(ParameterError):
        partial_to_full(triangle_sat, pE, lambda mu: (range(3), {}), eps=0.1)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(2, 4), st.sampled_from([2, 4]),
       st.integers(0, 2**32 - 1), st.data())
def test_rerandomize_never_raises_the_shift_deviation(n, k, D, seed, data):
    # every moment rerandomize writes is an input moment with its S-pairs
    # removed, scaled by 1/k^t, so partial_to_full's symmetric input stays
    # symmetric without re-symmetrizing
    values = np.random.default_rng(seed).normal(
        size=len(moment_index(n, k, D)))
    pE = PseudoExpectation(D, k, n, values)
    S = data.draw(st.sets(st.integers(0, n - 1)))
    assert (ref_shift_deviation(rerandomize(pE, S))
            <= ref_shift_deviation(pE))


def test_partial_to_full_stall_aborts(cube_pe, cube_inst):
    _, inst, _ = cube_inst
    calls = {"n": 0}

    def stubborn(mu):
        calls["n"] += 1
        return [0], {}  # keeps returning the same vertex

    out = partial_to_full(inst, cube_pe, stubborn, eps=0.4)
    assert out.stop_reason == "stalled"


def test_partial_to_full_stops_when_the_subroutine_gives_up(cube_pe,
                                                            cube_inst):
    _, inst, _ = cube_inst
    out = partial_to_full(inst, cube_pe, lambda mu: None, eps=0.4)
    assert out.stop_reason == "subroutine-none"
    assert out.trace == ()
    assert np.array_equal(out.assignment, np.zeros(inst.num_vertices))
    calls = []

    def once(mu):
        calls.append(mu)
        return ([0], {}) if len(calls) == 1 else None

    out = partial_to_full(inst, cube_pe, once, eps=0.4)
    assert out.stop_reason == "subroutine-none"
    assert len(out.trace) == 1 and out.trace[0].newly_assigned == (0,)
    assert len(calls) == 2


def test_partial_to_full_no_reassignment(cube3_pe, cube3_inst):
    _, inst, _ = cube3_inst
    n = inst.num_vertices
    halves = [list(range(n // 2)), list(range(n // 2, n))]
    seen = []

    def alternating(mu):
        H = halves[len(seen) % 2]
        seen.append(list(H))
        return H, {"cr_val": None}

    out = partial_to_full(inst, cube3_pe, alternating, eps=0.5)
    assigned_per_iter = [set(r.newly_assigned) for r in out.trace]
    for i, s1 in enumerate(assigned_per_iter):
        for s2 in assigned_per_iter[i + 1:]:
            assert not (s1 & s2)
    assert np.all(out.assignment >= 0)


@pytest.mark.parametrize("H", [[-1, 0], [3, 4]], ids=["negative", "past-n"])
def test_vertex_sets_outside_the_graph_are_rejected(cube_pe, cube_inst, H):
    # a 4-vertex instance: -1 must not read as vertex 3, nor 4 index past it
    _, inst, _ = cube_inst
    assert inst.num_vertices == 4
    with pytest.raises(ParameterError, match="leaves"):
        derandomized_round(cube_pe, inst, H)
    with pytest.raises(ParameterError, match="leaves"):
        cr_val(cube_pe, inst, H)
    with pytest.raises(ParameterError, match="leaves"):
        partial_to_full(inst, cube_pe, lambda mu: (H, {}), eps=0.05)


@pytest.mark.parametrize("n_samples", [0, -1])
def test_monte_carlo_needs_a_sample(cube_pe, cube_inst, n_samples):
    _, inst, _ = cube_inst
    with pytest.raises(ParameterError, match="n_samples"):
        monte_carlo_cr(cube_pe, inst, n_samples, seed=0)


def test_condition_and_round_conditions_once(cube3_pe, cube3_inst,
                                            monkeypatch):
    # the draw and the closed-form expectation read one conditioned table,
    # and the expectation is closed_form_cr's to the last bit
    _, inst, _ = cube3_inst
    calls, read = [], rounding.cond_marginals
    monkeypatch.setattr(rounding, "cond_marginals",
                        lambda pE: calls.append(pE) or read(pE))
    out = condition_and_round(cube3_pe, inst, seed=0)
    assert len(calls) == 1
    monkeypatch.undo()
    assert out.expected_value == closed_form_cr(cube3_pe, inst)


def test_each_rounding_call_reads_the_pair_moments_once(
        cube3_pe, cube3_inst, monkeypatch):
    # the conditioned table for every vertex comes from one pair_moments
    # read; condition_and_round reads it again for its closed form
    _, inst, _ = cube3_inst
    calls = []
    read = rounding.pair_moments
    monkeypatch.setattr(rounding, "pair_moments",
                        lambda pE: calls.append(pE) or read(pE))
    H = [0, 1, 3, 5]
    cases = [(closed_form_cr, 1), (cr_val, 1),
             (lambda pE, i: cr_val(pE, i, H), 1),
             (derandomized_round, 1),
             (lambda pE, i: derandomized_round(pE, i, H), 1),
             (lambda pE, i: monte_carlo_cr(pE, i, 200, seed=0), 1)]
    for fn, reads in cases:
        calls.clear()
        fn(cube3_pe, inst)
        assert len(calls) == reads
    calls.clear()
    condition_and_round(cube3_pe, inst, seed=0)
    assert 1 <= len(calls) <= 2


@st.composite
def fuzz_instances(draw):
    n = draw(st.integers(2, 6))
    k = draw(st.sampled_from([2, 3]))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1,
                           max_size=len(pairs), unique=True))
    return UgInstance(n, k, tuple(
        (u, v, draw(st.floats(0.5, 2.0)), draw(st.integers(0, k - 1)))
        for u, v in chosen))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fuzz_instances(), st.integers(1, 1000))
def test_derandomized_value_lies_between_its_expectation_and_the_bound(
        inst, max_iters):
    # sdp_upper_bound is certified at any ADMM iterate, so a capped D = 2
    # solve still brackets OPT; the rounding is a real assignment
    pE = solve_sdp(build_relaxation(inst, 2), max_iters=max_iters)
    out = derandomized_round(pE, inst)
    opt = brute_force_opt(inst)[1]
    assert out.achieved_value - 1e-12 <= opt
    assert opt <= pE.flags["sdp_upper_bound"] + 1e-9
    assert out.achieved_value >= out.expected_value - 1e-9
    # the chosen vertex's closed form is the best of all of them
    assert out.expected_value >= cr_val(pE, inst) - 1e-12


@pytest.mark.parametrize("call, match", [
    (lambda inst, pE: cr_val(pE, inst, H=[]), "subgraph H is empty"),
    (lambda inst, pE: derandomized_round(
        point_mass_pe(3, 3, [0, 2, 1], degree=1), inst),
     "needs degree >= 2"),
    (lambda inst, pE: derandomized_round(pE, inst, H=[]),
     "subgraph H is empty"),
], ids=["cr-empty-H", "derandomized-degree", "derandomized-empty-H"])
def test_input_checks_raise(triangle_sat, sym_pm, call, match):
    with pytest.raises(ParameterError, match=match):
        call(triangle_sat, sym_pm)


@pytest.mark.parametrize("achieved", [-0.01, 1.01, float("nan")])
def test_an_outcome_value_outside_0_1_is_rejected(achieved):
    with pytest.raises(ParameterError, match="outside \\[0,1\\]"):
        rounding.RoundingOutcome(np.zeros(3, dtype=np.int64), achieved, None)
