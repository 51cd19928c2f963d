import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugsos import rounding
from ugsos.errors import ConstructionError, NullEventError, ParameterError
from ugsos.instances import value
from ugsos.potentials import phi_apx, truncation_cap
from ugsos.rounding import (closed_form_cr, cond_marginals,
                            condition_and_round, cr_val, derandomized_round,
                            expected_cr_value, ind_val, monte_carlo_cr,
                            partial_to_full)
from ugsos.sos import (PseudoExpectation, build_relaxation,
                       check_shift_symmetric, moment_index, point_mass_pe,
                       product_copy, rerandomize, solve_sdp, symmetrize)
from ugsos.steppoly import build_capped_step_poly

from conftest import make_triangle


@pytest.fixture(scope="module")
def sym_pm(triangle_sat):
    return symmetrize(point_mass_pe(3, 3, [0, 2, 1]))


def test_cond_marginals_recover_point_mass(triangle_sat, sym_pm):
    q = cond_marginals(sym_pm, triangle_sat, 0)
    # conditioning the shift-spread mixture on X_0 = 0 picks the s=0 copy
    assert np.allclose(q, np.eye(3)[[0, 2, 1]], atol=1e-10)


def test_cond_marginals_null_event():
    pE = point_mass_pe(3, 3, [1, 2, 0])
    with pytest.raises(NullEventError):
        cond_marginals(pE, make_triangle(3), 0)


def test_closed_form_cr_on_satisfying_mixture(triangle_sat, sym_pm):
    # conditioning recovers the satisfying assignment exactly
    assert closed_form_cr(sym_pm, triangle_sat) == pytest.approx(1.0, abs=1e-10)
    assert cr_val(sym_pm, triangle_sat) == pytest.approx(1.0, abs=1e-10)


def test_ind_val_uniform_is_one_over_k(triangle_sat, sym_pm):
    # without conditioning the symmetrized marginals are uniform
    assert ind_val(sym_pm, triangle_sat) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_expected_cr_matches_average(triangle_sat, sym_pm):
    pi = triangle_sat.stationary
    avg = sum(pi[u] * expected_cr_value(sym_pm, triangle_sat, u)
              for u in range(3))
    assert avg == pytest.approx(closed_form_cr(sym_pm, triangle_sat), abs=1e-12)


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
    assert (check_shift_symmetric(rerandomize(pE, S), strict=False)
            <= check_shift_symmetric(pE, strict=False))


def test_partial_to_full_stall_aborts(cube_pe, cube_inst):
    _, inst, _ = cube_inst
    calls = {"n": 0}

    def stubborn(mu):
        calls["n"] += 1
        return [0], {}  # keeps returning the same vertex

    out = partial_to_full(inst, cube_pe, stubborn, eps=0.4)
    assert out.stop_reason == "stalled"


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
