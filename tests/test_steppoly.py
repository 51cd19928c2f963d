import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugsos import _kernels, steppoly
from ugsos.errors import ConstructionError, ParameterError
from ugsos.steppoly import (GRID_POINTS, StepPolynomial,
                            build_capped_step_poly, build_step_poly,
                            check_invariants, check_markov_bounds,
                            check_union_bound, clenshaw, square)

TRIPLES = [(0.5, 0.1, 0.2), (0.3, 0.05, 0.1), (0.2, 0.01, 0.05)]


@pytest.fixture(scope="module")
def p_easy():
    return build_step_poly(0.5, 0.1, 0.2)


def test_coeffs_are_exact_fractions(p_easy):
    assert all(isinstance(c, Fraction) for c in p_easy.coeffs)


def test_range_and_step_shape(p_easy):
    xs = np.linspace(0.0, 1.0, 501)
    vals = p_easy(xs)
    assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
    # within eps of the step outside the transition window (alpha +- delta)
    assert np.all(vals[xs <= 0.5 - 0.2] <= 0.1 + 1e-12)
    assert np.all(vals[xs >= 0.5 + 0.2] >= 0.9 - 1e-12)


def test_invariants_and_bounds(p_easy):
    assert check_invariants(p_easy).passed
    assert check_markov_bounds(p_easy).passed
    assert check_union_bound(p_easy).passed


def test_capped_build_degenerates_to_half():
    p = build_capped_step_poly(0.5, 0.2, 0)
    assert p.degree == 0
    assert p.coeffs == (Fraction(1, 2),)
    assert p.eps == 0.5  # constant 1/2 misses the step by exactly 1/2


def test_capped_build_respects_cap():
    p = build_capped_step_poly(0.3, 0.1, 8)
    assert p.degree <= 8


def test_square_matches_pointwise(p_easy):
    q = square(p_easy)
    xs = np.linspace(0.0, 1.0, 50)
    assert np.allclose(q(xs), p_easy(xs) ** 2, atol=1e-12)


def _horner_fraction(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * Fraction(x) + c
    return acc


def _clenshaw_exact(series, x):
    """sum_k c_k T_k(2x - 1) as an exact Fraction: Clenshaw in integers
    scaled by 2^big, exact because every number involved is dyadic (x is
    m / 2^f, so 4x - 2 is a / 2^f, and step j's b has denominator at most
    2^(e + f (d - j)), e the coefficients' largest exponent)."""
    f = Fraction(x).denominator.bit_length() - 1
    a = int((4 * Fraction(x) - 2) * 2**f)
    fc = [Fraction(c) for c in series]
    big = max(c.denominator for c in fc).bit_length() + f * len(fc)
    n = [int(c * 2**big) for c in fc]
    b1 = b2 = 0
    for nk in reversed(n[1:]):
        b1, b2 = nk + (a * b1 >> f) - b2, b1
    return Fraction(n[0] + (a * b1 >> f + 1) - b2, 2**big)


def test_clenshaw_error_is_within_its_bound():
    # criterion 6's fits (degrees 8, 32, 64) and their squares, against the
    # exact value of the stored series, at tiny and subnormal points too
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.random(40), [0.0, 1.0, 1e-300, 5e-324]])
    for triple in TRIPLES:
        p = build_step_poly(*triple)
        for q in (p, square(p)):
            vals, err = clenshaw(q.series, xs)
            assert 0.0 < err < 1e-10
            for v, x in zip(vals, xs):
                assert abs(Fraction(v) - _clenshaw_exact(q.series, x)) <= err


def test_chebyshev_fit_runs_on_one_blas_thread(monkeypatch):
    # deg + 1 columns, at most DEGREE_CAP + 1 = 201 < ONE_THREAD_MAX_DIM
    if _kernels.get_blas_threads() is None:
        pytest.skip("no OpenBLAS thread control found")
    seen, lstsq = [], np.linalg.lstsq

    def spy(*args, **kwargs):
        seen.append(_kernels.get_blas_threads())
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    with _kernels.blas_threads(2):
        steppoly._cheb_fit(0.4, 0.15, steppoly.DEGREE_CAP)
        build_step_poly(0.5, 0.1, 0.2)
        assert _kernels.get_blas_threads() == 2
    assert len(seen) > 1 and set(seen) == {1}


def test_monomial_coeffs_are_the_series_exactly():
    # a degree-20 squeezed fit whose largest monomial coefficient is 6.3e11:
    # float Horner on those would miss p by about 1e-4 on [0, 1]; the exact
    # coefficients derived from the series give exactly the series' values
    p = StepPolynomial(0.4, 0.1, 0.15, steppoly._squeeze_into_unit(
        steppoly._cheb_fit(0.4, 0.15, 20)))
    assert p.degree == 20 and max(abs(float(c)) for c in p.coeffs) > 1e11
    for x in np.linspace(0.0, 1.0, 41):
        assert _horner_fraction(p.coeffs, x) == _clenshaw_exact(p.series, x)


def test_criterion_6_triples_keep_their_degrees():
    # the Clenshaw bound pads every check; a looser bound must not silently
    # raise the degree the doubling search settles on
    x = np.linspace(0.0, 1.0, GRID_POINTS)
    for triple, degree in zip(TRIPLES, (8, 32, 64)):
        p = build_step_poly(*triple)
        assert p.degree == degree
        vals, err = clenshaw(p.series, x)
        outside = (x <= p.alpha - p.delta) | (x >= p.alpha + p.delta)
        raw = np.max(np.abs(vals - (x >= p.alpha))[outside])
        assert check_invariants(p).max_violation == raw + err


def test_degree_ladder_pinned_series():
    # below DEGREE_CAP a fit must pass with margin eps/2; (0.5, 0.02, 0.01)
    # misses that at every degree (0.0553 at 128, 0.0122 at 200) and passes
    # at the cap, where the margin is eps itself
    pins = {(0.5, 0.1, 0.2): (8, 0.49999999999951605, 0.6026758347198052,
                              5.7778628338867e-16),
            (0.3, 0.05, 0.1): (32, 0.6303502169605494, 0.5768203257255065,
                               -0.0005754299001664262),
            (0.2, 0.01, 0.05): (64, 0.7037009556366406, 0.5053295675839464,
                                -0.00023864008585735208),
            (0.5, 0.02, 0.01): (200, 0.49999999999950795, 0.6266591425051184,
                                6.837105869721369e-17)}
    for triple, (degree, c0, c1, last) in pins.items():
        p = build_step_poly(*triple)
        assert p.degree == degree and p.eps == triple[1]
        assert p.series[0] == pytest.approx(c0, rel=1e-12)
        assert p.series[1] == pytest.approx(c1, rel=1e-12)
        assert p.series[-1] == pytest.approx(last, rel=1e-9)


def test_cap_failure_names_the_best_deviation():
    with pytest.raises(ConstructionError, match=re.escape(
            "step polynomial unachievable within degree 200: best deviation "
            "1.219e-02 vs requested 0.001")):
        build_step_poly(0.5, 0.001, 0.01)


def test_bad_parameters_rejected():
    with pytest.raises(ParameterError):
        build_step_poly(0.0, 0.1, 0.2)
    with pytest.raises(ParameterError):
        build_step_poly(0.5, 0.1, 0.6)  # transition window leaves [0,1]


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0))
def test_values_stay_in_unit_interval(x):
    p = build_step_poly(0.5, 0.1, 0.2)
    assert -1e-12 <= float(p(x)) <= 1.0 + 1e-12


@pytest.mark.parametrize("triple", [(0.5, 0.1, 0.2), (0.3, 0.05, 0.1),
                                    (0.2, 0.01, 0.05)])
def test_values_stay_in_unit_interval_between_grid_points(triple):
    # criterion 6's triples on a grid 20x finer than the construction's:
    # the squeeze must bound p at its critical points, not only on its grid
    vals = build_step_poly(*triple)(np.linspace(0.0, 1.0, 2 * 10**5))
    assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.5])
def test_eps_outside_the_open_half_interval_is_rejected(eps):
    with pytest.raises(ParameterError, match="need 0 < eps < 1/2"):
        build_step_poly(0.5, eps, 0.2)


@pytest.mark.parametrize("cap", [0, 1])
@pytest.mark.parametrize("alpha, delta", [
    (0.9, 0.0), (0.9, -0.2), (0.9, 1.0), (0.0, 0.1), (1.5, 0.1),
    (float("nan"), 0.1), (0.9, float("nan")), (float("inf"), 0.1)])
def test_capped_build_rejects_a_threshold_or_window_outside_0_1(alpha, delta,
                                                                cap):
    # at cap 1, delta 0 divided by zero, delta -0.2 gave a decreasing
    # "step" and alpha 1.5 the zero polynomial
    with pytest.raises(ParameterError, match=re.escape(
            "need alpha and delta in (0, 1)")):
        build_capped_step_poly(alpha, delta, cap)


def test_inputs_outside_0_1_are_clamped_with_a_warning(p_easy):
    with pytest.warns(UserWarning, match="clamped to"):
        vals = p_easy(np.array([-0.5, 1.5]))
    assert vals.tolist() == p_easy(np.array([0.0, 1.0])).tolist()


def test_squeeze_keeps_a_series_already_inside_0_1():
    # 1/2 + T_1(2x - 1)/4 ranges over [1/4, 3/4]
    assert steppoly._squeeze_into_unit([0.5, 0.25]) == (0.5, 0.25)
