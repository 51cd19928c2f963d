from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugsos import steppoly
from ugsos.errors import ParameterError
from ugsos.steppoly import (GRID_POINTS, StepPolynomial, _float_safe,
                            _horner_many, build_capped_step_poly,
                            build_step_poly, check_invariants,
                            check_markov_bounds, check_union_bound, square)


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
    return float(acc)


def test_exact_horner_is_correctly_rounded():
    p = build_step_poly(0.3, 0.05, 0.1)
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    points = np.concatenate([rng.random(200), [0.0, 1.0, 1e-300, 5e-324]])
    for q, xs in ((p, grid), (square(p), grid[::7]), (p, points),
                  (square(p), points)):
        assert q.degree >= 32 and not _float_safe(q.coeffs)
        ref = np.array([_horner_fraction(q.coeffs, x) for x in xs])
        assert np.array_equal(_horner_many(q.coeffs, xs), ref)


def test_large_coefficient_fit_takes_the_exact_path():
    # a degree-20 squeezed fit whose largest coefficient is 6.3e11: float
    # Horner misses it by about 1e-4 on [0, 1], far past GRID_SLACK
    coeffs = steppoly._squeeze_into_unit(
        steppoly._cheb_fit_exact(0.4, 0.15, 20))
    assert len(coeffs) == 21 and max(abs(float(c)) for c in coeffs) > 1e11
    assert not _float_safe(coeffs)
    xs = np.linspace(0.0, 1.0, 501)
    ref = np.array([_horner_fraction(coeffs, x) for x in xs])
    assert np.array_equal(_horner_many(coeffs, xs), ref)


def test_squeezed_grid_reuses_the_exact_horner(monkeypatch):
    # one exact grid pass per candidate degree: the squeezed candidate's grid
    # is an exact affine map of the unsqueezed one, not a second Horner pass.
    # Degrees 4 and 8 are float-safe; 16 and 32 are not.
    steppoly._grid_memo.cache_clear()
    grid_passes = []
    horner_exact = steppoly._horner_exact

    def spy(coeffs, xs):
        if xs.size == GRID_POINTS:
            grid_passes.append(len(coeffs))
        return horner_exact(coeffs, xs)

    monkeypatch.setattr(steppoly, "_horner_exact", spy)
    p = build_step_poly(0.3, 0.05, 0.1)
    assert grid_passes == [17, p.degree + 1]
    assert not _float_safe(p.coeffs)
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    monkeypatch.undo()
    assert np.array_equal(steppoly._grid_values_cached(p.coeffs),
                          _horner_many(p.coeffs, grid))


def test_json_round_trip(p_easy):
    text = p_easy.coeffs_json()
    back = StepPolynomial.from_coeffs_json(p_easy.alpha, p_easy.eps,
                                           p_easy.delta, text)
    assert back.coeffs == p_easy.coeffs


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
