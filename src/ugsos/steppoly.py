"""Low-degree polynomial approximations to the threshold indicator s_alpha.

A StepPolynomial p approximates s_alpha(x) = Ind[x >= alpha] to within eps
outside the transition window (alpha-delta, alpha+delta), stays in [0,1] on
[0,1], and is nondecreasing on the window.  The construction (a Chebyshev
least-squares fit of a smoothed ramp, renormalized affinely into [0, 1]) is
interchangeable with any other construction meeting the same guarantees.

p is stored as its Chebyshev series in 2x - 1: float64 coefficients, each a
dyadic rational, so the stored series is p exactly.  It is evaluated by
Clenshaw's recurrence, which comes with an a-priori error bound
(`clenshaw`).  Every guarantee is checked on a uniform grid of 10^4 points
with each value padded by that bound, so a passing check is a proof on the
grid; the range is also enforced between grid points, by squeezing over
the extrema at the series' critical points too.  The exact monomial
coefficients, which grow like ~5.8^degree, are derived from the series on
demand (`StepPolynomial.coeffs`) and take no part in evaluation.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from ugsos import _kernels
from ugsos.errors import ConstructionError, ParameterError

GRID_POINTS = 10**4
UNION_GRID_POINTS = 300
DEGREE_CAP = 200
GRID_SLACK = 1e-9


@dataclass(frozen=True)
class StepPolynomial:
    """Verified approximate step indicator p_alpha^{eps,delta}.

    `series` holds p's Chebyshev coefficients in 2x - 1, lowest order
    first, as floats: p(x) = sum_k series[k] T_k(2x - 1) exactly.  `eps` is
    the achieved grid deviation outside the transition window (at most the
    requested one).
    """

    alpha: float
    eps: float
    delta: float
    series: tuple

    @property
    def degree(self) -> int:
        return len(self.series) - 1

    def __call__(self, x):
        return eval_step_poly(self, x)

    @cached_property
    def coeffs(self) -> tuple:
        """Monomial-basis coefficients in x, ascending degree, as exact
        `Fraction`s."""
        out = [Fraction(0)] * len(self.series)
        for c, t in zip(self.series, _cheb_monomials_exact(self.degree)):
            fc = Fraction(c)
            for i, ti in enumerate(t):
                out[i] += fc * ti
        return tuple(out)


@lru_cache(maxsize=None)
def _cheb_monomials_exact(n: int):
    """Integer monomial coefficients (in x on [0,1], ascending) of the
    first n+1 shifted Chebyshev polynomials T_k(2x-1), by
    T_{k+1} = (4x - 2) T_k - T_{k-1}."""
    ts = [(1,), (-1, 2)]
    while len(ts) <= n:
        x_t, t, older = (0,) + ts[-1], ts[-1] + (0,), ts[-2] + (0, 0)
        ts.append(tuple(4 * a - 2 * b - c for a, b, c in zip(x_t, t, older)))
    return ts[:n + 1]


def clenshaw(series, xs):
    """(values, bound): sum_k c_k T_k(2x - 1) at the points xs of [0, 1] by
    Clenshaw's recurrence, and an a-priori bound on every value's error,
    9 (d+1)^2 u sum |c_k| with u = 2^-53.

    The computed recurrence is the exact one run on coefficients c_k + e_k,
    each step's rounding (that of 4x - 2 included) moved into its
    coefficient, so the error is sum_k e_k T_k(2x - 1), at most
    sum_k |e_k|.  A step rounds four times, so |e_k| <= 8u max_j |b_j| to
    first order, and |b_j| = |sum_{i>=j} c_i U_{i-j}(2x - 1)| <=
    (d+1) sum |c_k| (Smoktunowicz, "Backward stability of Clenshaw's
    algorithm", BIT 42, 2002; Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed.).  The ninth (d+1)^2 covers the second-order terms
    and one rounding of each coefficient, so a series rounded from an exact
    one (`_derivative`) keeps the bound."""
    c = np.asarray(series, dtype=float)
    two_t = 4.0 * np.asarray(xs, dtype=float) - 2.0
    b1 = b2 = np.zeros_like(two_t)
    for ck in c[:0:-1]:
        b1, b2 = ck + (two_t * b1 - b2), b1
    values = c[0] + (two_t / 2.0 * b1 - b2)
    return values, 9.0 * len(c) ** 2 * 2.0**-53 * float(np.abs(c).sum())


def eval_step_poly(p: StepPolynomial, x):
    """Clenshaw evaluation; inputs outside [0,1] are clamped with a warning."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any((arr < 0.0) | (arr > 1.0)):
        warnings.warn("eval_step_poly: input clamped to [0,1]", stacklevel=2)
        arr = np.clip(arr, 0.0, 1.0)
    out, _ = clenshaw(p.series, arr)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def _grid():
    return np.linspace(0.0, 1.0, GRID_POINTS)


def _derivative(series) -> np.ndarray:
    """The series of dp/dx: 2 chebder(series), computed exactly and each
    coefficient rounded once to float."""
    exact = np.array([Fraction(c) for c in series], dtype=object)
    return chebyshev.chebder(exact, scl=2).astype(float)


def _grid_check(series, alpha, eps, delta):
    """(ok, achieved deviation) for the three StepPolynomial invariants,
    every value padded by its Clenshaw bound."""
    x = _grid()
    vals, err = clenshaw(series, x)
    outside = (x <= alpha - delta) | (x >= alpha + delta)
    step = (x >= alpha).astype(float)
    dev = float(np.max(np.abs(vals - step)[outside])) + err
    in_range = (vals.min() - err >= -GRID_SLACK
                and vals.max() + err <= 1.0 + GRID_SLACK)
    window = (x > alpha - delta) & (x < alpha + delta)
    mono = True
    if np.any(window) and len(series) > 1:
        dvals, derr = clenshaw(_derivative(series), x[window])
        mono = float(np.min(dvals)) - derr >= -GRID_SLACK
    return (dev <= eps and in_range and mono), dev


def _smooth_ramp(alpha, delta):
    """Fit target: linear ramp through the window mollified by the cubic
    smoothstep, so the target is C^1 and the Chebyshev tail decays fast."""
    def f(x):
        t = np.clip((x - alpha + delta) / (2.0 * delta), 0.0, 1.0)
        return 3.0 * t**2 - 2.0 * t**3
    return f


def _cheb_fit(alpha, delta, deg) -> tuple:
    """Chebyshev least-squares fit of the smoothed ramp: its series in
    2x - 1.  The least-squares solve runs under the thread rule for its
    deg + 1 columns: one BLAS thread at every degree up to DEGREE_CAP, many
    times faster than OpenBLAS's thread pool at these sizes."""
    xs = np.linspace(0.0, 1.0, 4001)
    ys = _smooth_ramp(alpha, delta)(xs)
    with _kernels.blas_threads_for(deg + 1):
        cheb = chebyshev.Chebyshev.fit(xs, ys, deg, domain=[0.0, 1.0])
    return tuple(cheb.coef.tolist())


def _critical_points(series) -> np.ndarray:
    """p's critical points in [0, 1]: the roots of the series' derivative
    (well conditioned, unlike the monomial one).  Every root's real part
    that lands in [0, 1] is kept, a superset of the real roots, since any
    point of [0, 1] gives a true value of p."""
    t = chebyshev.chebroots(chebyshev.chebder(series)).real
    return (t[(t >= -1.0) & (t <= 1.0)] + 1.0) / 2.0


def _squeeze_into_unit(series) -> tuple:
    """Affine renormalization of a `_cheb_fit` series so that its range
    over [0, 1], the extrema over the grid and the critical points, padded
    by the Clenshaw bound, lies in [0, 1]."""
    x = np.concatenate([_grid(), _critical_points(series)])
    vals, err = clenshaw(series, x)
    lo = min(float(vals.min()) - err, 0.0)
    hi = max(float(vals.max()) + err, 1.0)
    if hi - lo <= 1.0:
        return tuple(series)
    # pad the scale and shift (lo <= 0 moves down) so the renormalized
    # range is strictly inside [0,1] despite the map's own rounding
    scale = (hi - lo) * (1.0 + 1e-12)
    out = np.array(series)
    out[0] -= lo * (1.0 + 1e-12)
    return tuple((out / scale).tolist())


def build_step_poly(alpha: float, eps: float, delta: float) -> StepPolynomial:
    """Construct p_alpha^{eps,delta}: Chebyshev least squares on the smoothed
    ramp, renormalized affinely into [0,1], at the degrees 4, 8, 16, ...
    below DEGREE_CAP and then at DEGREE_CAP, until the grid invariants pass
    with margin eps/2 (below the cap) or eps (at it)."""
    if not (0.0 < delta < min(alpha, 1.0 - alpha)):
        raise ParameterError("need 0 < delta < min(alpha, 1-alpha)")
    if not (0.0 < eps < 0.5):
        raise ParameterError("need 0 < eps < 1/2")
    best_dev = np.inf
    for deg in [4 << i for i in range(DEGREE_CAP.bit_length())
                if 4 << i < DEGREE_CAP] + [DEGREE_CAP]:
        series = _squeeze_into_unit(_cheb_fit(alpha, delta, deg))
        margin = eps if deg == DEGREE_CAP else eps / 2.0
        ok, dev = _grid_check(series, alpha, margin, delta)
        best_dev = min(best_dev, dev)
        if ok:
            return StepPolynomial(alpha, eps, delta, series)
    raise ConstructionError(
        f"step polynomial unachievable within degree {DEGREE_CAP}: "
        f"best deviation {best_dev:.3e} vs requested {eps}")


def build_capped_step_poly(alpha: float, delta: float,
                           degree_cap: int) -> StepPolynomial:
    """Best-effort indicator under a hard degree cap; `eps` on the result is
    the *achieved* grid deviation.  Used as nu_effective by the potentials
    module when the pseudoexpectation degree budget forces a tiny cap.
    Raises ParameterError unless alpha and delta lie in (0, 1)."""
    if not (0.0 < alpha < 1.0 and 0.0 < delta < 1.0):
        raise ParameterError("need alpha and delta in (0, 1)")
    if degree_cap == 0:
        # the best constant approximation to a step is 1/2
        return StepPolynomial(alpha, 0.5, delta, (0.5,))
    series = _squeeze_into_unit(_cheb_fit(alpha, delta, degree_cap))
    _, dev = _grid_check(series, alpha, np.inf, delta)
    return StepPolynomial(alpha, float(dev), delta, series)


@dataclass(frozen=True)
class BoundReport:
    passed: bool
    max_violation: float
    detail: str = ""


def check_markov_bounds(p: StepPolynomial) -> BoundReport:
    """Both threshold-polynomial Markov-type bounds on the grid:
    p(x) >= 1 - (1-x)/(1-alpha-delta) - eps  and  p(x) <= x/(alpha-delta) + eps."""
    x = _grid()
    vals, err = clenshaw(p.series, x)
    lower = 1.0 - (1.0 - x) / (1.0 - p.alpha - p.delta) - p.eps
    upper = x / (p.alpha - p.delta) + p.eps
    v1 = float(np.max(lower - vals)) + err
    v2 = float(np.max(vals - upper)) + err
    worst = max(v1, v2)
    return BoundReport(worst <= GRID_SLACK, worst,
                       f"lower violation {v1:.3e}, upper violation {v2:.3e}")


def check_union_bound(p: StepPolynomial) -> BoundReport:
    """p(x)p(y) >= p(x) + p(y) - 1 on a UNION_GRID_POINTS^2 sweep of
    [0,1]^2."""
    x = np.linspace(0.0, 1.0, UNION_GRID_POINTS)
    v, err = clenshaw(p.series, x)
    prod = np.outer(v, v)
    rhs = v[:, None] + v[None, :] - 1.0
    # rhs - prod = -(1 - p(x))(1 - p(y)): each factor is off by at most err
    pad = err * (2.0 * float(np.max(np.abs(1.0 - v))) + err)
    worst = float(np.max(rhs - prod)) + pad
    return BoundReport(worst <= GRID_SLACK, worst)


def check_invariants(p: StepPolynomial) -> BoundReport:
    """The three defining StepPolynomial invariants on the standard grid."""
    ok, dev = _grid_check(p.series, p.alpha, p.eps, p.delta)
    return BoundReport(ok, dev, f"achieved deviation {dev:.3e}")


def square(p: StepPolynomial) -> StepPolynomial:
    """p^2, which behaves like the approximant with deviation 2*eps; its
    series is the Chebyshev product of p's, rounded to float64."""
    return StepPolynomial(p.alpha, min(2.0 * p.eps, 1.0), p.delta,
                          tuple(chebyshev.chebmul(p.series, p.series).tolist()))
