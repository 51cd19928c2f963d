"""Low-degree polynomial approximations to the threshold indicator s_alpha.

A StepPolynomial p approximates s_alpha(x) = Ind[x >= alpha] to within eps
outside the transition window (alpha-delta, alpha+delta), stays in [0,1] on
[0,1], and is nondecreasing on the window.  All guarantees are verified on a
uniform grid of 10^4 points; the range is also enforced between grid points,
by squeezing over the extrema at the fit's critical points too.  The
construction itself (a Chebyshev least-squares fit of a smoothed ramp) is
interchangeable with any other construction meeting the same guarantees.

Numerical note: the monomial coefficients of a step approximant grow like
~5.8^degree, far past float64 at the degrees the tight triples need, so
coefficients are stored as exact rationals (the Chebyshev fit is converted
exactly) and Horner evaluation runs in exact arithmetic unless the float
path's a-priori error bound is at most a tenth of GRID_SLACK.  The exact
path is a single integer Horner over all points at once (numpy object
arrays of Python ints over a common denominator), ending in one correctly
rounded division per point, so each value is the float nearest the exact
one.  This keeps the monomial-coefficient contract honest instead of
silently evaluating noise.  The affine squeeze into [0, 1] does not
evaluate again: its grid is one exact map of the unsqueezed pass's
integers.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from ugsos.errors import ConstructionError, ParameterError

GRID_POINTS = 10**4
DEGREE_CAP = 200
GRID_SLACK = 1e-9


@dataclass(frozen=True)
class StepPolynomial:
    """Verified approximate step indicator p_alpha^{eps,delta}.

    `coeffs` are monomial-basis coefficients, ascending degree, stored as
    exact `Fraction`s.  `eps` is the achieved grid deviation outside the
    transition window (at most the requested one).
    """

    alpha: float
    eps: float
    delta: float
    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return eval_step_poly(self, x)

    def coeffs_json(self) -> str:
        """JSON array, ascending degree; exact `num/den` strings so the
        round trip is lossless even for very large coefficients."""
        import json
        return json.dumps([f"{c.numerator}/{c.denominator}" for c in self.coeffs])

    @classmethod
    def from_coeffs_json(cls, alpha, eps, delta, text):
        import json
        coeffs = tuple(Fraction(s) for s in json.loads(text))
        return cls(alpha, eps, delta, coeffs)


def _float_safe(coeffs) -> bool:
    """Whether float Horner is within GRID_SLACK / 10 of p on [0, 1] by its
    a-priori bound (2d + 1) u sum |a_i|, u the unit roundoff: d multiply-add
    steps round 2d times and each coefficient rounds once on conversion
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 5.1)."""
    u = np.finfo(float).eps / 2.0
    bound = (2 * len(coeffs) - 1) * u * sum(abs(float(c)) for c in coeffs)
    return bound <= GRID_SLACK / 10.0


def _horner_many(coeffs, xs: np.ndarray) -> np.ndarray:
    """Horner over an array of points in [0, 1]; float path when its error
    bound is safe (`_float_safe`), exact otherwise.

    The exact path is one integer Horner for all points.  With L the lcm of
    the coefficient denominators, N_i = c_i L, and every point written as
    x = m/Q over the largest denominator Q of the points (all of them powers
    of two), acc = sum_i N_i m^i Q^(d-i) and p(x) = acc / (L Q^d).  The
    final int / int division is correctly rounded, so each value equals
    float() of the exact rational Horner result.  A shared Q makes the
    scale Q^(d-i) one number per step rather than one per point; a very
    small point enlarges Q, and so the integers, for the whole array."""
    if _float_safe(coeffs):
        fc = [float(c) for c in coeffs]
        out = np.zeros_like(xs)
        for c in reversed(fc):
            out = out * xs + c
        return out
    acc, den = _horner_exact(coeffs, xs)
    return (acc / den).astype(float).reshape(np.shape(xs))


def _horner_exact(coeffs, xs: np.ndarray):
    """(acc, den): p(x) = acc / den exactly, acc an object array of ints
    over the flattened points and den = L Q^d (see `_horner_many`)."""
    den = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    ratios = [x.as_integer_ratio() for x in np.ravel(xs).tolist()]
    big_q = max((q for _, q in ratios), default=1)
    m = np.array([a * (big_q // q) for a, q in ratios], dtype=object)
    acc = np.full(m.shape, nums[-1], dtype=object)
    scale = 1
    for c in reversed(nums[:-1]):
        scale *= big_q
        acc = acc * m + c * scale
    return acc, den * scale


def eval_step_poly(p: StepPolynomial, x):
    """Horner evaluation; inputs outside [0,1] are clamped with a warning."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any((arr < 0.0) | (arr > 1.0)):
        warnings.warn("eval_step_poly: input clamped to [0,1]", stacklevel=2)
        arr = np.clip(arr, 0.0, 1.0)
    out = _horner_many(p.coeffs, arr)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def _grid():
    return np.linspace(0.0, 1.0, GRID_POINTS)


@lru_cache(maxsize=32)
def _grid_memo(coeffs: tuple) -> dict:
    """The grid evaluation of one coefficient tuple, filled in place:
    "values", the read-only floats, and "exact", the (acc, den) of the exact
    Horner when that path ran (`_squeeze_into_unit` maps it affinely)."""
    return {}


def _grid_values_cached(coeffs: tuple) -> np.ndarray:
    memo = _grid_memo(tuple(coeffs))
    if "values" not in memo:
        if _float_safe(coeffs):
            vals = _horner_many(coeffs, _grid())
        else:
            acc, den = memo["exact"] = _horner_exact(coeffs, _grid())
            vals = (acc / den).astype(float)
        memo["values"] = _read_only(vals)
    return memo["values"]


def _read_only(vals: np.ndarray) -> np.ndarray:
    vals.setflags(write=False)
    return vals


def _derivative(coeffs):
    return tuple(i * c for i, c in enumerate(coeffs))[1:]


def _grid_check(coeffs, alpha, eps, delta):
    """(ok, achieved deviation) for the three StepPolynomial invariants."""
    x = _grid()
    vals = _grid_values_cached(tuple(coeffs))
    outside = (x <= alpha - delta) | (x >= alpha + delta)
    step = (x >= alpha).astype(float)
    dev = float(np.max(np.abs(vals - step)[outside]))
    in_range = vals.min() >= -GRID_SLACK and vals.max() <= 1.0 + GRID_SLACK
    window = (x > alpha - delta) & (x < alpha + delta)
    mono = True
    dcoeffs = _derivative(coeffs)
    if np.any(window) and dcoeffs:
        mono = float(np.min(_horner_many(dcoeffs, x[window]))) >= -GRID_SLACK
    return (dev <= eps and in_range and mono), dev


def _smooth_ramp(alpha, delta):
    """Fit target: linear ramp through the window mollified by the cubic
    smoothstep, so the target is C^1 and the Chebyshev tail decays fast."""
    def f(x):
        t = np.clip((x - alpha + delta) / (2.0 * delta), 0.0, 1.0)
        return 3.0 * t**2 - 2.0 * t**3
    return f


@lru_cache(maxsize=None)
def _cheb_monomials_exact(n: int):
    """Exact monomial coefficients (in x on [0,1]) of the first n+1 shifted
    Chebyshev polynomials T_k(2x-1)."""
    u = (Fraction(-1), Fraction(2))  # 2x - 1

    def poly_mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return tuple(out)

    def poly_sub(p, q):
        m = max(len(p), len(q))
        return tuple((p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
                     for i in range(m))

    two_u = tuple(2 * c for c in u)
    ts = [(Fraction(1),), u]
    while len(ts) <= n:
        ts.append(poly_sub(poly_mul(two_u, ts[-1]), ts[-2]))
    return ts[:n + 1]


def _cheb_fit_exact(alpha, delta, deg):
    """Chebyshev least-squares fit of the smoothed ramp: (its coefficients
    converted exactly to the monomial basis in x, the Chebyshev series in
    2x - 1 it was converted from)."""
    xs = np.linspace(0.0, 1.0, 4001)
    ys = _smooth_ramp(alpha, delta)(xs)
    cheb = chebyshev.Chebyshev.fit(xs, ys, deg, domain=[0.0, 1.0])
    ts = _cheb_monomials_exact(deg)
    coeffs = [Fraction(0)] * (deg + 1)
    for k, ck in enumerate(cheb.coef):
        fk = Fraction(float(ck))
        for i, t in enumerate(ts[k]):
            coeffs[i] += fk * t
    return tuple(coeffs), cheb.coef


def _critical_values(coeffs, series) -> np.ndarray:
    """p at its critical points in [0, 1], evaluated exactly.  The points
    are the roots of the Chebyshev series' derivative (well conditioned,
    unlike the monomial one); every root's real part that lands in [0, 1]
    is kept, a superset of the real roots, since any point of [0, 1] gives
    a true value of p."""
    t = chebyshev.chebroots(chebyshev.chebder(series)).real
    xs = (t[(t >= -1.0) & (t <= 1.0)] + 1.0) / 2.0
    acc, den = _horner_exact(coeffs, xs)
    return (acc / den).astype(float)


def _squeeze_into_unit(fit):
    """Affine renormalization of a `_cheb_fit_exact` fit so that its range
    over [0, 1], the extrema over the grid and the critical points, lies in
    [0, 1]."""
    coeffs, series = fit
    vals = _grid_values_cached(tuple(coeffs))
    crit = _critical_values(coeffs, series)
    lo = float(min(vals.min(), crit.min(initial=0.0)))
    hi = float(max(vals.max(), crit.max(initial=1.0)))
    if hi - lo <= 1.0:
        return tuple(coeffs)
    # pad the exact scale and shift (lo <= 0 moves down) so the renormalized
    # range is strictly inside [0,1] despite lo/hi being float approximations
    scale = Fraction(float((hi - lo) * (1.0 + 1e-12)))
    shift = Fraction(float(lo * (1.0 + 1e-12)))
    out = [c / scale for c in coeffs]
    out[0] -= shift / scale
    out = tuple(out)
    exact = _grid_memo(tuple(coeffs)).get("exact")
    if exact is not None and not _float_safe(out):
        # the squeezed grid is (p(x) - shift) / scale: one exact affine map
        # of the integers above, correctly rounded as a Horner pass would be
        acc, den = exact
        num = ((acc * shift.denominator - shift.numerator * den)
               * scale.denominator)
        den *= scale.numerator * shift.denominator
        _grid_memo(out)["values"] = _read_only((num / den).astype(float))
    return out


def build_step_poly(alpha: float, eps: float, delta: float,
                    degree_cap: int = DEGREE_CAP) -> StepPolynomial:
    """Construct p_alpha^{eps,delta}: Chebyshev least squares on the smoothed
    ramp, degree doubled until the grid invariants pass with margin eps/2,
    then renormalized affinely into [0,1]."""
    if not (0.0 < delta < min(alpha, 1.0 - alpha)):
        raise ParameterError("need 0 < delta < min(alpha, 1-alpha)")
    if not (0.0 < eps < 0.5):
        raise ParameterError("need 0 < eps < 1/2")
    best_dev = np.inf
    deg = 4
    tried = []
    while deg <= degree_cap:
        tried.append(deg)
        coeffs = _squeeze_into_unit(_cheb_fit_exact(alpha, delta, deg))
        ok, dev = _grid_check(coeffs, alpha, eps / 2.0, delta)
        best_dev = min(best_dev, dev)
        if ok:
            return StepPolynomial(alpha, eps, delta, coeffs)
        deg *= 2
    if degree_cap not in tried:
        coeffs = _squeeze_into_unit(_cheb_fit_exact(alpha, delta, degree_cap))
        ok, dev = _grid_check(coeffs, alpha, eps, delta)
        best_dev = min(best_dev, dev)
        if ok:
            return StepPolynomial(alpha, eps, delta, coeffs)
    raise ConstructionError(
        f"step polynomial unachievable within degree {degree_cap}: "
        f"best deviation {best_dev:.3e} vs requested {eps}")


def build_capped_step_poly(alpha: float, delta: float,
                           degree_cap: int) -> StepPolynomial:
    """Best-effort indicator under a hard degree cap; `eps` on the result is
    the *achieved* grid deviation.  Used as nu_effective by the potentials
    module when the pseudoexpectation degree budget forces a tiny cap."""
    if degree_cap == 0:
        # the best constant approximation to a step is 1/2
        return StepPolynomial(alpha, 0.5, delta, (Fraction(1, 2),))
    coeffs = _squeeze_into_unit(_cheb_fit_exact(alpha, delta, degree_cap))
    _, dev = _grid_check(coeffs, alpha, np.inf, delta)
    return StepPolynomial(alpha, float(dev), delta, coeffs)


@dataclass(frozen=True)
class BoundReport:
    passed: bool
    max_violation: float
    detail: str = ""


def check_markov_bounds(p: StepPolynomial) -> BoundReport:
    """Both threshold-polynomial Markov-type bounds on the grid:
    p(x) >= 1 - (1-x)/(1-alpha-delta) - eps  and  p(x) <= x/(alpha-delta) + eps."""
    x = _grid()
    vals = _grid_values_cached(p.coeffs)
    lower = 1.0 - (1.0 - x) / (1.0 - p.alpha - p.delta) - p.eps
    upper = x / (p.alpha - p.delta) + p.eps
    v1 = float(np.max(lower - vals))
    v2 = float(np.max(vals - upper))
    worst = max(v1, v2)
    return BoundReport(worst <= GRID_SLACK, worst,
                       f"lower violation {v1:.3e}, upper violation {v2:.3e}")


def check_union_bound(p: StepPolynomial, grid: int = 300) -> BoundReport:
    """p(x)p(y) >= p(x) + p(y) - 1 on a grid x grid sweep of [0,1]^2."""
    x = np.linspace(0.0, 1.0, grid)
    v = _horner_many(p.coeffs, x)
    prod = np.outer(v, v)
    rhs = v[:, None] + v[None, :] - 1.0
    worst = float(np.max(rhs - prod))
    return BoundReport(worst <= GRID_SLACK, worst)


def check_invariants(p: StepPolynomial) -> BoundReport:
    """The three defining StepPolynomial invariants on the standard grid."""
    ok, dev = _grid_check(p.coeffs, p.alpha, p.eps, p.delta)
    return BoundReport(ok, dev, f"achieved deviation {dev:.3e}")


def square(p: StepPolynomial) -> StepPolynomial:
    """p^2, which behaves like the approximant with deviation 2*eps."""
    n = p.degree
    out = [Fraction(0)] * (2 * n + 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(p.coeffs):
            out[i + j] += a * b
    return StepPolynomial(p.alpha, min(2.0 * p.eps, 1.0), p.delta, tuple(out))
