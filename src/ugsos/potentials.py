"""Shift-partition potentials and the conditioned shift potential.

For two assignments X, X' the shift partition groups vertices by the label
difference X_u - X'_u.  The approximate potential

    Phi(X,X') = sum_s ( E_u  Z_{u,s} * p(val_u(X)) )^2

measures the squared mass of each shift component, with low-local-value
vertices damped by the step approximant p; Phi of a pseudodistribution is its
pseudoexpectation over an independent pair (X, X').  Psi is the conditioned
shift potential, a closed-form lower bound on Condition & Round.

Two evaluation regimes coexist.  Genuine distributions (point masses and
finite mixtures, recognized by their component tables) are evaluated
numerically with any step-polynomial degree, from one table of partition
functions per pair of components (`_pair_tables`).  Solver output is
evaluated by monomial expansion, which caps deg(p) at (D/2 - 1)/2 per factor;
callers use `truncation_cap` / `build_capped_step_poly` and report the
achieved (beta, nu_effective).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ugsos.errors import DegreeError, ParameterError
from ugsos.instances import UgInstance, local_value, value
from ugsos.sos import (COND_FLOOR, PseudoExpectation, canon_key,
                       check_shift_symmetric, local_value_poly, poly_add,
                       poly_mul, ug_objective_poly, z_var_poly)
from ugsos.steppoly import StepPolynomial


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def truncation_cap(degree: int) -> int:
    """Largest step-polynomial degree expressible inside a degree-D
    pseudoexpectation pair: each factor Z_{u,s} p(val_u) must have per-copy
    degree 1 + 2*deg(p) <= D/2."""
    return max((degree // 2 - 1) // 2, 0)


def _mixture_components(pE):
    base = pE._base if pE._base is not None else pE
    return base.flags.get("mixture")


def _require_pair(pE2: PseudoExpectation):
    if pE2.copy_count != 2:
        raise ParameterError("expected a two-copy pseudoexpectation "
                             "(use product_copy)")


def _check_p_degree(pE2: PseudoExpectation, p: StepPolynomial):
    cap = truncation_cap(pE2.degree)
    if p.degree > cap:
        raise DegreeError(
            f"step polynomial degree {p.degree} needs pseudoexpectation "
            f"degree >= {4 * p.degree + 2}, have {pE2.degree} "
            f"(cap {cap} per factor)")


def _p_of_poly(p: StepPolynomial, base: dict) -> dict:
    """p composed with a polynomial, expanded in the monomial basis."""
    out = {(): float(p.coeffs[0])}
    power = {(): 1.0}
    for c in p.coeffs[1:]:
        power = poly_mul(power, base)
        out = poly_add(out, power, float(c))
    return out


def shift_functions(p: StepPolynomial, inst: UgInstance, vertices=None,
                    val_polys=None):
    """The partition functions f_s(u) = Z_{u,s} * p(val_u) as per-vertex
    polynomials: a list over shifts s of {u: poly}."""
    k = inst.k
    if vertices is None:
        vertices = range(inst.num_vertices)
    pv = {u: _p_of_poly(p, val_polys[u] if val_polys is not None
                        else local_value_poly(inst, u))
          for u in vertices}
    return [{u: poly_mul(z_var_poly(u, s, k), pu) for u, pu in pv.items()}
            for s in range(k)]


def _pair_tables(comps, p: StepPolynomial, inst: UgInstance):
    """(w1 w2, x1, x2, f) for every ordered pair of mixture components
    (w1, x1), (w2, x2), where f[s, u] = p(val_u(x1)) Ind[x1_u - x2_u = s]
    holds the pair's partition functions (0 at vertices with pi_u = 0)."""
    n, k = inst.num_vertices, inst.k
    live = np.flatnonzero(inst.stationary > 0)
    shifts = np.arange(k)[:, None]
    pv = {}
    for (w1, x1) in comps:
        if x1 not in pv:
            pv[x1] = np.zeros(n)
            pv[x1][live] = p(np.array([local_value(inst, x1, u)
                                       for u in live]))
        for (w2, x2) in comps:
            diff = np.subtract(x1, x2) % k
            yield w1 * w2, x1, x2, np.where(diff == shifts, pv[x1], 0.0)


def fs_inner(pE2: PseudoExpectation, fs: dict, gs: dict, pi) -> float:
    """<f, g>_pi = E_{u~pi} pE2[f_u g_u]."""
    return sum(pi[u] * pE2.pe(poly_mul(fs[u], gs[u])) for u in fs)


def fs_walk_inner(pE2: PseudoExpectation, fs: dict, gs: dict, pi,
                  M: np.ndarray) -> float:
    """<f, M g>_pi = sum_{u,w} pi_u M[u,w] pE2[f_u g_w] for a walk or
    projection matrix M."""
    total = 0.0
    for u, fu in fs.items():
        row = M[u]
        for w, gw in gs.items():
            m = row[w]
            if m != 0.0:
                total += pi[u] * m * pE2.pe(poly_mul(fu, gw))
    return total


def viol_poly(inst: UgInstance) -> dict:
    """viol(X) = 1 - val(X) as a polynomial."""
    return poly_add({(): 1.0}, ug_objective_poly(inst), -1.0)


# ---------------------------------------------------------------------------
# Phi
# ---------------------------------------------------------------------------

def phi_apx(pE2: PseudoExpectation, p: StepPolynomial,
            inst: UgInstance) -> float:
    """pE of sum_s (E_{u~pi} Z_{u,s} p(val_u(X)))^2 over an independent pair."""
    _require_pair(pE2)
    pi = inst.stationary
    comps = _mixture_components(pE2)
    if comps is not None:
        total = 0.0
        for w, _, _, f in _pair_tables(comps, p, inst):
            masses = f @ pi
            total += w * float(masses @ masses)
        return total
    _check_p_degree(pE2, p)
    weights = {u: float(pi[u]) for u in range(inst.num_vertices) if pi[u] > 0}
    total = 0.0
    for fs in shift_functions(p, inst, weights):
        g: dict = {}
        for u, wu in weights.items():
            g = poly_add(g, fs[u], wu)
        total += pE2.pe(poly_mul(g, g))
    return total


def phi_exact_sampled(inst: UgInstance, x, xp, beta: float) -> float:
    """Exact-indicator oracle: sum_s (E_{u~pi} Ind[x_u - x'_u = s]
    Ind[val_u(x) >= beta])^2 on two integral assignments."""
    x = np.asarray(x, dtype=np.int64)
    xp = np.asarray(xp, dtype=np.int64)
    pi = inst.stationary
    masses = np.zeros(inst.k)
    for u in range(inst.num_vertices):
        if pi[u] > 0 and local_value(inst, x, u) >= beta:
            masses[(x[u] - xp[u]) % inst.k] += pi[u]
    return float(masses @ masses)


# ---------------------------------------------------------------------------
# Psi
# ---------------------------------------------------------------------------

def shift_event_poly(v: int, u: int, s: int, k: int) -> dict:
    """Indicator of X_v - X_u = s as a polynomial (collapses correctly when
    u = v)."""
    out: dict = {}
    for t in range(k):
        key = canon_key(((v, (s + t) % k, 0), (u, t, 0)))
        if key is not None:
            out[key] = out.get(key, 0.0) + 1.0
    return out


def psi(pE: PseudoExpectation, inst: UgInstance) -> float:
    """E_{u,v~pi} sum_s pPr[X_v - X_u = s]^2 * pE[val_v | X_v - X_u = s],
    with the convention that a conditional on pseudo-probability <= COND_FLOOR
    contributes 0.  Note q^2 * pE[val*ev]/q = q * pE[val*ev]."""
    if pE.degree < 4:
        raise ParameterError("psi needs degree >= 4")
    check_shift_symmetric(pE)
    pi = inst.stationary
    n, k = inst.num_vertices, inst.k
    total = 0.0
    for v in range(n):
        if pi[v] == 0.0:
            continue
        vp = local_value_poly(inst, v)
        for u in range(n):
            if pi[u] == 0.0:
                continue
            w = float(pi[u] * pi[v])
            for s in range(k):
                ev = shift_event_poly(v, u, s, k)
                q = pE.pe(ev)
                if q <= COND_FLOOR:
                    continue
                total += w * q * pE.pe(poly_mul(ev, vp))
    return total


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialReport:
    phi: float
    psi: float
    beta: float
    nu: float
    poly_degree: int
    local_values: tuple
    shift_masses: tuple | None = None

    def __post_init__(self):
        if self.phi < -1e-6:
            raise ParameterError(f"phi = {self.phi} below -1e-6")
        if self.psi < -1e-6:
            raise ParameterError(f"psi = {self.psi} below -1e-6")
        if self.shift_masses is not None:
            tot = sum(self.shift_masses)
            if tot > 1.0 + 1e-6:
                raise ParameterError(f"shift masses sum to {tot} > 1 + 1e-6")

    def to_json(self) -> str:
        import json
        d = {"phi": self.phi, "psi": self.psi, "beta": self.beta,
             "nu": self.nu, "poly_degree": self.poly_degree,
             "local_values": list(self.local_values)}
        if self.shift_masses is not None:
            d["shift_masses"] = list(self.shift_masses)
        return json.dumps(d)


def potential_report(pE: PseudoExpectation, inst: UgInstance,
                     p: StepPolynomial) -> PotentialReport:
    """Phi, Psi, per-vertex local values and per-shift masses for a solved,
    symmetrized single-copy pseudoexpectation."""
    from ugsos.sos import product_copy
    pE2 = product_copy(pE)
    pi = inst.stationary
    phi = phi_apx(pE2, p, inst)
    psi_v = psi(pE, inst)
    locals_ = tuple(pE.pe(local_value_poly(inst, u)) if pi[u] > 0 else 0.0
                    for u in range(inst.num_vertices))
    comps = _mixture_components(pE2)
    if comps is None:
        _check_p_degree(pE2, p)
        fss = shift_functions(p, inst)
        masses = tuple(sum(pi[u] * pE2.pe(fs[u]) for u in fs if pi[u] > 0)
                       for fs in fss)
    else:
        masses = tuple(sum(w * (f @ pi) for w, _, _, f
                           in _pair_tables(comps, p, inst)).tolist())
    return PotentialReport(phi, psi_v, p.alpha, p.eps, p.degree,
                           locals_, masses)


# ---------------------------------------------------------------------------
# Partition claims (numeric versions of the small-set-expansion chain)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClaimCheck:
    name: str
    lhs: float
    rhs: float
    slack: float

    @property
    def holds(self) -> bool:
        # orientation is baked in per claim: lhs >= rhs - slack for coverage,
        # lhs <= rhs + slack for the upper bounds
        if self.name in ("vertex-coverage", "sp-pseudo"):
            return self.lhs >= self.rhs - self.slack
        return self.lhs <= self.rhs + self.slack


def _viol_copy1(pE2, inst) -> float:
    """viol(X'): the violation polynomial moved to the second copy."""
    moved = {tuple((v, a, 1) for (v, a, _) in key): c
             for key, c in viol_poly(inst).items()}
    return pE2.pe(moved)


def _projector(spectral, lam: float) -> np.ndarray:
    """Pi-self-adjoint projector onto walk eigenvalues >= 1 - lam."""
    keep = spectral.eigenvalues >= 1.0 - lam
    V = spectral.eigenvectors[:, keep]
    return V @ (V.T * spectral.pi)


class _ClaimStats:
    """The partition quantities the small-set-expansion chain needs:
    coverage = sum_s E_pi[f_s], dirichlet = sum_s <f_s, L f_s>_pi,
    b1 = sum_s E_pi[f_s - f_s^2], b2 = sum_s <f_s - f_s^3, P f_s>_pi,
    plus viol(X), viol(X').  Two backends: monomial expansion for solver
    output, exact numeric averaging for genuine mixtures."""

    def __init__(self, pE2, p, inst, spectral=None, lam=None):
        _require_pair(pE2)
        self.beta, self.nu = p.alpha, p.eps
        comps = _mixture_components(pE2)
        if comps is not None:
            self._numeric(comps, p, inst, spectral, lam)
        else:
            self._polynomial(pE2, p, inst, spectral, lam)

    def _polynomial(self, pE2, p, inst, spectral, lam):
        _check_p_degree(pE2, p)
        fss = shift_functions(p, inst)
        pi = inst.stationary
        self.viol_x = pE2.pe(viol_poly(inst))
        self.viol_xp = _viol_copy1(pE2, inst)
        self.coverage = sum(pi[u] * pE2.pe(fs[u])
                            for fs in fss for u in fs if pi[u] > 0)
        self.b1 = sum(pi[u] * (pE2.pe(fs[u]) - pE2.pe(poly_mul(fs[u], fs[u])))
                      for fs in fss for u in fs if pi[u] > 0)
        self.dirichlet = self.b2 = None
        if spectral is not None:
            T = spectral.transition
            self.dirichlet = sum(
                fs_inner(pE2, fs, fs, spectral.pi)
                - fs_walk_inner(pE2, fs, fs, spectral.pi, T) for fs in fss)
            if lam is not None:
                P = _projector(spectral, lam)
                self.b2 = 0.0
                for fs in fss:
                    gs = {u: poly_add(fu, poly_mul(poly_mul(fu, fu), fu), -1.0)
                          for u, fu in fs.items()}  # f - f^3
                    self.b2 += fs_walk_inner(pE2, gs, fs, spectral.pi, P)

    def _numeric(self, comps, p, inst, spectral, lam):
        pi = inst.stationary
        T = spectral.transition if spectral is not None else None
        P = _projector(spectral, lam) if (spectral is not None
                                          and lam is not None) else None
        viol = {x: 1.0 - value(inst, x) for _, x in comps}
        self.coverage = self.b1 = self.viol_x = self.viol_xp = 0.0
        self.dirichlet = 0.0 if T is not None else None
        self.b2 = 0.0 if P is not None else None
        for w, x1, x2, fs in _pair_tables(comps, p, inst):
            self.viol_x += w * viol[x1]
            self.viol_xp += w * viol[x2]
            for f in fs:
                self.coverage += w * float(pi @ f)
                self.b1 += w * float(pi @ (f - f * f))
                if T is not None:
                    self.dirichlet += w * float(pi @ (f * (f - T @ f)))
                if P is not None:
                    self.b2 += w * float(pi @ ((f - f**3) * (P @ f)))


def claim_vertex_coverage(pE2, p, inst, slack: float = 1e-5) -> ClaimCheck:
    """sum_s E_pi[f_s] >= 1 - viol/(1-beta-nu) - nu."""
    st = _ClaimStats(pE2, p, inst)
    rhs = 1.0 - st.viol_x / (1.0 - st.beta - st.nu) - st.nu
    return ClaimCheck("vertex-coverage", st.coverage, rhs, slack)


def claim_partition_expansion(pE2, p, inst, spectral,
                              slack: float = 1e-5) -> ClaimCheck:
    """sum_s <f_s, L f_s>_pi <= viol(X) + viol(X')
    + 2 viol(X)/(1-beta-nu) + 2 nu."""
    st = _ClaimStats(pE2, p, inst, spectral)
    rhs = (st.viol_x + st.viol_xp
           + 2.0 * st.viol_x / (1.0 - st.beta - st.nu) + 2.0 * st.nu)
    return ClaimCheck("partition-expansion", st.dirichlet, rhs, slack)


def claim_b1(pE2, p, inst, slack: float = 1e-5) -> ClaimCheck:
    """sum_s E_pi[f_s - f_s^2] <= viol/(1-beta-nu) + nu."""
    st = _ClaimStats(pE2, p, inst)
    rhs = st.viol_x / (1.0 - st.beta - st.nu) + st.nu
    return ClaimCheck("b1", st.b1, rhs, slack)


def claim_b2(pE2, p, inst, spectral, lam: float, eta: float,
             slack: float = 1e-5) -> ClaimCheck:
    """sum_s <f_s - f_s^3, P f_s>_pi <= 1/(2 eta)
    + eta (viol/(1-beta-nu) + nu), with P the projector onto walk
    eigenvalues >= 1 - lam."""
    st = _ClaimStats(pE2, p, inst, spectral, lam)
    rhs = (1.0 / (2.0 * eta)
           + eta * (st.viol_x / (1.0 - st.beta - st.nu) + st.nu))
    return ClaimCheck("b2", st.b2, rhs, slack)


def sp_pseudo_check(pE2, p, inst, lam: float, C: float, eta: float,
                    slack: float = 1e-4):
    """Numeric conclusion of the expander lower bound on Phi:
    Phi >= gamma (1 - viol/(1-beta-nu) - nu) + K, with
    gamma = lam^4/(16 C) and the unpinned constant c' taken as 1 (flagged).
    Returns (check, K) so callers can inspect the raw sides."""
    st = _ClaimStats(pE2, p, inst)
    gamma = lam**4 / (16.0 * C)
    alpha = lam / 2.0
    ratio = st.viol_x / (1.0 - st.beta - st.nu) + st.nu
    K = (alpha - (4.0 + alpha + eta) * ratio - 1.0 / (2.0 * eta)
         - (st.viol_x + st.viol_xp))  # c' = 1 convention
    phi = phi_apx(pE2, p, inst)
    rhs = gamma * (1.0 - st.viol_x / (1.0 - st.beta - st.nu) - st.nu) + K
    check = ClaimCheck("sp-pseudo", phi, rhs, slack)
    return check, K
