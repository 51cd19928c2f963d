"""Shift-partition potentials and the conditioned shift potential.

For two assignments X, X' the shift partition groups vertices by the label
difference s = X'_u - X_u, with indicator Z_{u,s} = sum_a X_{u,a} X'_{u,a+s}.
The approximate potential

    Phi(X,X') = sum_s ( E_u  Z_{u,s} * p(val_u(X)) )^2

measures the squared mass of each shift component, with low-local-value
vertices damped by the step approximant p; Phi of a pseudodistribution mu is
its pseudoexpectation over an independent pair (X, X') of copies of mu.  Psi
is the conditioned shift potential, a closed-form lower bound on Condition &
Round, read from mu's pair and triple moments.  Every potential takes mu
itself, a single-copy table; viol is a weighted sum of its per-edge
agreements (`sos.edge_agreement`).

Phi, the per-shift masses and the small-set-expansion claims are each
written once over one table of shift moments, `_shift_moments`: the first and
second moments of the partition functions f_s(u) = Z_{u,s} p(val_u(X)) (and
the cubic ones E f_s(u)^3 f_s(w) for b2), with f_s(u) = 0 where pi_u = 0.
The pair factors: f_s(u) = sum_a g_u^a X'_{u,a+s} with g_u^a =
X_{u,a} p(val_u(X)), and Z^3 = Z, so every shift moment is a moment of the
g's under X contracted with mu's pair moments P[u, w, a+s, b+s] under X'
(`sos.pair_moments`), assembled in one place.  The moments of the g's have
two sources (`_factors`).  Genuine distributions (point masses and finite
mixtures, recognized by their component tables) sum over their components
with p evaluated numerically, at any step-polynomial degree.  Any other
table reads them at products of monomial ids from one term table of
X_{u,a} val_u (`_local_terms`, which Psi and the local values read too);
this caps deg(p) at (D/2 - 1)/2 per factor, so callers use `truncation_cap`
/ `build_capped_step_poly` and report the achieved (beta, nu_effective).
Vertex averages use the instance's measure pi; the walk terms (Dirichlet
form, b2) use the spectral data's measure, the one its walk matrix and
projector are self-adjoint in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ugsos.errors import DegreeError, ParameterError
from ugsos.instances import UgInstance, local_value
from ugsos.sos import (COND_FLOOR, PseudoExpectation, check_shift_symmetric,
                       edge_agreement, pair_moments)
from ugsos.steppoly import StepPolynomial

# the slack each claim's ClaimCheck.holds allows between lhs and rhs
CLAIM_SLACK = 1e-5
SP_PSEUDO_SLACK = 1e-4


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def truncation_cap(degree: int) -> int:
    """Largest step-polynomial degree expressible inside a degree-D
    pseudoexpectation pair: each factor Z_{u,s} p(val_u) must have per-copy
    degree 1 + 2*deg(p) <= D/2."""
    return max((degree // 2 - 1) // 2, 0)


def _check_p_degree(pE: PseudoExpectation, p: StepPolynomial):
    cap = truncation_cap(pE.degree)
    if p.degree > cap:
        raise DegreeError(
            f"step polynomial degree {p.degree} needs pseudoexpectation "
            f"degree >= {4 * p.degree + 2}, have {pE.degree} "
            f"(cap {cap} per factor)")


def _local_terms(pE: PseudoExpectation, inst: UgInstance):
    """(one, local): the polynomials X_{u,a} and X_{u,a} val_u(X) as
    (ids, coefs) of shapes (n, k, 1) and (n, k, m), m the largest vertex
    degree.  Term i of local[u, a] is X_{u,a} X_{v,a-h} for u's i-th edge
    end (v, h), with that edge's share of u's weight; padding terms read
    X_{u,a} with coefficient 0."""
    n, k = inst.num_vertices, inst.k
    x = pE.index.offset[1] + np.arange(n * k).reshape(n, k)    # X_{u,a}'s id
    ends = np.array([(u, i, v, h, w) for u, inc in enumerate(inst.incident)
                     for i, (v, w, h) in enumerate(inc)])
    tail, slot, head, h = ends[:, :4].T.astype(np.intp)
    w = ends[:, 4]
    ids = np.repeat(x[:, :, None], slot.max() + 1, axis=-1)
    coefs = np.zeros(ids.shape)
    ids[tail, :, slot] = pE.index.mul(
        x[tail], x[head[:, None], (np.arange(k) - h[:, None]) % k])
    coefs[tail, :, slot] = (w / np.bincount(tail, w, n)[tail])[:, None]
    return (x[:, :, None], np.ones((n, k, 1))), (ids, coefs)


def _times(pE: PseudoExpectation, f, g):
    """The product of the polynomials f and g, (ids, coefs) with their
    leading axes broadcast: every term of f times every term of g, a label
    clash read as id 0 with coefficient 0."""
    ids = pE.index.mul(f[0][..., :, None], g[0][..., None, :])
    coefs = np.where(ids < 0, 0.0, f[1][..., :, None] * g[1][..., None, :])
    shape = ids.shape[:-2] + (-1,)
    return np.maximum(ids, 0).reshape(shape), coefs.reshape(shape)


def _merge(f):
    """f with equal monomial ids merged and their coefficients summed: as
    many terms as the most distinct ids of any one polynomial, the rest
    read as id 0 with coefficient 0."""
    ids, coefs = (y.reshape(-1, y.shape[-1]) for y in f)
    order = np.argsort(ids, axis=-1)
    ids = np.take_along_axis(ids, order, -1)
    new = np.ones(ids.shape, dtype=bool)
    new[:, 1:] = ids[:, 1:] != ids[:, :-1]
    slot = np.cumsum(new, axis=-1) - 1
    width = int(slot.max(initial=0)) + 1
    flat = (np.arange(len(ids))[:, None] * width + slot).ravel()
    out = np.zeros(len(ids) * width, dtype=ids.dtype)
    out[flat] = ids.ravel()
    sums = np.bincount(flat, np.take_along_axis(coefs, order, -1).ravel(),
                       minlength=out.size)
    shape = f[0].shape[:-1] + (width,)
    return out.reshape(shape), sums.reshape(shape)


def _pe(pE: PseudoExpectation, f) -> np.ndarray:
    """pE of the polynomials f, (ids, coefs) with terms on the last axis,
    read from the blocks up to the degree of the largest id."""
    top = np.searchsorted(pE.index.offset, f[0].max(initial=0), side="right")
    return (f[1] * pE._array(int(top) - 1)[f[0]]).sum(axis=-1)


def _factors(pE: PseudoExpectation, p: StepPolynomial, inst: UgInstance,
             cubes: bool):
    """(G1, G2, G3) with g_u^a = X_{u,a} p(val_u(X)), 0 where pi_u = 0:
    G1[u, a] = E g_u^a, G2[u, w, a, b] = E g_u^a g_w^b and, with `cubes`,
    G3[u, w, a, b] = E g_u^a p(val_u)^2 g_w^b (else None).  Mixtures sum
    over their components; other tables read the products of the g's
    monomial ids from the moment array, for deg(p) up to the cap."""
    n, k = inst.num_vertices, inst.k
    live = np.flatnonzero(inst.stationary > 0)
    comps = pE.flags.get("mixture")
    if comps is not None:
        G1, G2 = np.zeros((n, k)), np.zeros((n, n, k, k))
        G3 = np.zeros((n, n, k, k)) if cubes else None
        for w, x in comps:
            g = np.zeros((n, k))
            g[live, np.take(x, live)] = p(np.array(
                [local_value(inst, x, u) for u in live]))
            G1 += w * g
            G2 += w * np.einsum("ua,wb->uwab", g, g)
            if cubes:
                G3 += w * np.einsum("ua,wb->uwab", g**3, g)
        return G1, G2, G3
    # the only guard: a product above the degree would read as 0
    _check_p_degree(pE, p)
    one, local = _local_terms(pE, inst)
    # X_{u,a}^2 = X_{u,a}, so g_u^a = sum_j c_j (X_{u,a} val_u)^j
    powers = [one]                  # the j = 0 term is c_0 X_{u,a}
    for _ in p.coeffs[1:]:
        powers.append(_times(pE, powers[-1], local))
    scale = (inst.stationary > 0)[:, None, None]
    g = (np.concatenate([ids for ids, _ in powers], axis=-1),
         np.concatenate([scale * float(c) * coefs
                         for c, (_, coefs) in zip(p.coeffs, powers)], axis=-1))

    def times_g(f):     # pE[f_u^a g_w^b] over (u, w, a, b)
        return _pe(pE, _times(pE, [y[:, None, :, None] for y in f],
                              [y[None, :, None] for y in g]))
    # g^3 = X p^3 = g p^2, its equal monomials merged after each product
    cube = _merge(_times(pE, _merge(_times(pE, g, g)), g)) if cubes else None
    return _pe(pE, g), times_g(g), times_g(cube) if cubes else None


def _shift_moments(pE: PseudoExpectation, p: StepPolynomial,
                   inst: UgInstance, cubes: bool = False):
    """(m1, m2, m3, viol) for the partition functions f_s(u) of an
    independent pair (X, X') of copies of pE: m1[s, u] = E f_s(u),
    m2[s, u, w] = E f_s(u) f_s(w) and, with `cubes`,
    m3[s, u, w] = E f_s(u)^3 f_s(w) (else None), plus viol = E viol(X),
    which X' shares.  f_s(u) = sum_a g_u^a X'_{u,a+s} factors over the
    copies, so each moment is a `_factors` table of X contracted with the
    pair moments P of X' shifted by s."""
    P = pair_moments(pE)
    G1, G2, G3 = _factors(pE, p, inst, cubes)
    # shifted[s, u, w, a, b] = P[u, w, a + s, b + s]
    shifted = np.stack([np.roll(P, -s, axis=(2, 3)) for s in range(inst.k)])
    m1 = np.einsum("ua,suuaa->su", G1, shifted)
    m2 = np.einsum("uwab,suwab->suw", G2, shifted)
    m3 = np.einsum("uwab,suwab->suw", G3, shifted) if cubes else None
    agree = edge_agreement(pE, inst)
    viol = 1.0 - float(inst._arrays[2] @ agree) / inst.total_weight
    return m1, m2, m3, viol


def _projector(spectral, lam: float) -> np.ndarray:
    """Pi-self-adjoint projector onto walk eigenvalues >= 1 - lam, within
    the 1e-9 that `spectral_decompose` clamps by, so that a threshold at an
    eigenvalue keeps all of its eigenspace, not a round-off share of it."""
    keep = spectral.eigenvalues >= 1.0 - lam - 1e-9
    V = spectral.eigenvectors[:, keep]
    return V @ (V.T * spectral.pi)


class _ShiftStats:
    """The shift-partition quantities over one `_shift_moments` table, with
    pi the instance's measure and sigma the spectral data's:
    phi = sum_s pi m2[s] pi, masses[s] = E_pi[f_s], coverage = sum of the
    masses, b1 = sum_s E_pi[f_s - f_s^2], and with spectral data
    dirichlet = sum_s <f_s, (I - T) f_s>_sigma and (with lam)
    b2 = sum_s <f_s - f_s^3, P f_s>_sigma; plus viol = viol(X) = viol(X')
    and the claims' ratio viol(X)/(1-beta-nu) + nu, with (beta, nu) = (p.alpha,
    p.eps)."""

    def __init__(self, pE, p, inst, spectral=None, lam=None):
        cubes = spectral is not None and lam is not None
        m1, m2, m3, self.viol = _shift_moments(pE, p, inst, cubes)
        self.ratio = self.viol / (1.0 - p.alpha - p.eps) + p.eps
        pi = inst.stationary
        diag = np.einsum("suu->su", m2)
        self.phi = float(np.einsum("u,suw,w->", pi, m2, pi))
        self.masses = m1 @ pi
        self.coverage = float(self.masses.sum())
        self.b1 = float(((m1 - diag) @ pi).sum())
        self.dirichlet = self.b2 = None
        if spectral is not None:
            sigma = spectral.pi
            self.dirichlet = float((diag @ sigma).sum() - np.einsum(
                "u,uw,suw->", sigma, spectral.transition, m2))
        if cubes:
            self.b2 = float(np.einsum("u,uw,suw->", spectral.pi,
                                      _projector(spectral, lam), m2 - m3))


# ---------------------------------------------------------------------------
# Phi
# ---------------------------------------------------------------------------

def phi_apx(pE: PseudoExpectation, p: StepPolynomial,
            inst: UgInstance) -> float:
    """pE of sum_s (E_{u~pi} Z_{u,s} p(val_u(X)))^2 over an independent pair
    of copies of the single-copy table pE."""
    return _ShiftStats(pE, p, inst).phi


# ---------------------------------------------------------------------------
# Psi
# ---------------------------------------------------------------------------

def psi(pE: PseudoExpectation, inst: UgInstance) -> float:
    """E_{u,v~pi} sum_s pPr[X_v - X_u = s]^2 * pE[val_v | X_v - X_u = s],
    with the convention that a conditional on pseudo-probability <= COND_FLOOR
    contributes 0.  As q^2 pE[val ev]/q = q pE[val ev], it sums
    pi_v pi_u q r over q > COND_FLOOR, with q[v, u, s] = pE[X_v - X_u = s]
    and r[v, u, s] = pE[val_v(X) (X_v - X_u = s)]."""
    if pE.degree < 4:
        raise ParameterError("psi needs degree >= 4")
    check_shift_symmetric(pE)
    t = np.arange(inst.k)
    st = (t[:, None] + t) % inst.k                 # st[s, t] = s + t
    q = pair_moments(pE)[:, :, st, t].sum(axis=-1)
    # r[v, u, s] = sum_t pE[(X_{v,s+t} val_v) X_{u,t}]
    one, (ids, coefs) = _local_terms(pE, inst)
    r = _pe(pE, _times(pE, (ids[:, None, st], coefs[:, None, st]),
                       [y[None, :, None] for y in one])).sum(axis=-1)
    pi = inst.stationary
    return float(np.einsum("v,u,vus,vus->", pi, pi,
                           np.where(q > COND_FLOOR, q, 0.0), r))


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
    st = _ShiftStats(pE, p, inst)
    # val_u = sum_a pE[X_{u,a} val_u], 0 at an isolated vertex
    locals_ = _pe(pE, _local_terms(pE, inst)[1]).sum(axis=1)
    return PotentialReport(st.phi, psi(pE, inst), p.alpha, p.eps, p.degree,
                           tuple(locals_.tolist()), tuple(st.masses.tolist()))


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


def claim_vertex_coverage(pE, p, inst) -> ClaimCheck:
    """sum_s E_pi[f_s] >= 1 - viol/(1-beta-nu) - nu."""
    st = _ShiftStats(pE, p, inst)
    return ClaimCheck("vertex-coverage", st.coverage, 1.0 - st.ratio,
                      CLAIM_SLACK)


def claim_partition_expansion(pE, p, inst, spectral) -> ClaimCheck:
    """sum_s <f_s, L f_s>_sigma <= viol(X) + viol(X')
    + 2 viol(X)/(1-beta-nu) + 2 nu."""
    st = _ShiftStats(pE, p, inst, spectral)
    rhs = 2.0 * st.viol + 2.0 * st.ratio
    return ClaimCheck("partition-expansion", st.dirichlet, rhs, CLAIM_SLACK)


def claim_b1(pE, p, inst) -> ClaimCheck:
    """sum_s E_pi[f_s - f_s^2] <= viol/(1-beta-nu) + nu."""
    st = _ShiftStats(pE, p, inst)
    return ClaimCheck("b1", st.b1, st.ratio, CLAIM_SLACK)


def claim_b2(pE, p, inst, spectral, lam: float, eta: float) -> ClaimCheck:
    """sum_s <f_s - f_s^3, P f_s>_sigma <= 1/(2 eta)
    + eta (viol/(1-beta-nu) + nu), with P the projector onto walk
    eigenvalues >= 1 - lam."""
    st = _ShiftStats(pE, p, inst, spectral, lam)
    rhs = 1.0 / (2.0 * eta) + eta * st.ratio
    return ClaimCheck("b2", st.b2, rhs, CLAIM_SLACK)


def sp_pseudo_check(pE, p, inst, lam: float, C: float, eta: float):
    """Numeric conclusion of the expander lower bound on Phi:
    Phi >= gamma (1 - viol/(1-beta-nu) - nu) + K, with
    gamma = lam^4/(16 C) and the unpinned constant c' taken as 1 (flagged).
    Returns (check, K) so callers can inspect the raw sides."""
    st = _ShiftStats(pE, p, inst)
    gamma = lam**4 / (16.0 * C)
    alpha = lam / 2.0
    K = (alpha - (4.0 + alpha + eta) * st.ratio - 1.0 / (2.0 * eta)
         - 2.0 * st.viol)  # c' = 1 convention; viol(X') = viol(X)
    rhs = gamma * (1.0 - st.ratio) + K
    return ClaimCheck("sp-pseudo", st.phi, rhs, SP_PSEUDO_SLACK), K
