"""Condition & Round, its derandomized greedy variant, the CR-val / ind-val
subgraph statistics, and the partial-to-full assignment driver.

Condition & Round: sample a vertex u from the stationary measure, condition
the pseudodistribution on X_u = 0, then round every vertex independently from
its conditioned marginal.  `cond_marginals` conditions on every vertex at
once, from one `sos.pair_moments` read; `_score` gives the expected value of
independent rounding from any stack of label tables, which serves every
closed form and the derandomized variant's choice of conditioning vertex.

The partial-to-full driver repeatedly asks a caller-supplied subroutine for a
high-CR-value subgraph, rounds its still-unassigned vertices greedily, then
rerandomizes the pseudodistribution on those vertices so later iterations see
them as independent uniform noise.  Its input must be shift-symmetric (it
checks); rerandomizing keeps it so, as every moment it writes is an input
moment with those vertices' pairs removed, scaled by k^-t.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ugsos.errors import ConstructionError, NullEventError, ParameterError
from ugsos.instances import UgInstance, value
from ugsos.sos import (COND_FLOOR, PseudoExpectation, check_shift_symmetric,
                       edge_agreement, pair_moments, rerandomize)


# ---------------------------------------------------------------------------
# Outcome types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IterationRecord:
    subgraph: tuple
    cr_val: float | None
    newly_assigned: tuple
    subgraph_value: float
    val_before: float
    val_after: float
    subcube: object = None

    @property
    def drop(self) -> float:
        return self.val_before - self.val_after


@dataclass(frozen=True)
class RoundingOutcome:
    """assignment uses -1 for never-assigned vertices (callers complete with
    label 0 where relevant).  `stop_reason` says why `partial_to_full`
    ended: "value-threshold", "subroutine-none", "stalled" or
    "iteration-cap" (None for a single rounding).  `unconverged` is True
    when the rounded table came from a solve that hit its iteration cap."""

    assignment: np.ndarray
    achieved_value: float
    expected_value: float | None
    trace: tuple = ()
    seed: object = None
    stop_reason: str | None = None
    unconverged: bool = False

    def __post_init__(self):
        if not (-1e-12 <= self.achieved_value <= 1.0 + 1e-12):
            raise ParameterError(
                f"achieved value {self.achieved_value} outside [0,1]")

    def to_json(self) -> str:
        return json.dumps({
            "assignment": [int(a) for a in self.assignment],
            "achieved_value": self.achieved_value,
            "expected_value": self.expected_value,
            "seed": self.seed,
            "stop_reason": self.stop_reason,
            "unconverged": self.unconverged,
            "trace": [
                {"subgraph": list(r.subgraph),
                 "cr_val": r.cr_val,
                 "newly_assigned": list(r.newly_assigned),
                 "subgraph_value": r.subgraph_value,
                 "val_before": r.val_before,
                 "val_after": r.val_after,
                 "drop": r.drop,
                 "subcube": (list(r.subcube) if r.subcube is not None
                             else None)}
                for r in self.trace],
        })


# ---------------------------------------------------------------------------
# The conditioned table and the closed forms
# ---------------------------------------------------------------------------

def cond_marginals(pE: PseudoExpectation) -> tuple[np.ndarray, np.ndarray]:
    """(Q, mass) for every conditioning vertex at once, from one
    `pair_moments` read: Q[u, v, a] = Pr[X_v = a | X_u = 0] =
    pE[X_{u,0} X_{v,a}] / pE[X_{u,0}] and mass[u] = pE[X_{u,0}]; row
    Q[u, u] is the delta at 0.  Only label 0 is conditioned on, which stands
    for every label on a shift-symmetric table alone (on the point mass at
    x = (1, 2, 0), vertices 0 and 1 have mass 0).

    Tiny negative entries from an approximately-PSD table are clipped and the
    rows renormalized (`_clip_renormalize`).  Q[u] of a vertex whose mass is
    at or below COND_FLOOR means nothing; callers skip such vertices or
    reject them (`_conditioned`)."""
    joint = pair_moments(pE)[:, :, 0, :]
    mass = joint[:, :, 0].diagonal()
    safe = np.where(mass > COND_FLOOR, mass, 1.0)
    return _clip_renormalize(joint / safe[:, None, None]), mass


def _conditioned(cond, us) -> np.ndarray:
    """Q[us] of the conditioned table cond = (Q, mass); NullEventError names
    the first vertex of `us` that cannot be conditioned on."""
    Q, mass = cond
    for u in us:
        if mass[u] <= COND_FLOOR:
            raise NullEventError(
                f"pE[X_{u},0] = {mass[u]:.3e} below floor {COND_FLOOR}")
    return Q[us]


def _clip_renormalize(q: np.ndarray) -> np.ndarray:
    """The rows of q (along its last axis) clipped at 0 and scaled to sum to
    1; a row with no positive mass becomes uniform."""
    q = np.clip(q, 0.0, None)
    rows = q.sum(axis=-1, keepdims=True)
    good = rows > 0.0
    return np.where(good, q / np.where(good, rows, 1.0), 1.0 / q.shape[-1])


def _vertex_list(inst: UgInstance, H) -> list:
    """The distinct vertices of H, sorted; ParameterError if one lies
    outside [0, n)."""
    H = sorted(set(int(v) for v in H))
    if H and (H[0] < 0 or H[-1] >= inst.num_vertices):
        raise ParameterError(
            f"vertex set {H} leaves [0, {inst.num_vertices})")
    return H


def _edge_arrays(inst: UgInstance, H=None):
    """(eu, ev, w, s) restricted to H-internal edges, weights normalized."""
    eu, ev, w, s = inst._arrays
    if H is not None:
        inside = np.zeros(inst.num_vertices, dtype=bool)
        inside[H] = True
        keep = inside[eu] & inside[ev]
        if not keep.any():
            raise ParameterError("subgraph has no internal edges")
        eu, ev, w, s = eu[keep], ev[keep], w[keep], s[keep]
    return eu, ev, w / w.sum(), s


def _score(D: np.ndarray, edges) -> np.ndarray:
    """sum_e w_e sum_a D[u, a] D[v, (a - s) % k] over the edges (u, v, w, s),
    for each (n, k) label table in the stack D: the expected value of
    rounding every vertex independently from its row."""
    eu, ev, w, s = edges
    k = D.shape[-1]
    a = np.arange(k)
    probs = np.einsum("...ea,...ea->...e", D[..., eu, :],
                      D[..., ev[:, None], (a - s[:, None]) % k])
    return probs @ w


def ind_val(pE: PseudoExpectation, inst: UgInstance) -> float:
    """Independent-rounding value from the unconditioned marginals, clipped
    and renormalized like the conditioned ones."""
    marg = np.einsum("vvaa->va", pair_moments(pE))
    return float(_score(_clip_renormalize(marg), _edge_arrays(inst)))


def closed_form_cr(pE: PseudoExpectation, inst: UgInstance) -> float:
    """E_{u~pi} of the independent-rounding value conditioned on X_u = 0,
    label 0 only: exact on a shift-symmetric table alone."""
    return _closed_form(cond_marginals(pE), inst)


def _closed_form(cond, inst: UgInstance) -> float:
    """`closed_form_cr` from the conditioned table cond = (Q, mass)."""
    pi = inst.stationary
    us = np.flatnonzero(pi > 0)
    return float(pi[us] @ _score(_conditioned(cond, us), _edge_arrays(inst)))


def cr_val(pE: PseudoExpectation, inst: UgInstance, H=None) -> float:
    """E_{u uniform in V(H)} of the independent-rounding value of H's
    internal edges conditioned on X_u = 0 (Condition & Round restricted to
    H): label 0 only, so exact on a shift-symmetric table alone."""
    H = _vertex_list(inst, range(inst.num_vertices) if H is None else H)
    if not H:
        raise ParameterError("subgraph H is empty")
    edges = _edge_arrays(inst, H)
    return float(np.mean(_score(_conditioned(cond_marginals(pE), H), edges)))


# ---------------------------------------------------------------------------
# Randomized rounding
# ---------------------------------------------------------------------------

def condition_and_round(pE: PseudoExpectation, inst: UgInstance,
                        seed=None) -> RoundingOutcome:
    """Algorithm: sample u ~ pi, condition on X_u = 0, round all vertices
    independently (label 0 only: exact on a shift-symmetric table alone).
    Reports the sampled value and the closed-form E_u E_Y[val(Y)]."""
    if pE.degree < 2:
        raise ParameterError("condition_and_round needs degree >= 2")
    rng = np.random.default_rng(seed)
    pi = inst.stationary
    n = inst.num_vertices
    Q, mass = cond_marginals(pE)
    for _ in range(4 * n):
        u = int(rng.choice(n, p=pi))
        if mass[u] > COND_FLOOR:  # shift-symmetric tables have mass 1/k
            break
    else:  # every draw was a null vertex: this flags a bad pE
        raise NullEventError("no vertex with conditionable label mass")
    cum = Q[u].cumsum(axis=1)
    y = (rng.random(n)[:, None] > cum).sum(axis=1)
    return RoundingOutcome(
        assignment=y.astype(np.int64),
        achieved_value=value(inst, y),
        expected_value=_closed_form((Q, mass), inst),
        seed=seed)


def monte_carlo_cr(pE: PseudoExpectation, inst: UgInstance, n_samples: int,
                   seed=None) -> np.ndarray:
    """Vectorized Condition & Round over many seeds; returns the sampled
    values."""
    if n_samples < 1:
        raise ParameterError(f"monte_carlo_cr needs n_samples >= 1, got "
                             f"{n_samples}")
    rng = np.random.default_rng(seed)
    pi = inst.stationary
    n = inst.num_vertices
    eu, ev, w, s = _edge_arrays(inst)
    cond = cond_marginals(pE)
    us = rng.choice(n, size=n_samples, p=pi)
    drawn = np.unique(us)
    out = np.empty(n_samples)
    for u, q in zip(drawn, _conditioned(cond, drawn)):
        sel = us == u
        b = int(sel.sum())
        cum = q.cumsum(axis=1)
        y = (rng.random((b, n))[:, :, None] > cum[None, :, :]).sum(axis=2)
        sat = (y[:, eu] - y[:, ev]) % inst.k == s[None, :]
        out[sel] = sat @ w
    return out


# ---------------------------------------------------------------------------
# Derandomized rounding
# ---------------------------------------------------------------------------

def _greedy_round(D: np.ndarray, inst: UgInstance, H, edges) -> np.ndarray:
    """Method of conditional expectations under independent rounding from
    the rows of the (n, k) label table D; vertices are fixed in descending
    order of their max entry, and a fixed vertex's row becomes one-hot at
    its label.  Returns labels for H (full-length array, -1 outside)."""
    eu, ev, w, s = edges
    k = inst.k
    a = np.arange(k)
    D = D.copy()
    x = np.full(inst.num_vertices, -1, dtype=np.int64)
    for v in sorted(H, key=lambda v: (-D[v].max(), v)):
        # v's edges in edge order, each read as (x_v - x_nb) % k == sh
        e = (eu == v) | (ev == v)
        nb = eu[e] + ev[e] - v
        sh = np.where(eu[e] == v, s[e], -s[e])
        scores = (w[e][:, None] * D[nb[:, None], (a - sh[:, None]) % k]).sum(
            axis=0)
        x[v] = int(np.argmax(scores))  # argmax takes the smallest label on ties
        D[v] = a == x[v]
    return x


def derandomized_round(pE: PseudoExpectation, inst: UgInstance,
                       H=None) -> RoundingOutcome:
    """Deterministic Condition & Round: pick the conditioning vertex u
    maximizing the closed-form expectation, then fix labels greedily by
    conditional expectations.  The achieved value on H's internal edges is
    never below the best closed-form expectation (up to 1e-9).  It
    conditions on label 0 only: exact on a shift-symmetric table alone."""
    if pE.degree < 2:
        raise ParameterError("derandomized_round needs degree >= 2")
    H = _vertex_list(inst, range(inst.num_vertices) if H is None else H)
    if not H:
        raise ParameterError("subgraph H is empty")
    try:
        edges = _edge_arrays(inst, H)
    except ParameterError:
        # no internal edges: fall back to per-vertex marginal argmax
        x = np.full(inst.num_vertices, -1, dtype=np.int64)
        x[H] = np.einsum("vvaa->va", pair_moments(pE))[H].argmax(axis=1)
        return RoundingOutcome(x, 0.0, 0.0)
    Q, mass = cond_marginals(pE)
    us = [u for u in H if mass[u] > COND_FLOOR]
    if not us:
        raise NullEventError("no vertex with conditionable label mass")
    best_u, best_exp = None, -1.0
    for u, e in zip(us, _score(Q[us], edges)):
        if e > best_exp + 1e-15:
            best_u, best_exp = u, float(e)
    x = _greedy_round(Q[best_u], inst, H, edges)
    eu, ev, w, s = edges
    achieved = float(w @ ((x[eu] - x[ev]) % inst.k == s))
    if achieved < best_exp - 1e-9:
        raise ConstructionError(
            f"derandomized value {achieved} is below the conditional "
            f"expectation {best_exp}")
    return RoundingOutcome(x, achieved, best_exp)


# ---------------------------------------------------------------------------
# Partial to full
# ---------------------------------------------------------------------------

def partial_to_full(inst: UgInstance, pE0: PseudoExpectation, subroutine,
                    eps: float) -> RoundingOutcome:
    """Iteratively round subroutine-chosen subgraphs and rerandomize.

    `subroutine(mu)` returns (vertex iterable, info dict) or None; `info` may
    carry "cr_val" and "subcube" for the trace.  The loop stops when the
    running pseudodistribution's value falls below 1 - 2*eps, the subroutine
    gives up, it returns only already-assigned vertices twice in a row, or
    after n + 2 iterations; `stop_reason` names which.  The value test
    follows a rounding step, so `pE0` always gets at least one: its value is
    an SDP solve's, known only to within the solver's tolerance, and the
    rounding's hypothesis is the instance's, not that number.  Unassigned
    vertices are completed with label 0 (shift-symmetry makes any constant
    equivalent in expectation).  The outcome's `unconverged` repeats
    `pE0`'s solver flag.  `pE0` must be shift-symmetric (ParameterError
    otherwise); `rerandomize` keeps it so (module docstring)."""
    check_shift_symmetric(pE0)
    n = inst.num_vertices
    w = inst._arrays[2] / inst.total_weight
    mu = pE0
    assigned = np.full(n, -1, dtype=np.int64)
    trace = []
    stall = 0
    stop = "iteration-cap"
    val_mu = float(w @ edge_agreement(mu, inst))
    for _ in range(n + 2):
        sub = subroutine(mu)
        if sub is None:
            stop = "subroutine-none"
            break
        H, info = sub
        H = _vertex_list(inst, H)
        S = [v for v in H if assigned[v] < 0]
        if not S:
            stall += 1
            if stall >= 2:
                stop = "stalled"
                break
            continue
        stall = 0
        out = derandomized_round(mu, inst, S)
        for v in S:
            assigned[v] = out.assignment[v]
        mu_next = rerandomize(mu, S)
        val_after = float(w @ edge_agreement(mu_next, inst))
        trace.append(IterationRecord(
            subgraph=tuple(H),
            cr_val=info.get("cr_val"),
            newly_assigned=tuple(S),
            subgraph_value=out.achieved_value,
            val_before=val_mu,
            val_after=val_after,
            subcube=info.get("subcube")))
        mu, val_mu = mu_next, val_after
        if val_mu < 1.0 - 2.0 * eps:
            stop = "value-threshold"
            break
    completed = np.where(assigned < 0, 0, assigned)
    return RoundingOutcome(
        assignment=completed,
        achieved_value=value(inst, completed),
        expected_value=None,
        trace=tuple(trace),
        stop_reason=stop,
        unconverged=bool(pE0.flags.get("unconverged", False)))
