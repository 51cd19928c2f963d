"""Affine unique games instances: data model, exact value computation,
brute-force oracle, and planted-instance generation.

An affine unique games instance over Z_k places a constraint
``(x_u - x_v) mod k == shift`` on each weighted edge (u, v).  The value of an
assignment is the weighted fraction of satisfied constraints.  Because the
constraints are affine, the value is invariant under a global label shift,
which the brute-force oracle exploits by pinning ``x_0 = 0``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ugsos import _kernels
from ugsos.errors import ConstructionError, ParameterError, SizeCapError

BRUTE_FORCE_CAP = 10**7


@dataclass(frozen=True)
class UgInstance:
    """Weighted constraint graph plus per-edge shifts over Z_k.

    Edges are stored once with canonical orientation u < v; traversing an
    edge in reverse negates its shift mod k.  Weights are arbitrary finite
    positive reals, normalized at evaluation time.
    """

    num_vertices: int
    k: int
    edges: tuple[tuple[int, int, float, int], ...]

    def __post_init__(self):
        if self.num_vertices < 1:
            raise ParameterError("num_vertices must be positive")
        if self.k < 1:
            raise ParameterError("alphabet size k must be positive")
        canon = []
        for (u, v, w, s) in self.edges:
            if u == v:
                raise ParameterError(f"self-loop on vertex {u} not allowed")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ParameterError(f"edge ({u},{v}) out of range")
            if not 0 < w < float("inf"):
                raise ParameterError(
                    f"edge ({u},{v}) needs a finite positive weight, has {w}")
            if u > v:
                u, v, s = v, u, (-s) % self.k
            canon.append((u, v, float(w), s % self.k))
        if not canon:
            raise ParameterError("instance must have at least one edge")
        object.__setattr__(self, "edges", tuple(canon))

    @cached_property
    def _arrays(self):
        e = np.array([(u, v) for (u, v, _, _) in self.edges], dtype=np.int64)
        w = np.array([w for (_, _, w, _) in self.edges])
        s = np.array([s for (_, _, _, s) in self.edges], dtype=np.int64)
        return e[:, 0], e[:, 1], w, s

    @cached_property
    def total_weight(self) -> float:
        return float(sum(w for (_, _, w, _) in self.edges))

    @cached_property
    def stationary(self) -> np.ndarray:
        """Stationary measure: mass proportional to weighted degree.

        Isolated vertices get mass 0.
        """
        eu, ev, w, _ = self._arrays
        deg = np.zeros(self.num_vertices)
        np.add.at(deg, eu, w)
        np.add.at(deg, ev, w)
        return deg / deg.sum()

    @cached_property
    def incident(self) -> list[list[tuple[int, float, int]]]:
        """Per-vertex list of (neighbor, weight, shift) with the shift oriented
        so the constraint reads (x_u - x_neighbor) mod k == shift."""
        inc: list[list[tuple[int, float, int]]] = [[] for _ in range(self.num_vertices)]
        for (u, v, w, s) in self.edges:
            inc[u].append((v, w, s))
            inc[v].append((u, w, (-s) % self.k))
        return inc

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "k": self.k,
            "n": self.num_vertices,
            "edges": [
                {"u": u, "v": v, "w": float(f"{w:.17g}"), "shift": s}
                for (u, v, w, s) in self.edges
            ],
        })

    @classmethod
    def from_json(cls, text: str) -> "UgInstance":
        """Load an instance written by `to_json`.  Raises ParameterError on
        unparsable JSON, a missing field, a non-integer n, k, u, v or shift,
        or a non-numeric weight."""
        try:
            d = json.loads(text)
            n, k = d["n"], d["k"]
            edges = tuple((e["u"], e["v"], e["w"], e["shift"])
                          for e in d["edges"])
        except (ValueError, TypeError, KeyError) as exc:
            raise ParameterError(f"malformed instance file: {exc!r}")
        for x in (n, k, *(x for (u, v, _, s) in edges for x in (u, v, s))):
            if type(x) is not int:
                raise ParameterError(f"expected an integer, got {x!r}")
        for (u, v, w, _) in edges:
            if type(w) not in (int, float):
                raise ParameterError(f"edge ({u},{v}) has weight {w!r}")
        return cls(num_vertices=n, k=k, edges=edges)


def value(inst: UgInstance, x) -> float:
    """Weighted fraction of satisfied constraints, in [0, 1]."""
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (inst.num_vertices,):
        raise ParameterError(
            f"assignment has length {x.shape}, expected {inst.num_vertices}")
    if np.any((x < 0) | (x >= inst.k)):
        raise ParameterError("assignment entries must lie in [0, k)")
    eu, ev, w, s = inst._arrays
    sat = (x[eu] - x[ev]) % inst.k == s
    return float(w @ sat) / inst.total_weight


def local_value(inst: UgInstance, x, u: int) -> float:
    """Weighted fraction of edges incident on u satisfied by x, with the
    neighbor drawn proportionally to edge weight."""
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (inst.num_vertices,):
        raise ParameterError("assignment length mismatch")
    if not (0 <= u < inst.num_vertices):
        raise ParameterError(f"vertex {u} out of range")
    inc = inst.incident[u]
    if not inc:
        raise ParameterError(f"vertex {u} is isolated; local value undefined")
    wtot = sum(w for (_, w, _) in inc)
    wsat = sum(w for (v, w, s) in inc if (x[u] - x[v]) % inst.k == s)
    return wsat / wtot


def brute_force_opt(inst: UgInstance):
    """Exact optimum by exhaustive enumeration with x_0 = 0.

    Valid for affine instances because the value is invariant under global
    shifts.  The k^(n-1) assignments are scored block-factored (see
    `_kernels.brute_force_scan`): the edges inside each half of the vertices
    are weighed per half and the crossing edges are one GEMM per block,
    about k^(n-1) * j*k flops with j = floor((n-1)/2), in memory for the low
    half's tables (about j*k^(j+1) floats) plus one block.  Returns
    (assignment, value), the first optimum in code order.
    """
    n, k = inst.num_vertices, inst.k
    if k ** (n - 1) > BRUTE_FORCE_CAP:
        raise SizeCapError(f"k^(n-1) = {k}^{n - 1} exceeds the brute-force "
                           f"cap {BRUTE_FORCE_CAP}")
    eu, ev, w, s = inst._arrays
    code, wsat = _kernels.brute_force_scan(eu, ev, w, s, n, k)
    x = np.zeros(n, dtype=np.int64)
    c = code
    for v in range(1, n):
        x[v] = c % k
        c //= k
    best = wsat / inst.total_weight
    achieved = value(inst, x)
    if abs(achieved - best) >= 1e-12:
        raise ConstructionError(
            f"brute-force assignment has value {achieved}, scan reported "
            f"{best}")
    return x, best


def plant_instance(graph, k: int, eps: float, seed=None):
    """Instance with a planted random assignment of expected value >= 1 - eps.

    `graph` is a `ugsos.graphs.WeightedGraph` (or anything with num_vertices
    and a symmetric weight matrix `W`).  Each edge's shift is set to satisfy a
    uniformly random planted assignment x*, then independently corrupted to a
    uniformly random *non-satisfying* shift with probability eps.  Self-loops
    in the graph are dropped (an affine self-constraint is vacuous).

    Returns (instance, planted assignment).
    """
    if not (0.0 <= eps <= 1.0):
        raise ParameterError("eps must lie in [0, 1]")
    if k < 2:
        raise ParameterError("k must be at least 2")
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    W = graph.W
    xstar = rng.integers(0, k, size=n)
    edges = []
    for u, v in np.argwhere(np.triu(W, 1) > 0).tolist():
        shift = int((xstar[u] - xstar[v]) % k)
        if eps > 0 and rng.random() < eps:
            # corrupt to a uniform non-satisfying shift
            shift = int((shift + rng.integers(1, k)) % k)
        edges.append((u, v, float(W[u, v]), shift))
    if not edges:
        raise ParameterError("graph has no off-diagonal edges to plant on")
    return UgInstance(n, k, tuple(edges)), xstar
