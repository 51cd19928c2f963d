"""Reference implementations the tests hold the package against: the
dict-polynomial calculus over canonical keys, the exact-indicator shift
potential, the per-key shift-symmetry deviation and the pair-scan planted
instance.

Each is written key by key or vertex by vertex, the plainest way to compute
it, so that a vectorized table in `ugsos` that disagrees is the suspect."""
import itertools

import numpy as np

from ugsos.instances import UgInstance, local_value
from ugsos.sos import canon_key


def key_mul(k1, k2):
    """Product of two canonical keys (None = zero monomial)."""
    if k1 is None or k2 is None:
        return None
    return canon_key(k1 + k2)


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0.0) + c
    return out


def shift_key(key, s: int, k: int):
    """Apply a global label shift of s (mod k) to every pair of the key."""
    return tuple(sorted((v, (a + s) % k, c) for (v, a, c) in key))


def all_canonical_keys(n: int, k: int, max_degree: int, copies: int = 1):
    """All canonical keys of degree <= max_degree (single copy by default),
    in `MomentIndex` id order."""
    slots = [(v, c) for c in range(copies) for v in range(n)]
    for d in range(max_degree + 1):
        for chosen in itertools.combinations(slots, d):
            for labels in itertools.product(range(k), repeat=d):
                yield tuple(sorted((v, a, c) for (v, c), a in zip(chosen, labels)))


def z_var_poly(u: int, s: int, k: int) -> dict:
    """Z_{u,s} = sum_a X_{u,a} X'_{u,a+s}: shift-s indicator at u."""
    out: dict = {}
    for a in range(k):
        key = canon_key(((u, a, 0), (u, (a + s) % k, 1)))
        out[key] = out.get(key, 0.0) + 1.0
    return out


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


def ref_shift_deviation(pE):
    """`check_shift_symmetric`'s deviation, key by key."""
    worst = 0.0
    n, k = pE.num_vertices, pE.k
    keys = [((u, a, 0),) for u in range(n) for a in range(k)]
    keys += [canon_key(((u, a, 0), (v, b, 0)))
             for u in range(n) for v in range(u, n)
             for a in range(k) for b in range(k)]
    for key in keys:
        if key is None:
            continue
        worst = max(worst, abs(pE.moment(key)
                               - pE.moment(shift_key(key, 1, k))))
    return worst


def plant_instance_pairs(graph, k: int, eps: float, seed=None):
    """`plant_instance` by a scan of every vertex pair u < v, skipping the
    pairs of weight <= 0."""
    rng = np.random.default_rng(seed)
    n, W = graph.num_vertices, graph.W
    xstar = rng.integers(0, k, size=n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if W[u, v] <= 0:
                continue
            shift = int((xstar[u] - xstar[v]) % k)
            if eps > 0 and rng.random() < eps:
                shift = int((shift + rng.integers(1, k)) % k)
            edges.append((u, v, float(W[u, v]), shift))
    return UgInstance(n, k, tuple(edges)), xstar
