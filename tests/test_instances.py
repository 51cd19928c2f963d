import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugsos import _kernels
from ugsos.errors import ConstructionError, ParameterError, SizeCapError
from ugsos.graphs import noisy_hypercube
from ugsos.instances import (UgInstance, brute_force_opt, local_value,
                             plant_instance, value)

from conftest import make_triangle


def test_edges_canonicalized():
    inst = UgInstance(3, 3, ((2, 0, 1.0, 1),))
    (u, v, _, s), = inst.edges
    assert (u, v) == (0, 2)
    assert s == 2  # reversed orientation negates the shift mod k


def test_rejects_self_loop_and_bad_weight():
    with pytest.raises(ParameterError):
        UgInstance(2, 2, ((0, 0, 1.0, 0),))
    with pytest.raises(ParameterError):
        UgInstance(2, 2, ((0, 1, -1.0, 0),))
    with pytest.raises(ParameterError):
        UgInstance(2, 2, ())


def test_value_and_local_value_triangle():
    inst = make_triangle(3, sat=True)
    x, opt = brute_force_opt(inst)
    assert opt == 1.0
    assert value(inst, x) == 1.0
    assert all(local_value(inst, x, u) == 1.0 for u in range(3))


def test_unsat_triangle_opt():
    inst = make_triangle(3, sat=False)
    _, opt = brute_force_opt(inst)
    assert opt == pytest.approx(2.0 / 3.0)


def test_global_shift_invariance():
    inst = make_triangle(3, sat=False)
    x = np.array([0, 1, 2])
    vals = [value(inst, (x + s) % 3) for s in range(3)]
    assert max(vals) - min(vals) == 0.0


def test_brute_force_cap():
    g = noisy_hypercube(3, 0.3)
    inst, _ = plant_instance(g, 3, 0.0, seed=0)
    with pytest.raises(SizeCapError):
        brute_force_opt(inst, cap=10)


def test_brute_force_checks_scan_result(monkeypatch):
    inst = make_triangle(3, sat=True)
    scan = _kernels.brute_force_scan

    def wrong_code(eu, ev, ew, eshift, n, k):
        code, wsat = scan(eu, ev, ew, eshift, n, k)
        return (code + 1) % k ** (n - 1), wsat

    monkeypatch.setattr(_kernels, "brute_force_scan", wrong_code)
    with pytest.raises(ConstructionError):
        brute_force_opt(inst)


def _scan_reference(eu, ev, ew, eshift, n, k):
    """First best code of a plain enumeration, and how many codes tie it."""
    best_code, best, ties = 0, -1.0, 0
    for code, labels in enumerate(itertools.product(range(k), repeat=n - 1)):
        x = (0,) + labels[::-1]  # vertex 1 is the lowest base-k digit
        wsat = sum(w for u, v, w, s in zip(eu, ev, ew, eshift)
                   if (x[u] - x[v]) % k == s)
        if wsat > best:
            best_code, best, ties = code, wsat, 1
        elif wsat == best:
            ties += 1
    return best_code, best, ties


def test_brute_force_scan_matches_enumeration():
    rng = np.random.default_rng(3)
    tied = 0
    # 3^9 = 19683 codes span two scan chunks; weights are dyadic, so every
    # summation order gives the same float and ties are exact
    for n, k, m in [(4, 2, 4), (5, 3, 6), (6, 4, 9), (10, 3, 14)]:
        eu = rng.integers(0, n, size=m)
        ev = (eu + rng.integers(1, n, size=m)) % n
        ew = rng.choice([0.25, 0.5, 1.0, 2.0], size=m)
        eshift = rng.integers(0, k, size=m)
        code, wsat = _kernels.brute_force_scan(eu, ev, ew, eshift, n, k)
        ref_code, ref, ties = _scan_reference(eu, ev, ew, eshift, n, k)
        assert (code, wsat) == (ref_code, ref)
        tied += ties > 1
    assert tied >= 2


def test_plant_zero_eps_is_satisfiable():
    g = noisy_hypercube(2, 0.1)
    inst, xstar = plant_instance(g, 3, 0.0, seed=5)
    assert value(inst, xstar) == 1.0


def test_plant_eps_near_target():
    g = noisy_hypercube(3, 0.3)
    vals = [value(*plant_instance(g, 3, 0.2, seed=s)) for s in range(30)]
    # corruption probability 0.2 per edge; mean planted value close to 0.8
    assert 0.7 < np.mean(vals) < 0.9


def test_json_round_trip():
    inst = make_triangle(3, sat=False)
    assert UgInstance.from_json(inst.to_json()) == inst


def test_stationary_is_degree_measure():
    inst = UgInstance(3, 2, ((0, 1, 2.0, 0), (1, 2, 1.0, 1)))
    assert np.allclose(inst.stationary, [2 / 6, 3 / 6, 1 / 6])


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.lists(st.integers(0, 3), min_size=4, max_size=4),
       st.integers(0, 10**6))
def test_value_matches_direct_count(k, shifts, seed):
    rng = np.random.default_rng(seed)
    edges = tuple((u, v, 1.0, s % k)
                  for (u, v), s in zip([(0, 1), (1, 2), (2, 3), (0, 3)], shifts))
    inst = UgInstance(4, k, edges)
    x = rng.integers(0, k, size=4)
    direct = np.mean([(x[u] - x[v]) % k == s for (u, v, _, s) in inst.edges])
    assert value(inst, x) == pytest.approx(direct)
