"""A pseudoexpectation's moment array fills one degree block at a time, on
first read: the solver's table, a rerandomized one and a product copy give
the same floats in any fill order, and a reader fills only the blocks it
reads."""
import numpy as np
import pytest

from ugsos import admm, sos
from ugsos.cli import main
from ugsos.graphs import johnson_graph, noisy_hypercube
from ugsos.instances import plant_instance
from ugsos.sos import (PseudoExpectation, build_relaxation, pair_moments,
                       product_copy, rerandomize, solve_sdp, symmetrize)

from test_moment_index import _same, ref_rerandomize

# perfbench's two solve-round instances, and a degree-6 k = 2 one:
# (graph, k, planted eps, D, tol)
SOLVES = {
    "cube3": (lambda: noisy_hypercube(3, 0.3), 3, 0.05, 4, 1e-7),
    "j52": (lambda: johnson_graph(5, 2, 0.5), 3, 0.05, 4, 3e-3),
    "cube3-k2-D6": (lambda: noisy_hypercube(3, 0.3), 2, 0.05, 6, 1e-5),
}


@pytest.fixture(scope="module", params=sorted(SOLVES))
def solved(request):
    """(a fresh lazy solver table's maker, the eagerly built full table)."""
    graph, k, eps, D, tol = SOLVES[request.param]
    inst, _ = plant_instance(graph(), k, eps, seed=0)
    problem = build_relaxation(inst, D)
    sol = admm.solve(problem.layout, problem.objective_vec, tol,
                     admm.ADMM_MAX_ITERS)
    eager = sos._full_moments_from_reduced(problem.layout.moments(sol.y),
                                           inst.num_vertices, k, D)
    fill = solve_sdp(problem, tol=tol)._fill

    def fresh():
        return PseudoExpectation(D, k, inst.num_vertices, None, _fill=fill)
    return fresh, eager


def _orders(D):
    """Fill orders: block by block, the top block first, pairs then all,
    and a middle block followed by a lower one."""
    return [list(range(D + 1)), [D], [2, None], [3, 1, None]]


def _fill_in_order(pE, order):
    for d in order:
        prefix = pE._array(d)
        top = pE.degree if d is None else d
        assert len(prefix) == pE.index.offset[top + 1]
    return pE._array()


def test_solver_tables_fill_to_the_eager_table_in_any_order(solved):
    fresh, eager = solved
    for order in _orders(fresh().degree):
        assert np.array_equal(_fill_in_order(fresh(), order), eager), order


def test_a_prefix_read_fills_no_higher_block(solved):
    fresh, eager = solved
    pE = fresh()
    for d in range(pE.degree + 1):
        prefix = pE._array(d)
        assert pE._filled == d
        assert np.array_equal(prefix, eager[:len(prefix)])


def test_rerandomized_tables_match_the_reference_in_any_order(solved):
    fresh, _ = solved
    rng = np.random.default_rng(11)
    base = fresh()
    n, D = base.num_vertices, base.degree
    for order in _orders(D):
        S = [v for v in range(n) if rng.random() < 0.4]
        got = rerandomize(base, S)
        _fill_in_order(got, order)
        _same(got, ref_rerandomize(base, S))
        # a rerandomized table of a rerandomized table
        again = rerandomize(rerandomize(fresh(), S), [0])
        _fill_in_order(again, order[::-1])
        _same(again, ref_rerandomize(rerandomize(base, S), [0]))


def test_product_copies_fill_to_the_same_table_in_any_order(unsat_pe):
    whole = product_copy(unsat_pe)._array()
    keys = product_copy(unsat_pe).index.keys
    reads = product_copy(unsat_pe)
    assert [reads.moment(key) for key in keys] == whole.tolist()
    assert reads._values is None
    for order in _orders(unsat_pe.degree):
        assert np.array_equal(
            _fill_in_order(product_copy(unsat_pe), order), whole), order
    # a scalar read above the filled blocks multiplies, and fills nothing
    pE2 = product_copy(unsat_pe)
    pE2._array(1)
    assert [pE2.moment(key) for key in keys] == whole.tolist()
    assert pE2._filled == 1


def test_pair_moments_of_a_fresh_solve_fill_only_blocks_up_to_2(
        cube3_inst, monkeypatch):
    degrees = []
    full = sos._full_moments_from_reduced

    def spy(yhat, n, k, D, d=None):
        degrees.append(d)
        return full(yhat, n, k, D, d)

    monkeypatch.setattr(sos, "_full_moments_from_reduced", spy)
    _, inst, _ = cube3_inst
    pE = solve_sdp(build_relaxation(inst, 4), tol=1e-4)
    assert degrees == []
    pair_moments(pE)
    assert degrees == [0, 1, 2] and pE._filled == 2
    symmetrize(pE)
    assert degrees == [0, 1, 2, 3, 4]


def _cube3_argv(tmp_path):
    inst, _ = plant_instance(noisy_hypercube(3, 0.3), 3, 0.05, seed=0)
    path = tmp_path / "cube3.json"
    path.write_text(inst.to_json())
    return ["solve-round", "--family", "file", "--path", str(path),
            "--seed", "1", "--k", "3", "--eps", "0.05", "--degree", "4",
            "--tol", "1e-7"]


JOHNSON52_ARGV = ["solve-round", "--family", "johnson", "--n", "5", "--l",
                  "2", "--alpha", "0.5", "--seed", "0", "--k", "3", "--eps",
                  "0.05", "--degree", "4", "--tol", "3e-3"]


@pytest.mark.parametrize("instance", ["cube3", "johnson52"])
def test_solve_round_fills_no_block_above_3(instance, tmp_path, capsys,
                                             monkeypatch):
    # Condition & Round and the pipeline read pair moments, Psi triples:
    # the degree-4 block of a D = 4 table is never read
    reads = []
    array = PseudoExpectation._array

    def spy(self, degree=None):
        reads.append((self.copy_count,
                      self.degree if degree is None else degree))
        return array(self, degree)

    monkeypatch.setattr(PseudoExpectation, "_array", spy)
    argv = _cube3_argv(tmp_path) if instance == "cube3" else JOHNSON52_ARGV
    assert main(argv) == 0
    capsys.readouterr()
    assert reads and max(d for _, d in reads) == 3
    assert {c for c, _ in reads} == {1}
