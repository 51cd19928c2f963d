"""Shared fixtures.

SDP solves dominate the suite's runtime, so every solved pseudoexpectation is
session-scoped and shared between the module tests and the acceptance gate.
"""
from __future__ import annotations

import numpy as np
import pytest

from ugsos.graphs import noisy_hypercube
from ugsos.instances import UgInstance, plant_instance
from ugsos.sos import build_relaxation, solve_sdp, symmetrize


def make_triangle(k: int = 3, sat: bool = True) -> UgInstance:
    """3-cycle with unit weights; shifts sum to 0 mod k iff `sat`."""
    shifts = [1, 1, k - 2] if sat else [1, 1, k - 1]
    edges = [(0, 1, 1.0, shifts[0]), (1, 2, 1.0, shifts[1]),
             (2, 0, 1.0, shifts[2])]
    return UgInstance(num_vertices=3, k=k, edges=edges)


@pytest.fixture(scope="session")
def triangle_sat():
    return make_triangle(3, sat=True)


@pytest.fixture(scope="session")
def triangle_unsat():
    return make_triangle(3, sat=False)


@pytest.fixture(scope="session")
def cube_inst():
    """Planted satisfiable instance on the 2-dimensional noisy hypercube."""
    g = noisy_hypercube(2, 0.3)
    inst, planted = plant_instance(g, 2, 0.0, seed=7)
    return g, inst, planted


@pytest.fixture(scope="session")
def cube_pe(cube_inst):
    _, inst, _ = cube_inst
    return symmetrize(solve_sdp(build_relaxation(inst, 4)))


@pytest.fixture(scope="session")
def cube3_inst():
    """The acceptance-gate hypercube: planted eps=0.05, d=3, k=3."""
    g = noisy_hypercube(3, 0.3)
    inst, planted = plant_instance(g, 3, 0.05, seed=0)
    return g, inst, planted


@pytest.fixture(scope="session")
def cube3_pe(cube3_inst):
    _, inst, _ = cube3_inst
    return symmetrize(solve_sdp(build_relaxation(inst, 4)))


@pytest.fixture(scope="session")
def cube3_raw(cube3_inst):
    """An unsymmetrized cube3 D=4 solve at a loose tolerance."""
    _, inst, _ = cube3_inst
    return solve_sdp(build_relaxation(inst, 4), tol=1e-4)


@pytest.fixture(scope="session")
def unsat_pe(triangle_unsat):
    return symmetrize(solve_sdp(build_relaxation(triangle_unsat, 4)))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260824)


# -- acceptance reporting ---------------------------------------------------

ACCEPTANCE_LINES: list[str] = []


def record_criterion(num: int, label: str, ok: bool) -> bool:
    """One pass/fail line per acceptance criterion, echoed in the terminal
    summary (pytest captures stdout during the tests themselves)."""
    ACCEPTANCE_LINES.append(
        f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
