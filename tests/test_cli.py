import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from ugsos import graphs
from ugsos.cli import main
from ugsos.errors import ConstructionError
from ugsos.instances import plant_instance
from ugsos.sos import ValidationReport, point_mass_pe
from ugsos.steppoly import BoundReport


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_gen_hypercube(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, _, err = run(capsys, "gen", "--family", "hypercube", "--d", "2",
                       "--alpha", "0.3", "--k", "2", "--eps", "0.0",
                       "--seed", "1", "--out", str(out))
    assert code == 0
    assert "planted value: 1.000000" in err
    d = json.loads(out.read_text())
    assert d["k"] == 2 and d["n"] == 4


def test_gen_then_solve_file_round_trip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run(capsys, "gen", "--family", "hypercube", "--d", "2", "--alpha", "0.3",
        "--k", "2", "--eps", "0.0", "--seed", "1", "--out", str(inst_path))
    code, out, _ = run(capsys, "solve-round", "--family", "file", "--path",
                       str(inst_path), "--degree", "2", "--seed", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["sdp_value"] >= 1.0 - 1e-5
    assert rep["psi"] is None  # degree 2 has no degree-4 moments
    assert rep["derandomized_value"] == pytest.approx(1.0)


def test_solve_round_reports_a_certified_upper_bound(capsys):
    # every rounded assignment's value is at most OPT, and OPT at most the
    # bound; the bound is within the solve's tolerance of the SDP value
    code, out, _ = run(capsys, "solve-round", "--family", "hypercube",
                       "--d", "2", "--alpha", "0.3", "--k", "3",
                       "--eps", "0.2", "--degree", "4", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    bound = rep["sdp_upper_bound"]
    assert max(rep["rounded_value"], rep["derandomized_value"]) <= bound
    assert abs(bound - rep["sdp_value"]) <= 1e-5


def test_solve_round_degree4_reports_potentials(capsys):
    code, out, _ = run(capsys, "solve-round", "--family", "hypercube",
                       "--d", "2", "--alpha", "0.3", "--k", "2",
                       "--eps", "0.0", "--degree", "4", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["psi"] is not None and rep["psi"] >= 0.0
    assert rep["phi"] >= 0.0
    assert "wall_clock_s" in rep


def test_solve_round_deterministic_body(capsys):
    argv = ["solve-round", "--family", "hypercube", "--d", "2", "--alpha",
            "0.3", "--k", "2", "--eps", "0.0", "--degree", "2", "--seed", "5"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("wall_clock_s")
    d2.pop("wall_clock_s")
    assert d1 == d2


def test_solve_round_reports_solver_tol_and_iterations(capsys):
    code, out, _ = run(capsys, "solve-round", "--family", "hypercube",
                       "--d", "2", "--alpha", "0.3", "--k", "2",
                       "--eps", "0.0", "--degree", "2", "--seed", "5",
                       "--tol", "1e-5")
    assert code == 0
    rep = json.loads(out)
    assert rep["solver_tol"] == 1e-5
    assert isinstance(rep["sdp_iterations"], int)
    assert rep["sdp_iterations"] >= 1


def test_verify_quick_subset(capsys):
    code, out, _ = run(capsys, "verify", "--only", "spectra")
    assert code == 0
    assert out.startswith("PASS spectra")


def test_verify_pe_file(tmp_path, capsys):
    from ugsos.sos import point_mass_pe, symmetrize
    pe_path = tmp_path / "pe.json"
    pe_path.write_text(symmetrize(point_mass_pe(3, 3, [0, 1, 2])).to_json())
    code, out, _ = run(capsys, "verify", "--only", "spectra", "--pe",
                       str(pe_path))
    assert code == 0
    assert "PASS pe-file" in out
    # a shift-symmetric table is checked by charge blocks, and the Weyl
    # term for their off-charge part is printed beside min_eig
    bound = float(out.split("off_charge=")[1].split()[0])
    assert 0.0 < bound < 1e-12


def test_verify_pe_file_of_product_copy(tmp_path, capsys):
    # the file holds the full 2-copy table, not the view's empty own table
    from reference import all_canonical_keys
    from ugsos.sos import PseudoExpectation, point_mass_pe, product_copy
    pE2 = product_copy(point_mass_pe(3, 3, [0, 1, 2]))
    text = pE2.to_json()
    back = PseudoExpectation.from_json(text)
    keys = list(all_canonical_keys(3, 3, 4, copies=2))
    assert back.copy_count == 2 and list(back.moments) == keys
    assert all(back.moment(key) == val == pE2.moment(key)
               for key, val in pE2.moments.items())
    pe_path = tmp_path / "pe2.json"
    pe_path.write_text(text)
    code, out, _ = run(capsys, "verify", "--only", "spectra", "--pe",
                       str(pe_path))
    assert code == 0
    assert "PASS pe-file" in out


def test_exit_code_parameter_error(capsys):
    # alpha*l not an integer for the johnson family
    code, _, err = run(capsys, "gen", "--family", "johnson", "--n", "6",
                       "--l", "2", "--alpha", "0.3")
    assert code == 3
    assert "parameter error" in err


def test_exit_code_size_cap(capsys):
    code, _, err = run(capsys, "solve-round", "--family", "johnson",
                       "--n", "12", "--l", "4", "--alpha", "0.5",
                       "--degree", "4")
    assert code == 4
    assert "size cap" in err


@pytest.mark.parametrize("tol", ["0", "-1e-7", "nan", "inf"])
def test_solve_round_rejects_a_tolerance_it_cannot_meet(tmp_path, capsys,
                                                       tol):
    # a stopping test that can never pass would run the full iteration cap
    inst_path = tmp_path / "inst.json"
    run(capsys, "gen", "--family", "hypercube", "--d", "2", "--alpha", "0.3",
        "--k", "2", "--eps", "0.0", "--seed", "1", "--out", str(inst_path))
    code, out, err = run(capsys, "solve-round", "--family", "file", "--path",
                         str(inst_path), "--degree", "2", f"--tol={tol}")
    assert code == 3 and out == ""
    assert "parameter error: tol must be finite and positive" in err


def test_verify_unknown_only_is_parameter_error(capsys):
    code, _, err = run(capsys, "verify", "--only", "nonexistent")
    assert code == 3


def test_solve_round_johnson_body_is_deterministic_and_traced(capsys):
    argv = ["solve-round", "--family", "johnson", "--n", "5", "--l", "2",
            "--alpha", "0.5", "--k", "3", "--eps", "0.05", "--degree", "2",
            "--tol", "3e-3"]
    bodies = []
    for _ in range(2):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rep = json.loads(out)
        rep.pop("wall_clock_s")
        bodies.append(rep)
    assert bodies[0] == bodies[1]
    rep = bodies[0]
    assert rep["trace"]
    for record in rep["trace"]:
        assert {"subgraph", "newly_assigned", "val_before", "val_after",
                "drop", "cr_val"} <= record.keys()
    assert rep["rounded_value"] > 1.0 / 3.0


_FAMILY_GRAPHS = {
    "shortcode": (["--d", "1", "--n", "3"],
                  lambda: graphs.shortcode_graph(1, 3)),
    "cayley": (["--n", "3", "--l", "2", "--alpha", "0.5"],
               lambda: graphs.johnson_cayley_graph(3, 2, 0.5)),
}


@pytest.mark.parametrize("family", sorted(_FAMILY_GRAPHS))
def test_gen_and_solve_round_on_the_shortcode_and_cayley_families(
        family, tmp_path, capsys):
    flags, graph = _FAMILY_GRAPHS[family]
    common = ["--family", family, *flags, "--k", "2", "--eps", "0.1"]
    out = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", *common, "--out", str(out))
    assert code == 0
    inst, _ = plant_instance(graph(), 2, 0.1, seed=0)
    assert out.read_text() == inst.to_json()
    code, _, _ = run(capsys, "solve-round", *common, "--degree", "2")
    assert code == 0


def test_gen_cayley_without_eps_plants_at_eps_zero(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, _, err = run(capsys, "gen", "--family", "cayley", "--n", "3",
                       "--l", "2", "--alpha", "0.5", "--k", "2",
                       "--out", str(out))
    assert code == 0
    assert "planted value: 1.000000" in err
    inst, _ = plant_instance(graphs.johnson_cayley_graph(3, 2, 0.5), 2, 0.0,
                             seed=0)
    assert out.read_text() == inst.to_json()


def test_verify_quick_under_optimize():
    # no check in the suite may rely on `assert`, which -O strips
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ugsos.cli", "verify", "--tier", "quick"],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 6, proc.stdout


def test_subcommands_reject_flags_they_do_not_read(capsys):
    # a usage error is a parameter error (3), not a failed check (2)
    for argv in (["verify", "--degree", "4"], ["gen", "--tol", "1e-5"]):
        assert main(argv) == 3
        assert "unrecognized arguments" in capsys.readouterr().err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--tier" in capsys.readouterr().out


def _instance_file(case: str) -> str | None:
    """An instance file body with one defect (None: no file at all)."""
    doc = {"k": 3, "n": 3, "edges": [{"u": 0, "v": 1, "w": 1.0, "shift": 1},
                                     {"u": 1, "v": 2, "w": 1.0, "shift": 1}]}
    if case == "no-shift":
        del doc["edges"][1]["shift"]
    if case == "string-vertex":
        doc["edges"][0]["u"] = "0"
    if case in ("nan-weight", "inf-weight"):
        doc["edges"][1]["w"] = float(case[:3])  # written as NaN / Infinity
    if case == "truncated":
        return json.dumps(doc)[:-10]
    return None if case == "missing" else json.dumps(doc)


@pytest.mark.parametrize("case", ["no-shift", "truncated", "string-vertex",
                                  "missing", "nan-weight", "inf-weight"])
def test_solve_round_rejects_bad_instance_file(case, tmp_path, capsys):
    path = tmp_path / "inst.json"
    body = _instance_file(case)
    if body is not None:
        path.write_text(body)
    code, _, err = run(capsys, "solve-round", "--family", "file", "--path",
                       str(path), "--degree", "2")
    assert code == 3
    assert "parameter error" in err


def test_gen_file_loads_to_an_equal_instance(tmp_path, capsys):
    from ugsos.graphs import noisy_hypercube
    from ugsos.instances import UgInstance, plant_instance
    out = tmp_path / "inst.json"
    run(capsys, "gen", "--family", "hypercube", "--d", "3", "--alpha", "0.3",
        "--k", "3", "--eps", "0.05", "--seed", "0", "--out", str(out))
    inst, _ = plant_instance(noisy_hypercube(3, 0.3), 3, 0.05, seed=0)
    assert UgInstance.from_json(out.read_text()) == inst


def test_verify_pe_file_rejects_truncated_and_incomplete(tmp_path, capsys):
    from ugsos.sos import build_relaxation, solve_sdp
    from conftest import make_triangle
    text = solve_sdp(build_relaxation(make_triangle(3), 2)).to_json()
    doc = json.loads(text)
    doc["moments"].pop(3)
    for name, body in (("truncated", text[:-40]),
                       ("incomplete", json.dumps(doc))):
        path = tmp_path / f"{name}.json"
        path.write_text(body)
        code, _, err = run(capsys, "verify", "--only", "spectra", "--pe",
                           str(path))
        assert code == 3, name
        assert "parameter error" in err


@pytest.mark.parametrize("command", ["gen", "solve-round"])
def test_family_file_needs_a_path(capsys, command):
    code, out, err = run(capsys, command, "--family", "file")
    assert code == 3 and out == ""
    assert "parameter error: --family file needs --path" in err


@pytest.mark.parametrize("command", ["gen", "solve-round"])
def test_an_unwritable_out_file_is_a_parameter_error(tmp_path, capsys,
                                                     command):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, command, "--family", "hypercube", "--d", "2",
                         "--alpha", "0.3", "--k", "2", "--out", str(target))
    assert code == 3 and out == ""
    assert f"parameter error: cannot write {target}" in err


@pytest.mark.parametrize("flag", ["--nu=0", "--nu=-0.2", "--nu=nan",
                                  "--beta=1.5", "--beta=nan"])
def test_solve_round_checks_the_step_window_before_solving(capsys,
                                                           monkeypatch, flag):
    from ugsos import sos

    def unreachable(*args, **kwargs):
        raise AssertionError("solved before the step window was checked")

    monkeypatch.setattr(sos, "solve_sdp", unreachable)
    code, out, err = run(capsys, "solve-round", "--family", "hypercube",
                         "--d", "2", "--k", "2", flag)
    assert code == 3 and out == ""
    assert "parameter error: need alpha and delta in (0, 1)" in err


def test_solve_round_checks_the_johnson_degree_before_solving(capsys,
                                                            monkeypatch):
    from ugsos import sos

    def unreachable(*args, **kwargs):
        raise AssertionError("solved before the degree was checked")

    monkeypatch.setattr(sos, "solve_sdp", unreachable)
    code, out, err = run(capsys, "solve-round", "--family", "johnson",
                         "--n", "5", "--l", "2", "--k", "3", "--degree", "6")
    assert code == 3 and out == ""
    assert "parameter error: johnson_pipeline supports D in {2, 4}" in err


def test_solve_round_checks_the_out_file_before_solving(tmp_path, capsys,
                                                        monkeypatch):
    from ugsos import sos

    def unreachable(*args, **kwargs):
        raise AssertionError("solved before --out was opened")

    monkeypatch.setattr(sos, "solve_sdp", unreachable)
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "solve-round", "--family", "hypercube",
                         "--d", "2", "--k", "2", "--out", str(target))
    assert code == 3 and out == ""
    assert f"parameter error: cannot write {target}" in err


def test_verify_pe_file_with_a_nan_moment_is_a_parameter_error(tmp_path,
                                                                capsys):
    # a NaN would reach validate's eigensolver, which does not converge
    doc = json.loads(point_mass_pe(3, 3, [0, 1, 2]).to_json())
    doc["moments"][5][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--only", "spectra", "--pe",
                       str(path))
    assert code == 3
    assert "parameter error: bad moment entry" in err


def test_verify_fails_a_pe_file_that_breaks_the_axioms(tmp_path, capsys):
    from ugsos.sos import PseudoExpectation
    pm = point_mass_pe(3, 3, [0, 1, 2])
    doubled = PseudoExpectation(pm.degree, pm.k, pm.num_vertices,
                                2.0 * pm._array())
    path = tmp_path / "doubled.json"
    path.write_text(doubled.to_json())
    code, out, _ = run(capsys, "verify", "--only", "spectra", "--pe",
                       str(path))
    assert code == 2
    assert out.startswith("PASS spectra")
    assert "FAIL pe-file" in out


def _failing_report(p):
    return BoundReport(False, 1.0, "forced")


def _raise_construction_error(*args):
    raise ConstructionError("forced")


# (check, patched target, replacement, detail the check prints)
_FAILING_CHECKS = [
    ("step-poly", "ugsos.steppoly.check_markov_bounds", _failing_report,
     "(0.5,0.1,0.2): forced"),
    ("step-poly", "ugsos.steppoly.build_step_poly", _raise_construction_error,
     "ConstructionError: forced"),
    ("sdp", "ugsos.sos.validate",
     lambda pE, tol: ValidationReport(-1.0, 0.0, 0.0, tol, 0.0),
     "validate failed: ValidationReport(min_eigenvalue=-1.0"),
    ("sdp", "ugsos.instances.brute_force_opt", lambda inst: (None, 2.0),
     "SDP below brute force"),
    ("symmetry", "ugsos.sos.symmetrize",
     lambda pE: point_mass_pe(3, 3, [0, 0, 0]), "edge agreement moved"),
    ("symmetry", "ugsos.sos.pair_moments", lambda pE: np.zeros((3, 3, 3, 3)),
     "marginal not uniform"),
    ("structure", "ugsos.johnson.structure_inequality_check",
     lambda *args: types.SimpleNamespace(holds=False, residual=1.0),
     "violation 1.00e+00 at n=5"),
]


@pytest.mark.parametrize("check, target, replacement, detail",
                         _FAILING_CHECKS,
                         ids=[f"{c[0]}-{c[3].split(':')[0]}"
                              for c in _FAILING_CHECKS])
def test_verify_reports_a_failed_check_with_exit_2(capsys, monkeypatch, check,
                                                  target, replacement,
                                                  detail):
    monkeypatch.setattr(target, replacement)
    code, out, _ = run(capsys, "verify", "--only", check)
    assert code == 2
    assert out.startswith(f"FAIL {check} (") and detail in out
