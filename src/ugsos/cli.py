"""Command-line front end: instance generation, solve-and-round pipelines,
and the verification suite.

Exit codes: 0 ok, 2 invariant/check failure, 3 parameter error (a usage error,
a malformed or unreadable input or an unwritable output file), 4 size cap.
Reports are deterministic given (flags, seed) apart from wall-clock fields.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from ugsos.errors import ParameterError, SizeCapError, UgsosError

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_PARAMETER = 3
EXIT_SIZE_CAP = 4


class _Parser(argparse.ArgumentParser):
    """A usage error is a parameter error (exit 3), not argparse's exit 2,
    which would read as a failed check; subparsers inherit the class."""

    def error(self, message):
        raise ParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="ugsos")
    sub = ap.add_subparsers(dest="command", required=True)

    def instance_flags(p):
        p.add_argument("--family", default="johnson",
                       choices=["hypercube", "shortcode", "johnson", "cayley",
                                "file"])
        p.add_argument("--d", type=int, default=3)
        p.add_argument("--n", type=int, default=6)
        p.add_argument("--l", type=int, default=2)
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--eps", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--path", default=None,
                       help="instance JSON path for --family file")

    g = sub.add_parser("gen", help="generate a planted instance")
    instance_flags(g)
    s = sub.add_parser("solve-round", help="solve the SDP and round")
    instance_flags(s)
    s.add_argument("--degree", type=int, default=4)
    s.add_argument("--beta", type=float, default=0.9,
                   help="threshold alpha of the potentials' step polynomial")
    s.add_argument("--nu", type=float, default=0.05,
                   help="half-width delta of the step polynomial's window "
                        "(not the reported nu_effective, its achieved "
                        "deviation); below --degree 6 the polynomial is the "
                        "constant 1/2, so neither flag changes a computed "
                        "number")
    s.add_argument("--tol", type=float, default=1e-7)
    v = sub.add_parser("verify", help="run the invariant suite")
    v.add_argument("--tier", default="quick", choices=["quick", "full"])
    v.add_argument("--only", default=None,
                   help="run only checks whose name contains this substring")
    v.add_argument("--pe", default=None,
                   help="also validate a pseudoexpectation JSON file")
    return ap


def _make_graph(args):
    from ugsos import graphs
    fam = args.family
    if fam == "hypercube":
        return graphs.noisy_hypercube(args.d, args.alpha)
    if fam == "shortcode":
        return graphs.shortcode_graph(args.d, args.n)
    if fam == "johnson":
        return graphs.johnson_graph(args.n, args.l, args.alpha)
    if fam == "cayley":
        return graphs.johnson_cayley_graph(args.n, args.l, args.alpha)
    raise ParameterError(f"family {fam!r} has no generator")


def _read(path: str) -> str:
    """The text of an input file; an unreadable one is a parameter error."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {path}: {exc}")


def _load_instance(args):
    from ugsos.instances import UgInstance, plant_instance
    if args.family == "file":
        if not args.path:
            raise ParameterError("--family file needs --path")
        return UgInstance.from_json(_read(args.path)), None, None
    graph = _make_graph(args)
    inst, planted = plant_instance(graph, args.k, args.eps, seed=args.seed)
    return inst, planted, graph


def _open_out(args):
    """--out opened for writing, or a null context (stdout) without it; an
    unwritable --out is a parameter error."""
    if not args.out:
        return contextlib.nullcontext()
    try:
        return open(args.out, "w")
    except OSError as exc:
        raise ParameterError(f"cannot write {args.out}: {exc}")


def _emit(args, fh, text: str):
    """Write to the opened --out, or to stdout when `fh` is None."""
    if fh is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        fh.write(text)
        fh.flush()
    except OSError as exc:
        raise ParameterError(f"cannot write {args.out}: {exc}")


def cmd_gen(args) -> int:
    from ugsos.instances import value
    inst, planted, _ = _load_instance(args)
    with _open_out(args) as fh:
        _emit(args, fh, inst.to_json())
    if planted is not None:
        print(f"planted value: {value(inst, planted):.6f}", file=sys.stderr)
    return EXIT_OK


def cmd_solve_round(args) -> int:
    from ugsos import potentials as pot
    from ugsos import rounding as rnd
    from ugsos.johnson import _check_degree, johnson_pipeline
    from ugsos.sos import build_relaxation, solve_sdp
    from ugsos.steppoly import build_capped_step_poly

    t0 = time.time()
    inst, _, graph = _load_instance(args)
    solving_tol = args.tol if args.family != "johnson" else max(args.tol, 3e-4)
    if args.family == "johnson":
        _check_degree(args.degree)      # before the solve, not after it
    p = build_capped_step_poly(args.beta, args.nu,
                               pot.truncation_cap(args.degree))
    # --out is opened before the solve, so an unwritable path fails at once
    with _open_out(args) as fh:
        pE = solve_sdp(build_relaxation(inst, args.degree), tol=solving_tol)
        report = {
            "family": args.family,
            "k": inst.k,
            "degree": args.degree,
            "seed": args.seed,
            "sdp_value": pE.flags["sdp_value"],
            "sdp_upper_bound": pE.flags["sdp_upper_bound"],
            "phi": pot.phi_apx(pE, p, inst),
            "psi": pot.psi(pE, inst) if args.degree >= 4 else None,
            "beta": p.alpha,
            "nu_effective": p.eps,
            "unconverged": bool(pE.flags.get("unconverged", False)),
            # the tolerance the solve ran at: the johnson family's is floored
            "solver_tol": solving_tol,
            "sdp_iterations": pE.flags["iterations"],
        }
        if args.family == "johnson":
            out = johnson_pipeline(inst, pE, graph, args.eps)
            report["rounded_value"] = out.achieved_value
            report["trace"] = json.loads(out.to_json())["trace"]
        else:
            cr = rnd.condition_and_round(pE, inst, seed=args.seed)
            de = rnd.derandomized_round(pE, inst)
            report["rounded_value"] = cr.achieved_value
            report["expected_value"] = cr.expected_value
            report["derandomized_value"] = de.achieved_value
            report["assignment"] = [int(a) for a in de.assignment]
        # wall clock lives outside the deterministic body
        report["wall_clock_s"] = round(time.time() - t0, 3)
        _emit(args, fh, json.dumps(report, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

def _checks(args):
    """Yield (name, callable) pairs; each callable returns (ok, detail)."""
    full = args.tier == "full"

    def step_poly():
        from ugsos.steppoly import (build_step_poly, check_invariants,
                                    check_markov_bounds, check_union_bound)
        worst = ""
        for (a, e, d) in [(0.5, 0.1, 0.2), (0.3, 0.05, 0.1)] + (
                [(0.2, 0.01, 0.05)] if full else []):
            p = build_step_poly(a, e, d)
            for rep in (check_invariants(p), check_markov_bounds(p),
                        check_union_bound(p)):
                if not rep.passed:
                    return False, f"({a},{e},{d}): {rep.detail}"
            worst = f"last degree {p.degree}"
        return True, worst

    def sdp():
        from ugsos.instances import UgInstance, brute_force_opt
        from ugsos.sos import build_relaxation, solve_sdp, validate
        insts = [UgInstance(2, 2, ((0, 1, 1.0, 1),)),
                 UgInstance(3, 2, ((0, 1, 1.0, 1), (1, 2, 1.0, 1),
                                   (0, 2, 1.0, 1)))]
        for inst in insts:
            pE = solve_sdp(build_relaxation(inst, 4))
            rep = validate(pE, 1e-5)
            if not rep.passed:
                return False, f"validate failed: {rep}"
            if pE.flags["sdp_value"] < brute_force_opt(inst)[1] - 1e-5:
                return False, "SDP below brute force"
        return True, f"{len(insts)} instances"

    def symmetry():
        from ugsos.instances import UgInstance
        from ugsos.sos import (build_relaxation, edge_agreement,
                               pair_moments, solve_sdp, symmetrize)
        inst = UgInstance(3, 3, ((0, 1, 1.0, 1), (1, 2, 1.0, 0),
                                 (0, 2, 1.0, 1)))
        pE = solve_sdp(build_relaxation(inst, 4))
        sym = symmetrize(pE)
        moved = edge_agreement(pE, inst) - edge_agreement(sym, inst)
        if np.abs(moved).max() > 1e-10:
            return False, "edge agreement moved"
        marginals = np.einsum("uuaa->ua", pair_moments(sym))
        if np.abs(marginals - 1.0 / 3.0).max() > 1e-8:
            return False, "marginal not uniform"
        return True, ""

    def spectra():
        from ugsos.graphs import johnson_cayley_graph
        from ugsos.johnson import eigenvalue_multiset
        cases = [(4, 2, 0.5), (5, 2, 0.5)] + ([(6, 2, 0.5)] if full else [])
        worst = 0.0
        for (n, l, a) in cases:
            g = johnson_cayley_graph(n, l, a)
            d = np.sqrt(g.degrees)
            num = np.sort(np.linalg.eigvalsh(g.W / np.outer(d, d)))[::-1]
            worst = max(worst, float(np.max(np.abs(
                num - eigenvalue_multiset(n, l, a)))))
        return worst <= 1e-8, f"max eigenvalue error {worst:.2e}"

    def fourier():
        from ugsos.johnson import level_decompose
        rng = np.random.default_rng(0)
        count = 100 if full else 20
        worst = 0.0
        for _ in range(count):
            A = rng.random((4, 4))
            F = (A + A.T) / 2.0
            dec = level_decompose(F)
            worst = max(worst, dec.parseval_residual, dec.pointwise_residual,
                        dec.c6_residual)
        return worst <= 1e-8, f"{count} functions, worst residual {worst:.2e}"

    def structure():
        from ugsos.graphs import johnson_cayley_graph
        from ugsos.johnson import structure_inequality_check
        rng = np.random.default_rng(1)
        count = 200 if full else 50
        sizes = [(5, 2)] + ([(6, 2)] if full else [])
        for (n, l) in sizes:
            g = johnson_cayley_graph(n, l, 0.5)
            for _ in range(count):
                A = rng.random((n, n))
                F = (A + A.T) / 2.0
                rep = structure_inequality_check(F, 1, n, l, 0.5, "C", g)
                if not rep.holds:
                    return False, f"violation {rep.residual:.2e} at n={n}"
        return True, f"{count} functions per graph"

    yield "step-poly", step_poly
    yield "sdp", sdp
    yield "symmetry", symmetry
    yield "spectra", spectra
    yield "fourier", fourier
    yield "structure", structure


def cmd_verify(args) -> int:
    failures = 0
    ran = 0
    for name, fn in _checks(args):
        if args.only and args.only not in name:
            continue
        ran += 1
        t0 = time.time()
        try:
            ok, detail = fn()
        except UgsosError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name} ({time.time() - t0:.1f}s) {detail}")
        failures += 0 if ok else 1
    if args.pe:
        ran += 1
        from ugsos.sos import PseudoExpectation, validate
        pE = PseudoExpectation.from_json(_read(args.pe))
        rep = validate(pE, 1e-6)
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} pe-file min_eig={rep.min_eigenvalue:.2e} "
              f"off_charge={rep.off_charge_bound:.2e} "
              f"partition={rep.max_partition_residual:.2e}")
        failures += 0 if rep.passed else 1
    if ran == 0:
        raise ParameterError(f"no check matches --only {args.only!r}")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def main(argv=None) -> int:
    handlers = {"gen": cmd_gen, "solve-round": cmd_solve_round,
                "verify": cmd_verify}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
