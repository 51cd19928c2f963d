"""End-to-end benchmark of `ugsos solve-round` and the certification path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all drive the public entry points in this one process, in a
closed loop: one client, one operation at a time):

  cube3-solve-round      `ugsos solve-round --family file` on criterion 5's
                         noisy hypercube (d=3, alpha 0.3, k=3, eps 0.05,
                         D=4, tol 1e-7).  Small SDP (dimension 129), many
                         ADMM iterations: shows iteration count,
                         per-iteration overhead and BLAS-thread waste.
  johnson52-solve-round  `ugsos solve-round --family johnson` with criterion
                         10's parameters (alpha 0.5, k=3, eps 0.05, D=4,
                         tol 3e-3) on J(5,2): the Johnson pipeline, a larger
                         eigensolve (dimension 201) and moment tables.
  certify                one cube3 instance solved in set-up, then one pass
                         of the cross-checks: validate, validate of the
                         product copy, conditioning + moment matrix, Monte
                         Carlo against the closed form, pseudo-Cauchy-Schwarz,
                         the J(6,2) brute-force oracle and `ugsos verify
                         --tier quick`.  No ADMM work is timed here.
  johnson62-solve-round  criterion 10's J(6,2) instance itself (about 95 s
                         per operation on 2 cores); too slow for the timed
                         runs, kept for the seed-0 baseline counts.

One operation is one `solve-round` call or one certification pass.  A run
repeats its workload's operation until `--seconds` have elapsed; a
solve-round run makes at least two, so that the repeated instance's report
can be compared byte for byte.  Every operation's output is checked.  The
seed picks the Condition & Round sample seed (cube3), and the J(6,2)
brute-force instance and the Monte Carlo and Cauchy-Schwarz samples
(certify); the solved instances are fixed (see `common.py`).

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` operations alternate untraced and traced, and it holds the
per-layer metrics from the traced operations plus the tracing overhead.  A
run record and the spans are written under `.perfbench_out/`.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from common import (CUBE3, FAMILIES, ROOT, SRC, load_references, ref_key,
                    use_source_tree)

OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
CUBE3_FLOOR = 0.05 * 0.6**4 / 576.0        # criterion 5's per-instance floor
MC_SAMPLES = 10_000
CS_PAIRS = 100


class CheckFailed(Exception):
    pass


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


def _body(text: str) -> str:
    """The deterministic part of a solve-round report."""
    report = json.loads(text)
    report.pop("wall_clock_s", None)
    return json.dumps(report, sort_keys=True)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class SolveRound:
    """`ugsos solve-round` on one planted instance."""

    min_ops = 2

    def __init__(self, family, seed):
        import numpy as np
        self.fam = family
        # --seed of a file instance only seeds the Condition & Round sample
        self.round_seed = int(np.random.default_rng(seed).integers(0, 2**31))
        self.ref = load_references()[ref_key(family)]["sdp_value"]
        self.first_body = None

    def setup(self, workdir):
        from ugsos.instances import brute_force_opt
        self.inst, _ = self.fam.instance()
        self.opt = brute_force_opt(self.inst)[1]
        if self.fam.graph == "hypercube":
            path = workdir / f"{ref_key(self.fam).replace('/', '-')}.json"
            path.write_text(self.inst.to_json())
            self.argv = self.fam.cli_args(self.round_seed, str(path))
        else:
            self.argv = self.fam.cli_args(self.fam.seed)

    def timed(self, cli):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(self.argv)
        return rc, buf.getvalue()

    def verify(self, result):
        rc, text = result
        check(rc == 0, f"exit code {rc}")
        rep = json.loads(text)
        check(not rep["unconverged"], "solver unconverged")
        sdp = rep["sdp_value"]
        check(sdp >= self.opt - self.fam.tol,
              f"sdp_value {sdp} below brute-force OPT {self.opt}")
        if self.fam.graph == "hypercube":
            check(rep["derandomized_value"] >= rep["expected_value"] - 1e-9,
                  "derandomized value below the closed-form expectation")
            check(rep["derandomized_value"] >= CUBE3_FLOOR,
                  "derandomized value below criterion 5's floor")
            rounded = rep["derandomized_value"]
        else:
            rounded = rep["rounded_value"]
            check(rounded > 1.0 / 3.0, f"rounded value {rounded} <= 1/3")
            n = self.inst.num_vertices
            seen: set = set()
            for rec in rep["trace"]:
                check(rec["drop"] <= 2.0 * len(rec["subgraph"]) / n + 1e-9,
                      "pipeline iteration dropped more than 2|H|/n")
                check(not seen & set(rec["newly_assigned"]),
                      "pipeline re-assigned a vertex")
                seen |= set(rec["newly_assigned"])
        body = _body(text)
        if self.first_body is None:
            self.first_body = body
        check(body == self.first_body,
              "repeated instance gave a different body")
        return {"sdp_value": sdp, "sdp_err": abs(sdp - self.ref),
                "rounded_value": rounded}


class Certify:
    """Cross-checks on one solved cube3 instance, the J(6,2) brute-force
    oracle and the quick verification suite."""

    min_ops = 1
    fam = CUBE3       # the instance solved in set-up

    def __init__(self, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        self.j62_seed = int(rng.integers(0, 2**31))
        self.mc_seed = int(rng.integers(0, 2**31))
        self.cs_seed = int(rng.integers(0, 2**31))
        self.ref = load_references()[ref_key(self.fam)]["sdp_value"]

    def setup(self, workdir):
        from ugsos.graphs import johnson_graph
        from ugsos.instances import brute_force_opt, plant_instance
        self.inst, _ = self.fam.instance()
        self.opt = brute_force_opt(self.inst)[1]
        self.j62, self.j62_planted = plant_instance(
            johnson_graph(6, 2, 0.5), 3, 0.05, seed=self.j62_seed)

    def solve(self):
        """The solve the certification pass consumes (part of set-up)."""
        from ugsos.sos import build_relaxation, solve_sdp
        self.raw = solve_sdp(build_relaxation(self.inst, self.fam.degree),
                             tol=self.fam.tol)
        check(not self.raw.flags.get("unconverged"), "solver unconverged")

    def timed(self, cli):
        import numpy as np
        from ugsos import instances, rounding, sos
        out = {}
        sym = sos.symmetrize(self.raw)
        out["validate"] = sos.validate(self.raw, 1e-5)
        out["validate_product"] = sos.validate(sos.product_copy(sym), 1e-5)
        cond = sos.condition(sym, ((0, 0, 0),))
        out["cond_min_eig"] = float(
            np.linalg.eigvalsh(sos.moment_matrix(cond))[0])
        vals = rounding.monte_carlo_cr(sym, self.inst, MC_SAMPLES,
                                       seed=self.mc_seed)
        out["mc"] = (float(vals.mean()),
                     float(vals.std(ddof=1) / math.sqrt(len(vals))))
        out["closed_form"] = rounding.closed_form_cr(sym, self.inst)
        # symmetrizing averages shifted copies of the raw moment matrix, so
        # its smallest eigenvalue is at least the raw one
        slack = max(0.0, -out["validate"].min_eigenvalue)
        out["cs_worst"] = self._cauchy_schwarz(sym, slack)
        out["sdp_value"] = sos.evaluate(sym, sos.ug_objective_poly(self.inst))
        out["brute_force"] = instances.brute_force_opt(self.j62)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            out["verify_rc"] = cli.main(["verify", "--tier", "quick"])
        out["verify_out"] = buf.getvalue()
        return out

    def _cauchy_schwarz(self, pe, slack):
        """Largest excess of |pE[pq]| over its pseudo-Cauchy-Schwarz bound,
        over random degree-<=D/2 polynomial pairs (criterion 11's draw).

        The moment matrix M is PSD only up to `slack` (M + slack*I is PSD),
        so the bound is sqrt((pE[p^2] + slack|p|^2)(pE[q^2] + slack|q|^2))
        + slack|p||q|, with |p| the norm of p's coefficient vector."""
        import numpy as np
        from ugsos import sos
        rng = np.random.default_rng(self.cs_seed)
        n, k, half = pe.num_vertices, pe.k, pe.degree // 2
        worst = -math.inf
        for _ in range(CS_PAIRS):
            ps = []
            for _ in range(2):
                terms: dict = {}
                for _ in range(4):
                    d = int(rng.integers(0, half + 1))
                    key = sos.canon_key(tuple(
                        (int(v), int(rng.integers(0, k)), 0)
                        for v in rng.choice(n, size=d, replace=False)))
                    if key is not None:
                        terms[key] = terms.get(key, 0.0) + float(rng.normal())
                ps.append(terms)
            p, q = ps
            np2 = sum(c * c for c in p.values())
            nq2 = sum(c * c for c in q.values())
            pp = sos.evaluate(pe, sos.poly_mul(p, p)) + slack * np2
            qq = sos.evaluate(pe, sos.poly_mul(q, q)) + slack * nq2
            bound = (math.sqrt(max(pp, 0.0) * max(qq, 0.0))
                     + slack * math.sqrt(np2 * nq2))
            worst = max(worst,
                        abs(sos.evaluate(pe, sos.poly_mul(p, q))) - bound)
        return worst

    def verify(self, out):
        from ugsos.instances import value
        check(out["validate"].passed, f"validate failed: {out['validate']}")
        check(out["validate_product"].passed,
              f"product validate failed: {out['validate_product']}")
        check(out["cond_min_eig"] >= -1e-5,
              f"conditioned moment matrix eigenvalue {out['cond_min_eig']}")
        mean, se = out["mc"]
        check(abs(mean - out["closed_form"]) <= 3.0 * se + 1e-6,
              f"Monte Carlo {mean} vs closed form {out['closed_form']}")
        check(out["cs_worst"] <= 1e-9,
              f"pseudo-Cauchy-Schwarz violated by {out['cs_worst']}")
        sdp = out["sdp_value"]
        check(sdp >= self.opt - self.fam.tol,
              f"sdp_value {sdp} below brute-force OPT {self.opt}")
        x, best = out["brute_force"]
        check(abs(value(self.j62, x) - best) <= 1e-12,
              "brute-force assignment does not achieve its value")
        check(best >= value(self.j62, self.j62_planted) - 1e-12,
              "brute-force optimum below the planted assignment")
        check(out["verify_rc"] == 0,
              f"verify exited {out['verify_rc']}: {out['verify_out']!r}")
        return {"sdp_value": sdp, "sdp_err": abs(sdp - self.ref),
                "rounded_value": out["closed_form"]}


def make_workload(name, seed):
    if name == "certify":
        return Certify(seed)
    fam = FAMILIES.get(name.removesuffix("-solve-round"))
    if fam is None or not name.endswith("-solve-round"):
        raise SystemExit(f"unknown workload {name!r}")
    return SolveRound(fam, seed)


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def metadata():
    import importlib.metadata
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "UGSOS_THREADS") if os.environ.get(v)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer, traced_ops, untraced_s, traced_s):
    """Per-operation means of each layer's self time and counts over the
    traced operations."""
    from tracer import SPAN_NAMES
    per_op = tracer.per_op()
    n = len(traced_ops)

    def mean_of(field, name):
        return sum(per_op.get(op, {}).get(field, {}).get(name, 0)
                   for op in traced_ops) / n

    m = {}
    for name in SPAN_NAMES + ["harness"]:
        m[f"{name}.s" if "." in name else f"{name}.self.s"] = (
            mean_of("self", name), "s")
    solve_total = mean_of("total", "sos.solve_sdp")
    iters = mean_of("counts", "sos.solve_sdp.iterations")
    materialize = mean_of("total", "sos.full_moments")
    m["sos.solve_sdp.iterations"] = (iters, "count")
    m["sos.solve_sdp.ms_per_iter"] = (
        1e3 * (solve_total - materialize) / iters if iters else 0.0, "ms")
    m["sos.eigh.share"] = (mean_of("total", "sos.eigh") / solve_total
                           if solve_total else 0.0, "fraction")
    m["sos.eigh.calls"] = (mean_of("calls", "sos.eigh"), "count")
    for key in ("reduced_dim", "reduced_moments", "full_moments"):
        calls = mean_of("calls", "sos.solve_sdp")
        m[f"sos.{key}"] = (mean_of("counts", f"sos.solve_sdp.{key}") / calls
                           if calls else 0.0, "count")
    m["rounding.cond_marginals.calls"] = (
        mean_of("calls", "rounding.cond_marginals"), "count")
    m["rounding.partial_to_full.iterations"] = (
        mean_of("counts", "rounding.partial_to_full.iterations"), "count")
    m["johnson.find_best_subcube.calls"] = (
        mean_of("calls", "johnson.find_best_subcube"), "count")
    m["instances.brute_force_opt.states"] = (
        mean_of("counts", "instances.brute_force_opt.states"), "count")
    # every span's self time belongs to exactly one of the metrics above
    m["trace.accounted_s"] = (sum(v for k, (v, unit) in m.items()
                                  if unit == "s"), "s")
    m["trace.op_s"] = (statistics.median(traced_s), "s")
    m["trace.untraced_op_s"] = (statistics.median(untraced_s), "s")
    m["trace.overhead_s"] = (statistics.median(traced_s)
                             - statistics.median(untraced_s), "s")
    return m


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def clear_caches():
    """Empty every `functools` cache in the loaded `ugsos` modules."""
    for name, module in list(sys.modules.items()):
        if name == "ugsos" or name.startswith("ugsos."):
            for fn in list(vars(module).values()):
                if callable(getattr(fn, "cache_clear", None)):
                    fn.cache_clear()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


IMPORTS = "import ugsos.cli, ugsos.johnson, ugsos.potentials, ugsos.rounding"


def import_seconds():
    """Time to start a fresh interpreter and import the package."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)
    return time.perf_counter() - t0


def main(argv=None):
    args = parse_args(argv)
    use_source_tree()
    # every layer loaded before the tracer looks for the functions to wrap
    from ugsos import cli, johnson, potentials, rounding  # noqa: F401
    from tracer import Tracer

    wl = make_workload(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(exist_ok=True)
    import_runs, setup_runs = [], []
    for _ in range(SETUP_REPEATS):
        import_runs.append(import_seconds())
        t0 = time.perf_counter()
        wl.setup(workdir)
        setup_runs.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_runs) + statistics.median(setup_runs)
    details = []
    if isinstance(wl, Certify):
        t0 = time.perf_counter()
        wl.solve()
        setup_s += time.perf_counter() - t0
        details.append({"op": "setup-solve",
                        "iterations": wl.raw.flags["iterations"]})

    tracer = Tracer()
    min_ops = max(wl.min_ops, 2 if args.trace else 1)
    wall, cpu, traced_ops, traced_wall = [], [], [], []
    failed = op = 0
    t_loop = time.perf_counter()
    while op < min_ops or time.perf_counter() - t_loop < args.seconds:
        traced = bool(args.trace) and op % 2 == 1
        clear_caches()    # as in a fresh `ugsos` process
        rec = {"op": op, "traced": traced}
        if traced:
            tracer.op = op
            tracer.install()
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            if traced:
                with tracer.span("harness"):
                    result = wl.timed(cli)
            else:
                result = wl.timed(cli)
            rec["wall_s"] = time.perf_counter() - w0
            rec["cpu_s"] = time.process_time() - c0
        except Exception as exc:  # an operation that raised counts as failed
            traceback.print_exc()
            result = None
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                tracer.uninstall()
        if result is not None:
            try:
                rec.update(wl.verify(result))
            except (CheckFailed, KeyError, ValueError, TypeError) as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
        if "error" in rec:
            failed += 1
        elif traced:
            traced_ops.append(op)
            traced_wall.append(rec["wall_s"])
        else:
            wall.append(rec["wall_s"])
            cpu.append(rec["cpu_s"])
        details.append(rec)
        print(json.dumps(rec), flush=True)
        op += 1
    attempted = op

    ok_recs = [r for r in details if "sdp_err" in r]
    sdp_err = max((r["sdp_err"] for r in ok_recs), default=math.nan)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "op_s": (statistics.median(wall) if wall else math.nan, "s"),
        "op_cpu_s": (statistics.median(cpu) if cpu else math.nan, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "sdp_err": (sdp_err, "frac"),
        "rounded_value": (statistics.fmean(r["rounded_value"] for r in ok_recs)
                          if ok_recs else math.nan, "frac"),
    }
    extra = {"failed_frac": (failed / attempted, "fraction"),
             "op_samples": (len(wall), "count"),
             "import_runs_s": (import_runs, "s"),
             "setup_runs_s": (setup_runs, "s")}
    per_layer = {}
    if args.trace and traced_ops and wall:
        per_layer = layer_metrics(tracer, traced_ops, wall, traced_wall)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")

    record = {"workload": args.workload, "instance": ref_key(wl.fam),
              "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "metadata": metadata(), "operations": details,
              "end_to_end": end_to_end, "per_layer": per_layer, "extra": extra}
    out_path = (OUT_DIR /
                f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("metadata " + json.dumps(record["metadata"]))
    for name, (val, unit) in {**end_to_end, **extra, **per_layer}.items():
        print(f"{name} {val} {unit}")
    shown = per_layer if args.trace else end_to_end
    if args.trace and not per_layer:
        failed = max(failed, 1)     # no traced operation completed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit}
                    for name, (val, unit) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
