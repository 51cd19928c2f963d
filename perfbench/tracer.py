"""In-memory span tracing of the calls into each `ugsos` layer.

The tracer wraps public functions from the outside: it replaces the function
object in every loaded `ugsos` module namespace that holds it, so both the
CLI's lazy imports and the modules' own cross-module imports reach the
wrapper.  Nothing under `src/` changes.  While `solve_sdp` runs,
`numpy.linalg.eigh` is wrapped as well.

A span is (name, operation id, parent span, start, end, counts).  A layer's
self time is its span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np


def _solve_counts(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    return {"iterations": result.flags["iterations"],
            "reduced_dim": len(problem.rbasis),
            "reduced_moments": len(problem.rmoments),
            "full_moments": len(result.moments)}


def _validate_name(args, kwargs):
    pe = args[0] if args else kwargs["pE"]
    return "sos.validate_product" if pe.copy_count == 2 else "sos.validate"


def _brute_force_counts(args, kwargs, result):
    inst = args[0] if args else kwargs["inst"]
    return {"states": inst.k ** (inst.num_vertices - 1)}


def _pipeline_counts(args, kwargs, result):
    return {"iterations": len(result.trace)}


# (module, attribute) -> span name (a string, or a function of the call's
# arguments) and an optional function giving counts from the call's result.
# `sos._full_moments_from_reduced` is private; it is timed because it is the
# moment materialization step inside `solve_sdp` and is skipped if absent.
TARGETS = {
    ("sos", "build_relaxation"): ("sos.build_relaxation", None),
    ("sos", "solve_sdp"): ("sos.solve_sdp", _solve_counts),
    ("sos", "_full_moments_from_reduced"): ("sos.full_moments", None),
    ("sos", "symmetrize"): ("sos.symmetrize", None),
    ("sos", "validate"): (_validate_name, None),
    ("sos", "condition"): ("sos.condition", None),
    ("sos", "moment_matrix"): ("sos.moment_matrix", None),
    ("sos", "rerandomize"): ("sos.rerandomize", None),
    ("sos", "evaluate"): ("sos.evaluate", None),
    ("potentials", "phi_apx"): ("potentials.phi_apx", None),
    ("potentials", "psi"): ("potentials.psi", None),
    ("rounding", "condition_and_round"): ("rounding.condition_and_round",
                                          None),
    ("rounding", "derandomized_round"): ("rounding.derandomized_round", None),
    ("rounding", "monte_carlo_cr"): ("rounding.monte_carlo_cr", None),
    ("rounding", "partial_to_full"): ("rounding.partial_to_full",
                                      _pipeline_counts),
    ("johnson", "johnson_pipeline"): ("johnson.johnson_pipeline", None),
    ("johnson", "find_best_subcube"): ("johnson.find_best_subcube", None),
    ("instances", "brute_force_opt"): ("instances.brute_force_opt",
                                       _brute_force_counts),
    ("steppoly", "build_step_poly"): ("steppoly.build_step_poly", None),
    ("steppoly", "check_invariants"): ("steppoly.checks", None),
    ("steppoly", "check_markov_bounds"): ("steppoly.checks", None),
    ("steppoly", "check_union_bound"): ("steppoly.checks", None),
    ("cli", "main"): ("cli", None),
}
# Called too often, and too cheaply, for a span each: only counted.
COUNTED = {("rounding", "cond_marginals"): "rounding.cond_marginals"}
# Every span name the tracer can record.
SPAN_NAMES = sorted({name for name, _ in TARGETS.values()
                     if isinstance(name, str)}
                    | {"sos.eigh", "sos.validate", "sos.validate_product"})


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap the
    wrappers in and out so untraced operations run the original code."""

    def __init__(self):
        self.spans: list = []     # [name, op, parent, t0, t1, counts]
        self.calls: dict = {}     # (op, name) -> count, for COUNTED targets
        self.op = None
        self._stack: list = []
        self._patched: list = []  # (namespace, attribute, original)

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.op, parent, time.perf_counter(), None,
                           None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _exit(self, sid, counts=None):
        self.spans[sid][4] = time.perf_counter()
        self.spans[sid][5] = counts
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        sid = self._enter(name)
        try:
            yield
        finally:
            self._exit(sid)

    def _wrap(self, fn, name, counts_fn):
        tracer = self
        is_solve = name == "sos.solve_sdp"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._enter(name(args, kwargs) if callable(name) else name)
            if is_solve:
                tracer._patch(np.linalg, "eigh",
                              tracer._wrap(np.linalg.eigh, "sos.eigh", None))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(sid)
                raise
            finally:
                if is_solve:
                    tracer._unpatch_last()
            tracer._exit(sid, counts_fn(args, kwargs, result)
                         if counts_fn else None)
            return result
        return wrapper

    def _count(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (tracer.op, name)
            tracer.calls[key] = tracer.calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, namespace, attr, value):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def _unpatch_last(self):
        namespace, attr, original = self._patched.pop()
        setattr(namespace, attr, original)

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ugsos" or name.startswith("ugsos.")]
        wrappers = {}
        for (mod, attr), (name, counts_fn) in TARGETS.items():
            fn = getattr(sys.modules.get(f"ugsos.{mod}"), attr, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(fn, name, counts_fn))
        for (mod, attr), name in COUNTED.items():
            fn = getattr(sys.modules.get(f"ugsos.{mod}"), attr, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._count(fn, name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def uninstall(self):
        while self._patched:
            self._unpatch_last()

    # -- analysis ---------------------------------------------------------

    def per_op(self):
        """{op: {"self": {name: s}, "total": {name: s}, "counts": {...},
        "calls": {name: n}}} from the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, op, parent, t0, t1, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict = {}
        for sid, (name, op, parent, t0, t1, counts) in enumerate(self.spans):
            rec = out.setdefault(op, {"self": {}, "total": {}, "counts": {},
                                      "calls": {}})
            dur = t1 - t0
            own = dur - child_time[sid]
            rec["self"][name] = rec["self"].get(name, 0.0) + own
            rec["total"][name] = rec["total"].get(name, 0.0) + dur
            rec["calls"][name] = rec["calls"].get(name, 0) + 1
            for key, val in (counts or {}).items():
                ckey = f"{name}.{key}"
                rec["counts"][ckey] = rec["counts"].get(ckey, 0) + val
        for (op, name), n in self.calls.items():
            out.setdefault(op, {"self": {}, "total": {}, "counts": {},
                                "calls": {}})["calls"][name] = n
        return out

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                name, op, parent, t0, t1, counts = span
                fh.write(json.dumps({"id": sid, "name": name, "op": op,
                                     "parent": parent, "start": t0, "end": t1,
                                     "counts": counts}) + "\n")
