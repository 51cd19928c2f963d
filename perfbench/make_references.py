"""Compute the tight-tolerance reference SDP values that the benchmark
measures `sdp_err` against, and store them in `references.json`.

    python3 perfbench/make_references.py [FAMILY/seedN ...]

With no argument every workload instance is solved.  Each entry records the
tolerance and the ADMM iteration count that produced it.  The value is the
objective of the symmetrized solution, as `ugsos solve-round` reports it.
"""
from __future__ import annotations

import json
import sys
import time

from common import FAMILIES, REFERENCES, ref_key, use_source_tree


def main(argv):
    use_source_tree()
    from ugsos.sos import (build_relaxation, solve_sdp, symmetrize,
                           ug_objective_poly)

    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    wanted = set(argv)
    for fam in FAMILIES.values():
        key = ref_key(fam)
        if wanted and key not in wanted:
            continue
        inst, _ = fam.instance()
        t0 = time.time()
        raw = solve_sdp(build_relaxation(inst, fam.degree), tol=fam.ref_tol)
        if raw.flags.get("unconverged"):
            raise SystemExit(f"{key}: reference solve did not converge")
        refs[key] = {
            "sdp_value": symmetrize(raw).pe(ug_objective_poly(inst)),
            "tol": fam.ref_tol,
            "iterations": raw.flags["iterations"],
        }
        print(f"{key}: {refs[key]} ({time.time() - t0:.0f} s)", flush=True)
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True)
                              + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
