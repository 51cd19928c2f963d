"""The solved instances and their stored reference values, shared by the
benchmark (`run.py`) and the script that computes the references
(`make_references.py`).

Each solve-round workload repeats one fixed planted instance, the seed-0
instance of the acceptance criterion it comes from.  The instance is fixed
because it needs a stored tight-tolerance reference SDP value, and because
its cost depends strongly on the planted seed (cube3 seed 0 converges in 2397
ADMM iterations, seed 1 in 4623): with a few operations per run, instances
drawn by the benchmark seed would make run-to-run spread track the draw.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"


def use_source_tree():
    """Import `ugsos` from the checkout's `src/`, not from an installed copy.

    Exits with status 2 (and prints nothing on stdout) when the source tree
    is absent."""
    if not (SRC / "ugsos" / "__init__.py").is_file():
        print(f"perfbench: no ugsos source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Family:
    """One planted instance, solved at degree `degree` and tolerance
    `tol`."""

    name: str
    graph: str          # "hypercube" (d=3, alpha 0.3) or "johnson" (n, l=2)
    n: int              # Johnson ground-set size; unused for the hypercube
    k: int
    eps: float
    degree: int
    tol: float
    seed: int           # planted seed
    ref_tol: float      # tolerance of the stored reference solve

    def make_graph(self):
        from ugsos.graphs import johnson_graph, noisy_hypercube
        if self.graph == "hypercube":
            return noisy_hypercube(3, 0.3)
        return johnson_graph(self.n, 2, 0.5)

    def instance(self):
        from ugsos.instances import plant_instance
        return plant_instance(self.make_graph(), self.k, self.eps,
                              seed=self.seed)

    def cli_args(self, seed: int, path: str | None = None) -> list:
        """`ugsos solve-round` arguments: `seed` is the Condition & Round
        sample seed of a file instance, and the planted seed otherwise."""
        common = ["--k", str(self.k), "--eps", str(self.eps),
                  "--degree", str(self.degree), "--tol", str(self.tol)]
        if self.graph == "hypercube":
            return ["solve-round", "--family", "file", "--path", path,
                    "--seed", str(seed)] + common
        return ["solve-round", "--family", "johnson", "--n", str(self.n),
                "--l", "2", "--alpha", "0.5", "--seed", str(seed)] + common


# Criterion 5's family: noisy hypercube d=3, alpha=0.3, k=3.
CUBE3 = Family("cube3", "hypercube", 0, 3, 0.05, 4, 1e-7, 0, 1e-9)
# Criterion 10's family and tolerance, on J(5,2): 10 vertices, reduced
# dimension 201.  Criterion 10's own J(6,2) takes about 95 s per operation on
# 2 cores, too long for the timed runs; it stays available as a workload that
# BENCHMARK.json does not list.
JOHNSON52 = Family("johnson52", "johnson", 5, 3, 0.05, 4, 3e-3, 0, 1e-6)
JOHNSON62 = Family("johnson62", "johnson", 6, 3, 0.05, 4, 3e-3, 0, 1e-4)
FAMILIES = {f.name: f for f in (CUBE3, JOHNSON52, JOHNSON62)}


def ref_key(family: Family) -> str:
    return f"{family.name}/seed{family.seed}"


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)
