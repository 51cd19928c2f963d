"""Properties of the package source itself."""
import ast
from collections import Counter
from pathlib import Path

import ugsos

SRC = Path(ugsos.__file__).parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements; every runtime check must raise
    # an explicit error instead, so it still runs under -O
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in ugsos: {found}"


def _names(tree):
    """The names an AST refers to: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_public_definition_is_referenced():
    # a public top-level def or class that nothing in src/ or tests/ names,
    # other than its own body, is dead code
    trees = [ast.parse(path.read_text())
             for root in (SRC.parent, Path(__file__).parent)
             for path in sorted(root.rglob("*.py"))]
    counts = Counter(name for tree in trees for name in _names(tree))
    unused = [f"{path.name}:{node.name}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and counts[node.name] == list(_names(node)).count(node.name)]
    assert not unused, f"public definitions nothing refers to: {unused}"


def test_the_package_reads_no_environment_variable():
    # behaviour is set by arguments alone; OpenBLAS reads its own variables
    env = {"environ", "getenv", "putenv"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in env
             or isinstance(node, ast.ImportFrom) and node.module == "os"
             and any(alias.name in env for alias in node.names)]
    assert not found, f"environment reads in ugsos: {found}"


def test_the_admm_core_imports_only_kernels_and_errors_from_ugsos():
    # the solver knows its layout by six members, not the unique-games
    # modules
    found = set()
    for node in ast.walk(ast.parse((SRC / "admm.py").read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names
                      if a.name.split(".")[0] == "ugsos"}
        elif isinstance(node, ast.ImportFrom):
            module = ("ugsos." * (node.level > 0) + (node.module or "")
                      ).rstrip(".")
            if module == "ugsos":
                found |= {f"ugsos.{a.name}" for a in node.names}
            elif module.split(".")[0] == "ugsos":
                found.add(module)
    assert found <= {"ugsos._kernels", "ugsos.errors"}


def test_the_solver_names_live_in_admm_alone():
    from ugsos import admm, basis, sos
    moved = ["_Block", "_BlockSplit", "_psd_split", "_Anderson", "_floats",
             "ADMM_RHO0", "ADMM_MAX_ITERS", "ADMM_OVER_RELAX",
             "ANDERSON_MEMORY", "ANDERSON_REG", "PARTIAL_EIG_DIVISOR"]
    assert [name for name in moved if hasattr(sos, name)] == []
    assert all(hasattr(admm, name) for name in moved)
    assert not hasattr(basis._ChargeLayout, "psd_split")


def test_the_test_oracles_live_in_tests_reference_alone():
    import importlib

    from ugsos import basis
    moved = ["key_mul", "poly_add", "shift_key", "all_canonical_keys",
             "z_var_poly", "phi_exact_sampled"]
    modules = [importlib.import_module(f"ugsos.{path.stem}")
               for path in sorted(SRC.glob("*.py"))]
    found = [f"{m.__name__}.{name}" for m in [ugsos, *modules]
             for name in moved + ["structure_report_csv"]
             if hasattr(m, name)]
    assert found == []
    assert not hasattr(basis.MomentIndex, "ids")
    reference = Path(__file__).parent / "reference.py"
    defined = {node.name for node in ast.parse(reference.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert set(moved) <= defined


def _ugsos_imports(path):
    """The `ugsos` modules that a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "ugsos":
            found |= {f"ugsos.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
    return {m for m in found if m and m.split(".")[0] == "ugsos"}


def test_the_index_tables_live_in_basis_alone():
    # basis knows no unique games: from the package it needs only admm's
    # `_Block`; sos holds no cache, and only basis reads the index's tables
    from ugsos import basis
    moved = ["_index_size", "MomentIndex", "moment_index", "_product_ids",
             "_fft_ids", "_ChargeLayout", "_charge_layout", "_ChargeFrame",
             "_charge_frame", "_real_form"]
    assert _ugsos_imports(SRC / "basis.py") == {"ugsos.admm"}
    sos_tree = ast.parse((SRC / "sos.py").read_text())
    defined = {node.name for node in sos_tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in sos_tree.body
                if isinstance(node, ast.Assign) for target in node.targets
                if isinstance(target, ast.Name)}
    assert defined.isdisjoint(moved)
    assert all(hasattr(basis, name) for name in moved)
    assert set(_names(sos_tree)).isdisjoint({"lru_cache", "cached_property"})
    readers = [path.name for path in sorted(SRC.glob("*.py"))
               if {"_kpow", "_binom"}
               & set(_names(ast.parse(path.read_text())))]
    assert readers == ["basis.py"]


def test_ids_come_from_key_maps_and_basis_tables():
    # no module but basis ranks slot rows: sos reads ids from key -> id maps,
    # `MomentIndex.mul` and `basis._halves`
    from ugsos import basis, sos
    callers = [path.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "rank"]
    assert set(callers) == {"basis.py"}
    assert not hasattr(basis.MomentIndex, "rows")
    assert not hasattr(sos, "_gather")


def test_only_sos_names_the_moment_array_and_its_fill_state():
    # every other reader goes through `PseudoExpectation._array(degree)`,
    # which fills the blocks it returns, so no reader can skip a fill
    state = {"_values", "_fill", "_filled"}
    readers = [path.name for path in sorted(SRC.glob("*.py"))
               if state & set(_names(ast.parse(path.read_text())))]
    assert readers == ["sos.py"]
