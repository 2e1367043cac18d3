"""The package's import graph, read from its source.

No module imports scipy: ``linear_core`` loads scipy's compiled LAPACK
wrappers (``_flapack``) without scipy's Python package, and it is the one
module that names them.  They serve the capacitance matrix alone, which
``linear_core`` alone builds and factors: no other module names its
private factor and solve helpers.  numpy's LAPACK serves every other
factorization.  ``linear_core`` imports nothing from the package at run
time (the ``tables`` types it annotates with are imported only under
``if TYPE_CHECKING:``).  ``tables`` and ``risk_metrics`` build designs,
losses and diagnostics, not fits, and take nothing from ``linear_core``.
"""

import ast
from pathlib import Path

import twoway_shrink

MODULES = sorted(Path(twoway_shrink.__file__).parent.glob("*.py"))


def _is_type_checking(test) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def imports(path: Path) -> list:
    """(module, guarded) for every import in a file, nested ones included.

    The module is written with its leading dots (``.tables``); ``guarded``
    is True under ``if TYPE_CHECKING:``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    guarded = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and _is_type_checking(block.test)
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, id(node) in guarded) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append(("." * node.level + (node.module or ""), id(node) in guarded))
    return found


def test_the_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"linear_core.py", "tables.py", "estimators.py", "cli.py"} <= names


def test_no_module_imports_scipy():
    importers = {
        path.name
        for path in MODULES
        for module, _ in imports(path)
        if module == "scipy" or module.startswith("scipy.")
    }
    assert importers == set()


def test_only_linear_core_names_the_lapack_wrappers():
    namers = {path.name for path in MODULES
              if "_flapack" in path.read_text(encoding="utf-8")}
    assert namers == {"linear_core.py"}


def identifiers(path: Path) -> set:
    """Every name, attribute and imported name a file's code mentions."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
            if node.asname:
                found.add(node.asname)
    return found


def test_only_linear_core_touches_the_capacitance_matrix():
    private = {"_cholesky", "_cholesky_solve"}
    namers = {
        path.name
        for path in MODULES
        for name in identifiers(path)
        if name in private or name.startswith("_capacitance")
    }
    assert namers <= {"linear_core.py"}


def test_linear_core_imports_nothing_from_the_package_at_run_time():
    (path,) = [p for p in MODULES if p.name == "linear_core.py"]
    internal = [
        module
        for module, guarded in imports(path)
        if module.startswith((".", "twoway_shrink")) and not guarded
    ]
    assert internal == []
    assert (".tables", True) in imports(path)


def test_tables_and_risk_metrics_import_nothing_from_linear_core():
    for path in MODULES:
        if path.name not in ("tables.py", "risk_metrics.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                assert all(n.split(".")[-1] != "linear_core" for n in names), path.name
