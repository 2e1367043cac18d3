"""The package's import graph, read from its source.

No module imports scipy: ``linear_core`` loads scipy's compiled LAPACK
wrappers (``_flapack``) without scipy's Python package, and it is the one
module that names them, so every LAPACK call of the package goes through
it.  It imports nothing from the package at run time (the ``tables``
types it annotates with are imported only under ``if TYPE_CHECKING:``),
so ``tables`` can factor its grams through it without an import cycle.
``risk_metrics`` builds losses and diagnostics, not fits: the one thing it
takes from ``linear_core`` is the pencil eigensolver behind lambda1(Q).
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


def test_linear_core_imports_nothing_from_the_package_at_run_time():
    (path,) = [p for p in MODULES if p.name == "linear_core.py"]
    internal = [
        module
        for module, guarded in imports(path)
        if module.startswith((".", "twoway_shrink")) and not guarded
    ]
    assert internal == []
    assert (".tables", True) in imports(path)


def test_risk_metrics_takes_only_the_pencil_eigensolver_from_linear_core():
    (path,) = [p for p in MODULES if p.name == "risk_metrics.py"]
    taken = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "linear_core":
                taken |= {alias.name for alias in node.names}
            elif any(alias.name == "linear_core" for alias in node.names):
                taken.add("linear_core")  # the whole module
        elif isinstance(node, ast.Import):
            taken |= {alias.name for alias in node.names
                      if alias.name.split(".")[-1] == "linear_core"}
    assert taken == {"_pencil_top_eigenvalue"}
