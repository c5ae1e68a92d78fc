import ast
import re
from pathlib import Path

import fdvi

# (module, name) of the imports a module keeps without using them: perfbench's
# tracer patches fdvi.hypotheses.fuzzy_metric
KEPT = {("hypotheses", "fuzzy_metric")}


def unused_imports(source: str) -> set[str]:
    """The names a module's imports bind and its code never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_no_module_imports_a_name_it_never_uses():
    unused = {(path.stem, name) for path in Path(fdvi.__file__).parent.glob("*.py") if path.name != "__init__.py"
              for name in unused_imports(path.read_text())}
    assert unused == KEPT


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def dead_private_names(source: str) -> set[str]:
    """The single-underscore names a module defines at top level (def, class or assignment) and never reads.

    A definition's reads of itself (recursion) do not count, so a dead recursive helper is caught too.
    """
    tree = ast.parse(source)
    defined = {}  # name -> the statement that binds it
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, stmt) for name in names if _is_private(name))

    def reads_outside(name, stmt):
        inside = {id(node) for node in ast.walk(stmt)}
        return any(isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                   and id(node) not in inside for node in ast.walk(tree))

    return {name for name, stmt in defined.items() if not reads_outside(name, stmt)}


def test_dead_private_names_are_found():
    source = ("_USED = 1\n_DEAD, _ALSO = 2, 3\n__version__ = '1'\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class _Kept:\n    pass\n"
              "def public():\n    return _USED + _Kept()\n")
    assert dead_private_names(source) == {"_DEAD", "_ALSO", "_recursive"}


def test_no_module_defines_a_private_name_it_never_reads():
    dead = {(path.stem, name) for path in Path(fdvi.__file__).parent.glob("*.py")
            for name in dead_private_names(path.read_text())}
    assert dead == set()


def test_readme_package_layout_names_every_module():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Package layout", 1)[1]
    listed = set(re.findall(r"^\| `fdvi\.(\w+)`", table, flags=re.MULTILINE))
    modules = {path.stem for path in Path(fdvi.__file__).parent.glob("*.py")} - {"__init__", "__main__"}
    assert listed == modules
