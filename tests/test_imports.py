import ast
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
