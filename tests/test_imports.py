import ast
from pathlib import Path

import pytest

import sparselm

MODULES = sorted(Path(sparselm.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by the module-level imports of `source` that nothing in
    the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_is_found():
    assert unused_imports("import os\nimport sys\nfrom a import b, c\nsys.exit(c)\n") == \
        [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
