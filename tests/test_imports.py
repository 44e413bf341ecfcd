import ast
from pathlib import Path

import pytest

import sparselm

MODULES = sorted(Path(sparselm.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
# public names that nothing reads yet, each with its first planned reader:
# `global_sparsity` reports per-layer sparsity in the planned `inspect` command
UNREAD_ALLOWED = {"global_sparsity"}


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


def function_level_imports(source):
    """Lines of the imports of `source` that sit inside a function or method body."""
    return sorted({node.lineno for func in ast.walk(ast.parse(source))
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_function_level_import_is_found():
    source = ("import os\n\ndef f():\n    import sys\n\n"
              "class C:\n    def m(self):\n        def g():\n            from a import b\n")
    assert function_level_imports(source) == [4, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    # an import cycle shows up as an import deferred into a function body
    assert function_level_imports(path.read_text(encoding="utf-8")) == []


def public_definitions(source):
    """(line, name) of each public module-level function and class of
    `source`, and of each public method and property of those classes."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            found += [(n.lineno, n.name) for n in node.body if isinstance(n, ast.FunctionDef)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
    return sorted((line, name) for line, name in found if not name.startswith("_"))


def names_read(source):
    """Every name that `source` loads, bare (`f`) or as an attribute (`x.f`)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_unread_public_name_is_found():
    source = ("def f():\n    pass\n\ndef _g():\n    pass\n\n"
              "class C:\n    def m(self):\n        return self.n()\n\n"
              "    @property\n    def n(self):\n        return f\n")
    defined = public_definitions(source)
    assert defined == [(1, "f"), (7, "C"), (8, "m"), (12, "n")]
    assert [d for d in defined if d[1] not in names_read(source)] == [(7, "C"), (8, "m")]


def test_every_public_name_has_a_reader():
    assert PERFBENCH, "perfbench/ not found next to tests/"
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in MODULES + PERFBENCH))
    unread = [f"{path.name}:{line} {name}" for path in MODULES
              for line, name in public_definitions(path.read_text(encoding="utf-8"))
              if name not in read and name not in UNREAD_ALLOWED]
    assert unread == []
