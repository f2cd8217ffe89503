"""Static checks on the package sources, with the stdlib ast module."""

import ast
from pathlib import Path

import besforge

SOURCES = Path(besforge.__file__).parent


def _unused_imports(tree):
    """Names bound by the module-level imports of tree and read nowhere in it."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in bound.items() if name not in read}


def test_unused_import_is_found():
    tree = ast.parse("import os\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    pass\n")
    assert _unused_imports(tree) == {"os": 1, "field": 2}


def test_no_module_level_import_is_unused():
    # __init__.py imports to re-export, so its names are read by callers
    unused = {
        path.name: _unused_imports(ast.parse(path.read_text(), str(path)))
        for path in sorted(SOURCES.glob("*.py")) if path.name != "__init__.py"
    }
    assert {name: found for name, found in unused.items() if found} == {}


def _orphan_functions(trees):
    """Module-level _private functions, by 'module:name', that no tree in
    trees (a dict of module name to ast) reads, with their lines."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {
        f"{module}:{node.name}": node.lineno
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    }


def test_orphan_private_function_is_found():
    trees = {
        "a": ast.parse("def _called():\n    pass\n\n\ndef _orphan():\n    pass\n\n\ndef _by_attribute():\n    pass\n"),
        "b": ast.parse("from . import a\nfrom .a import _called\n\n_called()\na._by_attribute()\n"),
    }
    assert _orphan_functions(trees) == {"a:_orphan": 5}


def test_no_private_function_is_orphaned():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCES.glob("*.py"))}
    assert _orphan_functions(trees) == {}
