"""Static checks on the package sources, with the stdlib ast module."""

import ast
import re
from pathlib import Path

import besforge

SOURCES = Path(besforge.__file__).parent
TESTS = Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"
README = TESTS.parent / "README.md"


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


def _asserts(tree):
    """The lines of the assert statements in tree."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_assert_statement_is_found():
    tree = ast.parse("def f(x):\n    assert x, 'x'\n    if not x:\n        raise ValueError(x)\n\n\nassert f\n")
    assert _asserts(tree) == [2, 7]


def test_no_assert_in_the_package():
    # python -O strips assert statements, so the package's self-checks raise
    found = {
        path.name: _asserts(ast.parse(path.read_text(), str(path)))
        for path in sorted(SOURCES.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


_BOUNDED_DRAWS = {"randrange", "randint", "choice", "sample"}


def _bounded_draws(tree):
    """The lines in tree that call a bounded-draw function by name, or read
    a bounded-draw method, called or not, as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _BOUNDED_DRAWS
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _BOUNDED_DRAWS
    )


def test_bounded_draw_is_found():
    tree = ast.parse(
        "import random\nfrom random import choice\n\nrng = random.Random(0)\nrng.shuffle([1, 2])\n"
        "x = rng.randrange(5)\ny = choice([1, 2])\nz = random.randint(0, 3)\n"
        "w = rng.sample(range(9), 2)\nf = rng.randrange\nbits = rng.getrandbits(3)\n"
        "sample = {}\nsample[1] = bits\n"
    )
    assert _bounded_draws(tree) == [6, 7, 8, 9, 10]


def test_no_bounded_draw_in_the_package():
    # every bounded draw goes through core.draw_below, randrange's own rule
    # on getrandbits; shuffle is still called
    found = {
        path.name: _bounded_draws(ast.parse(path.read_text(), str(path)))
        for path in sorted(SOURCES.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def _read_names(trees):
    """The names that the asts in trees load, bare or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _orphan_functions(trees):
    """Module-level _private functions, by 'module:name', that no tree in
    trees (a dict of module name to ast) reads, with their lines."""
    read = _read_names(trees.values())
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


def _orphan_constants(trees):
    """Module-level _private names bound by assignment, by 'module:name',
    that no tree in trees (a dict of module name to ast) reads, with their
    lines."""
    read = _read_names(trees.values())
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name) and name.id.startswith("_")
                            and not name.id.startswith("__") and name.id not in read):
                        found.setdefault(f"{module}:{name.id}", node.lineno)
    return found


def test_orphan_private_constant_is_found():
    trees = {
        "a": ast.parse("_USED = 1\n_ORPHAN = 2\n_x, _y = 3, 4\n_typed: int = 5\n__version__ = '1'\n\n\n"
                       "def f():\n    _local = 6\n    return _USED + _x\n"),
        "b": ast.parse("from . import a\n\nprint(a._typed)\n"),
    }
    assert _orphan_constants(trees) == {"a:_ORPHAN": 2, "a:_y": 3}


def test_no_private_constant_is_orphaned():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCES.glob("*.py"))}
    assert _orphan_constants(trees) == {}


def _unread_definitions(package, readers):
    """The top-level functions and classes of package (a dict of module name
    to ast), and the non-dunder methods of its top-level classes, by
    'module:name' or 'module:Class.name', whose names no ast in readers
    reads, with their lines.

    The check is by name: a definition passes when anything of the same
    name is read, such as a function beside a same-named function of
    another module, or a method beside a local variable of its name."""
    read = _read_names(readers)
    found = {}
    for module, tree in package.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read:
                found[f"{module}:{node.name}"] = node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))
                            and item.name not in read):
                        found[f"{module}:{node.name}.{item.name}"] = item.lineno
    return found


def test_unread_definition_is_found():
    package = {
        "a": ast.parse(
            "def used():\n    pass\n\n\ndef test_only():\n    pass\n\n\nclass A:\n"
            "    def method(self):\n        pass\n\n    @property\n    def prop(self):\n"
            "        return 1\n\n    def helper(self):\n        pass\n\n"
            "    def __eq__(self, other):\n        return True\n\n\nclass Unused:\n    pass\n"
        ),
        "b": ast.parse("from .a import A, used\n\nused()\nA().method()\nprint(A().prop)\n"),
    }
    tests = ast.parse("from a import A, Unused, test_only\n\ntest_only()\nA().helper()\nUnused()\n")
    assert _unread_definitions(package, package.values()) == {
        "a:test_only": 5, "a:A.helper": 17, "a:Unused": 24,
    }
    # read by a test, the same definitions pass: the readers decide
    assert _unread_definitions(package, [*package.values(), tests]) == {}


def test_every_definition_is_read_outside_the_tests():
    # every function, class and method of the package is read by name in a
    # package module or in perfbench/; __init__.py only re-exports, and a
    # definition read only by the tests belongs in tests/reference_*.py
    package = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCES.glob("*.py"))}
    readers = [tree for name, tree in package.items() if name != "__init__.py"]
    readers += [ast.parse(path.read_text(), str(path)) for path in sorted(PERFBENCH.rglob("*.py"))]
    assert _unread_definitions(package, readers) == {}


def _private_parameters(package):
    """The parameters whose names start with '_' of the public top-level
    functions of package (a dict of module name to ast) and of the public
    or dunder methods of its top-level classes, by 'module.function.param'
    or 'module.Class.method.param'."""
    found = []
    for module, tree in package.items():
        defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [
            (f"{cls.name}.{item.name}", item)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for item in cls.body if isinstance(item, ast.FunctionDef)
        ]
        for name, node in defs:
            method = name.rsplit(".", 1)[-1]
            if method.startswith("_") and not method.endswith("__"):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            found += [f"{module}.{name}.{a.arg}" for a in params if a is not None and a.arg.startswith("_")]
    return found


def test_private_parameter_is_found():
    tree = ast.parse(
        "def f(a, _b, *_rest, c=1, _d=2, **_kw):\n    pass\n\n\ndef _g(_x):\n    pass\n\n\n"
        "class A:\n    def __init__(self, _y):\n        pass\n\n    def m(self, /, _p, *, _k):\n"
        "        pass\n\n    def _h(self, _z):\n        pass\n"
    )
    assert _private_parameters({"a": tree}) == [
        "a.f._b", "a.f._d", "a.f._rest", "a.f._kw", "a.A.__init__._y", "a.A.m._p", "a.A.m._k",
    ]


def test_no_public_function_takes_a_private_parameter():
    # a parameter that callers are told not to pass is an option that only
    # the tests use; such a test calls the private routine instead
    package = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCES.glob("*.py"))}
    assert _private_parameters(package) == []


def _serializes_self(cls):
    """Whether a method of cls passes self to vars() or asdict(), which
    reads every field without naming it."""
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("vars", "asdict")
        and any(isinstance(arg, ast.Name) and arg.id == "self" for arg in node.args)
        for node in ast.walk(cls)
    )


def _orphan_fields(package, readers):
    """Annotated fields of the top-level classes in package (a dict of module
    name to ast), by 'module:Class.name', that no ast in readers loads as an
    attribute, with their lines."""
    loaded = {
        node.attr
        for tree in readers
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {
        f"{module}:{cls.name}.{node.target.id}": node.lineno
        for module, tree in package.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not _serializes_self(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and node.target.id not in loaded
    }


def test_orphan_field_is_found():
    package = {
        "a": ast.parse(
            "class A:\n    used: int\n    orphan: int\n    stored: int\n\n\n"
            "class B:\n    x: int\n\n    def to_dict(self):\n        return vars(self)\n"
        ),
    }
    readers = [*package.values(), ast.parse("from a import A\n\na = A()\na.stored = 1\nprint(a.used)\n")]
    assert _orphan_fields(package, readers) == {"a:A.orphan": 3, "a:A.stored": 4}


def test_no_field_is_orphaned():
    # a field counts as read when src/, tests/ or perfbench/ loads it as an
    # attribute, or when its class serializes itself with vars() or asdict()
    package = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCES.glob("*.py"))}
    readers = [
        ast.parse(path.read_text(), str(path))
        for path in sorted([*TESTS.rglob("*.py"), *PERFBENCH.rglob("*.py")])
    ]
    assert _orphan_fields(package, [*package.values(), *readers]) == {}


def _tabled_modules(markdown):
    """The names x of the `besforge.x` cells in the first column of the
    tables in markdown."""
    return {
        name
        for line in markdown.splitlines() if line.startswith("|")
        for name in re.findall(r"`besforge\.(\w+)`", line.split("|")[1])
    }


def test_tabled_module_is_found():
    text = ("| module | contents |\n| --- | --- |\n| `besforge.a`, `besforge.b` | see `besforge.c` |\n"
            "\n`besforge.d` in a sentence\n")
    assert _tabled_modules(text) == {"a", "b"}


def test_every_module_has_a_readme_row():
    modules = {path.stem for path in SOURCES.glob("*.py")} - {"__init__"}
    assert modules - _tabled_modules(README.read_text()) == set()
