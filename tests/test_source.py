"""Checks over the package's own source code."""

import ast
from pathlib import Path

import glf

PACKAGE = Path(glf.__file__).resolve().parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def nested_functions(fn: ast.AST) -> list[ast.AST]:
    """The functions defined in `fn`'s own scope, not inside one of them."""
    found = []
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, FUNCTIONS):
            found.append(node)
        else:
            todo.extend(ast.iter_child_nodes(node))
    return found


def self_referring_closures(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each nested function that refers to itself, by its
    own name or through functions nested beside it."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS):
            continue
        nested = nested_functions(fn)
        names = {n.name for n in nested}
        refers = {
            n.name: {node.id for node in ast.walk(n)
                     if isinstance(node, ast.Name) and node.id in names}
            for n in nested
        }
        for n in nested:
            reached, todo = set(), list(refers[n.name])
            while todo:
                name = todo.pop()
                if name not in reached:
                    reached.add(name)
                    todo.extend(refers[name])
            if n.name in reached:
                found.append((n.lineno, n.name))
    return found


def test_the_check_finds_recursive_and_mutually_recursive_closures():
    source = (
        "def outer():\n"
        "    def go(n):\n"
        "        return go(n - 1)\n"
        "    def a():\n"
        "        return b()\n"
        "    def b():\n"
        "        return a() + leaf()\n"
        "    def leaf():\n"
        "        return outer()\n"
        "    def caller():\n"
        "        return leaf()\n"
        "    return go, a, caller\n"
    )
    assert sorted(self_referring_closures(ast.parse(source))) == [
        (2, "go"), (4, "a"), (6, "b"),
    ]


def test_no_nested_function_refers_to_itself_or_a_sibling():
    """A closure that reaches itself, by its own name or through a sibling,
    is a reference cycle (function, cell, function), so every call that
    makes it leaves cyclic garbage. Recursive walks are module functions
    or methods instead."""
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in self_referring_closures(
            ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


DECLARATIONS = PACKAGE / "kernel" / "declarations.py"


def private_attributes(tree: ast.AST, cls: str) -> set[str]:
    """The `_`-prefixed attributes that the methods of class `cls` set on `self`."""
    return {
        node.attr
        for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == cls
        for node in ast.walk(c)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr.startswith("_")
    }


def attribute_reads(tree: ast.AST, names: set[str]) -> list[tuple[int, str]]:
    """(line, attribute) of each use of an attribute named in `names`."""
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names
    )


def test_the_check_finds_reads_of_a_class_s_private_attributes():
    kernel = ast.parse(
        "class Signature:\n"
        "    def __init__(self):\n"
        "        self.names = {}\n"
        "        self._by_name: dict = {}\n"
        "        self._by_qualified = {}\n"
    )
    private = private_attributes(kernel, "Signature")
    assert private == {"_by_name", "_by_qualified"}
    other = ast.parse("def f(sig):\n    sig.names.get('x')\n    return sig._by_name['x']\n")
    assert attribute_reads(other, private) == [(3, "_by_name")]


def test_no_module_but_the_kernel_s_reads_the_signature_s_private_attributes():
    """A name resolves by one rule, `Signature`'s: no other module reads the
    signature's own indexes and resolves names again from them."""
    private = private_attributes(
        ast.parse(DECLARATIONS.read_text(encoding="utf-8")), "Signature")
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line} {attr}"
        for path in sorted(PACKAGE.rglob("*.py")) if path != DECLARATIONS
        for line, attr in attribute_reads(
            ast.parse(path.read_text(encoding="utf-8")), private)
    ]
    assert offenders == []


HOLE_MODULES = {PACKAGE / "kernel" / "reduce.py", PACKAGE / "errors.py"}


def hole_decisions(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of each `Var` built with a name that holds `η`, and of
    each mention of `HoleApplied`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "Var" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            parts = [*node.args, *(k.value for k in node.keywords)]
            if any(isinstance(c, ast.Constant) and isinstance(c.value, str) and "η" in c.value
                   for part in parts for c in ast.walk(part)):
                found.append((node.lineno, "Var"))
        elif "HoleApplied" in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "name", None)):
            found.append((node.lineno, "HoleApplied"))
    return sorted(found)


def test_the_check_finds_hole_names_and_hole_failures():
    source = (
        "from glf.errors import HoleApplied\n"
        "from glf import kernel\n"
        "def f(n):\n"
        "    hole = kernel.Var(f'η{n}')\n"
        "    other = Var(name='x')\n"
        "    try:\n"
        "        return Var('η')\n"
        "    except errors.HoleApplied:\n"
        "        return other\n"
    )
    assert hole_decisions(ast.parse(source)) == [(1, "HoleApplied"), (4, "Var"), (7, "Var"),
                                                 (8, "HoleApplied")]


def test_no_module_but_the_normalizer_s_names_holes_or_sees_them_fail():
    """The normalizer mints each context's hole and decides whether to keep
    the context: no other module names a hole, or catches the failure that
    drops a context."""
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line} {what}"
        for path in sorted(PACKAGE.rglob("*.py")) if path not in HOLE_MODULES
        for line, what in hole_decisions(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


KERNEL = PACKAGE / "kernel"
KNOWN_NORMAL = "known_normal"


def known_normal_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of each attribute named `known_normal`, read or written,
    and of each string that names it, as `getattr` would take it."""
    strings = [
        (node.lineno, "string") for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == KNOWN_NORMAL
    ]
    return sorted(attribute_reads(tree, {KNOWN_NORMAL}) + strings)


def test_the_check_finds_uses_of_the_known_normal_set():
    source = (
        "def f(sig, t, normal):\n"
        "    known = normal(t)\n"
        "    if t in sig.known_normal:\n"
        "        return t\n"
        "    sig.known_normal = set()\n"
        "    getattr(sig, 'known_normal').add(known)\n"
    )
    assert known_normal_uses(ast.parse(source)) == [(3, KNOWN_NORMAL), (5, KNOWN_NORMAL),
                                                    (6, "string")]


def test_no_module_outside_the_kernel_uses_the_known_normal_set():
    """Only the kernel decides which terms are known to be normal: no other
    module reads the set, where a stale answer would go unnoticed, or adds
    to it a term that is not normal."""
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line} {what}"
        for path in sorted(PACKAGE.rglob("*.py")) if KERNEL not in path.parents
        for line, what in known_normal_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []
