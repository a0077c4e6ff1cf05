"""The package needs nothing at run time beyond numpy and scipy, and keeps
no dead private helper.

Every import statement in ``src/chatnet`` is read from the source, so an
import inside a function or behind a condition counts as well.  A private
module-level name counts as used when any module of the package loads it,
reads it as an attribute or imports it.
"""

import ast
import sys
from pathlib import Path

import pytest

import chatnet

ALLOWED = {"numpy", "scipy", "chatnet"}
SOURCES = sorted(Path(chatnet.__file__).parent.glob("*.py"))


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # A relative import (level > 0) stays inside chatnet.
            yield "chatnet" if node.level else node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_numpy_scipy_or_chatnet(path):
    outside = {
        name
        for name in imported_modules(path)
        if name.split(".")[0] not in ALLOWED | sys.stdlib_module_names
    }
    assert not outside, f"{path.name} imports {sorted(outside)}"


def module_private_names(tree):
    # Names bound at module level that start with one underscore.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_private_module_name_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dead = sorted(
        f"{name}: {private}"
        for name, tree in trees.items()
        for private in module_private_names(tree)
        if private.startswith("_") and not private.startswith("__") and private not in used
    )
    assert not dead, f"defined but never used in src/chatnet: {dead}"


def self_calls(tree):
    # (function, line) for each function whose body calls it by name: a
    # plain call for a function, self.name() or cls.name() for a method.
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            target = call.func
            if id(fn) in methods:
                named = (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ("self", "cls")
                    and target.attr == fn.name
                )
            else:
                named = isinstance(target, ast.Name) and target.id == fn.name
            if named:
                yield fn.name, call.lineno


def test_no_function_calls_itself():
    # A recursive search nests one Python frame per level and fails past
    # sys.getrecursionlimit() on deep enough input; use an explicit stack.
    recursive = sorted(
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for name, line in self_calls(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert not recursive, f"recursive functions in src/chatnet: {recursive}"
