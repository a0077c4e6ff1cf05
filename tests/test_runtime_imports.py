"""The package needs nothing at run time beyond numpy and scipy.

Every import statement in ``src/chatnet`` is read from the source, so an
import inside a function or behind a condition counts as well.
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

