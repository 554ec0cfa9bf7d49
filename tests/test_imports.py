"""Every module of the package uses each name that it imports."""

import ast
from pathlib import Path

import pytest

import qweyl

MODULES = sorted(p for p in Path(qweyl.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the module source binds by an import statement and
    never reads.  A name read only inside a string annotation counts as
    read; `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = []
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import functools\nimport itertools\nimport os.path\n"
        "from typing import Mapping, Sequence as Seq\n"
        "def f(m: 'Mapping') -> Seq:\n"
        "    return itertools.chain(m, os.path.sep)\n"
    )
    assert unused_imports(source) == ["functools"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
