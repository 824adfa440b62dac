"""No module of the package, the scripts, the benchmark or the tests imports a name it
does not use.

No linter is a dependency, so the check is an `ast` scan: a name bound by an
import must be read somewhere in the module or be listed in its `__all__`.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted([*(REPO / "src" / "sideband_lab").glob("*.py"), *(REPO / "scripts").glob("*.py"),
                  *(REPO / "bench").glob("*.py"), *(REPO / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports but neither reads nor exports, in order."""
    tree = ast.parse(source)
    imported, used, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.append(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used and name not in exported]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, os.path\nimport math as m\n"
              "from json import dumps, loads\n__all__ = ['loads']\nprint(os.sep, m.pi)\n")
    assert unused_imports(source) == ["dumps"]
    assert unused_imports("def f():\n    import signal\n") == ["signal"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
