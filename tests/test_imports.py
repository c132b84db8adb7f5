"""Every name a module of ``src/`` or ``tests/`` imports is read in that module.

There is no linter in the toolchain, so this walks each module's syntax tree:
a name bound by ``import`` or ``from ... import`` must appear as a name
read somewhere in the module, be listed in its ``__all__``, or be marked
``# noqa: F401`` on its line as a deliberate re-export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names imported by ``source`` that it never reads, in order of import."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.name
                if isinstance(node, ast.Import):
                    name = name.split(".")[0]  # ``import a.b`` binds ``a``
                imported.append(alias.asname or name)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom sys import argv, path\n"
    source += "from sys import exit  # noqa: F401\n__all__ = ['path']\nprint(argv)\n"
    assert unused_imports(source) == ["os", "osp"]
