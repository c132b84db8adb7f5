"""Every name a module imports is read, and every sketch setting is read.

There is no linter in the toolchain, so this walks each module's syntax tree:
a name bound by ``import`` or ``from ... import`` must appear as a name
read somewhere in the module, be listed in its ``__all__``, or be marked
``# noqa: F401`` on its line as a deliberate re-export. Every field of
:class:`~sketchlr.sketches.SketchConstants` and
:class:`~sketchlr.sketches.SketchPlan` must be read as an attribute somewhere
in ``src/`` outside its own class, so that a constant nothing uses is deleted
rather than kept settable.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src").rglob("*.py"))
MODULES = sorted([*SRC, *(ROOT / "tests").glob("*.py")])
SETTINGS = ("SketchConstants", "SketchPlan")


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


def unread_fields(sources: list[str], classes) -> list[str]:
    """``Class.field`` for each annotated field of ``classes`` that no attribute
    read in ``sources`` names, reads inside the class itself not counted."""
    fields, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in classes:
                fields += [
                    f"{node.name}.{stmt.target.id}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
                inside |= {id(sub) for sub in ast.walk(node)}
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in inside
        }
    return [name for name in fields if name.split(".")[1] not in read]


def test_every_sketch_setting_is_read():
    sources = [path.read_text(encoding="utf-8") for path in SRC]
    assert unread_fields(sources, SETTINGS) == []


def test_detects_an_unread_field():
    source = "class Plan:\n    a: int\n    b: int\n    c: int\n"
    source += "    def total(self):\n        return self.b\n"
    other = "def f(plan):\n    return Plan(a=1, b=2, c=plan.c)\n"
    assert unread_fields([source, other], ("Plan",)) == ["Plan.a", "Plan.b"]
