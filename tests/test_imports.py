"""Every name a module imports is read, and every sketch setting is read.

There is no linter in the toolchain, so this walks each module's syntax tree:
a name bound by ``import`` or ``from ... import`` must appear as a name
read somewhere in the module, be listed in its ``__all__``, or be marked
``# noqa: F401`` on its line as a deliberate re-export. Every field of
:class:`~sketchlr.sketches.SketchPlan` must be read as an attribute somewhere
in ``src/`` outside its own class, so that a setting nothing uses is deleted
rather than kept. In ``matrixcore`` and ``sketches`` only the two
storage helpers, ``_ensure_sparse`` and ``_check_dense``, may test an operand
for :class:`~sketchlr.matrixcore.SparseMatrix`, so each kernel keeps one body.
Every public top-level function in ``src/`` is read somewhere in ``src/``
outside ``__init__``, or is on a named keep-list, so that a helper only the
tests call is deleted rather than kept up.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src").rglob("*.py"))
MODULES = sorted([*SRC, *(ROOT / "tests").glob("*.py")])
SETTINGS = ("SketchPlan",)
STORAGE_HELPERS = ("_ensure_sparse", "_check_dense")
# public functions nothing in src/ calls: the reference implementations the
# tests compare against, and the inverses of emit_csv
UNREAD_KEEP = (
    "exact_oracle",
    "ridge_leverage_scores",
    "read_trials_csv",
    "read_summary_csv",
    "singular_values",
)


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


def storage_branches(source: str) -> list[str]:
    """Functions of ``source``, the storage helpers aside, that call
    ``isinstance(..., SparseMatrix)``, a tuple of types included."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or func.name in STORAGE_HELPERS:
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and any(
                    isinstance(sub, ast.Name) and sub.id == "SparseMatrix"
                    for arg in node.args[1:]
                    for sub in ast.walk(arg)
                )
            ):
                found.add(func.name)
    return sorted(found)


@pytest.mark.parametrize("name", ["matrixcore.py", "sketches.py"])
def test_only_the_storage_helpers_test_for_sparse(name):
    source = (ROOT / "src" / "sketchlr" / name).read_text(encoding="utf-8")
    assert storage_branches(source) == []


def test_detects_a_storage_branch():
    source = "def _ensure_sparse(a):\n    return isinstance(a, SparseMatrix)\n"
    source += "def f(a):\n    return isinstance(a, (np.ndarray, SparseMatrix))\n"
    source += "def g(a):\n    return isinstance(a, np.ndarray)\n"
    source += "def h(a):\n    def inner(b):\n        return isinstance(b, SparseMatrix)\n"
    assert storage_branches(source) == ["f", "h", "inner"]


def unread_functions(sources: list[str]) -> list[str]:
    """Public top-level functions of ``sources`` that no source reads, by name
    or as an attribute; a function's reads of itself are not counted."""
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        own = {}
        for func in tree.body:
            if isinstance(func, ast.FunctionDef) and not func.name.startswith("_"):
                defined.append(func.name)
                own[func.name] = {id(sub) for sub in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if id(node) not in own.get(name, ()):
                read.add(name)
    return sorted(name for name in defined if name not in read)


def test_every_public_function_is_read_or_kept():
    sources = [path.read_text(encoding="utf-8") for path in SRC if path.name != "__init__.py"]
    assert unread_functions(sources) == sorted(UNREAD_KEEP)


def test_detects_an_unread_function():
    source = "def used():\n    return 1\ndef unused():\n    return used()\n"
    source += "def recursive(n):\n    return recursive(n - 1)\ndef _private():\n    pass\n"
    source += "class Holder:\n    def method(self):\n        pass\ndef by_attribute():\n    pass\n"
    other = "import mod\ndef main():\n    return mod.by_attribute()\nmain()\n"
    assert unread_functions([source, other]) == ["recursive", "unused"]
