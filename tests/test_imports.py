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
Every public top-level function and class in ``src/``, and every public
method of such a class, is read somewhere in ``src/`` outside ``__init__`` or
in the benchmark modules of ``perfbench/``, or is on a named keep-list, so
that a function, class or method only the tests call is deleted rather than
kept up. An attribute read on a module imported from outside ``sketchlr``
(``np.linalg.svd``) is that module's name, and does not count.
"""

import ast
from pathlib import Path

import pytest
from src_lines import code_lines

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src").rglob("*.py"))
MODULES = sorted([*SRC, *(ROOT / "tests").glob("*.py")])
SETTINGS = ("SketchPlan",)
STORAGE_HELPERS = ("_ensure_sparse", "_check_dense")
# perfbench's modules, which drive the package from outside src/: what they
# read counts as read, what its tests read does not
BENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))
# public definitions nothing in src/ or perfbench/ reads: the inverses of emit_csv,
# and svd, which perfbench's smoke test reads as solver.svd and sketches.svd
UNREAD_KEEP = ("read_trials_csv", "read_summary_csv", "svd")


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


def test_counts_code_lines_past_docstrings_comments_and_blanks():
    source = '"""A module.\n\nIts docstring."""\n\nimport os  # a comment\n\n'
    source += "def f(x):\n    'One line.'\n    # a comment\n    return (\n        x\n    )\n\n"
    source += 'class C:\n    """Two\n    lines."""\n\n    y = """a\nb"""\n'
    # import, def, the return's three lines, class, and y's two lines
    assert code_lines(source) == 8


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


def _foreign_modules(tree) -> set[str]:
    """Names ``tree`` binds by importing from outside ``sketchlr`` (``np``, ``blas``, ...)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] != "sketchlr"
            }
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] != "sketchlr":
                out |= {alias.asname or alias.name for alias in node.names}
    return out


def _loaded_names(tree) -> list:
    """Each name node and attribute node that ``tree`` reads, with the name it reads.

    An attribute read on a name bound by a foreign import is not counted:
    ``np.linalg.svd`` reads numpy's ``svd``, not one of ``sketchlr``'s.
    """
    foreign, out = _foreign_modules(tree), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if not (isinstance(base, ast.Name) and base.id in foreign):
                out.append((node, node.attr))
    return out


def unread_definitions(sources: list[str], readers: list[str] = ()) -> list[str]:
    """Public top-level functions and classes of ``sources``, and the public
    methods of those classes as ``Class.method``, that neither a source nor
    one of ``readers`` reads, by name or as an attribute; a definition's
    reads inside itself are not counted."""
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        own = {}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [
                    method
                    for method in node.body
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                ]
            for member in members:
                defined.append(member.name if member is node else f"{node.name}.{member.name}")
                own.setdefault(member.name, set()).update(id(sub) for sub in ast.walk(member))
        read |= {name for sub, name in _loaded_names(tree) if id(sub) not in own.get(name, ())}
    for source in readers:
        read |= {name for _, name in _loaded_names(ast.parse(source))}
    return sorted(name for name in defined if name.rsplit(".", 1)[-1] not in read)


def test_every_public_function_is_read_or_kept():
    sources = [path.read_text(encoding="utf-8") for path in SRC if path.name != "__init__.py"]
    readers = [path.read_text(encoding="utf-8") for path in BENCH]
    assert unread_definitions(sources, readers) == sorted(UNREAD_KEEP)


def test_detects_an_unread_function():
    source = "def used():\n    return 1\ndef unused():\n    return used()\n"
    source += "def recursive(n):\n    return recursive(n - 1)\ndef _private():\n    pass\n"
    source += "class Holder:\n    def method(self):\n        pass\ndef by_attribute():\n    pass\n"
    other = "from sketchlr import mod\ndef main():\n    return mod.by_attribute()\nmain()\n"
    want = ["Holder", "Holder.method", "recursive", "unused"]
    assert unread_definitions([source, other]) == want


def test_a_foreign_module_attribute_is_not_a_read():
    # np.linalg.svd and blas.dgemm name numpy's and scipy's functions, not these
    source = "def svd():\n    pass\ndef dgemm():\n    pass\ndef solve():\n    pass\n"
    source += "def ours():\n    pass\n"
    other = "import numpy as np\nimport scipy.linalg\nfrom scipy.linalg import blas\n"
    other += "from sketchlr import core\n"
    other += "np.linalg.svd(1)\nblas.dgemm(1)\nscipy.linalg.solve(1)\ncore.ours()\n"
    assert unread_definitions([source, other]) == ["dgemm", "solve", "svd"]


def test_detects_an_unread_class_or_method():
    source = "class Used:\n    def called(self):\n        return self.helper()\n"
    source += "    def helper(self):\n        return 1\n"
    source += "    def idle(self):\n        return self.idle()\n"
    source += "    @property\n    def size(self):\n        return 0\n"
    source += "    def _private(self):\n        pass\n"
    source += "class Unused:\n    def run(self):\n        return Unused()\n"
    source += "class _Hidden:\n    pass\n"
    other = "from mod import Used\nUsed().called()\n"
    reader = "def bench(x):\n    return x.size\n"
    assert unread_definitions([source, other], [reader]) == ["Unused", "Unused.run", "Used.idle"]
