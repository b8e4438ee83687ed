"""Static checks on the library's source, every module but the package's
``__init__``, which re-exports: each module uses every name it imports, and
each public function, class and method serves the library, the benchmark or
the documentation, not only the tests."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "qlslab"
MODULES = sorted(path.name for path in SOURCE.glob("*.py") if path.name != "__init__.py")
DOCS = ("README.md", "docs/reproduce.md")


def _unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports (``__future__`` features aside) and
    never reads, annotations included."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, numpy as np\nfrom a.b import c, d\n"
    assert _unused_imports(source + "np.zeros(c)\n") == ["d", "os"]
    assert _unused_imports(source + "def f(x: d) -> os.PathLike:\n    return np(c)\n") == []


def test_the_modules_are_found():
    assert {"pipeline.py", "preprocess.py", "sim.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_a_module_uses_every_name_it_imports(module):
    assert _unused_imports((SOURCE / module).read_text()) == []


def _public_definitions(source: str) -> list[str]:
    """The public functions and classes that ``source`` defines at module
    level, and the public methods of those classes, as ``Class.method``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return names


def _read_names(source: str) -> set[str]:
    """Every name that ``source`` reads, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return {node.id for node in nodes if isinstance(node, ast.Name)} | {
        node.attr for node in nodes if isinstance(node, ast.Attribute)
    }


def _unserved(definitions: list[str], read: set[str], docs: str) -> list[str]:
    """The ``definitions`` whose name (a method's own name) is not in ``read``
    and that no code span of ``docs`` names."""
    spans = re.findall(r"`[^`]*`", docs)
    return [
        name
        for name in definitions
        if name.rpartition(".")[2] not in read
        and not any(re.search(rf"\b{re.escape(name)}\b", span) for span in spans)
    ]


def test_the_check_sees_a_definition_only_tests_use():
    source = (
        "def used(): pass\ndef named(): pass\ndef spare(): pass\ndef _private(): pass\n"
        "class Box:\n    def open(self): pass\n    def shut(self): pass\n"
        "class _Hidden:\n    def peek(self): pass\n"
    )
    definitions = _public_definitions(source)
    assert definitions == ["used", "named", "spare", "Box", "Box.open", "Box.shut"]
    read = _read_names("from m import used, Box\nBox().open(used())\n")
    assert _unserved(definitions, read, "Call `named(x)`.") == ["spare", "Box.shut"]
    # prose is not a name: only a code span names a definition
    assert _unserved(["spare"], set(), "a spare part, `spare_part`") == ["spare"]


def test_every_public_definition_serves_more_than_the_tests():
    """Aim 2's "no test-only public API": each public function, class and
    method of a module is read by the library or the benchmark, or named in
    the user documentation."""
    sources = [(SOURCE / module).read_text() for module in MODULES]
    sources += [
        path.read_text() for path in (ROOT / "bench").rglob("*.py") if "tests" not in path.parts
    ]
    read = set().union(*map(_read_names, sources))
    docs = "\n".join((ROOT / name).read_text() for name in DOCS)
    unserved = [
        f"{module}: {name}"
        for module, source in zip(MODULES, sources)
        for name in _unserved(_public_definitions(source), read, docs)
    ]
    assert unserved == []
