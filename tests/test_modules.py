"""Static checks on the library's source: every module but the package's
``__init__``, which re-exports, uses each name it imports."""
import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qlslab"
MODULES = sorted(path.name for path in SOURCE.glob("*.py") if path.name != "__init__.py")


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
