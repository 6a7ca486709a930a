"""numpy is the only runtime dependency: every import in ``src/hdgbs`` is
numpy, a module of the standard library or a module of the package."""
import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hdgbs"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module):
    """(line, top-level name) of every absolute import in ``tree``, at any
    depth; relative imports stay inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.partition(".")[0]


def test_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_numpy_and_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [(line, name) for line, name in _imported(tree)
               if name != "numpy" and name not in sys.stdlib_module_names]
    assert not foreign, f"{path.name} imports {foreign}"
