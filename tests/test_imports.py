"""numpy is the only runtime dependency: every import in ``src/hdgbs`` is
numpy, a module of the standard library or a module of the package. A
fresh interpreter loads only the layers its calls use: each check below
runs in its own process and reads ``sys.modules``, not a clock."""
import ast
import json
import os
import subprocess
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


def _loaded(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_import_loads_no_submodule():
    assert {m for m in _loaded("import hdgbs") if m.startswith("hdgbs.")} == set()


def test_small_hafnian_loads_no_thread_pool_or_random():
    loaded = _loaded("import numpy as np, hdgbs\n"
                     "assert hdgbs.hafnian_fast(np.ones((4, 4))) == 3")
    assert "hdgbs.hafnian" in loaded
    assert not loaded & {"concurrent.futures", "numpy.random"}


def test_two_workers_give_the_serial_bits():
    loaded = _loaded("import numpy as np\n"
                     "from hdgbs import hafnian_fast\n"
                     "x = np.arange(400.0).reshape(20, 20) % 7 - 3 + 1j\n"
                     "b = x + x.T\n"
                     "assert hafnian_fast(b, workers=2) == hafnian_fast(b)")
    assert "concurrent.futures" in loaded


def test_cost_model_fit_loads_no_other_layer():
    loaded = _loaded("from hdgbs import bench\n"
                     "bench.fit_cost_model([bench.BenchRecord(n, 1e-3 * n, 1, 1)"
                     " for n in (2, 6, 10, 14)])")
    assert "hdgbs.bench" in loaded
    assert not loaded & {f"hdgbs.{m}" for m in ("probability", "circuit", "focknet", "hiding")}


def test_every_public_name_resolves():
    _loaded("from hdgbs import *\n"
            "import hdgbs\n"
            "assert all(globals()[name] is getattr(hdgbs, name) for name in hdgbs.__all__)\n"
            "assert set(hdgbs.__all__) <= set(dir(hdgbs))\n"
            "assert not hasattr(hdgbs, 'no_such_name')")
