"""Every name the demos and the benchmark import from ``stbc`` resolves.

Neither is imported by the test suite, so a moved or renamed function
would otherwise break them unseen.  The files are parsed, never run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def stbc_imports(path):
    """(module, name or None) for every absolute import of stbc in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module == "stbc" or node.module.startswith("stbc.")
        ):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "stbc")


def test_scripts_found():
    assert len(SCRIPTS) >= 6


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_stbc_imports_resolve(path):
    for module, name in stbc_imports(path):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
