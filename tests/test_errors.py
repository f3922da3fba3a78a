"""Every exception type in ``stbc.errors`` is raised somewhere in the
library and subclasses ValueError or RuntimeError.

The library's files are parsed, so an error type whose last ``raise`` is
removed shows up here as dead rather than lingering in the module.
"""

import ast
from pathlib import Path

import pytest

import stbc.errors

SRC = Path(__file__).resolve().parent.parent / "src" / "stbc"
ERRORS = [node.name for node in ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
          if isinstance(node, ast.ClassDef)]


def raised_names(path):
    """Names of the exceptions a file raises (``raise X`` or ``raise X(...)``)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


RAISED = {name for path in SRC.glob("*.py") for name in raised_names(path)}


def test_errors_found():
    assert "BudgetExceededError" in ERRORS and len(ERRORS) >= 5


@pytest.mark.parametrize("name", ERRORS)
def test_error_is_raised_by_the_library(name):
    assert name in RAISED


@pytest.mark.parametrize("name", ERRORS)
def test_error_subclasses_a_builtin_base(name):
    assert issubclass(getattr(stbc.errors, name), (ValueError, RuntimeError))
