"""Backticked ``module.name`` references in the package docstrings and the
README name attributes that exist, so a rename or removal cannot leave a
stale pointer behind."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "corrdyn"
MODULES = {path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
REFERENCE = re.compile(r"`+([A-Za-z_]\w*)\.([A-Za-z_]\w*)")


def _documents() -> list[tuple[str, str]]:
    """(where, text) of every module, class and function docstring in the
    package, and of the README."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    out.append((f"{path.name}:{getattr(node, 'lineno', 1)}", doc))
    out.append(("README.md", (ROOT / "README.md").read_text(encoding="utf-8")))
    return out


def _references() -> list[tuple[str, str, str]]:
    return [
        (where, module, name)
        for where, text in _documents()
        for module, name in REFERENCE.findall(text)
        if module in MODULES
    ]


def test_backticked_module_references_resolve():
    references = _references()
    assert references  # the pattern still finds the references it guards
    stale = [
        f"{where}: {module}.{name}"
        for where, module, name in references
        if not hasattr(importlib.import_module(f"corrdyn.{module}"), name)
    ]
    assert stale == []
