"""Production modules keep out of the test equipment in ``repro.testing``.

The reference implementations are test oracles, never a production
branch; the fault-injection harness reaches production only through the
two no-op-by-default hooks of the sweep engine and the profile store.
Every module under ``src/repro`` outside ``repro/testing/`` is parsed
(not imported), so lazy imports inside functions count too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: The only production modules allowed to import the fault harness.
FAULT_HOOKS = {"scenario/sweep.py", "scenario/profile.py"}


def _production_modules():
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        relative = path.relative_to(PACKAGE_ROOT).as_posix()
        if not relative.startswith("testing/"):
            yield relative, path


def _imported_names(relative: str, tree: ast.AST):
    """Every ``repro.*`` dotted name an import statement binds."""
    package = ("repro/" + relative).rsplit("/", 1)[0].replace("/", ".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            for alias in node.names:
                yield f"{base}.{alias.name}"


def _testing_imports():
    """``(module, dotted name)`` for every import of ``repro.testing``."""
    for relative, path in _production_modules():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _imported_names(relative, tree):
            if name == "repro.testing" or name.startswith("repro.testing."):
                yield relative, name


def test_scan_sees_the_production_tree():
    modules = {relative for relative, _ in _production_modules()}
    assert FAULT_HOOKS <= modules
    assert "auditing/auditor.py" in modules
    assert not any(module.startswith("testing/") for module in modules)


def test_no_production_module_imports_the_reference():
    offenders = [
        (module, name) for module, name in _testing_imports()
        if name.startswith("repro.testing.reference")
    ]
    assert offenders == []


def test_only_the_fault_hooks_import_the_fault_harness():
    importers = {module for module, _ in _testing_imports()}
    assert importers == FAULT_HOOKS
