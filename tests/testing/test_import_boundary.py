"""Import boundaries between the library, its drivers and its test kit.

Production modules keep out of the test equipment in ``repro.testing``:
the reference implementations are test oracles, never a production
branch; the fault-injection harness reaches production only through the
two no-op-by-default hooks of the sweep engine and the profile store.
The library layers keep out of the experiment drivers: only the CLI
dispatches to ``repro.experiments``.  Modules are parsed (not
imported), so lazy imports inside functions count too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: The only production modules allowed to import the fault harness.
FAULT_HOOKS = {"scenario/sweep.py", "scenario/profile.py"}


def _all_modules():
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        yield path.relative_to(PACKAGE_ROOT).as_posix(), path


def _production_modules():
    for relative, path in _all_modules():
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


def _imports(modules):
    """``(module, dotted name)`` for every import in ``modules``."""
    for relative, path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _imported_names(relative, tree):
            yield relative, name


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _testing_imports():
    """``(module, dotted name)`` for every import of ``repro.testing``."""
    for relative, name in _imports(_production_modules()):
        if _within(name, "repro.testing"):
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


def test_only_the_cli_imports_the_experiments():
    """The accounting defaults live in the library
    (``amplification.network_shuffle.DEFAULT_DELTA``), so no library
    layer reaches up into the experiment drivers for them; and the
    retired ``repro.core`` facade stays gone."""
    experiment_importers = set()
    core_importers = set()
    for module, name in _imports(_all_modules()):
        if _within(name, "repro.experiments") and not module.startswith(
            "experiments/"
        ):
            experiment_importers.add(module)
        if _within(name, "repro.core"):
            core_importers.add(module)
    assert experiment_importers == {"__main__.py"}
    assert core_importers == set()
