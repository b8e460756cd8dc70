"""Every module-level import in the package is used by its module.

A deletion that leaves an import behind makes the import look like a
dependency; this scan catches it. __init__.py is skipped, as its imports
are the package's re-exports."""

import ast
from pathlib import Path

import pytest

import spinpair

SRC = Path(spinpair.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys as system\nsystem.exit\n") == [(1, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_spectro_names(tree) -> list:
    """The private names of spectro that tree reads, as spectro._name or
    through from .spectro import _name."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "spectro"):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "spectro":
            names.update(alias.name for alias in node.names)
    return sorted(n for n in names if n.startswith("_"))


def test_scan_finds_a_private_spectro_name():
    source = "from .spectro import _a, b\nspectro._c(spectro.d(x)._e)\n"
    assert private_spectro_names(ast.parse(source)) == ["_a", "_c"]


def test_run_pipeline_and_cli_use_no_private_spectro_name():
    # the readout model, the J-doubling recovery and the point-count rule
    # are spectro's to know: all of repro.py, run_pipeline included, the
    # CLI and the sequence compiler go through its public names
    # (readout_model, Readout, calibrate, measured_recovery, check_points, ...)
    for name in ("repro.py", "cli.py", "seqdsl.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        assert private_spectro_names(tree) == [], name
