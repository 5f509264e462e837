"""The package namespace and what the package imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxlinks

SOURCE = Path(coxlinks.__file__).parent


def test_every_exported_name_resolves():
    assert [name for name in coxlinks.__all__ if not hasattr(coxlinks, name)] == []


def _absolute_imports(path):
    """The top-level module of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.stem)
def test_the_package_imports_only_the_standard_library(path):
    assert sorted(set(_absolute_imports(path)) - sys.stdlib_module_names) == []


def test_the_cli_import_loads_no_rational_arithmetic():
    # The library only accepts Fraction inputs; it never builds one itself.
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    script = "import sys, coxlinks.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
