"""The localization sum reaches the chart census through public names only.

``localization`` reads the weights through ``WeightData`` and the charts
through ``commuting_charts``; the ``n!`` degeneracy scan is census work and
lives in ``weights``.  Both rules are checked statically.
"""

import ast
from pathlib import Path

import pytest

import coxlinks

SOURCE = Path(coxlinks.__file__).parent
CENSUS = ("weights", "charts")


def _tree(module):
    return ast.parse((SOURCE / f"{module}.py").read_text())


def _names_from(tree, module):
    """Names taken from ``coxlinks.<module>``: imported, or read as attributes
    of the module after ``from . import <module>``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"coxlinks.{module}"):
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == module
        ):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", CENSUS)
def test_localization_takes_no_private_name_from_the_census(module):
    names = _names_from(_tree("localization"), module)
    assert not {name for name in names if name.startswith("_")}


def test_name_scan_sees_imports_and_attributes():
    tree = ast.parse(
        "from .weights import _a, b\n"
        "from coxlinks.weights import _c\n"
        "from . import weights\n"
        "weights._d\n"
        "from .charts import _e\n"
    )
    assert _names_from(tree, "weights") == {"_a", "b", "_c", "_d"}


def test_the_degeneracy_scan_is_defined_only_in_weights():
    homes = {
        path.stem
        for path in SOURCE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "detect_degenerate"
    }
    assert homes == {"weights"}
