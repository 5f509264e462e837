"""The oracles share no code path with the localization sums.

The HOMFLY bridge and the two-strand closed forms check the localization
sums, so they must not run on the modules or kernels those sums run on:
imports are checked statically, kernels at run time.
"""

import ast
from pathlib import Path

import pytest

import coxlinks
from coxlinks import polyalg
from coxlinks.homfly import _trimmed_trace, coxeter_braid, homfly, parse_braid
from coxlinks.polyalg import BinomialRational
from coxlinks.twostrand import homology_T2_even, homology_T2_odd

SOURCE = Path(coxlinks.__file__).parent
ORACLES = ("twostrand", "homfly", "_planar_skein", "mfcheck")
SUM_LAYERS = {"charts", "weights", "localization", "acceptance", "cli"}


def _imported_modules(tree):
    """Names of the coxlinks modules a module imports, without the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    names.add(node.module.split(".")[0])
                else:
                    names.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("coxlinks."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("coxlinks."):
                    names.add(alias.name.split(".")[1])
    return names


def _referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def _tree(module):
    return ast.parse((SOURCE / f"{module}.py").read_text())


@pytest.mark.parametrize("module", ORACLES)
def test_oracles_import_no_sum_layer(module):
    assert not _imported_modules(_tree(module)) & SUM_LAYERS


@pytest.mark.parametrize("module", ["charts", "weights", "localization"])
def test_sum_layers_import_no_oracle(module):
    assert not _imported_modules(_tree(module)) & set(ORACLES)


@pytest.mark.parametrize("module", ["homfly", "_planar_skein"])
def test_homfly_oracles_do_not_reference_binomial_rationals(module):
    assert "BinomialRational" not in _referenced_names(_tree(module))


def test_import_scan_sees_relative_and_absolute_imports():
    tree = ast.parse(
        "from .charts import all_charts\n"
        "from . import weights\n"
        "import coxlinks.localization\n"
        "from coxlinks.cli import main\n"
    )
    assert _imported_modules(tree) == {"charts", "weights", "localization", "cli"}


def _forbidden(*args, **kwargs):
    raise AssertionError("an oracle ran a rational-sum kernel")


def test_oracles_run_without_rational_sum_kernels(monkeypatch):
    braids = [
        parse_braid("strands=2 s1 s1 s1"),
        parse_braid("strands=3 s1 s2^-1 s1"),
        coxeter_braid(4, (), (1, 0, 1)),
    ]
    expected_homfly = [str(homfly(braid)) for braid in braids]
    expected_twostrand = [
        (str(homology(n)), homology(n).to_record())
        for homology in (homology_T2_odd, homology_T2_even)
        for n in range(-5, 6)
    ]
    for name in ("__add__", "__mul__", "normalize"):
        monkeypatch.setattr(BinomialRational, name, _forbidden)
    monkeypatch.setattr(polyalg, "_lift", _forbidden)
    monkeypatch.setattr(polyalg, "divide_by_binomial", _forbidden)
    _trimmed_trace.cache_clear()
    assert [str(homfly(braid)) for braid in braids] == expected_homfly
    assert [
        (str(homology(n)), homology(n).to_record())
        for homology in (homology_T2_odd, homology_T2_even)
        for n in range(-5, 6)
    ] == expected_twostrand
