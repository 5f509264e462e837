"""The acceptance gate: one test per criterion, one printed line per run.

Criterion 3 is a known negative (the tableau image loses injectivity from
n = 4 on); its test fails by design and the analysis lives in
reports/gyt_injectivity.md.  Run with ``-v`` to see the per-criterion lines.
"""

from itertools import product
from pathlib import Path

import pytest

from coxlinks import acceptance
from coxlinks.errors import ExperimentalFeatureWarning
from coxlinks.homfly import coxeter_braid, homfly
from coxlinks.localization import calibrated_superpolynomial
from coxlinks.polyalg import AQT, LaurentPoly

_IDS = [f"{number:02d}-{name}" for number, name, _, _ in acceptance.CRITERIA]


@pytest.mark.parametrize(
    "number", [number for number, _, _, _ in acceptance.CRITERIA], ids=_IDS
)
def test_criterion(number):
    result = acceptance.run_criterion(number, seed=0)
    print(result.line())
    assert result.passed, result.detail


def test_quick_level_is_the_all_green_subset():
    assert 3 not in acceptance.QUICK_NUMBERS
    assert 9 in acceptance.QUICK_NUMBERS
    results = acceptance.run("quick", seed=0)
    assert all(result.passed for result in results)


def test_result_lines_are_well_formed():
    result = acceptance.run_criterion(1, seed=0)
    line = result.line()
    assert line.startswith("PASS")
    assert " 1  chart-count" in line
    assert "[bound 10 s]" in line


def test_bridge_report_quotes_the_live_values():
    # reports/specialization_bridge.md is a document; criterion 9 reads no
    # file.  This test holds the values the report quotes to the live ones.
    report = Path(__file__).resolve().parents[1] / "reports" / "specialization_bridge.md"
    lines = report.read_text(encoding="utf-8").splitlines()
    numerator = calibrated_superpolynomial(2, (1,)).value.num
    assert f"    P = ({numerator}) / (1 - q^2)" in lines
    assert f"    H = {homfly(coxeter_braid(2, (), (1,)))}" in lines
    for k in (1, 2):
        numerator = calibrated_superpolynomial(2, (k,)).value.num
        value = homfly(coxeter_braid(2, (), (k,)))
        left, right = (sum(map(abs, p.terms.values())) for p in (numerator, value))
        assert f"* T(2,{2 * k + 1}): numerator mass {left} < HOMFLY mass {right}." in lines


@pytest.mark.parametrize(
    "k", [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2), (3, 1)], ids=str
)
def test_nonmonomial_bridge_holds_at_three_strands(k):
    # Criterion 9 checks the bridge at n = 2; the same specialization maps
    # the n = 3 sum onto the HOMFLY polynomial of its Coxeter braid.
    superpoly = calibrated_superpolynomial(3, k)
    assert superpoly.value.den == {(0, 2, 0): 1}
    left = superpoly.value.num.substitute(acceptance._BRIDGE_SPECIALIZATION)
    right = homfly(coxeter_braid(3, (), k)).substitute(acceptance._Z_IMAGE)
    assert left == right


_MONOTONE_K3 = [k for k in product(range(3), repeat=2) if k[0] >= k[1]]


@pytest.mark.parametrize(
    "n, k, link_s",
    [(2, (k,), (1,)) for k in range(7)]
    + [(3, k, link_s) for link_s in ((1,), (2,), (1, 2)) for k in _MONOTONE_K3],
    ids=str,
)
def test_link_bridge_holds_at_two_and_three_strands(n, k, link_s):
    # Dropping the generators in link_s leaves c = 1 + |link_s| components:
    # the denominator is (1 - q^2)^c, and the bridge picks up a^|link_s| and
    # z^(c-1).  The power of z goes on in the (a, z) ring, since a
    # c-component HOMFLY has z^-(c-1) terms, and q - 1/q has no inverse.
    c = 1 + len(link_s)
    with pytest.warns(ExperimentalFeatureWarning):
        superpoly = calibrated_superpolynomial(n, k, link_s)
    assert superpoly.value.den == {(0, 2, 0): c}
    left = superpoly.value.num.substitute(acceptance._BRIDGE_SPECIALIZATION)
    value = homfly(coxeter_braid(n, link_s, k))
    lifted = LaurentPoly.monomial(value.variables, (0, c - 1)) * value
    a_power = LaurentPoly.monomial(AQT, (len(link_s), 0, 0))
    assert left == a_power * lifted.substitute(acceptance._Z_IMAGE)
