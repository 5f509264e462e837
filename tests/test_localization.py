"""Localization sums: the calibrated sum, regime flags, degeneracy guards."""

import hashlib
import operator
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coxlinks import localization
from coxlinks.charts import NestedSetPair, all_charts, build_chart, commuting_charts
from coxlinks.errors import (
    CapacityError,
    ConsistencyError,
    DegenerateChartError,
    ExperimentalFeatureWarning,
    PositivityRegimeWarning,
)
from coxlinks.homfly import coxeter_braid
from coxlinks.localization import (
    _calibrated_term,
    calibrated_superpolynomial,
    detect_degenerate,
    in_positivity_regime,
)
from coxlinks.mfcheck import commutator_entries, matrix_from_rows
from coxlinks.polyalg import BinomialRational, LaurentPoly
from coxlinks.twostrand import AQT, homology_T2_odd
from coxlinks.weights import weight_data

FAMILY_CHART = build_chart(
    NestedSetPair.from_lists(4, [{3, 4}, {3}, (), ()], [{4}, {4}, {4}, ()])
)


# -- the calibrated sum ---------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 6))
def test_calibrated_matches_closed_form_two_strand(k):
    cal = calibrated_superpolynomial(2, (k,))
    assert cal.value == homology_T2_odd(k).value
    assert cal.shift_exponent == k
    assert cal.in_conjecture_regime


def test_calibrated_n3_is_positive():
    cal = calibrated_superpolynomial(3, (2, 1))
    num = cal.value.num
    assert len(num.terms) == 21
    assert all(coeff > 0 for coeff in num.terms.values())
    assert cal.value.den == {(0, 2, 0): 1}


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.data(),
)
def test_calibrated_a_window_is_narrow(n, data):
    # Numerator a-degrees span at most n-1 consecutive steps above the shift.
    k = tuple(
        data.draw(st.integers(min_value=0, max_value=3)) for _ in range(n - 1)
    )
    k = tuple(sorted(k, reverse=True))
    cal = calibrated_superpolynomial(n, k)
    a_degrees = {exps[0] for exps in cal.value.num.terms}
    assert max(a_degrees) - min(a_degrees) <= n - 1


def test_calibrated_a_window_violation_raises(monkeypatch):
    # A term whose a-degrees span 5 steps cannot come from an n = 2 chart;
    # the check must raise, also under python -O.
    wide = BinomialRational(LaurentPoly(AQT, {(0, 0, 0): 1, (5, 0, 0): 1}))
    monkeypatch.setattr(localization, "_calibrated_term", lambda data, k: wide)
    with pytest.raises(ConsistencyError, match=r"span 5 steps; at n = 2"):
        calibrated_superpolynomial(2, (1,))


def test_n5_value_and_series_are_pinned():
    # SHA-256 of the canonical value string and of its degree-40 series for
    # T(5, 6).  Any change to the polynomial kernels that changes the sum,
    # its normalization or its expansion changes one of the two digests.
    cal = calibrated_superpolynomial(5, (1, 1, 1, 1))
    value = hashlib.sha256(str(cal.value).encode("utf-8")).hexdigest()
    series = hashlib.sha256(str(cal.truncated(40)).encode("utf-8")).hexdigest()
    assert value == "8ba86fd92f159c9becf48f0db090be94e721aa03dabd0b4abb742776707031a8"
    assert series == "62e42a2088c08dc96a35d156f4c791b0912547c221cd482fbe71361a3ba82629"


def test_calibrated_truncation_has_no_negative_coefficients():
    truncated = calibrated_superpolynomial(3, (1, 1)).truncated(30)
    assert truncated.terms
    assert all(coeff > 0 for coeff in truncated.terms.values())


# -- regime flags and warnings --------------------------------------------------------


def test_positivity_regime_is_the_monotone_cone():
    assert in_positivity_regime((2, 1))
    assert in_positivity_regime((1, 1))
    assert in_positivity_regime((0,))
    assert not in_positivity_regime((1, 2))
    assert not in_positivity_regime((-1,))


def test_negative_k_warns_but_computes():
    # Outside the monotone cone the sum is still well defined, but the
    # closed-form match is not promised; the flag records that.
    with pytest.warns(PositivityRegimeWarning):
        cal = calibrated_superpolynomial(2, (-1,))
    assert cal.value.den == {(0, 2, 0): 1}
    assert cal.value != homology_T2_odd(-1).value
    assert not cal.in_conjecture_regime


def test_link_s_is_flagged_experimental():
    with pytest.warns(ExperimentalFeatureWarning):
        cal = calibrated_superpolynomial(3, (1, 1), link_s=(1,))
    assert cal.link_s == (1,)


def _reference_term(data, k):
    """``_calibrated_term`` rebuilt with public ``LaurentPoly`` products from
    the ``to_record()`` dicts, each side's exponent written out: ``(2 - dx,
    -dy)`` for x, ``(-dx, 2 - dy)`` for y, ``(2 - ox, 2 - oy)`` for an
    obstruction pair."""

    def uv(a_power, u_power, v_power):
        return LaurentPoly.monomial(AQT, (a_power, 2 * u_power - 2 * v_power, 2 * v_power))

    num = uv(0, sum(map(operator.mul, k, data.wx)), sum(map(operator.mul, k, data.wy)))
    n = data.chart.n
    for wx_i, wy_i in zip(data.wx[: n - 1], data.wy[: n - 1]):
        num = num * (1 + uv(1, -wx_i, -wy_i))
    records = data.to_record()
    for record in records["obstruction"]:
        num = num * (1 - uv(0, 2 - record["ox"], 2 - record["oy"]))
    den = {}
    for record in records["tangent"]:
        if record["side"] == "x":
            factor = uv(0, 2 - record["dx"], -record["dy"])
        else:
            factor = uv(0, -record["dx"], 2 - record["dy"])
        ((exponent, _),) = factor.terms.items()
        den[exponent] = den.get(exponent, 0) + 1
    return BinomialRational(num, den)


@pytest.mark.parametrize(
    "n, link_s", [(n, ()) for n in range(1, 6)] + [(n, (1,)) for n in range(2, 6)]
)
def test_calibrated_term_matches_reference_products(n, link_s):
    ks = {(0,) * (n - 1), (1,) * (n - 1), tuple(range(n - 1, 0, -1)), ((2,) + (0,) * n)[: n - 1]}
    for chart in commuting_charts(n):
        data = weight_data(chart, link_s)
        for k in ks:
            term = _calibrated_term(data, k)
            reference = _reference_term(data, k)
            assert term.num.terms == reference.num.terms
            assert term.den == reference.den


# -- degeneracy guards ----------------------------------------------------------------


@pytest.mark.parametrize("n, count", [(2, 0), (3, 0), (4, 2)])
def test_degenerate_census(n, count):
    assert len(detect_degenerate(n)) == count


@pytest.mark.parametrize("n", range(1, 7))
def test_degenerate_scan_matches_the_record_filter(n):
    def has_zero_record(chart):
        tangent = weight_data(chart).to_record()["tangent"]
        return any(rec["dx"] == rec["dy"] == 0 for rec in tangent)

    assert detect_degenerate(n) == list(filter(has_zero_record, all_charts(n)))


def test_family_chart_is_detected_and_unusable():
    flagged = {chart.label.flat_key() for chart in detect_degenerate(4)}
    assert FAMILY_CHART.label.flat_key() in flagged
    assert FAMILY_CHART.label.mirror().flat_key() in flagged


def test_calibrated_term_rejects_fixed_tangent_direction():
    # The y-record (1, 2) has (dx, dy) = (0, 2): a torus-fixed direction in
    # the calibrated weights, so its factor would be (1 - 1).
    chart = build_chart(
        NestedSetPair.from_lists(4, [{3, 4}, {4}, (), ()], [{4}, {4}, {4}, ()])
    )
    with pytest.raises(DegenerateChartError) as excinfo:
        _calibrated_term(weight_data(chart), (0, 0, 0))
    assert excinfo.value.charts == (chart,)
    # 'weights <n>' lists it through dimT0; 'degenerate <n>' does not.
    assert weight_data(chart).fixed_dim()["dimT0"] > 0
    flagged = {degenerate.label.flat_key() for degenerate in detect_degenerate(4)}
    assert chart.label.flat_key() not in flagged


@pytest.mark.parametrize("n", range(1, 8))
def test_no_commuting_chart_has_a_fixed_direction(n):
    fixed = {("x", 2, 0), ("y", 0, 2)}
    for chart in commuting_charts(n):
        tangent = weight_data(chart).to_record()["tangent"]
        assert not any((rec["side"], rec["dx"], rec["dy"]) in fixed for rec in tangent)


def test_non_integral_arguments_are_rejected():
    with pytest.raises(ValueError, match="k entry 1.5 is not an integer"):
        calibrated_superpolynomial(2, (1.5,))
    with pytest.raises(ValueError, match="link_s entry"):
        calibrated_superpolynomial(3, (1, 1), link_s=(1.5,))
    with pytest.raises(ValueError, match="repeated"):
        calibrated_superpolynomial(3, (1, 1), link_s=(1, 1))
    # n is checked before the capacity cap compares it with an int.
    for bad in (3.5, "3", None):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            calibrated_superpolynomial(bad, (2, 1))


def test_integral_arguments_are_accepted():
    exact = calibrated_superpolynomial(3, (2, 1))
    cal = calibrated_superpolynomial(3.0, (Fraction(4, 2), 1.0))
    assert cal.k == (2, 1) and all(type(v) is int for v in cal.k)
    assert type(cal.n) is int and cal.n == 3
    assert str(cal.value) == str(exact.value)


def test_one_shot_link_s_reads_like_its_tuple():
    matrix = matrix_from_rows(FAMILY_CHART.mx)
    readers = [
        lambda link_s: weight_data(FAMILY_CHART, link_s).to_record(),
        lambda link_s: commutator_entries(matrix, matrix, link_s),
        lambda link_s: str(calibrated_superpolynomial(4, (1, 0, 0), link_s).value),
        lambda link_s: coxeter_braid(4, link_s, (1, 0, 0)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentalFeatureWarning)
        for read in readers:
            assert read(iter([3, 1])) == read((3, 1))


def test_localization_capacity_cap():
    with pytest.raises(CapacityError):
        calibrated_superpolynomial(8, (1,) * 7)
