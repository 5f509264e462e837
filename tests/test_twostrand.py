"""Closed-form two-strand homology: golden values, parities, validation."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from coxlinks.errors import ConsistencyError
from coxlinks.polyalg import BinomialRational, parse_poly
from coxlinks.twostrand import (
    GradedDim,
    dim_H0_P1,
    dim_H1_P1,
    homology_T2_even,
    homology_T2_odd,
)

AQT = ("a", "q", "t")


def _ratio(num_text, den_factors):
    return BinomialRational(parse_poly(num_text, AQT), den_factors)


# -- line-bundle building blocks ------------------------------------------------------


@pytest.mark.parametrize(
    "m, expected",
    [
        (0, "1"),
        (1, "q^2 + q^-2*t^2"),
        (3, "q^6 + q^2*t^2 + q^-2*t^4 + q^-6*t^6"),
        (-1, "0"),
    ],
)
def test_sections_of_twisted_line_bundle(m, expected):
    assert str(dim_H0_P1(m)) == expected


@pytest.mark.parametrize("m, expected", [(-1, "0"), (-2, "1"), (-3, "q^2 + q^-2*t^2")])
def test_first_cohomology_of_twisted_line_bundle(m, expected):
    assert str(dim_H1_P1(m)) == expected


@given(st.integers(min_value=0, max_value=12))
def test_h0_has_m_plus_one_terms(m):
    assert len(dim_H0_P1(m).terms) == m + 1


@given(st.integers(min_value=0, max_value=12))
def test_serre_pairing_of_term_counts(m):
    # h^1(O(-m-2)) = h^0(O(m)) on the projective line.
    assert len(dim_H1_P1(-m - 2).terms) == len(dim_H0_P1(m).terms)


# -- odd torus knots ------------------------------------------------------------------


def test_odd_trefoil_golden():
    value = homology_T2_odd(1).value
    assert value == _ratio("a*q^2*t^-1 + a^2*t^-1 + a*q^-2*t", {(0, 2, 0): 1})
    assert str(value) == "(a*q^2*t^-1 + a^2*t^-1 + a*q^-2*t) / (1 - q^2)"


def test_odd_unknot_and_below():
    assert homology_T2_odd(0).value == _ratio("1", {(0, 2, 0): 1})
    assert homology_T2_odd(-1).value == _ratio("t^2", {(0, 2, 0): 1})


def test_odd_cinquefoil_golden():
    expected = _ratio(
        "a^2*q^4*t^-2 + a^3*q^2*t^-2 + a^2 + a^3*q^-2 + a^2*q^-4*t^2",
        {(0, 2, 0): 1},
    )
    assert homology_T2_odd(2).value == expected


@given(st.integers(min_value=1, max_value=25))
def test_odd_parity_is_pure(k):
    # Positive odd torus knots live in a single t-parity, matching k mod 2.
    assert homology_T2_odd(k).t_parities() == frozenset({k % 2})


# -- even torus links -----------------------------------------------------------------


def test_even_unlink_golden():
    assert homology_T2_even(0).value == _ratio("t", {(0, 2, 0): 2})


def test_even_negative_branch_mixes_parities():
    graded = homology_T2_even(-1)
    assert graded.value == _ratio(
        "-q^2*t^3 + t^3 + a^-1*t^2 + q^-2*t^2", {(0, 2, 0): 2}
    )
    assert graded.t_parities() == frozenset({0, 1})


@given(st.integers(min_value=1, max_value=20))
def test_even_denominator_is_two_tensor_factors(k):
    den = homology_T2_even(k).value.den
    assert den == {(0, 2, 0): 2}


@given(st.integers(min_value=1, max_value=20))
def test_odd_denominator_is_one_tensor_factor(k):
    assert homology_T2_odd(k).value.den == {(0, 2, 0): 1}


@pytest.mark.parametrize("homology", [homology_T2_odd, homology_T2_even])
@pytest.mark.parametrize("n", ["1", 2.0, True, None])
def test_non_int_n_is_rejected_by_name(homology, n):
    with pytest.raises(ValueError, match="n must be an int"):
        homology(n)


# -- the wrapper type -----------------------------------------------------------------


def test_graded_dim_rejects_foreign_denominator():
    with pytest.raises(ConsistencyError):
        GradedDim(_ratio("1", {(0, 1, 0): 1}))


def test_graded_dim_rejects_wide_a_spread():
    with pytest.raises(ConsistencyError):
        GradedDim(_ratio("1 + a^4", {(0, 2, 0): 1}))


def test_graded_dim_rejects_three_tensor_factors():
    with pytest.raises(ConsistencyError):
        GradedDim(_ratio("1", {(0, 2, 0): 3}))


def test_record_is_flat_and_faithful():
    record = homology_T2_odd(1).to_record()
    assert set(record) == {"numerator", "denominator_factors", "variables"}
    assert record["denominator_factors"] == [["q^2", 1]]
    assert parse_poly(record["numerator"], AQT) == homology_T2_odd(1).value.num


def test_closed_forms_digest():
    # Pinned from the normalized rational sums: the explicit numerators must match.
    lines = []
    for name, homology in (("odd", homology_T2_odd), ("even", homology_T2_even)):
        for n in range(-40, 41):
            value = homology(n)
            record = json.dumps(value.to_record(), sort_keys=True)
            lines.append(f"{name} {n} {value} {record}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "6d591b751146b62abdae689c8da8b66c28708e9c0134afdae0964ab508838593"
