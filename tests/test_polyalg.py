"""Exact Laurent-polynomial and binomial-rational arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from coxlinks import polyalg
from coxlinks.errors import ExpansionError, NotDivisibleError
from coxlinks.polyalg import (
    BinomialRational,
    LaurentPoly,
    divide_by_binomial,
    parse_poly,
)

AQ = ("a", "q")
AQT = ("a", "q", "t")
QT = ("Q", "T")


def poly(text: str, variables=AQ) -> LaurentPoly:
    return parse_poly(text, variables)


@st.composite
def laurent_polys(draw, variables=AQ, max_terms=6, max_exp=5, max_coeff=9):
    terms = draw(
        st.dictionaries(
            st.tuples(
                *[
                    st.integers(min_value=-max_exp, max_value=max_exp)
                    for _ in variables
                ]
            ),
            st.integers(min_value=-max_coeff, max_value=max_coeff).filter(bool),
            max_size=max_terms,
        )
    )
    return LaurentPoly(variables, terms)


# -- LaurentPoly ----------------------------------------------------------------


def test_zero_one_and_constants():
    assert LaurentPoly.zero(AQ).is_zero()
    assert not LaurentPoly.zero(AQ)
    assert LaurentPoly.one(AQ) == 1
    assert LaurentPoly.constant(AQ, -3) == -3


@pytest.mark.parametrize("value", (0, 1, -3))
def test_a_constant_hashes_as_the_int_it_equals(value):
    constant = LaurentPoly.constant(AQT, value)
    assert constant == value and hash(constant) == hash(value)
    assert value in {constant} and constant in {value}


def test_variable_and_monomial_constructors():
    q = LaurentPoly.variable(AQ, "q")
    assert str(q) == "q"
    assert str(LaurentPoly.monomial(AQ, (2, -1))) == "a^2*q^-1"


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f - f == LaurentPoly.zero(AQ)
    assert f * LaurentPoly.one(AQ) == f


@given(laurent_polys())
def test_str_parse_round_trip(f):
    assert parse_poly(str(f), AQ) == f


def test_glex_display_order():
    # Total degree first, ties broken lexicographically by exponent.
    assert str(poly("a^2*q^2 + 1 - a^4")) == "-a^4 + a^2*q^2 + 1"
    assert str(poly("q^-2 + q^2")) == "q^2 + q^-2"


@pytest.mark.parametrize(
    "text, terms",
    [
        ("", {}),
        ("   ", {}),
        ("\t\n", {}),
        ("a ", {(1, 0): 1}),
        ("a*q^2 \n", {(1, 2): 1}),
        ("--a", {(1, 0): 1}),
        ("+-+a - -q", {(1, 0): -1, (0, 1): 1}),
        ("- - 3", {(0, 0): 3}),
        ("q^-2 + q^+2", {(0, -2): 1, (0, 2): 1}),
        ("q ^ - - 2", {(0, 2): 1}),
        ("a^ -\t1", {(-1, 0): 1}),
        ("2*a*3*q", {(1, 1): 6}),
        ("a * 2 * a", {(2, 0): 2}),
        ("q*a^2*q^-1", {(2, 0): 1}),
        ("a\t+\n1", {(1, 0): 1, (0, 0): 1}),
        ("0*a + 0", {}),
        ("a - a", {}),
    ],
)
def test_parse_grammar_table(text, terms):
    assert parse_poly(text, AQ).terms == terms


def test_parse_rejects_garbage():
    for text in ["2a", "a b", "+", "a +", "a +* q", "a^", "a^b", "a^-", "a*", "*a",
                 "a*-q", "a^2^3", "b + 1", "a . q", "1 2"]:
        with pytest.raises(ValueError):
            parse_poly(text, AQ)


def test_substitute_monomial_images():
    f = poly("a*q^2 - q^-2", AQ)
    image = f.substitute(
        {"a": LaurentPoly.monomial(AQT, (0, 0, 2)), "q": LaurentPoly.monomial(AQT, (0, 1, 0))}
    )
    assert image == parse_poly("q^2*t^2 - q^-2", AQT)


def test_substitute_polynomial_image_needs_nonnegative_powers():
    f = poly("q + q^-1")
    with pytest.raises(ValueError):
        f.substitute(
            {
                "a": LaurentPoly.one(AQ),
                "q": poly("q + 1"),  # not invertible, q^-1 cannot be mapped
            }
        )


def test_exponents_of():
    f = poly("-a^4 + a^2*q^2 + 2*a^2")
    assert f.exponents_of("a") == {4, 2}


@pytest.mark.parametrize(
    "bad", [Fraction(1, 2), 2.7, -0.5, "3", float("inf"), None, "", []]
)
def test_non_integer_coefficient_is_rejected(bad):
    with pytest.raises(ValueError, match="is not an integer") as raised:
        LaurentPoly(("q",), {(1,): bad, (0,): 2})
    assert repr(bad) in str(raised.value)


@pytest.mark.parametrize(
    "exponent, message",
    [((0, 1.5), r"\(0, 1.5\) has entry 1.5"), ((True, 2), r"\(True, 2\) has entry True")],
    ids=["float", "bool"],
)
def test_non_int_exponent_entry_is_rejected(exponent, message):
    with pytest.raises(ValueError, match=message):
        LaurentPoly(AQ, {exponent: 1})


def test_integral_coefficients_are_accepted():
    zeros = {(2,): 0.0, (3,): False, (4,): Fraction(0)}
    f = LaurentPoly(("q",), {(1,): Fraction(4, 2), (0,): 3.0, **zeros})
    assert f == poly("2*q + 3", ("q",))
    assert all(type(c) is int for c in f.terms.values())


# -- divide_by_binomial and truncation -------------------------------------------


def test_exact_division_by_binomial():
    # (1 - q^4) = (1 - q)(1 + q + q^2 + q^3)
    numerator = poly("1 - q^4")
    quotient = divide_by_binomial(numerator, (0, 1))
    assert quotient == poly("1 + q + q^2 + q^3")


def test_division_failure_raises():
    with pytest.raises(NotDivisibleError):
        divide_by_binomial(poly("1 + q"), (0, 1))


def is_canonical(exponent) -> bool:
    """Graded-lex above 1: the orientation every stored factor ``(1 - m)`` has."""
    return (sum(exponent), tuple(exponent)) > (0, (0,) * len(exponent))


# Factors over (a, q, t) in canonical orientation, including total degree 0
# (e.g. a*q^-1) and negative components.
canonical_monomials = st.tuples(
    *[st.integers(min_value=-3, max_value=3) for _ in AQT]
).filter(is_canonical)


def test_division_by_degree_zero_binomial_terminates():
    # (1 - Q*T^-1) has total degree 0: a non-exact division must fail fast.
    with pytest.raises(NotDivisibleError, match="sum to 1, not 0"):
        divide_by_binomial(poly("1 + Q", QT), (1, -1))
    product = poly("1 - Q*T^-1", QT) * poly("1 + Q + T", QT)
    assert divide_by_binomial(product, (1, -1)) == poly("1 + Q + T", QT)


def test_division_rejects_factor_in_flipped_orientation():
    with pytest.raises(ValueError, match="canonical orientation"):
        divide_by_binomial(poly("1 - q"), (0, -1))


def test_division_rejects_factor_of_wrong_length():
    with pytest.raises(ValueError, match="has 2 entries for 3 variables"):
        divide_by_binomial(poly("1 - q", AQT), (0, 1))
    with pytest.raises(ValueError, match="has 4 entries for 3 variables"):
        divide_by_binomial(poly("1 - a*q", AQT), (1, 1, 0, 5))


@given(laurent_polys(AQT, max_terms=4, max_exp=3), canonical_monomials)
@example(LaurentPoly(AQT, {(0, 0, 0): 1, (1, 0, 0): 1}), (1, -1, 0))
def test_division_inverts_multiplication(f, m):
    factor = LaurentPoly(AQT, {(0, 0, 0): 1, m: -1})
    assert divide_by_binomial(f * factor, m) == f


@given(
    laurent_polys(AQT, max_terms=4, max_exp=3),
    canonical_monomials,
    st.tuples(*[st.integers(min_value=-6, max_value=6) for _ in AQT]),
    st.integers(min_value=-9, max_value=9).filter(bool),
)
@example(LaurentPoly.zero(AQT), (1, -1, 0), (0, 0, 0), 1)
def test_division_rejects_any_single_extra_term(f, m, extra, coefficient):
    # A nonzero multiple of (1 - m) never has exactly one term.
    factor = LaurentPoly(AQT, {(0, 0, 0): 1, m: -1})
    perturbed = f * factor + LaurentPoly.monomial(AQT, extra, coefficient)
    with pytest.raises(NotDivisibleError):
        divide_by_binomial(perturbed, m)


def test_truncate_series_geometric():
    # 1/(1-q) expands to 1 + q + q^2 + ... exactly up to the bound.
    rational = BinomialRational(LaurentPoly.one(AQ), {(0, 1): 1})
    series = rational.truncate_series({"a": 1, "q": 1}, 4)
    assert series == poly("1 + q + q^2 + q^3 + q^4")


@st.composite
def expandable_rationals(draw):
    """(rational, weights, bound) with every denominator step positive."""
    weights = dict(
        zip(AQT, draw(st.tuples(*[st.integers(min_value=-1, max_value=3) for _ in AQT])))
    )

    def step(exponent):
        return sum(weights[name] * e for name, e in zip(AQT, exponent))

    factors = st.tuples(*[st.integers(min_value=-2, max_value=3) for _ in AQT]).filter(
        lambda m: is_canonical(m) and step(m) > 0
    )
    den = draw(
        st.dictionaries(
            factors, st.integers(min_value=1, max_value=3), min_size=2, max_size=3
        )
    )
    num = draw(laurent_polys(AQT, max_terms=4, max_exp=3))
    bound = draw(st.integers(min_value=-4, max_value=10))
    return BinomialRational(num, den), weights, bound


@given(expandable_rationals())
# A chain with a gap whose running sum returns to 0 before its top step.
@example((BinomialRational(poly("1 - q + q^3", AQT), {(0, 1, 0): 1}), dict.fromkeys(AQT, 1), 6))
# A factor of multiplicity 3.
@example(
    (
        BinomialRational(poly("a - t", AQT), {(0, 1, 0): 3, (1, 0, 1): 1}),
        {"a": 1, "q": 2, "t": 1},
        9,
    )
)
# An exactly divisible numerator: the remainder is empty, so no tail.
@example((BinomialRational(poly("1 - q^4", AQT), {(0, 1, 0): 1}), dict.fromkeys(AQT, 1), 10))
def test_truncate_series_times_denominator_recovers_numerator(case):
    # Every term of r - s has degree > bound and the denominator has no term
    # of negative degree, so s * den agrees with num up to the bound.
    rational, weights, bound = case
    series = rational.truncate_series(weights, bound)
    assert series.truncate(weights, bound) == series
    recovered = (series * rational.denominator_poly()).truncate(weights, bound)
    assert recovered == rational.num.truncate(weights, bound)


def test_missing_series_weight_is_named():
    with pytest.raises(ValueError, match=r"no weight for variables \['q'\]"):
        poly("1 + q").truncate({"a": 1}, 2)
    rational = BinomialRational(poly("1"), {(0, 1): 1})
    with pytest.raises(ValueError, match=r"no weight for variables \['q'\]"):
        rational.truncate_series({"a": 1}, 2)


def test_truncate_series_rejects_nonpositive_weights():
    rational = BinomialRational(LaurentPoly.one(AQ), {(1, -1): 1})
    with pytest.raises(ExpansionError):
        rational.truncate_series({"a": 1, "q": 1}, 4)


# -- BinomialRational -------------------------------------------------------------


def test_rational_normalization_cancels_common_factor():
    numerator = poly("1 - q^2")
    rational = BinomialRational(numerator, {(0, 1): 1}).normalize()
    assert not rational.den
    assert rational.num == poly("1 + q")


@pytest.mark.parametrize(
    "den, message",
    [
        ({(0, 1): 1.5}, r"\(0, 1\) has multiplicity 1.5, not an int"),
        ({(0, 1): 2.0}, r"\(0, 1\) has multiplicity 2.0, not an int"),
        ({(0, 1): True}, r"\(0, 1\) has multiplicity True, not an int"),
        ({(0, 1): "1"}, r"\(0, 1\) has multiplicity '1', not an int"),
        ({(1,): 1}, r"\(1,\) has 1 entries for variables \('a', 'q'\)"),
        ({(0, 1, 0): 1}, r"\(0, 1, 0\) has 3 entries"),
        ({(0, 1.5): 1}, r"factor \(0, 1.5\) has entry 1.5, not an int"),
        ({(True, 2): 1}, r"factor \(True, 2\) has entry True, not an int"),
        ({(0, 0): 1}, r"^denominator factor \(1 - 1\) is a zero divisor$"),
        ({(0, 1): -1}, r"^negative denominator multiplicity$"),
    ],
    ids=[
        "float",
        "integral-float",
        "bool",
        "str",
        "short-exponent",
        "long-exponent",
        "float-entry",
        "bool-entry",
        "zero-divisor",
        "negative-multiplicity",
    ],
)
def test_rational_rejects_malformed_denominator(den, message):
    with pytest.raises(ValueError, match=message):
        BinomialRational(LaurentPoly.one(AQ), den)


def test_rational_addition_common_denominator():
    one_over = BinomialRational(LaurentPoly.one(AQ), {(0, 1): 1})
    total = one_over + one_over
    assert total.num == poly("2")
    assert total.den == {(0, 1): 1}


def test_denominator_factors_are_stored_in_ascending_glex_order():
    # (1 - q^-1) flips to (1 - q), which sorts below (1 - a*q) and (1 - q^2).
    rational = BinomialRational(poly("1"), {(1, 1): 1, (0, 2): 2, (0, -1): 1})
    assert list(rational.den) == [(0, 1), (0, 2), (1, 1)]
    assert str(rational) == "(-q) / ((1 - q) * (1 - q^2)^2 * (1 - a*q))"


def test_denominator_orientation_flip():
    # 1/(1 - q^-2) is stored as -q^2/(1 - q^2): the factor always keeps its
    # monomial graded-lex above 1; numerator absorbs the unit.
    flipped = BinomialRational(poly("1"), {(0, -2): 1})
    assert flipped.den == {(0, 2): 1}
    assert flipped.num == poly("-q^2")


def test_rational_equality_is_semantic():
    # Equality cross-multiplies, so unnormalized and normalized forms agree.
    a = BinomialRational(poly("1 - q^4"), {(0, 1): 1, (0, 2): 1})
    b = BinomialRational(poly("1 + q^2"), {(0, 1): 1})
    assert a == b
    assert a.normalize() == b
    assert a.normalize().normalize() == a.normalize()


def test_string_form_single_and_multiple_factors():
    single = BinomialRational(poly("1"), {(0, 2): 1})
    assert str(single) == "(1) / (1 - q^2)"
    double = BinomialRational(poly("q"), {(0, 2): 2})
    assert str(double) == "(q) / (1 - q^2)^2"


@given(laurent_polys(max_terms=3, max_exp=2), laurent_polys(max_terms=3, max_exp=2))
def test_rational_product_is_commutative(f, g):
    rf = BinomialRational(f, {(0, 1): 1})
    rg = BinomialRational(g, {(1, 0): 1})
    assert rf * rg == rg * rf


def test_mixed_arithmetic_laurent_times_rational():
    scalar = poly("q")
    rational = BinomialRational(poly("1 + q"), {(0, 2): 1})
    left = scalar * rational
    right = rational * scalar
    assert left == right
    assert left.num == poly("q + q^2")


def test_to_record_round_trip():
    rational = BinomialRational(poly("1 + a*q^-1"), {(0, 2): 2, (1, 1): 1})
    record = rational.to_record()
    assert parse_poly(record["numerator"], AQ) == rational.num
    rebuilt = {}
    for factor, multiplicity in record["denominator_factors"]:
        exponent = parse_poly(factor, AQ)
        (key,) = exponent.terms
        rebuilt[key] = multiplicity
    assert rebuilt == rational.den


# -- the LCD lift and the trusted constructor -----------------------------------

# Canonical factors that share directions, so that sums lift both sides.
LIFT_FACTORS = ((0, 1, 0), (0, 2, 0), (0, 2, -1), (1, -1, 0), (0, 1, 1))


@st.composite
def rationals(draw, max_terms=5):
    den = draw(
        st.dictionaries(
            st.sampled_from(LIFT_FACTORS), st.integers(min_value=0, max_value=3)
        )
    )
    return BinomialRational(draw(laurent_polys(AQT, max_terms, max_exp=3)), den)


def _reference_product(left: dict, right: dict) -> dict:
    product = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            exponent = tuple(a + b for a, b in zip(e1, e2))
            product[exponent] = product.get(exponent, 0) + c1 * c2
    return {e: c for e, c in product.items() if c}


def _reference_sum(x: BinomialRational, y: BinomialRational) -> tuple:
    """``x + y`` lifted to the LCD through general products of dicts."""
    lcd = dict(x.den)
    for exponent, multiplicity in y.den.items():
        lcd[exponent] = max(lcd.get(exponent, 0), multiplicity)
    left, right = dict(x.num.terms), dict(y.num.terms)
    for exponent, multiplicity in lcd.items():
        binomial = {(0,) * len(exponent): 1, exponent: -1}
        for _ in range(multiplicity - x.den.get(exponent, 0)):
            left = _reference_product(left, binomial)
        for _ in range(multiplicity - y.den.get(exponent, 0)):
            right = _reference_product(right, binomial)
    total = dict(left)
    for exponent, coefficient in right.items():
        total[exponent] = total.get(exponent, 0) + coefficient
    total = {e: c for e, c in total.items() if c}
    return total, (lcd if total else {})


@given(rationals(), rationals())
@example(
    BinomialRational(parse_poly("1 + q", AQT), {(0, 2, 0): 3}),
    BinomialRational(parse_poly("a - t", AQT), {(0, 1, 0): 2, (0, 2, 0): 1}),
)
def test_addition_matches_reference_lift(x, y):
    # Structural, not only cross-multiplied: the same terms over the same LCD.
    total = x + y
    terms, den = _reference_sum(x, y)
    assert total.num.terms == terms
    assert total.den == den
    assert (y + x).num.terms == terms


@given(
    laurent_polys(AQT, max_exp=3),
    st.tuples(*[st.integers(min_value=-3, max_value=3) for _ in AQT]),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, -1]),
)
@example(poly("1 + q", AQT), (0, 0, 0), 2, -1)
@example(poly("a - t", AQT), (1, -2, 2), 3, 1)
def test_lift_matches_binomial_power(f, exponent, power, sign):
    factor = 1 + sign * LaurentPoly.monomial(AQT, exponent)
    lifted = LaurentPoly._trusted(AQT, polyalg._lift(f.terms, exponent, power, sign))
    assert lifted == f * factor**power


def assert_clean(value: LaurentPoly) -> None:
    """No stored zero coefficient, every exponent as long as the variables."""
    for exponent, coefficient in value.terms.items():
        assert coefficient != 0
        assert type(coefficient) is int
        assert type(exponent) is tuple and len(exponent) == len(value.variables)


@given(laurent_polys(AQT, max_exp=3), laurent_polys(AQT, max_exp=3), canonical_monomials)
@example(poly("1 + q", AQT), poly("-1 - q", AQT), (0, 1, 0))
def test_polynomial_results_hold_no_zero_coefficient(f, g, m):
    for value in (f + g, f - g, f - f, g - f, f * g, -f, f * -f + f * f):
        assert_clean(value)
    assert_clean(divide_by_binomial(f * LaurentPoly(AQT, {(0, 0, 0): 1, m: -1}), m))


@given(rationals(), rationals())
@example(
    BinomialRational(poly("1", AQT), {(0, 1, 0): 1}),
    BinomialRational(poly("-1", AQT), {(0, 1, 0): 1}),
)
def test_rational_results_hold_no_zero_coefficient(x, y):
    for value in (x + y, x - y, x - x, x * y, -x):
        assert_clean(value.num)
    difference = x - y
    assert_clean(difference.normalize().num)
    # Every factor of LIFT_FACTORS has positive degree under these weights.
    assert_clean(difference.truncate_series({"a": 3, "q": 1, "t": 1}, 6))


# -- normalize: one pass over the factors -----------------------------------------


def _reference_normalize(x: BinomialRational) -> tuple:
    """Retry every remaining factor until a whole pass divides nothing."""
    num, den = x.num, dict(x.den)
    if num.is_zero():
        return {}, {}
    progress = True
    while progress:
        progress = False
        for exponent in sorted(den, key=lambda e: (sum(e), e)):
            while den.get(exponent, 0) > 0:
                try:
                    num = divide_by_binomial(num, exponent)
                except NotDivisibleError:
                    break
                den[exponent] -= 1
                if den[exponent] == 0:
                    del den[exponent]
                progress = True
    return num.terms, den


@st.composite
def cancelling_rationals(draw):
    """A random numerator times random binomials, over random factors."""
    numerator = draw(laurent_polys(AQT, max_terms=4, max_exp=2))
    for exponent in draw(st.lists(st.sampled_from(LIFT_FACTORS), max_size=4)):
        numerator = numerator * LaurentPoly(AQT, {(0, 0, 0): 1, exponent: -1})
    den = draw(
        st.dictionaries(
            st.sampled_from(LIFT_FACTORS), st.integers(min_value=1, max_value=3)
        )
    )
    return BinomialRational(numerator, den)


@given(cancelling_rationals())
@example(BinomialRational(parse_poly("1 - q^4", AQT), {(0, 1, 0): 2, (0, 2, 0): 1}))
def test_normalize_matches_fixed_point_reference(x):
    normalized = x.normalize()
    terms, den = _reference_normalize(x)
    assert normalized.num.terms == terms
    assert normalized.den == den


def test_normalize_never_retries_a_failed_factor(monkeypatch):
    attempts = []

    def counting(poly, exponent):  # noqa: ANN001, ANN202
        try:
            quotient = divide_by_binomial(poly, exponent)
        except NotDivisibleError:
            attempts.append((exponent, False))
            raise
        attempts.append((exponent, True))
        return quotient

    monkeypatch.setattr(polyalg, "divide_by_binomial", counting)
    # (1 - q) divides 1 - q and (1 - a) does not divide the quotient 1.
    rational = BinomialRational(poly("1 - q"), {(0, 1): 1, (1, 0): 1})
    assert str(rational.normalize()) == "(1) / (1 - a)"
    assert attempts == [((0, 1), True), ((1, 0), False)]
    attempts.clear()
    rational = BinomialRational(poly("1 - q^4"), {(0, 1): 2, (0, 2): 1, (1, 1): 2})
    assert rational.normalize().den == {(0, 1): 1, (0, 2): 1, (1, 1): 2}
    # Each factor is divided until its first failure and never tried again.
    for exponent in {e for e, _ in attempts}:
        outcomes = [ok for e, ok in attempts if e == exponent]
        assert outcomes == [True] * (len(outcomes) - 1) + [False]
