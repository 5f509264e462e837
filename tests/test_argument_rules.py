"""One size rule: every count argument and size cap goes through ``errors._size``.

The table feeds each entry point a ``bool``, a float, a value below its
least and its cap + 1, and checks the exception class and that the message
names the argument.  The static guards keep the rule in one place.
"""

import ast
import re
from pathlib import Path

import pytest

import coxlinks
from coxlinks._planar_skein import MAX_RESOLVER_CROSSINGS, resolve_homfly
from coxlinks.charts import (
    MAX_ENUMERATION_N,
    MAX_SCAN_N,
    MAX_TABLEAU_N,
    NestedSetPair,
    all_charts,
    commuting_charts,
    count_standard_tableaux,
    gyt_injectivity_report,
)
from coxlinks.errors import CapacityError, _size
from coxlinks.homfly import (
    MAX_COXETER_LETTERS,
    MAX_HOMFLY_LETTERS,
    MAX_HOMFLY_STRANDS,
    BraidWord,
    coxeter_braid,
    homfly,
)
from coxlinks.localization import MAX_LOCALIZATION_N, calibrated_superpolynomial
from coxlinks.mfcheck import (
    MAX_SUITE_N,
    MAX_SUITE_SAMPLES,
    containment_suite,
    negative_control,
    symbolic_gid_check,
)
from coxlinks.polyalg import MAX_SERIES_DEGREE, LaurentPoly
from coxlinks.twostrand import (
    MAX_TWO_STRAND_INDEX,
    dim_H0_P1,
    dim_H1_P1,
    homology_T2_even,
    homology_T2_odd,
)
from coxlinks.weights import detect_degenerate

SOURCE = Path(coxlinks.__file__).parent


def _label(n):
    return NestedSetPair(n, ((),), ((),))


def _sum(n):
    k = (0,) * (n - 1) if isinstance(n, int) and n >= 1 else ()
    return calibrated_superpolynomial(n, k)


def _series(bound):
    """A cheap series to ``bound``: the two-strand unknot over ``(1 - q^2)``."""
    return homology_T2_odd(0).value.truncate_series({"a": 1, "q": 1, "t": 1}, bound)


def _power(power):
    return LaurentPoly.variable(("q",), "q") ** power


def _coxeter_word(letters, sign=1):
    """A two-strand Coxeter braid of exactly ``letters`` letters: ``cox_S``
    is ``s1`` or empty, and each power of ``delta_1`` adds two."""
    return coxeter_braid(2, () if letters % 2 else (1,), (sign * (letters // 2),))


# (id, call, argument name, cap): routines linear in one argument, capped at
# either sign.
LINEAR = [
    ("homology_T2_odd", homology_T2_odd, "|n|", MAX_TWO_STRAND_INDEX),
    ("homology_T2_odd-negative", lambda n: homology_T2_odd(-n), "|n|", MAX_TWO_STRAND_INDEX),
    ("homology_T2_even", homology_T2_even, "|n|", MAX_TWO_STRAND_INDEX),
    ("homology_T2_even-negative", lambda n: homology_T2_even(-n), "|n|", MAX_TWO_STRAND_INDEX),
    ("coxeter_braid", _coxeter_word, "letters", MAX_COXETER_LETTERS),
    ("coxeter_braid-negative", lambda c: _coxeter_word(c, -1), "letters", MAX_COXETER_LETTERS),
    # The closed forms call these at n - 1, so their cap is one higher.
    ("dim_H0_P1", dim_H0_P1, "|m|", MAX_TWO_STRAND_INDEX + 1),
    ("dim_H0_P1-negative", lambda m: dim_H0_P1(-m), "|m|", MAX_TWO_STRAND_INDEX + 1),
    ("dim_H1_P1", dim_H1_P1, "|m|", MAX_TWO_STRAND_INDEX + 1),
    ("dim_H1_P1-negative", lambda m: dim_H1_P1(-m), "|m|", MAX_TWO_STRAND_INDEX + 1),
    ("truncate_series", _series, "|bound|", MAX_SERIES_DEGREE),
    ("truncate_series-negative", lambda d: _series(-d), "|bound|", MAX_SERIES_DEGREE),
    # A two-strand word is cheap at the cap; six strands take seconds there.
    ("homfly-letters", lambda c: homfly(BraidWord(2, ((1, 1),) * c)), "letters",
     MAX_HOMFLY_LETTERS),
]


# (id, call, argument name, least, cap); a cap of None means no cap.
STRICT = [
    ("all_charts", all_charts, "n", 1, MAX_ENUMERATION_N),
    ("commuting_charts", commuting_charts, "n", 1, MAX_ENUMERATION_N),
    ("gyt_injectivity_report", gyt_injectivity_report, "n", 1, MAX_SCAN_N),
    ("detect_degenerate", detect_degenerate, "n", 1, MAX_SCAN_N),
    ("count_standard_tableaux", count_standard_tableaux, "n", 0, MAX_TABLEAU_N),
    ("NestedSetPair", _label, "n", 1, None),
    ("BraidWord", lambda n: BraidWord(n, ()), "strands", 1, None),
    ("containment_suite.n", lambda n: containment_suite(n, 1, 0), "n", 1, MAX_SUITE_N),
    ("containment_suite.samples", lambda s: containment_suite(3, s, 0), "samples", 1,
     MAX_SUITE_SAMPLES),
    ("negative_control.n", lambda n: negative_control(n, 1, 0), "n", 3, MAX_SUITE_N),
    ("negative_control.samples", lambda s: negative_control(3, s, 0), "samples", 1,
     MAX_SUITE_SAMPLES),
    ("symbolic_gid_check", symbolic_gid_check, "n", 1, MAX_SUITE_N),
]


def _strict_cases():
    for label, call, name, least, cap in STRICT:
        yield pytest.param(call, True, ValueError, name, id=f"{label}-bool")
        yield pytest.param(call, float(least + 1), ValueError, name, id=f"{label}-float")
        yield pytest.param(call, least - 1, ValueError, name, id=f"{label}-below")
        if cap is not None:
            yield pytest.param(call, cap + 1, CapacityError, name, id=f"{label}-cap")


CASES = [
    *_strict_cases(),
    # The Coxeter arguments convert integral values, so 2.0 passes; a bool
    # is rejected as n and as an entry of k or link_s.
    pytest.param(_sum, 2.5, ValueError, "n", id="calibrated_superpolynomial-float"),
    pytest.param(_sum, True, ValueError, "n", id="calibrated_superpolynomial-bool"),
    pytest.param(lambda v: calibrated_superpolynomial(2, (v,)), True, ValueError,
                 "k entry", id="calibrated_superpolynomial-k-bool"),
    pytest.param(lambda v: calibrated_superpolynomial(3, (1, 1), (v,)), True, ValueError,
                 "link_s entry", id="calibrated_superpolynomial-link_s-bool"),
    pytest.param(lambda n: coxeter_braid(n, (), ()), True, ValueError, "n",
                 id="coxeter_braid-bool"),
    pytest.param(lambda v: coxeter_braid(2, (), (v,)), True, ValueError, "k entry",
                 id="coxeter_braid-k-bool"),
    pytest.param(lambda v: coxeter_braid(3, (v,), (0, 0)), True, ValueError,
                 "link_s entry", id="coxeter_braid-link_s-bool"),
    pytest.param(_sum, 0, ValueError, "n", id="calibrated_superpolynomial-below"),
    # A power must be an int; a bool is not one.
    pytest.param(_power, True, ValueError, "power", id="LaurentPoly.__pow__-bool"),
    pytest.param(_power, 1.5, ValueError, "power", id="LaurentPoly.__pow__-float"),
    pytest.param(_power, "2", ValueError, "power", id="LaurentPoly.__pow__-str"),
    pytest.param(_series, True, ValueError, "bound", id="truncate_series-bool"),
    pytest.param(_series, 40.0, ValueError, "bound", id="truncate_series-float"),
    pytest.param(_sum, MAX_LOCALIZATION_N + 1, CapacityError, "n",
                 id="calibrated_superpolynomial-cap"),
    # Validated braids reach these caps only through their lengths.
    pytest.param(lambda n: homfly(BraidWord(n, ())), MAX_HOMFLY_STRANDS + 1,
                 CapacityError, "strands", id="homfly-cap"),
    pytest.param(lambda c: resolve_homfly(BraidWord(2, ((1, 1),) * c)),
                 MAX_RESOLVER_CROSSINGS + 1, CapacityError, "crossings",
                 id="resolve_homfly-cap"),
    *(
        pytest.param(call, cap + 1, CapacityError, name, id=f"{label}-cap")
        for label, call, name, cap in LINEAR
    ),
    # The sample count is checked first, so a bad count is named even when
    # n is over the cap too.
    pytest.param(lambda s: containment_suite(MAX_SUITE_N + 1, s, 0), 0, ValueError,
                 "samples", id="containment_suite-samples-first"),
    pytest.param(lambda s: negative_control(2, s, 0), 0, ValueError, "samples",
                 id="negative_control-samples-first"),
]


@pytest.mark.parametrize("call, value, error, name", CASES)
def test_each_entry_point_names_a_bad_size(call, value, error, name):
    with pytest.raises(error) as raised:
        call(value)
    assert type(raised.value) is error
    message = str(raised.value)
    if error is CapacityError:
        assert f"{name} <= " in message and f"got {name} = {value}" in message
    elif name.endswith(" entry"):
        assert message == f"{name} {value!r} is not an integer"
    else:
        assert message.startswith(f"{name} must be ")


@pytest.mark.parametrize(
    "call, cap", [pytest.param(call, cap, id=label) for label, call, _, cap in LINEAR]
)
def test_linear_caps_admit_the_cap_itself(call, cap):
    result = call(cap)
    if isinstance(result, BraidWord):
        assert len(result.word) == cap


def test_size_rule_returns_the_value_and_orders_its_checks():
    assert _size("n", 3, cap=3) == 3
    assert _size("n", 0, least=0) == 0
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got '9'$"):
        _size("n", "9", cap=3, what="a scan")
    with pytest.raises(CapacityError, match=r"^a scan is limited to n <= 3; got n = 4$"):
        _size("n", 4, cap=3, what="a scan")


# -- static guards -------------------------------------------------------------


def _modules():
    return sorted(SOURCE.glob("*.py"))


@pytest.mark.parametrize("path", _modules(), ids=lambda path: path.stem)
def test_capacity_errors_are_raised_only_by_the_size_rule(path):
    if path.stem == "errors":
        return
    calls = [
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CapacityError"
    ]
    assert not calls


@pytest.mark.parametrize("path", _modules(), ids=lambda path: path.stem)
def test_no_module_defines_its_own_size_checker(path):
    names = {
        node.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    assert not {
        name for name in names if re.fullmatch(r"_check_\w*(size|positive|suite|argument)\w*", name)
    }


@pytest.mark.parametrize("path", _modules(), ids=lambda path: path.stem)
def test_signed_indices_are_checked_only_by_the_signed_rule(path):
    # errors._signed_size is the one place that caps |value|.
    if path.stem == "errors":
        return
    calls = [
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_size"
        and any(
            isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "abs"
            for arg in [*node.args, *(keyword.value for keyword in node.keywords)]
        )
    ]
    assert not calls
