"""Weight vectors, tangent/obstruction records, and fixed-locus counts.

The references here read the ``to_record()`` dicts with literal
conditions, (2, 0)/(0, 2) and (2, 2) for a fixed row and (0, 0) for a
vanishing factor, so they stay independent of the package's unit rule.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coxlinks import weights as weights_module
from coxlinks.charts import Chart, NestedSetPair, all_charts, is_commutative, monomial_vector
from coxlinks.weights import weight_data, weight_vectors

FAMILY_CHART = Chart(
    NestedSetPair.from_lists(4, [{3, 4}, {3}, (), ()], [{4}, {4}, {4}, ()])
)


# -- the recursion -----------------------------------------------------------------


def test_weight_vectors_of_family_chart():
    # Pivots: x at (1,4), (2,3); y at (3,4).  Recursion from w^4 = (0,0).
    wx, wy = weight_vectors(FAMILY_CHART)
    assert wx == (1, 1, 0, 0)
    assert wy == (0, 1, 1, 0)


@pytest.mark.parametrize("n", range(1, 8))
def test_weights_equal_word_degrees(n):
    # w_x^i is the X-degree of the monomial word of flag step n+1-i, and
    # likewise for Y: the letter counts of the words are the oracle of the
    # integer recursion that computes the weights.
    for chart in all_charts(n):
        wx, wy = weight_vectors(chart)
        words = monomial_vector(chart)
        for i in range(1, n + 1):
            word = words[n - i]  # m_{n+1-i}, zero-indexed
            assert wx[i - 1] == word.count("X")
            assert wy[i - 1] == word.count("Y")


@pytest.mark.parametrize("n", range(1, 7))
def test_weights_match_the_pivot_recursion(n):
    # w^n = (0, 0); an x-pivot (i, j) gives w_x^i = w_x^j + 1, w_y^i = w_y^j,
    # mirrored for a y-pivot.
    for chart in all_charts(n):
        wx, wy = weight_vectors(chart)
        assert (wx[n - 1], wy[n - 1]) == (0, 0)
        for pivots, step in ((chart.px, (1, 0)), (chart.py, (0, 1))):
            for i, j in pivots:
                assert (wx[i - 1] - wx[j - 1], wy[i - 1] - wy[j - 1]) == step


def _tangent(chart):
    return weight_data(chart).to_record()["tangent"]


def _obstruction(chart, link_s=()):
    return weight_data(chart, link_s).to_record()["obstruction"]


def _link_sets(n):
    """``()``, ``(1,)`` and ``(1, n - 1)``, where ``n`` admits them."""
    return [link for link in ((), (1,), (1, n - 1)) if all(0 < i < n for i in link)]


def test_tangent_record_counts_and_sides():
    records = _tangent(FAMILY_CHART)
    assert len(records) == 6
    assert {record["side"] for record in records} == {"x", "y"}


@pytest.mark.parametrize("n", range(1, 8))
def test_tangent_records_index_the_free_coordinates(n):
    for chart in all_charts(n):
        records = _tangent(chart)
        for side, free in (("x", chart.nx), ("y", chart.ny)):
            indices = [tuple(rec["index"]) for rec in records if rec["side"] == side]
            assert indices == sorted(free)


def test_family_chart_has_one_vanishing_factor():
    # The y_{12} record carries (dx, dy) = (0, 0): a vanishing denominator
    # factor (the chart sits in a positive-dimensional torus orbit).
    zero_records = [rec for rec in _tangent(FAMILY_CHART) if rec["dx"] == rec["dy"] == 0]
    assert [(rec["side"], rec["index"]) for rec in zero_records] == [("y", [1, 2])]
    assert weight_data(FAMILY_CHART).fixed_dim()["vanishing_factors"] == 1


def test_obstruction_records_default_index_set():
    records = _obstruction(FAMILY_CHART)
    assert [record["index"] for record in records] == [[1, 3], [1, 4], [2, 4]]


def test_obstruction_records_grow_with_link_s():
    base = _obstruction(FAMILY_CHART)
    extended = _obstruction(FAMILY_CHART, link_s=(2,))
    assert len(extended) == len(base) + 1
    assert [2, 3] in [record["index"] for record in extended]
    with pytest.raises(ValueError):
        weight_data(FAMILY_CHART, link_s=(4,))


# A bool after a valid entry is still named, not merged into the 1 by a set.
@pytest.mark.parametrize("link_s", [("1",), (True,), (2.0,), 1, 0, None, (1, True)])
def test_non_int_link_s_is_rejected_by_name(link_s):
    with pytest.raises(ValueError, match="link_s"):
        weight_data(FAMILY_CHART, link_s)


# -- the obstruction pairs are the commutator equations ------------------------------


def _commutator(x, y):
    """The dense commutator ``XY - YX`` of two square matrices."""
    n = len(x)
    return [
        [sum(x[i][m] * y[m][j] - y[i][m] * x[m][j] for m in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _obstruction_entries(chart):
    """``{(i, j): [X, Y]_ij}`` at the base point over the pairs the sum uses."""
    bracket = _commutator(chart.mx, chart.my)
    pairs = weights_module._obstruction_pairs(chart.n, ())
    return {(i, j): bracket[i - 1][j - 1] for i, j in pairs}


def test_family_base_point_fails_exactly_at_24():
    assert _obstruction_entries(FAMILY_CHART) == {(1, 3): 0, (1, 4): 0, (2, 4): 1}
    assert not is_commutative(FAMILY_CHART)


@pytest.mark.parametrize("n", range(2, 7))
def test_base_point_entries_decide_commutativity(n):
    # For strictly upper pairs the first superdiagonal of the commutator
    # always vanishes, so the obstruction entries decide full commutativity.
    for chart in all_charts(n):
        tracked_zero = not any(_obstruction_entries(chart).values())
        assert tracked_zero == is_commutative(chart)


def _drop(wx, wy, i, j):
    return wx[i - 1] - wx[j - 1], wy[i - 1] - wy[j - 1]


def _unhoisted_obstruction(chart, link_s):
    """The obstruction records with the pair list built for this one chart:
    ``(ox, oy) = (Dx + 1, Dy + 1)``."""
    n = chart.n
    wx, wy = weight_vectors(chart)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)]
    pairs += [(i, i + 1) for i in sorted(set(link_s))]
    records = []
    for i, j in sorted(pairs):
        dx, dy = _drop(wx, wy, i, j)
        records.append({"index": [i, j], "ox": dx + 1, "oy": dy + 1})
    return records


@pytest.mark.parametrize("n", range(1, 7))
def test_obstruction_records_match_the_unhoisted_pair_list(n):
    for chart in all_charts(n):
        for link_s in _link_sets(n):
            assert _obstruction(chart, link_s) == _unhoisted_obstruction(chart, link_s)


def _documented_record(chart, link_s):
    """``to_record()`` from the module docstring's formulas: an x-coordinate
    stores ``(Dx + 1, Dy)``, a y-coordinate ``(Dx, Dy + 1)``."""
    wx, wy = weight_vectors(chart)
    tangent = []
    for side, free, ex, ey in (("x", chart.nx, 1, 0), ("y", chart.ny, 0, 1)):
        for i, j in sorted(free):
            dx, dy = _drop(wx, wy, i, j)
            tangent.append({"side": side, "index": [i, j], "dx": dx + ex, "dy": dy + ey})
    return {
        "wx": list(wx),
        "wy": list(wy),
        "tangent": tangent,
        "obstruction": _unhoisted_obstruction(chart, link_s),
    }


@pytest.mark.parametrize("n", range(1, 6))
def test_records_follow_the_documented_formulas(n):
    for chart in all_charts(n):
        for link_s in _link_sets(n):
            record = weight_data(chart, link_s).to_record()
            assert record == _documented_record(chart, link_s)


# -- fixed-locus counts --------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 8))
def test_fixed_dim_inequality_holds(n):
    for chart in all_charts(n):
        counts = weight_data(chart).fixed_dim()
        assert counts["inequality"]
        assert counts["dimOb0"] >= counts["dimT0"]


def test_vanishing_factor_census():
    # Literal (0,0) tangent records: none below n = 4, exactly two charts
    # at n = 4 (the family chart and its mirror).
    for n in (1, 2, 3):
        assert all(
            weight_data(chart).fixed_dim()["vanishing_factors"] == 0
            for chart in all_charts(n)
        )
    flagged = [
        chart
        for chart in all_charts(4)
        if weight_data(chart).fixed_dim()["vanishing_factors"]
    ]
    assert len(flagged) == 2
    labels = {chart.label.flat_key() for chart in flagged}
    family = FAMILY_CHART.label
    assert family.flat_key() in labels
    assert NestedSetPair(4, family.sy, family.sx).flat_key() in labels


def _counts_from_records(record):
    """The fixed-dimension counts, read off ``to_record()`` dicts."""
    tangent = [(rec["side"], rec["dx"], rec["dy"]) for rec in record["tangent"]]
    obstruction = [(rec["ox"], rec["oy"]) for rec in record["obstruction"]]
    dim_t0 = tangent.count(("x", 2, 0)) + tangent.count(("y", 0, 2))
    dim_ob0 = obstruction.count((2, 2))
    return {
        "dimT0": dim_t0,
        "dimOb0": dim_ob0,
        "inequality": dim_ob0 >= dim_t0,
        "vanishing_factors": tangent.count(("x", 0, 0)) + tangent.count(("y", 0, 0)),
        "vanishing_obstruction_factors": obstruction.count((0, 0)),
    }


def test_fixed_dim_counts_agree_with_weight_data():
    for n in range(1, 8):
        for chart in all_charts(n):
            data = weight_data(chart)
            expected = _counts_from_records(data.to_record())
            assert data.fixed_dim() == expected
            for link_s in _link_sets(n)[1:]:
                data = weight_data(chart, link_s)
                assert data.fixed_dim() == _counts_from_records(data.to_record())


# The literal unit e of each record, for the calibrated exponent 2e - s.
_RECORD_UNITS = {"x": (1, 0), "y": (0, 1), "obstruction": (1, 1)}


@pytest.mark.parametrize("n", range(1, 7))
def test_calibrated_exponents_are_the_records_read_back(n):
    # The one view the sum reads: 2e - s of every record, in record order,
    # with (0, 0) at a fixed row and 2e at a vanishing factor.
    for chart in all_charts(n):
        for link_s in _link_sets(n):
            data = weight_data(chart, link_s)
            record = data.to_record()
            units = [_RECORD_UNITS[rec["side"]] for rec in record["tangent"]]
            expected_denominator = [
                (2 * ex - rec["dx"], 2 * ey - rec["dy"])
                for (ex, ey), rec in zip(units, record["tangent"])
            ]
            expected_numerator = [(2 - rec["ox"], 2 - rec["oy"]) for rec in record["obstruction"]]
            numerator, denominator = data.calibrated_exponents()
            assert numerator == expected_numerator
            assert denominator == expected_denominator
            counts = data.fixed_dim()
            assert numerator.count((0, 0)) == counts["dimOb0"]
            assert denominator.count((0, 0)) == counts["dimT0"]
            assert numerator.count((2, 2)) == counts["vanishing_obstruction_factors"]
            vanishing = [
                exponent == (2 * ex, 2 * ey) for exponent, (ex, ey) in zip(denominator, units)
            ]
            assert sum(vanishing) == counts["vanishing_factors"]


def test_weight_data_computes_the_weight_vectors_once(monkeypatch):
    calls = []
    original = weights_module.weight_vectors

    def counting(chart):
        calls.append(chart)
        return original(chart)

    monkeypatch.setattr(weights_module, "weight_vectors", counting)
    for chart in all_charts(4):
        before = len(calls)
        weights_module.weight_data(chart, link_s=(1,))
        assert len(calls) == before + 1


def test_weight_data_bundles_everything():
    data = weight_data(FAMILY_CHART, link_s=(2,))
    assert data.wx == (1, 1, 0, 0)
    record = data.to_record()
    assert set(record) == {"wx", "wy", "tangent", "obstruction"}
    assert len(record["tangent"]) == 6
    assert len(record["obstruction"]) == 4


# -- the rescaling gauge check --------------------------------------------------------


def _torus_rescaling_check(chart, t, s):
    """Exact check that the weight vectors produce a torus action on the chart.

    Builds a sample point of the chart with distinct rational free
    coordinates, applies the two one-parameter rescalings

        X -> t^-1 D X D^-1,   Y -> s^-1 D Y D^-1,   D = diag(t^(w_x^i) s^(w_y^i)),

    for nonzero rationals ``t`` and ``s``, and verifies the result is again a
    point of the chart (pivots 1, zeros 0) whose free entries scaled exactly
    by ``t^(Dx-ex) s^(Dy-ey)``, with the unit ``e`` of their side: ``(1, 0)``
    for x, ``(0, 1)`` for y.
    """
    n = chart.n
    wx, wy = weight_vectors(chart)

    def sample(side_free, pivots):
        m = [[Fraction(0)] * n for _ in range(n)]
        for i, j in pivots:
            m[i - 1][j - 1] = Fraction(1)
        for counter, (i, j) in enumerate(sorted(side_free), start=2):
            m[i - 1][j - 1] = Fraction(counter, counter + 1)
        return m

    nx, ny = chart.nx, chart.ny
    mx = sample(nx, chart.px)
    my = sample(ny, chart.py)
    d = [t ** wx[i] * s ** wy[i] for i in range(n)]

    def rescaled(m, overall):
        return [
            [overall * d[i] / d[j] * m[i][j] for j in range(n)]
            for i in range(n)
        ]

    new_x = rescaled(mx, 1 / t)
    new_y = rescaled(my, 1 / s)
    for matrix, pivots, zeros, free, source, (ex, ey) in (
        (new_x, chart.px, chart.zx, nx, mx, (1, 0)),
        (new_y, chart.py, chart.zy, ny, my, (0, 1)),
    ):
        for i, j in pivots:
            if matrix[i - 1][j - 1] != 1:
                return False
        for i, j in zeros:
            if matrix[i - 1][j - 1] != 0:
                return False
        for i, j in free:
            scale = t ** (wx[i - 1] - wx[j - 1] - ex) * s ** (wy[i - 1] - wy[j - 1] - ey)
            if matrix[i - 1][j - 1] != scale * source[i - 1][j - 1]:
                return False
    return True


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.data(),
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5)).filter(bool),
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5)).filter(bool),
)
def test_rescaling_is_a_torus_action_on_every_chart(n, data, t, s):
    chart = data.draw(st.sampled_from(all_charts(n)))
    assert _torus_rescaling_check(chart, t, s)
