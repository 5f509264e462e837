"""Chart labels, pivots, monomial vectors, tableaux, and their counts."""

import dataclasses
import gc
import math
from collections import Counter

import pytest

from coxlinks import charts
from coxlinks.charts import (
    MAX_TABLEAU_N,
    Chart,
    NestedSetPair,
    all_charts,
    commuting_charts,
    count_standard_tableaux,
    gyt_injectivity_report,
    is_commutative,
    monomial_vector,
    standard_tableau_images,
    to_gyt,
)
from coxlinks.errors import CapacityError
from coxlinks.weights import detect_degenerate


def label(n, sx, sy) -> NestedSetPair:
    return NestedSetPair.from_lists(n, sx, sy)


FAMILY_LABEL = label(4, [{3, 4}, {3}, (), ()], [{4}, {4}, {4}, ()])


# -- enumeration -----------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_counts_factorial(n):
    assert len(all_charts(n)) == math.factorial(n)


def test_enumeration_is_duplicate_free_and_sorted():
    keys = [chart.label.flat_key() for chart in all_charts(5)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_enumeration_rejects_bad_sizes():
    with pytest.raises(ValueError):
        all_charts(0)
    with pytest.raises(CapacityError):
        all_charts(10)


@pytest.mark.parametrize(
    "call, n",
    [
        (all_charts, True),
        (all_charts, 3.0),
        (commuting_charts, 2.0),
        (detect_degenerate, 3.0),
        (gyt_injectivity_report, True),
        # The two scans compare n with their caps, so they must validate first.
        (detect_degenerate, "3"),
        (gyt_injectivity_report, "3"),
        (count_standard_tableaux, True),
        (count_standard_tableaux, "3"),
        (count_standard_tableaux, 3.0),
    ],
)
def test_enumeration_rejects_non_int_sizes(call, n):
    with pytest.raises(ValueError, match="n must be an integer"):
        call(n)


def test_chains_need_not_be_disjoint():
    # The two chains may share elements, e.g. sx = ((3,), (3,), ()) with
    # sy = ((2, 3), (3,), ()): only the per-level size sum is constrained.
    overlapping = [
        chart for chart in all_charts(3) if set(chart.label.sx[0]) & set(chart.label.sy[0])
    ]
    assert overlapping


def test_label_validation():
    with pytest.raises(ValueError):
        label(2, [{2}, {2}], [(), ()])  # S^2 must be empty
    with pytest.raises(ValueError):
        label(2, [(), ()], [(), ()])  # level sizes must sum to n - level
    with pytest.raises(ValueError):
        label(3, [{2}, {3}, ()], [{3}, (), ()])  # not nested


EMPTY = frozenset()


@pytest.mark.parametrize(
    "build,field",
    [
        # A float element used to pass, then break Chart.to_record.
        pytest.param(lambda: label(2, [{2.0}, ()], [(), ()]), "S_x\\^1", id="float-in-sx"),
        pytest.param(lambda: label(3, [(), (), ()], [{3, 2.0}, {3}, ()]), "S_y\\^1",
                     id="float-in-sy"),
        pytest.param(lambda: NestedSetPair(True, (EMPTY,), (EMPTY,)), "n must be an int",
                     id="bool-n"),
        pytest.param(lambda: NestedSetPair(2.0, (frozenset({2}), EMPTY), (EMPTY, EMPTY)),
                     "n must be an int", id="float-n"),
        # A list chain used to build an unhashable label.
        pytest.param(lambda: NestedSetPair(2, [frozenset({2}), EMPTY], (EMPTY, EMPTY)),
                     "sx", id="list-sx"),
        pytest.param(lambda: NestedSetPair(2, ((), ()), [(2,), ()]), "sy", id="list-sy"),
        pytest.param(lambda: NestedSetPair(2, ({2}, EMPTY), (EMPTY, EMPTY)), "S_x\\^1",
                     id="set-level"),
        # Levels are sorted tuples, so a frozenset level is rejected like a set.
        pytest.param(lambda: NestedSetPair(2, (frozenset({2}), ()), ((), ())),
                     "S_x\\^1 must be a strictly increasing tuple", id="frozenset-level"),
        pytest.param(lambda: NestedSetPair(3, ((3, 2), (3,), ()), ((), (), ())), "S_x\\^1",
                     id="unsorted-level"),
        pytest.param(lambda: NestedSetPair(3, ((2, 3), (3,), ()), ((3, 3), (), ())),
                     "S_y\\^1", id="repeated-element"),
    ],
)
def test_label_validation_names_the_field(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_from_lists_sorts_levels_and_merges_repeats():
    assert label(3, [[3, 2, 2], {3}, ()], [(), (), ()]).sx == ((2, 3), (3,), ())
    # Elements that do not compare are named, not left to fail the sort.
    with pytest.raises(ValueError, match="S_x\\^1 must be a strictly increasing tuple of ints"):
        label(3, [{2, "3"}, {3}, ()], [(), (), ()])


# -- chart structure ---------------------------------------------------------------


def test_family_chart_structure():
    chart = Chart(FAMILY_LABEL)
    record = chart.to_record()
    assert sorted(record["pivots"]["x"]) == [(1, 4), (2, 3)]
    assert sorted(record["pivots"]["y"]) == [(3, 4)]
    assert sorted(record["zeros"]["x"]) == [(1, 3)]
    assert sorted(record["zeros"]["y"]) == [(1, 4), (2, 4)]
    assert monomial_vector(chart) == ("", "Y", "XY", "X")
    assert not is_commutative(chart)


X_CHAIN_LABEL = NestedSetPair(3, ((2, 3), (3,), ()), ((), (), ()))


def test_chart_constructor_takes_the_label_alone():
    record = Chart(X_CHAIN_LABEL).to_record()
    assert record["pivots"] == {"x": [(1, 2), (2, 3)], "y": []}
    assert record["monomials"] == ["1", "X", "XX"]
    with pytest.raises(TypeError):
        Chart(X_CHAIN_LABEL, ((1, 2), (2, 3)), ())


def test_chart_constructor_rejects_a_non_label():
    with pytest.raises(ValueError, match="label must be a NestedSetPair"):
        Chart(X_CHAIN_LABEL.to_record())


def test_replacing_the_label_rereads_the_pivots():
    other = NestedSetPair(3, X_CHAIN_LABEL.sy, X_CHAIN_LABEL.sx)
    chart = dataclasses.replace(Chart(X_CHAIN_LABEL), label=other)
    assert chart.label == other
    assert chart.to_record()["pivots"] == {"x": [], "y": [(1, 2), (2, 3)]}
    assert chart == Chart(other)


def test_free_coordinate_count_is_triangular():
    for n in range(1, 8):
        upper = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        for chart in all_charts(n):
            record = chart.to_record()
            pivots, zeros, free = record["pivots"], record["zeros"], record["free"]
            assert len(free["x"]) + len(free["y"]) == n * (n - 1) // 2
            # Pivots, zeros and free coordinates partition each side's triangle.
            for parts in ((pivots[side], zeros[side], free[side]) for side in "xy"):
                assert sum(map(len, parts)) == len(upper)
                assert set().union(*parts) == upper
            # One pivot per row 1..n-1, over both sides.
            assert sorted(i for i, _ in pivots["x"] + pivots["y"]) == list(range(1, n))


def test_base_matrices_have_pivot_ones():
    record = Chart(FAMILY_LABEL).to_record()
    mx, my = record["base_mx"], record["base_my"]
    assert mx[0][3] == 1 and mx[1][2] == 1
    assert sum(map(sum, mx)) == 2
    assert my[2][3] == 1
    assert sum(map(sum, my)) == 1


def _edge_connected(cells):
    """Whether the cells, which hold the origin, are one edge-connected set."""
    seen, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        i, j = frontier.pop()
        for step in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if step in cells and step not in seen:
                seen.add(step)
                frontier.append(step)
    return seen == cells


def test_monomial_vectors_are_distinct_words():
    # Each word m_k, k >= 2, is the letter of the level-(n+1-k) pivot (i, j)
    # put in front of m_(n+1-j), an earlier word since j > i.
    for n in range(1, 8):
        for chart in all_charts(n):
            words = monomial_vector(chart)
            pivots = chart.to_record()["pivots"]
            pivot_of_level = {i: ("X", j) for i, j in pivots["x"]}
            pivot_of_level.update({i: ("Y", j) for i, j in pivots["y"]})
            assert words[0] == ""
            for k in range(2, n + 1):
                letter, j = pivot_of_level[n + 1 - k]
                assert n + 1 - j < k
                assert words[k - 1] == letter + words[n - j]
            assert len(set(words)) == n
            assert _edge_connected({cell for cell, _ in to_gyt(chart).cells})


def test_monomial_words_may_skip_lengths():
    # Words need not have length k-1; a pivot may point far down the flag.
    lengths = {
        tuple(len(w) for w in monomial_vector(chart))
        for chart in all_charts(4)
    }
    assert (0, 1, 2, 3) in lengths
    assert any(seq != tuple(range(4)) for seq in lengths)


@pytest.mark.parametrize("n", range(1, 8))
def test_chart_recursion_matches_the_public_constructor(n):
    charts = all_charts(n)
    labels = [chart.label for chart in charts]
    keys = [lab.flat_key() for lab in labels]
    assert keys == sorted(set(keys)) and len(keys) == math.factorial(n)
    names = [field.name for field in dataclasses.fields(Chart)]
    for chart, lab in zip(charts, labels):
        # The public label constructor re-runs every check, and the public
        # chart constructor reads the pivots off that label.
        oracle = Chart(NestedSetPair(n, lab.sx, lab.sy))
        assert [getattr(chart, name) for name in names] == [
            getattr(oracle, name) for name in names
        ]


def test_all_charts_leaves_no_reference_cycle():
    # The charts must be freed by reference counting once the caller drops
    # them, not kept alive until the next full garbage collection.
    gc.collect()
    all_charts(4)
    assert gc.collect() == 0


# -- commuting sublocus ------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_commuting_charts_are_the_hooks(n):
    assert len(commuting_charts(n)) == 2 ** (n - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_standard_images_match_tableau_count(n):
    assert len(standard_tableau_images(n)) == count_standard_tableaux(n)


def test_tableau_count_oracle_values():
    assert [count_standard_tableaux(n) for n in range(0, 7)] == [
        1, 1, 2, 4, 10, 26, 76,
    ]


def test_tableau_count_is_capped_before_it_fills_the_shape_cache():
    assert count_standard_tableaux(MAX_TABLEAU_N) == 23758664096  # OEIS A000085
    cached = charts._filling_count.cache_info().currsize
    with pytest.raises(CapacityError, match=f"n <= {MAX_TABLEAU_N}; got n = 50"):
        count_standard_tableaux(50)
    assert charts._filling_count.cache_info().currsize == cached


def test_commuting_chart_tableaux_are_standard_hooks():
    for chart in commuting_charts(5):
        tableau = to_gyt(chart)
        assert tableau.is_standard()
        cells = set(dict(tableau.cells))
        # Hook shape: every cell sits in row 0 or column 0.
        assert all(r == 0 or c == 0 for r, c in cells)


@pytest.mark.parametrize("n", range(1, 8))
def test_commuting_generator_equals_filter_and_yields_hooks(n):
    generated = commuting_charts(n)
    filtered = [chart for chart in all_charts(n) if is_commutative(chart)]
    assert [chart.label for chart in generated] == [chart.label for chart in filtered]
    assert generated == filtered
    for chart in generated:
        tableau = to_gyt(chart)
        assert tableau.is_standard()
        # Hook shape: every cell sits in row 0 or column 0.
        assert all(r == 0 or c == 0 for r, c in dict(tableau.cells))


def test_commuting_generator_rejects_bad_sizes():
    with pytest.raises(ValueError):
        commuting_charts(0)
    with pytest.raises(CapacityError):
        commuting_charts(10)


def _dense_product(a, b):
    size = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size))
        for i in range(size)
    )


def _product_entries(pa, pb):
    """Nonzero entries of the product of two base matrices, from their pivots.

    A base matrix has a 1 exactly at its pivots, so entry ``(i, l)`` of the
    product counts the pivots ``(i, j)`` of the first matrix that meet a
    pivot ``(j, l)`` of the second.
    """
    return Counter((i, l) for i, j in pa for k, l in pb if j == k)


@pytest.mark.parametrize("n", range(1, 8))
def test_commutation_test_matches_the_pivot_products(n):
    for chart in all_charts(n):
        pivots = chart.to_record()["pivots"]
        products_agree = _product_entries(pivots["x"], pivots["y"]) == _product_entries(
            pivots["y"], pivots["x"]
        )
        assert is_commutative(chart) == products_agree


def test_commutation_test_matches_dense_matrix_products():
    for n in range(1, 7):
        for chart in all_charts(n):
            record = chart.to_record()
            mx, my = record["base_mx"], record["base_my"]
            dense = _dense_product(mx, my) == _dense_product(my, mx)
            assert is_commutative(chart) == dense
    assert not is_commutative(Chart(FAMILY_LABEL))


# -- tableau map and its failure of injectivity -------------------------------------


@pytest.mark.parametrize("n", range(1, 8))
def test_tableau_cells_are_the_letter_counts_of_the_words(n):
    for chart in all_charts(n):
        cells = {}
        for k, word in enumerate(monomial_vector(chart), start=1):
            cells.setdefault((word.count("X"), word.count("Y")), set()).add(k)
        assert dict(to_gyt(chart).cells) == {cell: frozenset(ks) for cell, ks in cells.items()}


def test_gyt_of_family_chart():
    tableau = to_gyt(Chart(FAMILY_LABEL))
    assert dict(tableau.cells) == {
        (0, 0): frozenset({1}),
        (0, 1): frozenset({2}),
        (1, 1): frozenset({3}),
        (1, 0): frozenset({4}),
    }


def test_gyt_multi_cell_example():
    # A non-standard image: two flag steps can share one cell from n = 5 on.
    target = {
        (0, 0): frozenset({1}),
        (1, 0): frozenset({2}),
        (0, 1): frozenset({4}),
        (1, 1): frozenset({3, 5}),
    }
    images = [dict(to_gyt(chart).cells) for chart in all_charts(5)]
    assert target in images
    transposed = {(c, r): v for (r, c), v in target.items()}
    assert transposed in images


@pytest.mark.parametrize(
    "n,expected_groups", [(1, 0), (2, 0), (3, 0), (4, 2), (5, 20)]
)
def test_collision_group_counts_are_pinned(n, expected_groups):
    report = gyt_injectivity_report(n)
    assert report["total"] == math.factorial(n)
    assert len(report["collisions"]) == expected_groups
    assert all(len(group["labels"]) == 2 for group in report["collisions"])


def test_first_collision_pair_is_the_word_order_swap():
    report = gyt_injectivity_report(4)
    first = report["collisions"][0]
    labels = [(tuple(map(tuple, lab["sx"])), tuple(map(tuple, lab["sy"])))
              for lab in first["labels"]]
    assert (((3, 4), (4,), (), ()), ((4,), (4,), (4,), ())) in labels
    assert (((4,), (4,), (), ()), ((2, 4), (4,), (4,), ())) in labels


def test_mirror_transposes_the_tableau():
    for chart in all_charts(4):
        mirrored = Chart(NestedSetPair(4, chart.label.sy, chart.label.sx))
        direct = dict(to_gyt(chart).cells)
        swapped = {(c, r): v for (r, c), v in to_gyt(mirrored).cells}
        assert direct == swapped


def test_injectivity_scan_capacity():
    with pytest.raises(CapacityError):
        gyt_injectivity_report(8)
