"""A sum over every standard Young tableau, built from the tableau alone.

The commuting locus has one torus-fixed point per standard Young tableau
(SYT), but ``calibrated_superpolynomial`` sums over the hook charts only, so
from n = 4 on (shape (2,2)) it misses fixed points.  This file holds the sum
over every SYT as a test-side oracle, with no chart in it:

* an SYT is the tuple of cells ``c_e = (column, row)`` of its entries
  ``e = 1..n``, grown by placing each entry at an outer corner;
* its weights are ``w_i = c_(n+1-i)``;
* its term is a signed multiset of ``(u, v)`` exponents, ``+`` for a
  denominator factor ``(1 - u^x v^y)`` and ``-`` for a numerator factor,
  under the prefactor and level factors of ``_calibrated_term``, with
  ``u = q^2`` and ``v = t^2/q^2`` written in ``(a, q, t)`` as
  ``(a, 2u - 2v, 2v)``.

On the hook tableaux the term equals the chart term, and at n <= 3 (every
SYT a hook) the sum reproduces the library's strings.  At n = 4 it passes
the checks today's chart sum fails: the denominator (1 - q^2) and the
HOMFLY bridge.  The shuffle theorem (Haglund-Haiman-Loehr-Remmel-Ulyanov,
Duke Math. J. 2005; proved by Carlsson-Mellit, arXiv 1508.06239) then
checks every a-degree of it at k = (1, ..., 1).  For other monotone k two
path identities check it: P1 counts the k-paths by their non-maximal steps
in every a-degree at q = t = 1, and P2 counts them by area in the lowest
a-degree.
"""

import operator
import warnings
from collections import Counter
from itertools import permutations, product
from math import comb

import pytest

from coxlinks import acceptance
from coxlinks.charts import (
    commuting_charts,
    count_standard_tableaux,
    standard_tableau_images,
    to_gyt,
)
from coxlinks.errors import PositivityRegimeWarning
from coxlinks.homfly import coxeter_braid, homfly
from coxlinks.localization import _calibrated_term, calibrated_superpolynomial
from coxlinks.polyalg import AQT, BinomialRational, LaurentPoly
from coxlinks.weights import weight_data, weight_vectors


def _tableaux(n):
    """Every SYT with ``n`` cells, as the cells of entries ``1..n``: entry
    ``e`` goes at an outer corner of the shape the entries below it fill."""
    tableaux = [()]
    for _ in range(n):
        grown = []
        for cells in tableaux:
            rows = Counter(row for _, row in cells)
            for row in range(len(rows) + 1):
                if row == 0 or rows[row - 1] > rows[row]:
                    grown.append(cells + ((rows[row], row),))
        tableaux = grown
    return tableaux


def _weights(cells):
    """``(wx, wy)`` with ``w_i = c_(n+1-i)``."""
    return tuple(x for x, _ in reversed(cells)), tuple(y for _, y in reversed(cells))


def _uv(a_power, u_power, v_power):
    return LaurentPoly.monomial(AQT, (a_power, 2 * u_power - 2 * v_power, 2 * v_power))


def _tableau_term(cells, k, link_s=()):
    """The term of one SYT, with ``D = w_i - w_j``:

    * for each ``i < j``: ``+[1-Dx, -Dy] + [-Dx, 1-Dy] - [-Dx, -Dy]``;
    * for each ``i < j`` with ``j - i > 1`` or ``i`` in ``link_s``:
      ``-[1-Dx, 1-Dy]``;
    * for each cell ``c != (0, 0)``: ``+[-c]``;
    * once: ``-(n - 1) [0, 0]``, which must cancel exactly.
    """
    n = len(cells)
    wx, wy = _weights(cells)
    factors = Counter()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            dx, dy = wx[i - 1] - wx[j - 1], wy[i - 1] - wy[j - 1]
            factors[(1 - dx, -dy)] += 1
            factors[(-dx, 1 - dy)] += 1
            factors[(-dx, -dy)] -= 1
            if j - i > 1 or i in link_s:
                factors[(1 - dx, 1 - dy)] -= 1
    for x, y in cells:
        if (x, y) != (0, 0):
            factors[(-x, -y)] += 1
    factors[(0, 0)] -= n - 1
    assert factors.pop((0, 0)) == 0, f"[0, 0] does not cancel for {cells}"
    num = _uv(0, sum(map(operator.mul, k, wx)), sum(map(operator.mul, k, wy)))
    for wx_i, wy_i in zip(wx[: n - 1], wy[: n - 1]):
        num = num * (1 + _uv(1, -wx_i, -wy_i))
    den = {}
    for (x, y), count in factors.items():
        if count < 0:
            num = num * (1 - _uv(0, x, y)) ** -count
        elif count > 0:
            den[(0, 2 * x - 2 * y, 2 * y)] = count
    return BinomialRational(num, den)


def _hooks(n):
    """The hook SYTs with ``n`` cells: every cell has ``x = 0`` or ``y = 0``."""
    return [cells for cells in _tableaux(n) if all(x == 0 or y == 0 for x, y in cells)]


def _tableau_sum(n, k, link_s=(), tableaux=None):
    """The sum of the terms of ``tableaux`` (every SYT by default), with
    ``calibrated_superpolynomial``'s shift ``(a/t)^(sum k_i (n-i))``, tensor
    ``1/(1 - q^2)^(1+|link_s|)`` and ``normalize``."""
    total = BinomialRational.zero(AQT)
    for cells in _tableaux(n) if tableaux is None else tableaux:
        total = total + _tableau_term(cells, k, link_s)
    shift = sum(ki * (n - i) for i, ki in enumerate(k, start=1))
    tensor = BinomialRational(LaurentPoly.one(AQT), {(0, 2, 0): 1 + len(link_s)})
    return (LaurentPoly.monomial(AQT, (shift, 0, -shift)) * total * tensor).normalize()


def _cells_of(tableau):
    """The cells of entries ``1..n`` of a chart's standard tableau image."""
    entry_cell = {min(labels): cell for cell, labels in tableau.cells}
    return tuple(entry_cell[e] for e in range(1, len(entry_cell) + 1))


# -- the tableaux and their weights --------------------------------------------------


@pytest.mark.parametrize("n", range(0, 9))
def test_generator_counts_the_standard_tableaux(n):
    tableaux = _tableaux(n)
    assert len(tableaux) == len(set(tableaux)) == count_standard_tableaux(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_chart_weights_are_the_tableau_weights(n):
    images = standard_tableau_images(n)
    assert {_cells_of(tableau) for tableau in images} == set(_tableaux(n))
    for tableau, charts in images.items():
        for chart in charts:
            assert weight_vectors(chart) == _weights(_cells_of(tableau))


@pytest.mark.parametrize("n", range(1, 6))
def test_tableau_term_is_the_chart_term_on_hooks(n):
    ks = {(0,) * (n - 1), (1,) * (n - 1), tuple(range(n - 1, 0, -1))}
    links = [link for link in ((), (1,), (1, n - 1)) if all(0 < i < n for i in link)]
    for chart in commuting_charts(n):
        cells = _cells_of(to_gyt(chart))
        for link_s in links:
            data = weight_data(chart, link_s)
            for k in ks:
                assert _tableau_term(cells, k, data.link) == _calibrated_term(data, k)


# -- the sum -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in (2, 3) for k in product(range(4), repeat=n - 1)], ids=str
)
def test_sum_reproduces_the_strings_below_four_strands(n, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PositivityRegimeWarning)
        expected = str(calibrated_superpolynomial(n, k).value)
    assert str(_tableau_sum(n, k)) == expected


@pytest.mark.parametrize(
    "n, k",
    [(4, k) for k in product(range(3), repeat=3) if list(k) == sorted(k, reverse=True)]
    + [(5, (1, 1, 1, 1))],
    ids=str,
)
def test_hook_tableau_sum_is_the_library_value(n, k):
    # The library sums the hook charts, so from n = 4 on it is the sum over
    # the hook SYTs alone.  The value agrees; the strings need not, since
    # normalize keeps factors that depend on the summation order.
    assert _tableau_sum(n, k, tableaux=_hooks(n)) == calibrated_superpolynomial(n, k).value


@pytest.mark.parametrize("k", list(product(range(3), repeat=3)), ids=str)
def test_four_strand_sum_has_one_denominator_factor_and_the_bridge(k):
    # Today's chart sum fails both at every one of these k.
    value = _tableau_sum(4, k)
    assert value.den == {(0, 2, 0): 1}
    left = value.num.substitute(acceptance._BRIDGE_SPECIALIZATION)
    assert left == homfly(coxeter_braid(4, (), k)).substitute(acceptance._Z_IMAGE)


# -- the shuffle theorem, every a-degree ---------------------------------------------


def _k_paths(k):
    """The k-paths: area vectors with a_1 = 0 and 0 <= a_(i+1) <= a_i + k_i.
    At k = (1, ..., 1) they are the Dyck area vectors."""
    paths = [(0,)]
    for ki in k:
        paths = [a + (step,) for a in paths for step in range(a[-1] + ki + 1)]
    return paths


def _hook_coefficients(n):
    """``{(j, dinv, area): count}``: the coefficient of u^dinv v^area in
    O_j(u, v), summed over the parking functions with ides = {1..n-1-j}.

    Cars ``c`` (a permutation of 1..n) park on an area vector ``a`` when
    ``c_i < c_(i+1)`` wherever ``a_(i+1) = a_i + 1``.  The reading word lists
    the cars by ``a_i`` descending, then by ``i`` descending, and ``i`` is an
    inverse descent when ``i + 1`` comes before ``i`` in it.
    """
    coefficients = Counter()
    descent_sets = {frozenset(range(1, n - j)): j for j in range(n)}
    for a in _k_paths((1,) * (n - 1)):
        area = sum(a)
        order = sorted(range(n), key=lambda i: (-a[i], -i))
        for cars in permutations(range(1, n + 1)):
            if any(a[i + 1] == a[i] + 1 and cars[i] > cars[i + 1] for i in range(n - 1)):
                continue
            position = {cars[i]: place for place, i in enumerate(order)}
            ides = frozenset(i for i in range(1, n) if position[i + 1] < position[i])
            if ides not in descent_sets:
                continue
            dinv = sum(
                (a[i] == a[j] and cars[i] < cars[j]) or (a[i] == a[j] + 1 and cars[i] > cars[j])
                for i in range(n)
                for j in range(i + 1, n)
            )
            coefficients[(descent_sets[ides], dinv, area)] += 1
    return coefficients


def _shuffle_numerator(n):
    """(a/t)^(n(n-1)/2) sum_j a^j O_j(u, v) in ``(a, q, t)``: a^j u^dinv
    v^area goes to (n(n-1)/2 + j, 2 dinv - 2 area, 2 area - n(n-1)/2)."""
    shift = n * (n - 1) // 2
    return {
        (shift + j, 2 * dinv - 2 * area, 2 * area - shift): count
        for (j, dinv, area), count in _hook_coefficients(n).items()
    }


@pytest.mark.parametrize("n, size", [(2, 3), (3, 11), (4, 40), (5, 122), (6, 313)])
def test_numerator_is_the_shuffle_theorem_sum(n, size):
    # k = (1, ..., 1) closes to the torus knot T(n, n + 1).  Below n = 4 the
    # library's sum is checked, from n = 4 on the sum over every SYT.
    k = (1,) * (n - 1)
    value = calibrated_superpolynomial(n, k).value if n < 4 else _tableau_sum(n, k)
    assert value.den == {(0, 2, 0): 1}
    assert value.num.terms == _shuffle_numerator(n)
    assert len(value.num.terms) == size


# -- the path identities P1 and P2, every monotone k ---------------------------------


def _monotone(n, top):
    """The non-increasing k of length n - 1 with entries in 0..top."""
    ks = product(range(top + 1), repeat=n - 1)
    return [k for k in ks if list(k) == sorted(k, reverse=True)]


PATH_CASES = (
    [(n, k) for n in (2, 3) for k in _monotone(n, 3)]
    + [(4, k) for k in _monotone(4, 2)]
    + [(5, (1, 1, 1, 1)), (5, (2, 1, 1, 0))]
)


def _graded_numerator(n, k):
    """``{(j, x, y): coefficient}``: the numerator N of the value, whose
    denominator is exactly (1 - q^2), read as a^j u^x v^y with c the shift
    exponent: j = A - c, y = (T + c)/2 and x = (Q + T + c)/2.  The library
    sum is read below n = 4, the sum over every SYT from n = 4 on."""
    if n < 4:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PositivityRegimeWarning)
            cal = calibrated_superpolynomial(n, k)
        value, c = cal.value, cal.shift_exponent
    else:
        value, c = _tableau_sum(n, k), sum(ki * (n - i) for i, ki in enumerate(k, start=1))
    assert value.den == {(0, 2, 0): 1}
    graded = {}
    for (a_power, q_power, t_power), coefficient in value.num.terms.items():
        assert (t_power + c) % 2 == 0 and (q_power + t_power + c) % 2 == 0
        graded[(a_power - c, (q_power + t_power + c) // 2, (t_power + c) // 2)] = coefficient
    return graded


@pytest.mark.parametrize("n, k", PATH_CASES, ids=str)
def test_lowest_a_degree_counts_the_k_paths_by_area(n, k):
    # P2: the a^0 part of N at u = 1 is the sum over k-paths of v^(sum a_i).
    lowest = Counter()
    for (j, _, y), coefficient in _graded_numerator(n, k).items():
        if j == 0:
            lowest[y] += coefficient
    areas = Counter(sum(a) for a in _k_paths(k))
    assert lowest == areas


@pytest.mark.parametrize("n, k", PATH_CASES, ids=str)
def test_a_degrees_at_one_count_the_non_maximal_steps(n, k):
    # P1: sum_j a^j N_j(1, 1) is the sum over k-paths of (1 + a)^m, with m
    # the number of steps where a_(i+1) < a_i + k_i.
    at_one = Counter()
    for (j, _, _), coefficient in _graded_numerator(n, k).items():
        at_one[j] += coefficient
    expected = Counter()
    for a in _k_paths(k):
        m = sum(a[i + 1] < a[i] + ki for i, ki in enumerate(k))
        for j in range(m + 1):
            expected[j] += comb(m, j)
    assert at_one == expected
