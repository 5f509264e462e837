"""Torus weights of chart coordinates and fixed-locus dimension counts.

The weight ``w_x^i`` (``w_y^i``) is the X-degree (Y-degree) of the monomial
word ``m_{n+1-i}`` that :func:`~coxlinks.charts.monomial_vector` attaches to
flag step ``n + 1 - i``.  So ``w_x^n = w_y^n = 0``, and an x-pivot ``(i, j)``
gives ``w_x^i = w_x^j + 1`` and ``w_y^i = w_y^j``, mirrored for y-pivots.

Tangent records store the localization exponents

    (i,j) ∈ N_x:  (dx, dy) = (w_x^i - w_x^j + 1,  w_y^i - w_y^j),
    (i,j) ∈ N_y:  (dx, dy) = (w_x^i - w_x^j,      w_y^i - w_y^j + 1),

and obstruction records (pairs with j - i > 1) store

    (ox, oy) = (w_x^i - w_x^j + 1,  w_y^i - w_y^j + 1).

A caution that the rest of the package depends on: these displayed exponents
are *formula* data (they feed the denominator and numerator products of the
fixed-point sum), not the literal scaling weights of the torus action.  A
direct gauge computation — rescale (X, Y), then conjugate back to pivot form
by a diagonal matrix — shows the coordinate entry values scale as

    x_{ij} value ↦ t^{Δx-1} s^{Δy} · x_{ij},
    y_{ij} value ↦ t^{Δx}   s^{Δy-1} · y_{ij},       Δ = w^i - w^j,

(``torus_rescaling_check`` verifies this exactly), so a tangent direction is
torus-fixed iff Δ = (1, 0) on the x side / (0, 1) on the y side, and a
commutator entry [X,Y]_{ij} — the equation cutting the commuting locus —
scales by ``t^{Δx-1} s^{Δy-1}`` and is fixed iff Δ = (1, 1).  The
fixed-locus counts in ``WeightData.fixed_dim`` use these honest conditions;
that is the only bookkeeping under which the fixed-dimension inequality
dimOb0 ≥ dimT0 holds for every chart with n ≤ 7 (verified exhaustively;
counting literal (dx,dy) = (0,0) records instead already fails on the
explicit degenerate n = 4 chart, whose zero record y_{12} marks a vanishing
*denominator factor*, not a fixed tangent direction — the chart's family is
a torus orbit, not fixed points).  The vanishing-factor count is reported
separately and drives degenerate-chart detection.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple

from .charts import Chart, _is_int, _upper_triangle, monomial_vector
from .errors import ConsistencyError

IndexPair = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class TangentRecord:
    """Weight exponents of one free coordinate."""

    side: str  # "x" or "y"
    index: IndexPair
    dx: int
    dy: int

    def is_zero(self) -> bool:
        """True iff the denominator factor (1 - Q^dx T^dy) vanishes."""
        return self.dx == 0 and self.dy == 0

    def is_fixed_direction(self) -> bool:
        """True iff the coordinate direction has zero torus scaling weight.

        The entry value scales by ``t^{Δx-1} s^{Δy}`` (x side) respectively
        ``t^{Δx} s^{Δy-1}`` (y side); with the stored exponents this reads
        (dx, dy) = (2, 0) on the x side and (0, 2) on the y side.
        """
        if self.side == "x":
            return self.dx == 2 and self.dy == 0
        return self.dx == 0 and self.dy == 2

    def to_record(self) -> dict:
        return {"side": self.side, "index": list(self.index), "dx": self.dx, "dy": self.dy}


@dataclass(frozen=True, slots=True)
class ObstructionRecord:
    """Weight exponents of one obstruction pair (j - i > 1 by default)."""

    index: IndexPair
    ox: int
    oy: int

    def is_zero(self) -> bool:
        return self.ox == 0 and self.oy == 0

    def is_equation_fixed(self) -> bool:
        """True iff the commutator entry [X,Y]_{ij} has zero scaling weight.

        The entry's value scales by ``t^{Δx-1} s^{Δy-1}`` and the stored
        exponents are (ox, oy) = (Δx+1, Δy+1), so the condition reads
        ox == 2 and oy == 2.
        """
        return self.ox == 2 and self.oy == 2

    def to_record(self) -> dict:
        return {"index": list(self.index), "ox": self.ox, "oy": self.oy}


@dataclass(frozen=True, slots=True)
class WeightData:
    """All weight data of one chart.

    It stores the chart, its weight vectors and the normalized ``link``
    (sorted, duplicate-free ``link_s``).  The ``tangent`` and
    ``obstruction`` records are derived on each access, in the order of
    :func:`tangent_weights` and :func:`obstruction_weights`;
    :meth:`fixed_dim` counts from the integer exponents and builds no
    records.
    """

    chart: Chart
    wx: Tuple[int, ...]
    wy: Tuple[int, ...]
    link: Tuple[int, ...]

    @property
    def tangent(self) -> Tuple[TangentRecord, ...]:
        return tuple(
            TangentRecord(side, (i, j), dx, dy)
            for side, i, j, dx, dy in _tangent_exponents(self.chart, self.wx, self.wy)
        )

    @property
    def obstruction(self) -> Tuple[ObstructionRecord, ...]:
        wx, wy = self.wx, self.wy
        return tuple(
            ObstructionRecord(
                (i, j), wx[i - 1] - wx[j - 1] + 1, wy[i - 1] - wy[j - 1] + 1
            )
            for i, j in _obstruction_pairs(self.chart.n, self.link)
        )

    def to_record(self) -> dict:
        return {
            "wx": list(self.wx),
            "wy": list(self.wy),
            "tangent": [rec.to_record() for rec in self.tangent],
            "obstruction": [rec.to_record() for rec in self.obstruction],
        }

    def fixed_dim(self) -> dict:
        """Fixed-locus dimension counts and the degenerate-factor count.

        Returns a dict with:

        * ``dimT0`` — dimension of the torus-fixed tangent subspace: tangent
          records whose coordinate direction has zero scaling weight (see
          ``TangentRecord.is_fixed_direction``).
        * ``dimOb0`` — dimension of the torus-fixed obstruction subspace:
          records whose commutator equation has zero scaling weight.
        * ``inequality`` — whether dimOb0 >= dimT0 (the virtual-dimension-zero
          expectation; holds for every chart with n <= 7 and empty ``link_s``).
        * ``vanishing_factors`` — number of tangent records with the stored
          exponents (dx, dy) = (0, 0), i.e. vanishing denominator factors of
          the fixed-point sum.  A nonzero count marks the chart as degenerate
          for localization (the explicit n = 4 chart has one, at y_{12}).
        * ``vanishing_obstruction_factors`` — same literal count on the
          obstruction side, for the numerator product.

        The obstruction counts run over this data's pairs, so they include
        the adjacent pairs of a nonempty ``link_s``.  Each count applies the
        predicate of its record class to the exponents the record would
        store.
        """
        wx, wy = self.wx, self.wy
        tangent = [
            (side, dx, dy) for side, _, _, dx, dy in _tangent_exponents(self.chart, wx, wy)
        ]
        dim_t0 = tangent.count(("x", 2, 0)) + tangent.count(("y", 0, 2))
        # The stored obstruction exponents are (Dx + 1, Dy + 1), so the
        # equation is fixed at D = (1, 1) and the factor vanishes at (-1, -1).
        drops = [
            (wx[i - 1] - wx[j - 1], wy[i - 1] - wy[j - 1])
            for i, j in _obstruction_pairs(self.chart.n, self.link)
        ]
        dim_ob0 = drops.count((1, 1))
        return {
            "dimT0": dim_t0,
            "dimOb0": dim_ob0,
            "inequality": dim_ob0 >= dim_t0,
            "vanishing_factors": tangent.count(("x", 0, 0)) + tangent.count(("y", 0, 0)),
            "vanishing_obstruction_factors": drops.count((-1, -1)),
        }


def weight_vectors(chart: Chart) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The weight vectors (w_x, w_y), indices 1..n: the X- and Y-degrees of
    the monomial words ``m_n, …, m_1`` of :func:`~coxlinks.charts.monomial_vector`.

    Raises:
        ConsistencyError: if the chart is malformed (from ``monomial_vector``;
            cannot happen for built charts).
    """
    words = monomial_vector(chart)[::-1]
    return (
        tuple(word.count("X") for word in words),
        tuple(word.count("Y") for word in words),
    )


def tangent_weights(chart: Chart) -> Tuple[TangentRecord, ...]:
    """One record per free coordinate, with the side-dependent +1 applied."""
    return weight_data(chart).tangent


def _tangent_exponents(
    chart: Chart, wx: Tuple[int, ...], wy: Tuple[int, ...]
) -> List[Tuple[str, int, int, int, int]]:
    """``(side, i, j, dx, dy)`` for each free coordinate, as plain ints: the
    x side first, then the y side, each in sorted pair order.

    ``(i, j)`` is free on a side when ``j`` is not in that chain's
    level-``i`` set, the rule of ``Chart.nx``/``ny``.  Every count and
    record of the tangent side reads this list.

    Raises:
        ConsistencyError: if the free coordinates do not number n(n-1)/2.
    """
    label = chart.label
    pairs = _upper_triangle(label.n)
    exponents: List[Tuple[str, int, int, int, int]] = []
    for side, chain, ex, ey in (("x", label.sx, 1, 0), ("y", label.sy, 0, 1)):
        exponents += [
            (side, i, j, wx[i - 1] - wx[j - 1] + ex, wy[i - 1] - wy[j - 1] + ey)
            for i, j in pairs
            if j not in chain[i - 1]
        ]
    if len(exponents) != len(pairs):
        raise ConsistencyError(
            f"expected {len(pairs)} tangent records, got {len(exponents)}"
        )
    return exponents


def obstruction_weights(
    chart: Chart, link_s: Sequence[int] = ()
) -> Tuple[ObstructionRecord, ...]:
    """One record per obstruction pair.

    The default index set is {(i,j) : j - i > 1}.  For the quasi-Coxeter
    braid that skips the generators in ``link_s`` the equation set grows by
    the adjacent pairs (i, i+1) for i in ``link_s`` — those commutator
    entries are no longer killed by the skipped crossing.

    Args:
        chart: a built chart.
        link_s: strictly increasing generator indices in {1..n-1} (the set S
            of skipped Coxeter generators); empty for the plain case.

    Raises:
        ValueError: if ``link_s`` is not a sequence of ``int``, or an entry
            lies outside ``1..n-1``.
    """
    return weight_data(chart, link_s).obstruction


def _link(n: int, link_s: Sequence[int]) -> Tuple[int, ...]:
    """``link_s`` sorted and duplicate-free, after checking it."""
    if link_s == ():
        return ()
    if not isinstance(link_s, Iterable) or not all(map(_is_int, link_s)):
        raise ValueError(f"link_s must be a sequence of integers, got {link_s!r}")
    link = tuple(sorted(set(link_s)))
    if link and not (1 <= link[0] and link[-1] <= n - 1):
        raise ValueError(f"link_s entries must lie in 1..{n - 1}, got {list(link)}")
    return link


@lru_cache(maxsize=64)
def _obstruction_pairs(n: int, link: Tuple[int, ...]) -> Tuple[IndexPair, ...]:
    """The sorted obstruction index pairs of size ``n``: every ``(i, j)``
    with ``j - i > 1``, plus ``(i, i + 1)`` for each ``i`` in the sorted,
    duplicate-free ``link`` that :func:`_link` returns.  Shared by every
    chart of one size."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)]
    pairs += [(i, i + 1) for i in link]
    base_count = (n - 1) * (n - 2) // 2
    if len(pairs) != base_count + len(link):
        raise ConsistencyError(
            f"expected {base_count + len(link)} obstruction records, got {len(pairs)}"
        )
    return tuple(sorted(pairs))


def weight_data(chart: Chart, link_s: Sequence[int] = ()) -> WeightData:
    """Bundle a chart with its weight vectors and its checked ``link_s``.

    Raises:
        ValueError: for a bad ``link_s``, as :func:`obstruction_weights`;
            checked here, although the records are built only on access.
    """
    wx, wy = weight_vectors(chart)
    return WeightData(chart=chart, wx=wx, wy=wy, link=_link(chart.n, link_s))


def fixed_dim_check(chart: Chart) -> dict:
    """Fixed-locus dimension counts of a chart: ``weight_data(chart).fixed_dim()``."""
    return weight_data(chart).fixed_dim()


def torus_rescaling_check(chart: Chart, t: Fraction, s: Fraction) -> bool:
    """Exact check that the weight vectors produce a torus action on the chart.

    Builds a sample point of the chart with distinct rational free
    coordinates, applies the two one-parameter rescalings

        X ↦ t⁻¹ · D X D⁻¹,   Y ↦ s⁻¹ · D Y D⁻¹,   D = diag(t^{w_x^i} s^{w_y^i}),

    and verifies the result is again a point of the chart (pivots 1, zeros
    0) whose free entries scaled exactly by ``t^{Δx-1} s^{Δy}`` (x-side) or
    ``t^{Δx} s^{Δy-1}`` (y-side).

    Args:
        chart: a built chart.
        t, s: nonzero rationals, the torus parameters.

    Raises:
        ValueError: if t or s is zero.
    """
    if t == 0 or s == 0:
        raise ValueError("torus parameters must be nonzero")
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
    for matrix, pivots, zeros, free, source, side in (
        (new_x, chart.px, chart.zx, nx, mx, "x"),
        (new_y, chart.py, chart.zy, ny, my, "y"),
    ):
        for i, j in pivots:
            if matrix[i - 1][j - 1] != 1:
                return False
        for i, j in zeros:
            if matrix[i - 1][j - 1] != 0:
                return False
        for i, j in free:
            dx = wx[i - 1] - wx[j - 1]
            dy = wy[i - 1] - wy[j - 1]
            if side == "x":
                expected = t ** (dx - 1) * s ** dy * source[i - 1][j - 1]
            else:
                expected = t ** dx * s ** (dy - 1) * source[i - 1][j - 1]
            if matrix[i - 1][j - 1] != expected:
                return False
    return True
