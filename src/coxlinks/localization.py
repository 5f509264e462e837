"""Fixed-point localization sums for the calibrated superpolynomial.

Each commuting chart contributes one exactly-factored rational term; the
invariant candidate is the normalized sum over all of them.
:func:`calibrated_superpolynomial` uses the weights that make the ``n = 2``
family agree *exactly* with the two-strand homology oracle
(:mod:`coxlinks.twostrand`).  The calibration was fixed once at
``n = 2, k = (1,)`` and is applied uniformly; no per-``k`` fitting.

Calibrated weights, in the series variables ``u = q^2`` and ``v = t^2/q^2``
(the degrees of a free x- and y-coordinate).  A pair of unit ``e`` and
weight drop ``D = w^i - w^j`` stores ``s = D + e`` and has the calibrated
exponent ``c = 2e - s = e - D`` (:mod:`coxlinks.weights`):

* a free coordinate contributes ``1 / (1 - u^{cx} v^{cy})``;
* an obstruction pair contributes ``(1 - u^{cx} v^{cy})``;
* level ``i`` contributes ``(1 + a u^{-wx_i} v^{-wy_i})``;
* one global monomial shift ``(a/t)^{c(k)}`` with ``c(k) = sum k_i (n-i)``
  and one global polynomial tensor factor ``1 / (1-u)^{1+|link_s|}``.

A chart with a torus-fixed free coordinate (``s = 2e``, so ``c = 0`` and
its factor is ``(1 - 1)``) has no well-defined contribution
(:class:`~coxlinks.errors.DegenerateChartError`).  No commuting chart has
a fixed direction for ``n <= 7``, every ``n`` the cap admits (checked
exhaustively); the guard remains for callers that evaluate single charts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .charts import Chart, _check_size, all_charts, commuting_charts
from .errors import (
    CapacityError,
    ConsistencyError,
    DegenerateChartError,
    ExperimentalFeatureWarning,
    PositivityRegimeWarning,
    _coxeter_arguments,
)
from .polyalg import AQT, BinomialRational, LaurentPoly, _lift
from .weights import (
    WeightData,
    _obstruction_exponents,
    _tangent_exponents,
    _unit_counts,
    calibrated_exponent,
    weight_data,
    weight_vectors,
)

#: Chart enumeration is factorial; summing past this is a typo, not a plan.
MAX_LOCALIZATION_N = 7


def in_positivity_regime(k: Sequence[int]) -> bool:
    """Whether ``k`` lies in the monotone cone ``k_1 >= ... >= k_{n-1} >= 0``.

    Only inside this cone is the localization sum conjectured to be a link
    invariant; outside it the sum is still exact arithmetic.

    Examples:
        >>> in_positivity_regime((3, 1, 0))
        True
        >>> in_positivity_regime((1, 2))
        False
    """
    k = tuple(k)
    return all(a >= b for a, b in zip(k, k[1:])) and (not k or k[-1] >= 0)


def _warn_flags(k: Sequence[int], link_s: Sequence[int]) -> bool:
    regime = in_positivity_regime(k)
    if not regime:
        warnings.warn(
            f"k = {tuple(k)} is outside the monotone-positivity regime; "
            "the result carries no link-invariance claim",
            PositivityRegimeWarning,
            stacklevel=3,
        )
    if link_s:
        warnings.warn(
            f"link_s = {tuple(link_s)} pairs k with the quasi-Coxeter weights "
            "by the same dot product; this path has no validated reference "
            "values",
            ExperimentalFeatureWarning,
            stacklevel=3,
        )
    return regime


# -- calibrated homological-variable formula ---------------------------------


def _uv_exponent(a_power: int, u_power: int, v_power: int) -> tuple:
    """The exponent of ``a^i u^j v^k`` written in ``(a, q, t)``."""
    return (a_power, 2 * u_power - 2 * v_power, 2 * v_power)


def _calibrated_term(data: WeightData, k: Tuple[int, ...]) -> BinomialRational:
    prefactor_x = sum(ki * wxi for ki, wxi in zip(k, data.wx))
    prefactor_y = sum(ki * wyi for ki, wyi in zip(k, data.wy))
    terms = {_uv_exponent(0, prefactor_x, prefactor_y): 1}
    n = data.chart.n
    for wx_i, wy_i in zip(data.wx[: n - 1], data.wy[: n - 1]):
        terms = _lift(terms, _uv_exponent(1, -wx_i, -wy_i), 1, sign=1)
    for kind, _, _, sx, sy in _obstruction_exponents(data):
        terms = _lift(terms, _uv_exponent(0, *calibrated_exponent(kind, sx, sy)), 1)
    den: Dict[tuple, int] = {}
    for kind, _, _, sx, sy in _tangent_exponents(data.chart, data.wx, data.wy):
        calibrated = calibrated_exponent(kind, sx, sy)
        if calibrated == (0, 0):
            raise DegenerateChartError(
                f"chart {data.chart.label.flat_key()} has a torus-fixed "
                "tangent direction in the calibrated weights",
                charts=(data.chart,),
            )
        exponent = _uv_exponent(0, *calibrated)
        den[exponent] = den.get(exponent, 0) + 1
    return BinomialRational(LaurentPoly._trusted(AQT, terms), den)


@dataclass(frozen=True, slots=True)
class CalibratedSuperpolynomial:
    """Localization sum in the homological frame ``(a, q, t)``.

    ``shift_exponent`` records the applied global monomial ``(a/t)^c``;
    everything else about the calibration is structural and identical for
    every ``n`` and ``k``.
    """

    n: int
    k: Tuple[int, ...]
    link_s: Tuple[int, ...]
    value: BinomialRational
    shift_exponent: int
    in_conjecture_regime: bool

    def truncated(self, bound: int) -> LaurentPoly:
        """Series expansion truncated to total ``(a, q, t)``-degree ``bound``."""
        return self.value.truncate_series({"a": 1, "q": 1, "t": 1}, bound)

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "k": list(self.k),
            "link_s": list(self.link_s),
            "value": self.value.to_record(),
            "shift_exponent": self.shift_exponent,
            "in_conjecture_regime": self.in_conjecture_regime,
            "experimental": bool(self.link_s),
        }


def calibrated_superpolynomial(
    n: int, k: Sequence[int], link_s: Sequence[int] = ()
) -> CalibratedSuperpolynomial:
    """The localization sum calibrated against the two-strand oracle.

    At ``n = 2`` the output equals ``homology_T2_odd(k_1)`` exactly, for
    every ``k_1 >= 1`` — the calibration was fixed once at ``k = (1,)`` and
    the agreement for larger ``k`` is a theorem of the implementation, not
    a re-fit.

    Examples:
        >>> from .twostrand import homology_T2_odd
        >>> calibrated_superpolynomial(2, (1,)).value == homology_T2_odd(1).value
        True
    """
    n, k, link_s = _coxeter_arguments(n, k, link_s)
    if n > MAX_LOCALIZATION_N:
        raise CapacityError(
            f"localization sums are limited to n <= {MAX_LOCALIZATION_N}; got {n}"
        )
    regime = _warn_flags(k, link_s)
    total = BinomialRational.zero(AQT)
    for chart in commuting_charts(n):
        total = total + _calibrated_term(weight_data(chart, link_s), k)
    shift_exponent = sum(ki * (n - i) for i, ki in enumerate(k, start=1))
    shift = LaurentPoly.monomial(AQT, (shift_exponent, 0, -shift_exponent))
    tensor = BinomialRational(
        LaurentPoly.one(AQT), {(0, 2, 0): 1 + len(link_s)}
    )
    value = (shift * total * tensor).normalize()
    a_exponents = value.num.exponents_of("a")
    if a_exponents and max(a_exponents) - min(a_exponents) > n - 1:
        raise ConsistencyError(
            f"numerator a-degrees {sorted(a_exponents)} span "
            f"{max(a_exponents) - min(a_exponents)} steps; at n = {n} "
            f"the span is at most {n - 1}"
        )
    return CalibratedSuperpolynomial(
        n=n,
        k=k,
        link_s=link_s,
        value=value,
        shift_exponent=shift_exponent,
        in_conjecture_regime=regime,
    )


# -- degeneracy scan ----------------------------------------------------------


def detect_degenerate(n: int) -> List[Chart]:
    """All charts (commuting or not) with a free coordinate at ``s = 0``.

    These are the charts whose verbatim bookkeeping has a vanishing
    denominator factor (``fixed_dim()["vanishing_factors"] > 0``).  The
    scan is exhaustive over all ``n!`` charts.

    Examples:
        >>> detect_degenerate(2)
        []
        >>> len(detect_degenerate(4))
        2
    """
    _check_size(n)
    if n > MAX_LOCALIZATION_N:
        raise CapacityError(
            f"degeneracy scan is limited to n <= {MAX_LOCALIZATION_N}; got {n}"
        )
    return [
        chart
        for chart in all_charts(n)
        if _unit_counts(_tangent_exponents(chart, *weight_vectors(chart)))[1]
    ]
