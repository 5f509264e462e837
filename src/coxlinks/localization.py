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
exponent ``c = 2e - s = e - D``, which the sum reads through
:meth:`~coxlinks.weights.WeightData.calibrated_exponents`, its one call
into :mod:`coxlinks.weights`:

* a free coordinate contributes ``1 / (1 - u^{cx} v^{cy})``;
* an obstruction pair contributes ``(1 - u^{cx} v^{cy})``;
* level ``i`` contributes ``(1 + a u^{-wx_i} v^{-wy_i})``;
* one global monomial shift ``(a/t)^{c(k)}`` with ``c(k) = sum k_i (n-i)``
  and one global polynomial tensor factor ``1 / (1-u)^{1+|link_s|}``.

The sum never meets a factor ``(1 - 1)``: that needs a torus-fixed free
coordinate (``s = 2e``), and no commuting chart has one for ``n <= 7``,
every ``n`` the cap admits (the tests check this exhaustively).

Known gap: the hook charts miss the fixed points of the non-hook standard
tableaux, which exist from ``n = 4`` on, so the values for ``n >= 4`` are
not superpolynomials yet: ``n = 4, k = (1, 1, 1)`` has five denominator
factors, not ``(1 - q^2)``.  ``tests/test_tableau_sum.py`` holds the sum
over every standard tableau as a test-side oracle, which gives the ``n = 4``
values the denominator ``(1 - q^2)`` and the HOMFLY bridge; moving it here
is step B of ROADMAP item 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .charts import commuting_charts
from .errors import (
    ExperimentalFeatureWarning,
    PositivityRegimeWarning,
    _coxeter_arguments,
    _size,
)
from .polyalg import AQT, Q2, TOTAL_DEGREE, BinomialRational, LaurentPoly, _lift
from .weights import WeightData, weight_data

#: Bounds the sum alone, which visits the 2^(n-1) hook charts; past 7 is a typo.
#: At n = 7, k = (0,)*6 took 72.9 s and 70 MB peak RSS for 3,047 numerator
#: terms over 11 denominator factors, and n = 6 took 6.9 s in the same process
#: (one run, shared 2-CPU host, ±30 %).
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
    numerator, denominator = data.calibrated_exponents()
    for cx, cy in numerator:
        terms = _lift(terms, _uv_exponent(0, cx, cy), 1)
    den: Dict[tuple, int] = {}
    for cx, cy in denominator:
        exponent = _uv_exponent(0, cx, cy)
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
        return self.value.truncate_series(TOTAL_DEGREE, bound)

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
    _size("n", n, MAX_LOCALIZATION_N, "a localization sum")
    regime = _warn_flags(k, link_s)
    total = BinomialRational.zero(AQT)
    for chart in commuting_charts(n):
        total = total + _calibrated_term(weight_data(chart, link_s), k)
    shift_exponent = sum(ki * (n - i) for i, ki in enumerate(k, start=1))
    shift = LaurentPoly.monomial(AQT, (shift_exponent, 0, -shift_exponent))
    tensor = BinomialRational(LaurentPoly.one(AQT), {Q2: 1 + len(link_s)})
    return CalibratedSuperpolynomial(
        n=n,
        k=k,
        link_s=link_s,
        value=(shift * total * tensor).normalize(),
        shift_exponent=shift_exponent,
        in_conjecture_regime=regime,
    )
