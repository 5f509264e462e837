"""Exact randomized checks of the determinant identities behind cox_S.

The objects are small matrices over exact scalars: ``int`` for the seeded
samples, :class:`~coxlinks.polyalg.LaurentPoly` for the symbolic identity.
The containment test goes through one fraction-free integer elimination,
the only routine built to take :class:`~fractions.Fraction` entries: it
clears each row's denominators, so :func:`hessenberg_check` is exact on
them, and no ``Fraction`` arithmetic runs on the sampling path.
Roles, which the samplers build (the suites check only that ``X`` is upper):

* ``X`` — upper-triangular (``X`` in the Borel), with ``xhat(X) = X -
  x_11 Id``;
* ``g`` — invertible; the interesting locus is Hessenberg ``g``
  (``g_ij = 0`` for ``i - j > 1``);
* ``K`` — strictly upper-triangular.

``F(i, X, g)`` is the determinant of the ``(i+1) x (i+1)`` matrix whose
columns are the first ``i+1`` entries of ``g``'s columns ``1..i`` followed
by the first ``i+1`` entries of ``xhat(X)``'s column ``i+1``.  On the locus
``F_1 = ... = F_{n-1} = 0`` with ``g`` Hessenberg, column ``i+1`` of
``xhat(X)`` is a combination of ``g``'s columns ``1..i``, so ``xhat(X) =
g K`` with ``K`` strictly upper and ``g^-1 X g = K g + x_11 Id`` is
upper-triangular.  The suites here check exactly that story, forwards
(by-construction samples must pass) and backwards (dropping the Hessenberg
condition must break containment), with fixed seeds and exact arithmetic;
nothing is asserted beyond the identities themselves.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

from .errors import ConsistencyError, SingularMatrixError, _size
from .polyalg import LaurentPoly

Matrix = Tuple[tuple, ...]

#: The sampling suites expand determinants by cofactors, which costs 3-5x
#: more per two sizes: one sample took 10-13 ms at n = 12 and 30-50 ms at
#: n = 14 (2-CPU host, Python 3.11), so the CLI's default 500 samples stay
#: within about 7 s at the cap.
MAX_SUITE_N = 12
#: A sample at n = 12 took 10 ms (containment) and 16 ms (negative control)
#: on that host, so a suite of MAX_SUITE_SAMPLES at n = 12 takes 52-78 s.
MAX_SUITE_SAMPLES = 5_000


# -- matrix helpers ------------------------------------------------------------


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def is_upper(a: Matrix) -> bool:
    return all(not a[i][j] for i in range(len(a)) for j in range(i))


def xhat(x: Matrix) -> Matrix:
    """``X - x_11 Id``, the column source for the determinant functions."""
    n = len(x)
    return tuple(
        tuple(x[i][j] - (x[0][0] if i == j else 0) for j in range(n))
        for i in range(n)
    )


def _bareiss_jordan(a: Matrix, b: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """Solve ``a U = b`` by fraction-free (Bareiss-Jordan) elimination.

    Each row of ``[a | b]`` is first scaled by the lcm of its denominators,
    which leaves ``U`` unchanged, so ``int`` and ``Fraction`` entries both
    work and every step stays in the integers: a row update is ``(p v - f
    w) // prev`` with ``prev`` the previous pivot, an exact division because
    every entry is a minor of the scaled matrix.  At the end the left block
    is ``d Id`` and the right block is ``d U``.

    Returns:
        ``(rows, d)``: the right block ``d U`` as integer rows and ``d != 0``.

    Raises:
        SingularMatrixError: ``a`` is not invertible.
    """
    n = len(a)
    work = []
    for a_row, b_row in zip(a, b):
        row = (*a_row, *b_row)
        scale = math.lcm(*(v.denominator for v in row))
        work.append([v.numerator * (scale // v.denominator) for v in row])
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError(f"matrix has no inverse (rank < {n})")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot_line = work[col]
        pivot = pivot_line[col]
        for r in range(n):
            if r != col:
                factor = work[r][col]
                work[r] = [
                    (pivot * v - factor * w) // prev
                    for v, w in zip(work[r], pivot_line)
                ]
        prev = pivot
    return [row[n:] for row in work], prev


def _is_invertible(a: Matrix) -> bool:
    """Whether ``a`` has an inverse, decided exactly without forming it."""
    try:
        _bareiss_jordan(a, [()] * len(a))
    except SingularMatrixError:
        return False
    return True


def det(a: Matrix):  # noqa: ANN201
    """Determinant by first-column cofactor expansion.

    Generic over the scalar ring (ints and LaurentPoly both work).
    The suites call it on Hessenberg columns, where the cost grows about
    2^n; ``MAX_SUITE_N`` bounds the size.
    """
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = None
    for i in range(n):
        entry = a[i][0]
        if not entry:
            continue
        minor = tuple(row[1:] for r, row in enumerate(a) if r != i)
        term = entry * det(minor)
        if i % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        zero_like = a[0][0]
        return zero_like - zero_like  # zero of the scalar ring
    return total


# -- the determinant functions and containment --------------------------------


def F(i: int, x: Matrix, g: Matrix):  # noqa: ANN201
    """The ``i``-th determinant function, ``1 <= i <= n-1``.

    Examples:
        >>> x = ((1, 5, 7), (0, 2, 6), (0, 0, 3))
        >>> g = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        >>> [F(i, x, g) for i in (1, 2)]
        [1, 2]
    """
    n = len(x)
    if not 1 <= i <= n - 1:
        raise ValueError(f"i must lie in 1..{n - 1}, got {i}")
    return _F(i, xhat(x), g)


def _F(i: int, hat: Matrix, g: Matrix):  # noqa: ANN202
    """``F(i, X, g)`` from a prebuilt ``hat = xhat(X)``."""
    size = i + 1
    columns = [
        tuple(g[row][col] for row in range(size)) for col in range(i)
    ]
    columns.append(tuple(hat[row][i] for row in range(size)))
    return det(tuple(zip(*columns)))


def all_F(x: Matrix, g: Matrix) -> List:
    hat = xhat(x)
    return [_F(i, hat, g) for i in range(1, len(x))]


def hessenberg_check(g: Matrix, x: Matrix) -> bool:
    """Whether ``g^-1 X g`` is upper-triangular, exactly.

    The name records the locus this certifies: for invertible Hessenberg
    ``g`` with all ``F_i = 0`` the answer is always ``True``.  The check
    itself accepts any invertible ``g`` (the negative control feeds it
    non-Hessenberg samples on purpose).  ``U = g^-1 X g`` is found by one
    elimination on ``g U = X g``; the scaled ``d U`` has the same zeros.

    Raises:
        SingularMatrixError: ``g`` is not invertible.
    """
    rows, _ = _bareiss_jordan(g, mat_mul(x, g))
    return all(not rows[i][j] for i in range(len(rows)) for j in range(i))


# -- seeded sampling suites ----------------------------------------------------


def _sample_entry(rng: random.Random) -> int:
    return rng.randint(-9, 9)


def sample_hessenberg(rng: random.Random, n: int) -> Matrix:
    """Random invertible Hessenberg matrix, ``int`` entries in -9..9."""
    while True:
        g = tuple(
            tuple(_sample_entry(rng) if i - j <= 1 else 0 for j in range(n))
            for i in range(n)
        )
        if _is_invertible(g):
            return g


def sample_strictly_upper(rng: random.Random, n: int) -> Matrix:
    return tuple(
        tuple(_sample_entry(rng) if j > i else 0 for j in range(n))
        for i in range(n)
    )


def containment_suite(n: int, samples: int, seed: int) -> dict:
    """By-construction positive suite: Hessenberg ``g``, ``xhat(X) = g K``.

    Every sample must have all ``F_i = 0`` and ``g^-1 X g`` upper; any
    violation is reported with its sample index.

    Raises:
        ValueError: if ``n`` or ``samples`` is not a positive ``int``.
        CapacityError: if ``n > MAX_SUITE_N`` or ``samples > MAX_SUITE_SAMPLES``.
    """
    _size("samples", samples, MAX_SUITE_SAMPLES, "an mfcheck suite")
    _size("n", n, MAX_SUITE_N, "an mfcheck suite")
    rng = random.Random(seed)
    failures = []
    for sample in range(samples):
        g = sample_hessenberg(rng, n)
        k = sample_strictly_upper(rng, n)
        c = _sample_entry(rng)
        x = tuple(
            tuple(v + c if i == j else v for j, v in enumerate(row))
            for i, row in enumerate(mat_mul(g, k))
        )
        if not is_upper(x):
            failures.append({"sample": sample, "reason": "X not upper"})
            continue
        values = all_F(x, g)
        if any(values):
            failures.append({"sample": sample, "reason": f"F = {values}"})
        elif not hessenberg_check(g, x):
            failures.append({"sample": sample, "reason": "containment failed"})
    return {
        "n": n,
        "samples": samples,
        "seed": seed,
        "failures": failures,
        "passed": not failures,
    }


def negative_control(n: int, samples: int, seed: int) -> dict:
    """Drop the Hessenberg condition and watch containment break.

    Samples use the same ``xhat(X) = g K`` construction (so all ``F_i``
    still vanish) but ``g`` gets a nonzero entry two steps below the
    diagonal.  The suite passes when at least one sample fails
    containment — that failure is the point: the Hessenberg condition is
    doing real work in the containment argument.

    Raises:
        ValueError: if ``n`` is not an ``int`` or ``n < 3``, or ``samples``
            is not a positive ``int``.
        CapacityError: if ``n > MAX_SUITE_N`` or ``samples > MAX_SUITE_SAMPLES``.
    """
    _size("samples", samples, MAX_SUITE_SAMPLES, "an mfcheck suite")
    _size("n", n, MAX_SUITE_N, "an mfcheck suite", least=3)  # room for a (3,1) entry
    rng = random.Random(seed)
    broken = 0
    checked = 0
    for sample in range(samples):
        g_rows = [list(row) for row in sample_hessenberg(rng, n)]
        g_rows[2][0] = rng.randint(1, 9)
        g = tuple(tuple(row) for row in g_rows)
        if not _is_invertible(g):
            continue
        k = sample_strictly_upper(rng, n)
        x = mat_mul(g, k)  # xhat(X) itself; x_11 = 0 since K kills column 1
        checked += 1
        values = all_F(x, g)
        if any(values):
            raise ConsistencyError(
                f"negative control sample {sample}: xhat(X) = g K but F = {values}"
            )
        if not hessenberg_check(g, x):
            broken += 1
    return {
        "n": n,
        "samples": samples,
        "checked": checked,
        "seed": seed,
        "containment_failures": broken,
        "passed": broken > 0,
    }


# -- symbolic identities -------------------------------------------------------


def symbolic_gid_check(n: int) -> bool:
    """``F_i`` at ``g = Id`` equals ``x_{i+1,i+1} - x_11`` as a polynomial.

    Builds ``X`` with one Laurent variable per upper-triangular entry and
    compares the determinant symbolically; exact, no interpolation.

    Raises:
        ValueError: if ``n`` is not a positive ``int``.
        CapacityError: if ``n > MAX_SUITE_N``.

    Examples:
        >>> all(symbolic_gid_check(n) for n in (2, 3, 4))
        True
    """
    _size("n", n, MAX_SUITE_N, "the symbolic identity check")
    names = tuple(
        f"x{i}{j}" for i in range(1, n + 1) for j in range(i, n + 1)
    )
    zero = LaurentPoly.zero(names)
    one = LaurentPoly.one(names)

    def var(i: int, j: int) -> LaurentPoly:
        return LaurentPoly.variable(names, f"x{i}{j}")

    x = tuple(
        tuple(var(i, j) if i <= j else zero for j in range(1, n + 1))
        for i in range(1, n + 1)
    )
    g = tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )
    for i in range(1, n):
        expected = var(i + 1, i + 1) - var(1, 1)
        if F(i, x, g) != expected:
            return False
    return True
