"""Exact randomized checks of the determinant identities behind cox_S.

The objects are small matrices over exact scalars (``int`` for the seeded
samples, :class:`~fractions.Fraction` wherever a caller passes one,
:class:`~coxlinks.polyalg.LaurentPoly` for the symbolic identities).
Inverses and the containment test go through one fraction-free integer
elimination, so no ``Fraction`` arithmetic runs on the sampling path.
Roles, enforced by the validators rather than by a wrapper class:

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
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import CapacityError, ConsistencyError, SingularMatrixError, _is_int, _link_s
from .polyalg import LaurentPoly

Matrix = Tuple[tuple, ...]

#: The sampling suites expand determinants by cofactors, which costs 3-5x
#: more per two sizes: one sample took 10-13 ms at n = 12 and 30-50 ms at
#: n = 14 (2-CPU host, Python 3.11), so the CLI's default 500 samples stay
#: within about 7 s at the cap.
MAX_SUITE_N = 12


# -- construction and validation ----------------------------------------------


def matrix_from_rows(rows: Sequence[Sequence]) -> Matrix:
    """Freeze rows into a square matrix, coercing ints to Fractions."""
    frozen = tuple(
        tuple(Fraction(v) if isinstance(v, int) else v for v in row)
        for row in rows
    )
    n = len(frozen)
    if any(len(row) != n for row in frozen):
        raise ValueError("matrix must be square")
    return frozen


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(a: Matrix, scalar) -> Matrix:  # noqa: ANN001
    return tuple(tuple(scalar * v for v in row) for row in a)


def is_upper(a: Matrix) -> bool:
    return all(not a[i][j] for i in range(len(a)) for j in range(i))


def is_strictly_upper(a: Matrix) -> bool:
    return all(not a[i][j] for i in range(len(a)) for j in range(i + 1))


def is_hessenberg(a: Matrix) -> bool:
    return all(not a[i][j] for i in range(len(a)) for j in range(len(a)) if i - j > 1)


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


def mat_inverse(g: Matrix) -> Matrix:
    """Exact inverse with :class:`~fractions.Fraction` entries.

    Solves ``g U = Id`` by fraction-free integer elimination; ``int`` and
    ``Fraction`` input both give ``Fraction`` entries.

    Raises:
        SingularMatrixError: no inverse exists.
    """
    rows, d = _bareiss_jordan(g, identity_matrix(len(g)))
    return tuple(tuple(Fraction(v, d) for v in row) for row in rows)


def det(a: Matrix):  # noqa: ANN201
    """Determinant by first-column cofactor expansion.

    Generic over the scalar ring (Fractions and LaurentPoly both work).
    The suites call it on Hessenberg columns, where the cost grows about
    2^n; ``MAX_SUITE_N`` bounds the size.
    """
    n = len(a)
    if n == 0:
        return Fraction(1)
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
        >>> x = matrix_from_rows([[1, 5, 7], [0, 2, 6], [0, 0, 3]])
        >>> [F(i, x, identity_matrix(3)) for i in (1, 2)]
        [Fraction(1, 1), Fraction(2, 1)]
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


def commutator(x: Matrix, y: Matrix) -> Matrix:
    return mat_add(mat_mul(x, y), mat_scale(mat_mul(y, x), Fraction(-1)))


def commutator_entries(
    x: Matrix, y: Matrix, link_s: Sequence[int] = ()
) -> List[Tuple[Tuple[int, int], object]]:
    """Commutator entries over the Koszul index set, 1-based pairs.

    The index set is all ``(i, j)`` with ``j - i > 1`` plus ``(i, i+1)``
    for each ``i`` in ``link_s`` — the same extension rule the weights
    module uses for its obstruction list.  For strictly upper-triangular
    arguments every entry outside this set (with empty ``link_s``)
    vanishes identically, so all-zero entries here is equivalent to the
    matrices commuting.

    Raises:
        ValueError: if ``link_s`` is not a sequence of ``int`` in ``1..n-1``.

    Examples:
        >>> e12 = matrix_from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        >>> e23 = matrix_from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        >>> commutator_entries(e12, e23)
        [((1, 3), Fraction(1, 1))]
    """
    n = len(x)
    bracket = commutator(x, y)
    link_set = set(_link_s(n, link_s))
    pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if j - i > 1 or i in link_set
    ]
    return [((i, j), bracket[i - 1][j - 1]) for (i, j) in pairs]


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


def _check_positive(name: str, value: int) -> None:
    """Reject a ``bool``, a non-``int`` or a value below 1, naming it."""
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _check_suite_arguments(n: int, samples: int) -> None:
    _check_positive("n", n)
    _check_positive("samples", samples)
    if n > MAX_SUITE_N:
        raise CapacityError(
            f"mfcheck suites are limited to n <= {MAX_SUITE_N} (cofactor "
            f"determinants cost 3-5x more per two sizes); got n = {n}"
        )


def containment_suite(n: int, samples: int, seed: int) -> dict:
    """By-construction positive suite: Hessenberg ``g``, ``xhat(X) = g K``.

    Every sample must have all ``F_i = 0`` and ``g^-1 X g`` upper; any
    violation is reported with its sample index.

    Raises:
        ValueError: if ``n`` or ``samples`` is not a positive ``int``.
        CapacityError: if ``n > MAX_SUITE_N``.
    """
    _check_suite_arguments(n, samples)
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
        CapacityError: if ``n > MAX_SUITE_N``.
    """
    _check_suite_arguments(n, samples)
    if n < 3:
        raise ValueError("the negative control needs n >= 3 for a (3,1) entry")
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

    Examples:
        >>> all(symbolic_gid_check(n) for n in (2, 3, 4))
        True
    """
    _check_positive("n", n)
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
