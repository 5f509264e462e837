"""Exact randomized checks of the determinant identities behind cox_S.

The objects are small matrices over exact scalars: ``int`` for the seeded
samples, :class:`~coxlinks.polyalg.LaurentPoly` for the symbolic identity.
Determinants are computed two ways.  On a Hessenberg ``g``, one
last-column expansion, :func:`_hessenberg_dets`, uses only ring operations
and gives the leading minors (invertibility), every ``F_i`` and the
containment test.  Every other determinant, and :func:`hessenberg_check`,
runs one fraction-free elimination, :func:`_bareiss_jordan`, which clears
each row's denominators, so it is exact on ``int`` and
:class:`~fractions.Fraction` entries; no ``Fraction`` arithmetic runs on
the sampling path.
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

from .errors import ConsistencyError, SingularMatrixError, _is_int, _size
from .polyalg import LaurentPoly

Matrix = Tuple[tuple, ...]

#: Both suites grow polynomially in n: a containment sample took 0.7-0.9 ms
#: at n = 12 and 1.0-1.5 ms at n = 14, a negative-control sample, one
#: elimination per determinant, 2.6-2.9 ms and 5.1-5.2 ms (shared 2-CPU
#: host, Python 3.11).  So the CLI's default 500 containment samples take
#: about 0.4 s at the cap.
MAX_SUITE_N = 12
#: At those costs a suite of MAX_SUITE_SAMPLES at n = 12 takes about 4 s
#: (containment) and 13-18 s (negative control) on that host.
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


def _bareiss_jordan(a: Matrix, b: Sequence[Sequence]) -> Tuple[List[List[int]], int, int]:
    """Solve ``a U = b`` by fraction-free (Bareiss-Jordan) elimination.

    Each row of ``[a | b]`` is first scaled by the lcm of its denominators,
    which leaves ``U`` unchanged, so ``int`` and ``Fraction`` entries both
    work and every step stays in the integers: a row update is ``(p v - f
    w) // prev`` with ``prev`` the previous pivot, an exact division because
    every entry is a minor of the scaled matrix.  A row swap also negates
    one of the two rows, which keeps both ``U`` and the determinant.  At the
    end the left block is ``d Id`` and the right block is ``d U``, with
    ``d`` the determinant of the row-scaled ``a``.

    Returns:
        ``(rows, d, scale)``: the right block ``d U`` as integer rows, ``d !=
        0`` and the product of the row scales.

    Raises:
        SingularMatrixError: ``a`` is not invertible.
    """
    n = len(a)
    work = []
    scales = 1
    for a_row, b_row in zip(a, b):
        row = (*a_row, *b_row)
        scale = math.lcm(*(v.denominator for v in row))
        scales *= scale
        work.append([v.numerator * (scale // v.denominator) for v in row])
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError(f"matrix has no inverse (rank < {n})")
        if pivot_row != col:  # a signed swap keeps the determinant and U
            work[col], work[pivot_row] = work[pivot_row], [-v for v in work[col]]
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
    return [row[n:] for row in work], prev, scales


def det(a: Matrix):  # noqa: ANN201
    """Determinant of an ``int`` or ``Fraction`` matrix, by one elimination.

    It is the last pivot of :func:`_bareiss_jordan` over the row scales: an
    ``int`` for integral entries, ``0`` for a singular matrix and ``1`` for
    the ``0 x 0`` matrix.

    Examples:
        >>> det(((0, 2), (3, 4)))
        -6
    """
    try:
        _, d, scale = _bareiss_jordan(a, [()] * len(a))
    except SingularMatrixError:
        return 0
    if scale == 1:
        return d
    from fractions import Fraction  # here, so importing the CLI loads no fractions

    return Fraction(d, scale)


def _hessenberg_dets(g: Matrix, columns: Sequence[Sequence] = ()) -> Tuple[list, list]:
    """Leading minors of a Hessenberg ``g`` and its replaced-column determinants.

    Returns ``(minors, values)``: ``minors[k]`` is the determinant of the
    leading ``k x k`` block of ``g`` (``minors[0] = 1``), and ``values[k -
    1]``, for ``k = 1..n-1``, that of rows ``0..k`` of ``g``'s columns
    ``0..k-1`` followed by ``columns[k]`` (``values`` is empty without
    ``columns``).  Both come from one expansion along the last column:
    deleting row ``r`` and the last column leaves a block-triangular
    matrix, so the cofactor of row ``r`` is ``(-1)^(k-r) minors[r]
    g[r+1][r] ... g[k][k-1]``.  That is ``O(n^2)`` ring operations and no
    division.

    Raises:
        ConsistencyError: ``g`` has a nonzero entry below its subdiagonal.
    """
    n = len(g)
    if any(g[i][j] for i in range(n) for j in range(i - 1)):
        raise ConsistencyError("g is not Hessenberg: an entry below its subdiagonal is nonzero")
    minors = [1]
    values = []
    for k in range(n):
        cofactors = [0] * (k + 1)
        step = 1  # (-1)^(k-r) g[r+1][r] ... g[k][k-1]
        for r in range(k, 0, -1):
            cofactors[r] = step * minors[r]
            step = -step * g[r][r - 1]
        cofactors[0] = step  # minors[0] = 1
        minors.append(sum(g[r][k] * c for r, c in enumerate(cofactors)))
        if k and columns:
            values.append(sum(columns[k][r] * c for r, c in enumerate(cofactors)))
    return minors, values


# -- the determinant functions and containment --------------------------------


def _square_pair(x: Matrix, g: Matrix) -> int:
    """The size of ``x`` and ``g``, both square and of one size.

    Raises:
        ValueError: naming ``x`` or ``g``, whichever breaks that shape.
    """
    n = len(x)
    if any(len(row) != n for row in x):
        raise ValueError(f"x must be a square matrix, got {n} rows of lengths "
                         f"{[len(row) for row in x]}")
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError(f"g must be a {n} x {n} matrix like x, got {len(g)} rows "
                         f"of lengths {[len(row) for row in g]}")
    return n


def F(i: int, x: Matrix, g: Matrix):  # noqa: ANN201
    """The ``i``-th determinant function, ``1 <= i <= n-1``.

    Examples:
        >>> x = ((1, 5, 7), (0, 2, 6), (0, 0, 3))
        >>> g = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        >>> [F(i, x, g) for i in (1, 2)]
        [1, 2]
    """
    n = _square_pair(x, g)
    if not (_is_int(i) and 1 <= i <= n - 1):
        raise ValueError(f"i must lie in 1..{n - 1}, got {i!r}")
    return _F(i, xhat(x), g)


def _F(i: int, hat: Matrix, g: Matrix):  # noqa: ANN202
    """``F(i, X, g)`` from a prebuilt ``hat = xhat(X)``."""
    return det(tuple((*g[row][:i], hat[row][i]) for row in range(i + 1)))


def all_F(x: Matrix, g: Matrix) -> List:
    n = _square_pair(x, g)
    hat = xhat(x)
    return [_F(i, hat, g) for i in range(1, n)]


def hessenberg_check(g: Matrix, x: Matrix) -> bool:
    """Whether ``g^-1 X g`` is upper-triangular, exactly.

    The name records the locus this certifies: for invertible Hessenberg
    ``g`` with all ``F_i = 0`` the answer is always ``True``.  The check
    itself accepts any invertible ``g`` (the negative control feeds it
    non-Hessenberg samples on purpose).  ``U = g^-1 X g`` is found by one
    elimination on ``g U = X g``; the scaled ``d U`` has the same zeros.

    Raises:
        ValueError: ``x`` or ``g`` is not square, or their sizes differ.
        SingularMatrixError: ``g`` is not invertible.
    """
    _square_pair(x, g)
    rows = _bareiss_jordan(g, mat_mul(x, g))[0]
    return all(not rows[i][j] for i in range(len(rows)) for j in range(i))


def _hessenberg_contains(g: Matrix, x: Matrix) -> bool:
    """:func:`hessenberg_check` for an invertible Hessenberg ``g``, by minors.

    ``g^-1 X g`` is upper exactly when each column ``j`` of ``X g`` lies in
    the span of ``g``'s columns ``0..j``.  Those columns are supported on
    rows ``0..j+1`` and independent there, so the span is the set of
    vectors supported on those rows whose restriction is dependent on
    theirs: column ``j`` of ``X g`` must vanish below row ``j+1`` and give
    a zero replaced-column determinant at ``k = j+1``.
    """
    xg = mat_mul(x, g)
    n = len(xg)
    if any(xg[i][j] for j in range(n) for i in range(j + 2, n)):
        return False
    # Column j of X g is the replaced column at k = j + 1; k = 0 is unused.
    return not any(_hessenberg_dets(g, (None, *zip(*xg)))[1])


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
        if _hessenberg_dets(g)[0][-1]:
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
        values = _hessenberg_dets(g, tuple(zip(*xhat(x))))[1]
        if any(values):
            failures.append({"sample": sample, "reason": f"F = {values}"})
        elif not _hessenberg_contains(g, x):
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
        if not det(g):
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
    compares every ``F_i`` symbolically; exact, no interpolation.  ``g =
    Id`` is Hessenberg, so they all come from one :func:`_hessenberg_dets`
    expansion, which needs only ring operations.

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

    def var(i: int, j: int) -> LaurentPoly:
        return LaurentPoly.variable(names, f"x{i}{j}")

    x = tuple(
        tuple(var(i, j) if i <= j else 0 for j in range(1, n + 1))
        for i in range(1, n + 1)
    )
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    values = _hessenberg_dets(identity, tuple(zip(*xhat(x))))[1]
    return all(
        value == var(i + 1, i + 1) - var(1, 1) for i, value in enumerate(values, start=1)
    )
