"""Hessenberg determinant identities, the containment check and its elimination kernel."""

import hashlib
import random
from fractions import Fraction

import pytest

from coxlinks import mfcheck
from coxlinks.errors import CapacityError, ConsistencyError, SingularMatrixError
from coxlinks.mfcheck import (
    MAX_SUITE_N,
    F,
    all_F,
    containment_suite,
    det,
    hessenberg_check,
    is_upper,
    mat_mul,
    negative_control,
    sample_hessenberg,
    sample_strictly_upper,
    symbolic_gid_check,
    xhat,
)
from coxlinks.polyalg import LaurentPoly


def _identity(n, scalar=1):
    return tuple(tuple(scalar if i == j else 0 for j in range(n)) for i in range(n))


def _add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


# -- plumbing -------------------------------------------------------------------------


def test_shape_predicates():
    upper = ((1, 2), (0, 3))
    strict = ((0, 2), (0, 0))
    hess = ((1, 2, 3), (4, 5, 6), (0, 7, 8))
    assert is_upper(upper) and is_upper(strict)
    assert not is_upper(hess)


def _reference_inverse(g):
    """Textbook Gauss-Jordan over Fractions; ``None`` when ``g`` is singular."""
    n = len(g)
    work = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(g)
    ]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            return None
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [v / pivot for v in work[col]]
        for r in range(n):
            if r != col:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def _random_fraction_matrix(rng, n):
    """Entries with denominators up to 4 and many zeros.

    For ``n >= 2`` about one matrix in three gets a row that depends on
    its first two rows, so it is singular.
    """
    rows = [
        [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    if rng.randrange(3) == 0:
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if n >= 3 else 0
        rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[1 % n])]
        rng.shuffle(rows)
    return tuple(tuple(row) for row in rows)


def test_elimination_agrees_with_fraction_gauss_jordan():
    rng = random.Random(2026)
    singular = contained = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        g = _random_fraction_matrix(rng, n)
        x = _random_fraction_matrix(rng, n)
        reference = _reference_inverse(g)
        if reference is None:
            singular += 1
            with pytest.raises(SingularMatrixError):
                hessenberg_check(g, x)
            continue
        # Solving g U = Id leaves d U on the right, with d the last pivot.
        rows, d = mfcheck._bareiss_jordan(g, _identity(n))
        assert tuple(tuple(Fraction(v, d) for v in row) for row in rows) == reference
        if rng.randrange(2):
            # X = g U g^-1 with U upper, so g^-1 X g = U is contained.
            upper = tuple(
                tuple(v if j >= i else 0 for j, v in enumerate(row))
                for i, row in enumerate(x)
            )
            x = mat_mul(mat_mul(g, upper), reference)
        expected = is_upper(mat_mul(mat_mul(reference, x), g))
        contained += expected
        assert hessenberg_check(g, x) == expected
    assert singular >= 100 and contained >= 100


def test_det_works_symbolically():
    variables = ("p", "q")
    p = LaurentPoly.variable(variables, "p")
    q = LaurentPoly.variable(variables, "q")
    zero = p - p
    matrix = ((p, q), (zero, p))
    assert det(matrix) == p * p


# -- the determinant functions ---------------------------------------------------------


def test_F_at_identity_reads_diagonal_gaps():
    x = ((1, 5, 7), (0, 2, 6), (0, 0, 3))
    assert [F(i, x, _identity(3)) for i in (1, 2)] == [1, 2]


def test_scalar_matrix_kills_all_F():
    rng = random.Random(5)
    for n in (2, 3, 4):
        g = sample_hessenberg(rng, n)
        x = _identity(n, 7)
        assert xhat(x) == _identity(n, 0)
        assert all(value == 0 for value in all_F(x, g))


def test_by_construction_samples_satisfy_everything():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 5)
        g = sample_hessenberg(rng, n)
        k = sample_strictly_upper(rng, n)
        x = _add(mat_mul(g, k), _identity(n, -3))
        assert is_upper(x)
        assert all(value == 0 for value in all_F(x, g))
        assert hessenberg_check(g, x)


def test_containment_suite_is_clean():
    for n in (2, 3, 4, 5):
        report = containment_suite(n, 100, seed=n)
        assert report["passed"]
        assert report["failures"] == []


def test_negative_control_breaks_containment_not_F():
    # A (3,1) entry leaves every F_i = 0 but wrecks g^-1 X g upper:
    # the determinant identities alone do not see the Hessenberg shape.
    report = negative_control(3, 50, seed=0)
    assert report["passed"]
    assert report["containment_failures"] > 0
    assert report["checked"] == 50


def test_negative_control_golden():
    report = negative_control(5, 200, seed=1)
    assert report["checked"] == 200
    assert report["containment_failures"] == 187


def test_negative_control_raises_when_F_survives(monkeypatch):
    monkeypatch.setattr(mfcheck, "all_F", lambda x, g: [0, 3, 0])
    with pytest.raises(ConsistencyError, match=r"sample 0: .*F = \[0, 3, 0\]"):
        negative_control(3, 5, seed=0)


@pytest.mark.parametrize(
    ("n", "digest"),
    [
        (3, "74bfa7c842166142412b9667ca84f8c1842c26b1d38f4c882e878770f5bcab32"),
        (5, "f0684ad87ae6512027204bab8767fce403d5464e9741a597c187370ca270289f"),
    ],
)
def test_sample_stream_golden(n, digest):
    # Entries are hashed by value (str(Fraction(3)) == str(3)), so this pins
    # the matrices the suites draw, not the type they are drawn as.  Seed 25
    # draws singular Hessenberg matrices (two at n = 3, one at n = 5), so the
    # digest also pins which draws the invertibility test rejects.
    rng = random.Random(25)
    draws = []
    for _ in range(20):
        draws.append(sample_hessenberg(rng, n))
        draws.append(sample_strictly_upper(rng, n))
    text = ";".join(
        "|".join(",".join(str(v) for v in row) for row in matrix) for matrix in draws
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_negative_control_needs_room():
    with pytest.raises(ValueError):
        negative_control(2, 10, seed=0)


@pytest.mark.parametrize("suite", (containment_suite, negative_control))
def test_suites_are_capped(suite):
    # Cofactor determinants make n = 40 effectively endless; the cap stops it
    # before a single sample is drawn.
    with pytest.raises(CapacityError, match=f"n <= {MAX_SUITE_N}"):
        suite(MAX_SUITE_N + 1, 1, seed=0)
    with pytest.raises(CapacityError):
        suite(40, 1, seed=0)
    with pytest.raises(ValueError, match="n must be an integer >= "):
        suite("3", 1, seed=0)


@pytest.mark.parametrize("suite", (containment_suite, negative_control))
@pytest.mark.parametrize("samples", (0, -5, "5", 5.0, True))
def test_suites_reject_a_bad_sample_count_by_name(suite, samples):
    # A count below 1 would check no sample and still report a pass.
    with pytest.raises(ValueError, match="samples must be an integer >= 1"):
        suite(3, samples, seed=0)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_symbolic_identity_check(n):
    assert symbolic_gid_check(n)


def test_symbolic_identity_check_is_capped():
    # n = 40 took seconds of symbolic determinants before the cap.
    for n in (MAX_SUITE_N + 1, 40):
        with pytest.raises(CapacityError, match=f"n <= {MAX_SUITE_N}; got n = {n}"):
            symbolic_gid_check(n)


@pytest.mark.parametrize("n", (0, -1, "3", 3.0, True))
def test_symbolic_identity_check_rejects_a_bad_n_by_name(n):
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        symbolic_gid_check(n)
