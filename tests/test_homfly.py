"""Braid words, the Hecke-trace engine, and the planar skein resolver."""

import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coxlinks._planar_skein import resolve_homfly
from coxlinks.errors import BraidSyntaxError, CapacityError
from coxlinks.homfly import (
    BraidWord,
    _times_generator,
    _trace,
    braid_to_hecke,
    coxeter_braid,
    homfly,
    markov_trace,
    parse_braid,
)
from coxlinks.polyalg import LaurentPoly, parse_poly

AZ = ("a", "z")


def _poly(text):
    return parse_poly(text, AZ)


@st.composite
def braid_words(draw, max_strands=4, max_length=6):
    strands = draw(st.integers(min_value=2, max_value=max_strands))
    length = draw(st.integers(min_value=0, max_value=max_length))
    word = tuple(
        (
            draw(st.integers(min_value=1, max_value=strands - 1)),
            draw(st.sampled_from((1, -1))),
        )
        for _ in range(length)
    )
    return BraidWord(strands=strands, word=word)


# -- parsing --------------------------------------------------------------------------


def test_parse_round_trip():
    braid = parse_braid("strands=3 s1 s2^-1 s1")
    assert braid.strands == 3
    assert braid.word == ((1, 1), (2, -1), (1, 1))
    assert parse_braid(braid.to_text()) == braid


@pytest.mark.parametrize(
    "text, word",
    [
        ("strands=3 [1, -2, 1]", ((1, 1), (2, -1), (1, 1))),
        ("strands=3 [ 1 , -2 ]", ((1, 1), (2, -1))),
        ("strands=3 [+1]", ((1, 1),)),
        ("strands=3 [1,\t2\n]", ((1, 1), (2, 1))),
        ("strands=3 []", ()),
        ("strands=3 [ ]", ()),
    ],
)
def test_parse_accepts_bracketed_lists(text, word):
    assert parse_braid(text) == BraidWord(3, word)


@pytest.mark.parametrize(
    "text, position",
    [
        ("whatever", 0),
        ("strands=2 s5", 10),
        ("strands=3 s1 -s2", 13),
        ("strands=0 s1", 0),
        ("s1 s1 s1 strands=2", 0),
        ("  x strands=2 s1", 2),
    ],
)
def test_parse_rejects_with_position(text, position):
    with pytest.raises(BraidSyntaxError) as excinfo:
        parse_braid(text)
    assert f"(at position {position})" in str(excinfo.value)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("strands=3 [1, -2", "unclosed '['", 10),
        ("strands=3 s1 [2]", "bracketed form cannot be mixed with other tokens", 13),
        ("strands=3 [0]", "generator 0 is not defined", 11),
        ("strands=4 [1; 2]", "unexpected text ';' in bracketed list", 12),
        ("strands=3 [1-2]", "unexpected text '-' in bracketed list", 12),
        ("strands=3 [1,,,2]", "unexpected text ',' in bracketed list", 13),
        ("strands=3 [1 2]", "unexpected text '2' in bracketed list", 13),
        ("strands=3 [1,]", "unexpected text ']' in bracketed list", 13),
        ("strands=3 [,1]", "unexpected text ',' in bracketed list", 11),
    ],
)
def test_parse_rejects_bad_bracketed_lists(text, message, position):
    with pytest.raises(BraidSyntaxError) as excinfo:
        parse_braid(text)
    assert str(excinfo.value) == f"{message} (at position {position})"
    assert excinfo.value.position == position


def test_parse_allows_only_whitespace_before_the_header():
    assert parse_braid(" \t\nstrands=2 s1 s1 s1") == parse_braid("strands=2 s1 s1 s1")
    with pytest.raises(BraidSyntaxError, match="missing strands=<n> header"):
        parse_braid("s1 s1 s1 strands=2")


@given(braid_words())
def test_text_round_trip_property(braid):
    assert parse_braid(braid.to_text()) == braid


# -- braid bookkeeping ----------------------------------------------------------------


def test_writhe_components_permutation():
    trefoil = parse_braid("strands=2 s1 s1 s1")
    assert trefoil.writhe() == 3
    assert trefoil.components() == 1
    assert trefoil.permutation() == (2, 1)
    hopf = parse_braid("strands=2 s1 s1")
    assert hopf.components() == 2
    assert hopf.permutation() == (1, 2)


@given(braid_words())
def test_inverse_reverses_and_flips(braid):
    inverse = braid.inverse()
    assert inverse.writhe() == -braid.writhe()
    assert inverse.word == tuple((i, -s) for i, s in reversed(braid.word))


# -- golden values --------------------------------------------------------------------


def test_unknot_closures_are_one():
    assert homfly(parse_braid("strands=1")) == _poly("1")
    assert homfly(parse_braid("strands=2 s1")) == _poly("1")
    assert homfly(parse_braid("strands=3 s1 s2")) == _poly("1")


def test_trefoil_golden():
    value = homfly(parse_braid("strands=2 s1 s1 s1"))
    assert str(value) == "-a^4 + a^2*z^2 + 2*a^2"


def test_hopf_link_golden():
    value = homfly(parse_braid("strands=2 s1 s1"))
    assert value == _poly("-a^3*z^-1 + a*z + a*z^-1")


def test_torus_3_4_golden():
    value = homfly(coxeter_braid(3, (), (1, 1)))
    expected = _poly(
        "a^10 - a^8*z^4 - 5*a^8*z^2 - 5*a^8"
        " + a^6*z^6 + 6*a^6*z^4 + 10*a^6*z^2 + 5*a^6"
    )
    assert value == expected


def test_mirror_image_swaps_a_for_its_inverse():
    trefoil = parse_braid("strands=2 s1 s1 s1")
    mirrored = homfly(trefoil.inverse())
    assert mirrored == homfly(trefoil).substitute(
        {"a": LaurentPoly.monomial(AZ, (-1, 0)), "z": LaurentPoly.variable(AZ, "z")}
    )


# -- defining relations, randomly probed ------------------------------------------------


def test_skein_relation_on_seeded_words():
    rng = random.Random(7)
    a = LaurentPoly.variable(AZ, "a")
    z = LaurentPoly.variable(AZ, "z")
    a_inv = LaurentPoly.monomial(AZ, (-1, 0))
    for _ in range(20):
        strands = rng.randint(2, 4)
        length = rng.randint(0, 5)
        word = [
            (rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)
        ]
        spot = rng.randint(0, length)
        index = rng.randint(1, strands - 1)
        plus = BraidWord(strands, tuple(word[:spot] + [(index, 1)] + word[spot:]))
        minus = BraidWord(strands, tuple(word[:spot] + [(index, -1)] + word[spot:]))
        zero = BraidWord(strands, tuple(word))
        assert a_inv * homfly(plus) - a * homfly(minus) == z * homfly(zero)


def test_markov_moves_on_seeded_words():
    rng = random.Random(11)
    for _ in range(20):
        strands = rng.randint(2, 4)
        length = rng.randint(1, 5)
        word = tuple(
            (rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)
        )
        braid = BraidWord(strands, word)
        rotated = BraidWord(strands, word[1:] + word[:1])
        assert homfly(rotated) == homfly(braid)
        sign = rng.choice((1, -1))
        stabilized = BraidWord(strands + 1, word + ((strands, sign),))
        assert homfly(stabilized) == homfly(braid)


@settings(max_examples=25, deadline=None)
@given(braid_words(max_strands=3, max_length=5))
def test_resolver_agrees_with_trace_engine(braid):
    assert resolve_homfly(braid) == homfly(braid)


# -- the braids behind the localization sums --------------------------------------------


def test_coxeter_braid_examples():
    assert coxeter_braid(2, (), (1,)).to_text() == "strands=2 s1 s1 s1"
    assert coxeter_braid(3, (), (0, 0)).to_text() == "strands=3 s2 s1"
    assert coxeter_braid(3, (1,), (0, 0)).to_text() == "strands=3 s2"
    full = coxeter_braid(3, (), (1, 1))
    assert full.to_text() == "strands=3 s2 s1 s1 s2 s2 s1 s2 s2"
    assert full.writhe() == 8
    assert coxeter_braid(2, (), (-1,)).to_text() == "strands=2 s1 s1^-1 s1^-1"


@pytest.mark.parametrize(
    "k", [(-1,), (-2,), (-1, 0), (0, -1), (-1, 1), (1, -1)], ids=str
)
def test_negative_twists_agree_with_the_resolver(k):
    # The other coxeter_braid tests draw k >= 0; these emit inverse twists.
    braid = coxeter_braid(len(k) + 1, (), k)
    assert homfly(braid) == resolve_homfly(braid)


def test_coxeter_braid_accepts_integral_values_only():
    exact = coxeter_braid(3, (1,), (2, 0))
    assert coxeter_braid(3, (Fraction(1),), (2.0, Fraction(0))) == exact
    with pytest.raises(ValueError, match="k entry 0.9 is not an integer"):
        coxeter_braid(3, (1, 1), (0.9, 0))
    with pytest.raises(ValueError, match="link_s entry"):
        coxeter_braid(3, (Fraction(3, 2),), (0, 0))
    assert coxeter_braid(3.0, (1,), (2, 0)) == exact
    assert type(coxeter_braid(3.0, (1,), (2, 0)).strands) is int
    for bad in (2.5, "2", None, 0, True):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            coxeter_braid(bad, (), (1,))
    with pytest.raises(ValueError, match="k must be a sequence of integers"):
        coxeter_braid(3, (), 5)
    with pytest.raises(ValueError, match="link_s must be a sequence of integers"):
        coxeter_braid(3, 1, (0, 0))


@pytest.mark.parametrize(
    "strands, word, match",
    [
        (2.0, ((1, 1),), "strands must be an integer >= 1, got 2.0"),
        (True, (), "strands must be an integer >= 1, got True"),
        (2, ((True, 1),), "generator (True, 1)"),
        (3, ((1.0, 1),), "generator (1.0, 1)"),
        (2, ((1, True),), "generator (1, True)"),
        # A list word was accepted but made the braid unhashable.
        (2, [(1, 1)], "word must be a tuple"),
        (2, 5, "word must be a tuple"),
        (2, ((1, 1, 1),), "generator (1, 1, 1) is not a pair"),
        (2, ([1, 1],), "generator [1, 1] is not a pair"),
    ],
)
def test_braid_word_rejects_non_int_entries_by_name(strands, word, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        BraidWord(strands, word)


def test_coxeter_braid_rejects_repeated_link_s():
    with pytest.raises(ValueError, match="repeated"):
        coxeter_braid(3, (1, 1), (0, 0))


@pytest.mark.parametrize("k", range(0, 4))
def test_two_strand_coxeter_closures_are_odd_torus_knots(k):
    braid = coxeter_braid(2, (), (k,))
    assert len(braid.word) == 2 * k + 1
    if k == 0:
        assert homfly(braid) == _poly("1")


def test_strand_capacity():
    with pytest.raises(CapacityError):
        homfly(BraidWord(7, ((1, 1),)))


def test_resolver_crossing_capacity():
    word = tuple((1, 1) for _ in range(9))
    with pytest.raises(CapacityError):
        resolve_homfly(BraidWord(2, word))


def test_homfly_is_the_framed_scaled_trace():
    rng = random.Random(5)
    braids = [parse_braid("strands=1"), coxeter_braid(3, (), (1, 0))]
    for _ in range(10):
        strands = rng.randint(2, 4)
        word = tuple(
            (rng.randint(1, strands - 1), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 5))
        )
        braids.append(BraidWord(strands, word))
    for braid in braids:
        framing = LaurentPoly.monomial(AZ, (braid.writhe() - braid.strands + 1, 0))
        assert homfly(braid) == framing * markov_trace(braid_to_hecke(braid))


@pytest.mark.parametrize("n", range(1, 5))
def test_scaled_trace_of_identity(n):
    free_strand = _poly("z^-1 - a^2*z^-1")  # (1 - a^2) / z
    identity = {tuple(range(1, n + 1)): LaurentPoly.one(AZ)}
    assert markov_trace(identity) == free_strand ** (n - 1)


def _random_element(rng, n):
    """A seeded Hecke element on ``n`` strands with small random coefficients."""
    element = {}
    for _ in range(rng.randint(1, 6)):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        terms = {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.choice((-2, -1, 1, 3))
                 for _ in range(rng.randint(1, 3))}
        element[tuple(perm)] = LaurentPoly(AZ, terms)
    return element


@pytest.mark.parametrize("n", range(2, 6))
def test_generator_and_its_inverse_cancel(n):
    rng = random.Random(n)
    for _ in range(20):
        element = _random_element(rng, n)
        index = rng.randint(1, n - 1)
        for first, second in ((1, -1), (-1, 1)):
            product = _times_generator(_times_generator(element, index, first), index, second)
            assert product == element


def _digest_braids():
    for n, top in ((2, 3), (3, 3), (4, 3), (5, 2), (6, 2)):
        for k in itertools.product(range(top), repeat=n - 1):
            yield n, k, coxeter_braid(n, (), k)


def test_coxeter_homfly_digest():
    # Pinned from the rational (a, z) trace: the Laurent-ring trace must match it.
    lines = [f"{n} {k} {homfly(braid)}" for n, k, braid in _digest_braids()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "a113e6ac77659b74d3fcea2c3e0dd50b0095a48680448845a2222beb7719f2a7"


def test_trace_cache_holds_at_most_one_key_per_permutation():
    for _, _, braid in _digest_braids():
        homfly(braid)
    assert _trace.cache_info().currsize <= sum(math.factorial(m) for m in range(1, 7))
