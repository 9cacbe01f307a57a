from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pipgeom.exact import (
    AffineMap,
    IntMat2,
    Vec2,
    format_quotient,
    format_rational,
    parse_integer,
    parse_rational,
)
from pipgeom.polygon import hull

from conftest import fraction_of_text, primitive

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


# `primitive` is the test oracles' own: the Fraction edge oracles take each
# edge's direction from it


def test_primitive_examples():
    assert primitive(4, 6) == (2, 3)
    assert primitive(0, -5) == (0, -1)
    assert primitive(2, 3) == (2, 3)


def test_primitive_rejects_zero():
    with pytest.raises(ValueError):
        primitive(0, 0)


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 20))
def test_primitive_scaling(x, y, k):
    if x == 0 and y == 0:
        return
    assert primitive(k * x, k * y) == primitive(x, y)


def test_rational_serialization():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-6, 8)) == "-3/4"
    assert format_rational(Fraction(5)) == "5"
    assert format_quotient(-6, 8) == "-3/4"
    assert format_quotient(10, 5) == "2"
    assert format_quotient(0, 7) == "0"
    assert parse_rational("7/2") == (7, 2)
    assert parse_rational("-3") == (-3, 1)


@given(rationals)
def test_rational_roundtrip(q):
    assert parse_rational(format_rational(q)) == (q.numerator, q.denominator)


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30), st.integers(1, 10**6))
def test_format_quotient_matches_format_rational(p, q, k):
    assert format_quotient(k * p, k * q) == format_rational(Fraction(p, q))


@pytest.mark.parametrize(
    "text, value",
    [("0", 0), (" -3/4 ", Fraction(-3, 4)), ("+5", 5), ("007/014", Fraction(1, 2)), ("6/3\n", 2), ("-0/5", 0)],
)
def test_parse_rational_accepts_p_and_p_over_q(text, value):
    # lowest terms, positive denominator
    assert parse_rational(text) == (value.numerator, value.denominator)


_spaces = st.text(alphabet=" \t\n\r\f\v", max_size=3)


@given(
    _spaces,
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 3),
    st.integers(0, 10**40),
    st.none() | st.tuples(st.integers(0, 3), st.integers(1, 10**40)),
    _spaces,
)
@example("", "-", 0, 0, None, "")
@example(" ", "-", 2, 0, (1, 12), "\n")
def test_parse_rational_matches_fraction_oracle(lead, sign, zeros, p, den, trail):
    # random signs, whitespace and leading zeros, "-0" and "p/q", in the grammar
    text = lead + sign + "0" * zeros + str(p)
    if den is not None:
        text += "/" + "0" * den[0] + str(den[1])
    value = fraction_of_text(text + trail)
    assert parse_rational(text + trail) == (value.numerator, value.denominator)


BAD_RATIONALS = [
    "1e-5",
    "1e-1000",
    "1E5",
    "1.5",
    ".5",
    "1_0",
    "1/1_0",
    "",
    " ",
    "-",
    "1/",
    "/2",
    "1/-2",
    "1/+2",
    "1 / 2",
    "--1",
    "0x10",
    "inf",
    "nan",
    "\u0661",
    "1/0",
]


@pytest.mark.parametrize("text", BAD_RATIONALS)
def test_parse_rational_rejects_other_strings(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("text, value", [("0", 0), (" -3 ", -3), ("+5", 5), ("007", 7)])
def test_parse_integer_accepts_signed_digits(text, value):
    assert parse_integer(text) == value


@pytest.mark.parametrize("text", BAD_RATIONALS + ["4/1", "6/3\n"])
def test_parse_integer_rejects_other_strings(text):
    with pytest.raises(ValueError):
        parse_integer(text)


def test_vec2_is_normalized_and_hashable():
    v = Vec2(Fraction(2, 4), 3)
    assert v.x == Fraction(1, 2) and v.x.denominator == 2
    assert hash(v) == hash(Vec2(Fraction(1, 2), Fraction(3)))
    assert Vec2("6/4", 1.5) == Vec2(Fraction(3, 2), Fraction(3, 2))
    q = Fraction(1, 3)
    assert Vec2(q, 0).x is q  # a Fraction is already in lowest terms and is kept


def test_intmat2_inverse_and_det():
    m = IntMat2(1, -9, 0, 1)
    assert m.det() == 1 and m.is_unimodular
    assert m @ IntMat2(1, 9, 0, 1) == IntMat2(1, 9, 0, 1) @ m == IntMat2.identity()
    assert IntMat2(2, 0, 0, 2).det() == 4
    assert not IntMat2(2, 0, 0, 2).is_unimodular


def test_affine_map_requires_integer_translation():
    with pytest.raises(ValueError):
        AffineMap(IntMat2.identity(), Vec2(Fraction(1, 2), 0))
    m = AffineMap(IntMat2(1, 1, 0, 1), Vec2(2, -1))
    # p -> linear @ p + translate takes (1, 1) to (4, 0)
    T = hull([(0, 0), (1, 0), (1, 1)])
    assert T.apply_map(m) == hull([(2, -1), (3, -1), (4, 0)])
