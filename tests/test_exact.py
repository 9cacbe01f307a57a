from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipgeom.exact import (
    AffineMap,
    IntMat2,
    Vec2,
    det2,
    format_rational,
    parse_integer,
    parse_rational,
    primitive,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


def test_det2_examples():
    assert det2(Vec2(1, 0), Vec2(0, 1)) == 1
    assert det2(Vec2(-1, -1), Vec2(0, -1)) == 1
    assert det2(Vec2(2, 3), Vec2(2, 3)) == 0


@given(rationals, rationals, rationals, rationals, rationals, rationals)
def test_det2_alternating_bilinear(a, b, c, d, e, f):
    u, v, w = Vec2(a, b), Vec2(c, d), Vec2(e, f)
    assert det2(u, v) == -det2(v, u)
    assert det2(u + w, v) == det2(u, v) + det2(w, v)
    assert det2(3 * u, v) == 3 * det2(u, v)


def test_primitive_examples():
    assert primitive(Vec2(4, 6)) == Vec2(2, 3)
    assert primitive(Vec2(0, -5)) == Vec2(0, -1)
    assert primitive(Vec2(2, 3)) == Vec2(2, 3)


def test_primitive_rejects_zero():
    with pytest.raises(ValueError):
        primitive(Vec2(0, 0))


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 20))
def test_primitive_scaling(x, y, k):
    if x == 0 and y == 0:
        return
    assert primitive(k * Vec2(x, y)) == primitive(Vec2(x, y))


def test_rational_serialization():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-6, 8)) == "-3/4"
    assert format_rational(Fraction(5)) == "5"
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("-3") == Fraction(-3)


@given(rationals)
def test_rational_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize(
    "text, value",
    [("0", 0), (" -3/4 ", Fraction(-3, 4)), ("+5", 5), ("007/014", Fraction(1, 2)), ("6/3\n", 2)],
)
def test_parse_rational_accepts_p_and_p_over_q(text, value):
    assert parse_rational(text) == value


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


def test_intmat2_inverse_and_det():
    m = IntMat2(1, -9, 0, 1)
    assert m.det() == 1 and m.is_unimodular
    assert m @ m.inverse() == IntMat2.identity()
    assert IntMat2(2, 0, 0, 2).det() == 4
    with pytest.raises(ValueError):
        IntMat2(2, 0, 0, 2).inverse()


def test_affine_map_requires_integer_translation():
    with pytest.raises(ValueError):
        AffineMap(IntMat2.identity(), Vec2(Fraction(1, 2), 0))
    m = AffineMap(IntMat2(1, 1, 0, 1), Vec2(2, -1))
    assert m.apply(Vec2(1, 1)) == Vec2(4, 0)
