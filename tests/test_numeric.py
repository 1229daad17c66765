from fractions import Fraction as F

import pytest

from platonic.numeric import format_number, lp_mode_and_tol, parse_number, pick_tol


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("1/3", F(1, 3)),
        ("-7/2", F(-7, 2)),
        ("0.25", F(1, 4)),
        (3, F(3)),
        (0.1, F(1, 10)),  # floats read as their decimal literal
        (F(5, 6), F(5, 6)),
    ],
)
def test_parse_number(raw, expected):
    assert parse_number(raw) == expected


def test_parse_rejects_junk():
    with pytest.raises(TypeError):
        parse_number(True)
    with pytest.raises(TypeError):
        parse_number(None)
    with pytest.raises(ValueError):
        parse_number("abc")


def test_format_number():
    assert format_number(F(1, 3)) == "1/3"
    assert format_number(F(4, 2)) == "2"
    assert format_number(5) == "5"
    assert format_number(0.5) == 0.5


def test_pick_tol():
    assert pick_tol("exact") == 0
    assert pick_tol("float") == 1e-9
    assert pick_tol("float", tol=1e-6) == 1e-6
    assert lp_mode_and_tol("exact") == ("exact", 0)
    assert lp_mode_and_tol("exact", tol=1e-6) == ("float", 1e-6)
    assert lp_mode_and_tol("float", tol=0) == ("float", 0)
