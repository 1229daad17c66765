from fractions import Fraction as F

import pytest

from platonic import as_float_model, find_measure, ftap_verdict, price_interval, superreplicate, validate
from platonic.numeric import format_number, lp_mode_and_tol, parse_number, pick_tol
from platonic.scenario import parse_scenario


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


BAD_TOLS = [float("nan"), float("inf"), -float("inf"), -1e-9, F(-1, 3)]


@pytest.mark.parametrize("tol", BAD_TOLS, ids=repr)
@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_pick_tol_rejects_nan_infinite_and_negative(arithmetic, tol):
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        pick_tol(arithmetic, tol)
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        lp_mode_and_tol(arithmetic, tol)


@pytest.mark.parametrize("tol", BAD_TOLS, ids=repr)
def test_entry_points_reject_a_bad_tolerance(scenario_path, tol):
    """Each question checks its tolerance before it answers: a NaN
    tolerance once gave an arbitrage verdict with terminal gain (0, 0), and
    an infinite one certified anything."""
    scenario = parse_scenario(scenario_path("binomial"))
    claim = scenario.claims["call"]
    for model in (scenario.model, as_float_model(scenario.model)):
        for ask in (lambda: ftap_verdict(model, "free", tol),
                    lambda: find_measure(model, "martingale", tol),
                    lambda: validate(model, tol),
                    lambda: superreplicate(model, claim, "free", tol),
                    lambda: price_interval(model, claim, tol=tol)):
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                ask()
