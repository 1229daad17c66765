"""Smoke tests of the stand-alone scripts in ``tools/``."""
import importlib.util
from fractions import Fraction
from pathlib import Path

from _factories import binomial_tree, tree_claim_price

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)


def test_ladder_smallest_rung():
    """Exact bin 6 on the full tree: its long-only and free verdicts find no
    arbitrage and its three call prices are the closed form, each question
    with its wall time."""
    rung = ladder.rung(ROOT, 6, "full", "exact", ladder.CUTOFF)
    assert rung["rung"] == "bin 6 full exact" and not rung["stopped"]
    build, long_only, verdict, *calls = rung["questions"]
    assert build["outcomes"] == 64
    assert long_only["question"] == "long-only verdict" and long_only["verdict"] == "NO_ARBITRAGE"
    assert verdict["question"] == "verdict" and verdict["verdict"] == "NO_ARBITRAGE"
    stock = binomial_tree(6).prices[0][-1].values
    for call, strike in zip(calls, (60, 100, 140), strict=True):
        assert call["question"] == f"call {strike}" and isinstance(call["s"], float)
        assert Fraction(call["price"]) == tree_claim_price(6, [max(s - strike, 0) for s in stock])


def test_ladder_reports_a_stopped_rung_past_its_cutoff():
    rung = ladder.rung(ROOT, 6, "full", "exact", 0.001)
    assert rung["stopped"] and len(rung["questions"]) == 6
    assert all(q["s"] == "> cutoff" for q in rung["questions"])


def test_ladder_reports_a_failed_rung_as_an_error(tmp_path):
    """A checkout without the package: the child fails on its import, and
    each question is an error that names it, not a cutoff."""
    rung = ladder.rung(tmp_path, 6, "full", "exact", ladder.CUTOFF)
    assert not rung["stopped"] and len(rung["questions"]) == 6
    for question in rung["questions"]:
        assert question["s"] is None and "ModuleNotFoundError" in question["error"]
    assert ladder.commit(tmp_path) == "unknown"


def test_ladder_goes_on_past_a_stopped_long_only_verdict():
    """The long-only verdict of the full 8-step tree does not finish (its
    degenerate pivots stall): it is stopped at its own cutoff, and the rung
    goes on to the free verdict and the calls, whose prices are the closed
    form."""
    rung = ladder.rung(ROOT, 8, "full", "float", 3.0)
    _build, long_only, verdict, *calls = rung["questions"]
    assert long_only["s"] == "> cutoff" and not rung["stopped"]
    assert verdict["verdict"] == "NO_ARBITRAGE"
    stock = binomial_tree(8).prices[0][-1].values
    for call, strike in zip(calls, (60, 100, 140), strict=True):
        price = tree_claim_price(8, [max(s - strike, 0) for s in stock])
        assert abs(float(call["price"]) - price) <= 1e-9 * (1 + price)
