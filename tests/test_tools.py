"""Smoke tests of the stand-alone scripts in ``tools/``."""
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from _factories import binomial_tree, tree_claim_price
from platonic import ftap_verdict, price_interval, superreplicate
from platonic.market import Strategy

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)
_spec = importlib.util.spec_from_file_location("answer_digest", ROOT / "tools" / "answer_digest.py")
answer_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answer_digest)


def test_ladder_smallest_rung():
    """Exact bin 6 on the full tree: its long-only and free verdicts find no
    arbitrage and its three call prices are the closed form, each question
    with its wall time and its answer checked by ``perfbench/check.py``."""
    rung = ladder.rung(ROOT, 6, "full", "exact", ladder.CUTOFF)
    assert rung["rung"] == "bin 6 full exact" and not rung["stopped"]
    build, long_only, verdict, *calls = rung["questions"]
    assert build["outcomes"] == 64
    assert long_only["question"] == "long-only verdict" and long_only["verdict"] == "NO_ARBITRAGE"
    assert verdict["question"] == "verdict" and verdict["verdict"] == "NO_ARBITRAGE"
    assert "checked" not in build
    assert all(q["checked"] is True and "error" not in q for q in rung["questions"][1:])
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
        assert call["checked"] is True


def test_answer_digest_renders_sets_sorted_and_the_rest_as_repr():
    """A frozenset lists its items sorted, inside a tuple or dataclass too,
    so that its rendering does not depend on string hashing; an answer
    holding no frozenset of two or more items renders as its ``repr``."""
    render = answer_digest.render
    assert render(frozenset({"stock", "bond", "fx"})) == "frozenset({'bond', 'fx', 'stock'})"
    assert render((frozenset({2, 1}), frozenset())) == "(frozenset({1, 2}), frozenset())"
    strategy = Strategy(frozenset({"s2", "s1"}), ())
    assert render(strategy) == "Strategy(asset_set=frozenset({'s1', 's2'}), legs=(), sign_constraint='free')"
    model = binomial_tree(2)
    for answer in (ftap_verdict(model), superreplicate(model, (1, 0, 0, Fraction(1, 2))),
                   ((0.5,), price_interval(model, (1, 0, 2, 0)))):
        assert render(answer) == repr(answer)


# sha256 of the answers of the exact plans at seed 1, the same on Python 3.10
# to 3.13. A change that moves an exact answer updates its pin and says why.
EXACT_DIGESTS = {
    "exact-verdict": "e4142deaa77b134d6bcfe9825fe77dd1a82eb62b638fe87890fd3941c28e7ba9",
    "exact-pricing": "ea46dac1404827982b3f47baea65ca02b313454b4ea9d73fab7f329a59cd5f86",
}


@pytest.mark.parametrize("plan", sorted(EXACT_DIGESTS))
def test_the_exact_plans_give_their_pinned_answers(plan):
    """Every answer of the exact benchmark plans at seed 1, asked in a
    fresh interpreter as a benchmark pass asks them, is the pinned one.
    ``float-screen`` is not pinned: its answers differ between Python 3.11
    and 3.12 (ROADMAP item 15)."""
    assert answer_digest.digest(answer_digest.answers(ROOT, plan, 1)) == EXACT_DIGESTS[plan]
