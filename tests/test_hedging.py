import dataclasses
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _factories import binomial_tree, random_claim, random_market, trinomial_tree
from platonic import (
    FiniteSpace,
    Filtration,
    LinearProgram,
    Partition,
    RandomVariable,
    UnpricedMarketError,
    attainability_set_check,
    build_market,
    delayed_filtration,
    enumerate_generators,
    enumerate_vertices,
    ftap_verdict,
    polar_cone_check,
    price_interval,
    solve,
    superreplicate,
)
from platonic import FloatModeError, as_float_model, ftap, hedging, lpsolve
from platonic.ftap import checked_measure, martingale_polytope_constraints
from platonic.market import generator_matrix
from platonic.scenario import parse_scenario


def part(*blocks):
    return Partition(tuple(frozenset(b) for b in blocks))


@pytest.fixture
def binomial():
    space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
    big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
    return build_market(space, big, {"s": [(1, 1), (2, F(1, 2))]})


@pytest.fixture
def delayed_canonical():
    space = FiniteSpace(("uu", "ud", "du", "dd"), (F(1, 4),) * 4)
    big = Filtration(
        (0, F(1, 2), 1),
        (part({0, 1, 2, 3}), part({0, 1}, {2, 3}), Partition.singletons(4)),
    )
    prices = {"s": [(1,) * 4, (2, 2, F(1, 2), F(1, 2)), (4, 1, 1, F(1, 4))]}
    return build_market(
        space, big, prices, trading_filtrations=delayed_filtration(big, F(1, 2))
    )


def dual_vertices(model, claim_len):
    gens = enumerate_generators(model)
    cols = [tuple(g.payoff.values) for g in gens]
    lp = LinearProgram.build(
        [0] * claim_len, "max",
        martingale_polytope_constraints(cols, claim_len, "martingale"),
        [(0, None)] * claim_len,
    )
    return enumerate_vertices(lp)


# Claims whose cash hedge is a degenerate start of the superhedge LP: a
# constant (already optimal), an all-negative claim, and a maximum reached on
# several outcomes (several rows start tight).
DEGENERATE_CLAIMS = [
    (F(7, 3),) * 4,
    (-1, -3, F(-1, 2), -5),
    (2, 0, 2, 1),
    (1, 1, 0, 1),
]


class TestSuperreplicate:
    def test_constant_claim_costs_its_value(self, binomial):
        hedge, dual = superreplicate(binomial, (F(5, 2), F(5, 2)))
        assert hedge.price == F(5, 2)
        assert all(l == 0 for l in hedge.lambdas) or hedge.consumption.values == (0, 0)

    def test_binomial_call(self, binomial):
        hedge, dual = superreplicate(binomial, (1, 0))
        assert hedge.price == F(1, 3)
        assert hedge.lambdas == (F(2, 3),)
        assert hedge.consumption.values == (0, 0)  # perfect hedge
        assert dual.q_values == (F(1, 3), F(2, 3))

    def test_delayed_call_matches_vertex_oracle(self, delayed_canonical):
        claim = (3, 0, 0, 0)
        hedge, dual = superreplicate(delayed_canonical, claim)
        vertices = dual_vertices(delayed_canonical, 4)
        best = max(sum(q * c for q, c in zip(v, claim)) for v in vertices)
        assert hedge.price == best == F(1, 2)

    def test_refuses_on_arbitrage(self):
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(space, big, {"s": [(1, 1), (2, 2)]})
        with pytest.raises(UnpricedMarketError):
            superreplicate(model, (1, 0))

    def test_dominates_claim_everywhere(self, delayed_canonical):
        rng = random.Random(42)
        gens = enumerate_generators(delayed_canonical)
        claims = [random_claim(rng, 4) for _ in range(10)]
        for claim in claims + [RandomVariable(c) for c in DEGENERATE_CLAIMS]:
            hedge, dual = superreplicate(delayed_canonical, claim)
            wealth = [
                sum(c * g.payoff.values[i] for c, g in zip(hedge.lambdas, gens))
                for i in range(4)
            ]
            assert all(
                hedge.price + w >= cv for w, cv in zip(wealth, claim.values)
            )
            assert hedge.price == sum(q * c for q, c in zip(dual.q_values, claim.values))

    @pytest.mark.parametrize("arithmetic", ["exact", "float"])
    @pytest.mark.parametrize("mode", ["free", "long_only"])
    @pytest.mark.parametrize("claim", DEGENERATE_CLAIMS)
    def test_degenerate_starts_match_polytope_oracle(self, delayed_canonical, claim, mode, arithmetic):
        """The price is the largest expectation over the measure polytope,
        solved exactly as its own LP, and the dual is a checked measure."""
        n = delayed_canonical.n_outcomes
        kind = "martingale" if mode == "free" else "supermartingale"
        _gens, exact_cols = generator_matrix(delayed_canonical, mode)
        polytope = martingale_polytope_constraints(exact_cols, n, kind)
        oracle = solve(LinearProgram.build(list(claim), "max", polytope, [(0, None)] * n)).objective
        model, tol = delayed_canonical, 0
        if arithmetic == "float":
            model, tol, claim = as_float_model(model), 1e-9, tuple(float(c) for c in claim)
        hedge, dual = superreplicate(model, claim, mode)
        if tol == 0:
            assert hedge.price == oracle
        else:
            assert isinstance(hedge.price, float) and abs(hedge.price - oracle) <= 1e-9
        if len(set(claim)) == 1:
            assert hedge.price == claim[0]
        _gens, cols = generator_matrix(model, mode)
        assert checked_measure(dual.q_values, cols, kind, tol) is not None
        assert abs(hedge.price - sum(q * c for q, c in zip(dual.q_values, claim))) <= tol
        assert all(v >= -tol for v in hedge.consumption)


class TestAnswerCache:
    """Each superhedge is solved once per process: a repeated question is
    answered from the cache, in its own arithmetic, and a refusal is asked
    again every time."""

    @pytest.fixture
    def solves(self, monkeypatch, cold_caches):
        calls = []
        inner = hedging.solve

        def solve(*args, **kwargs):
            calls.append(args[0])
            return inner(*args, **kwargs)

        monkeypatch.setattr(hedging, "solve", solve)
        return calls

    def test_interval_after_superhedge_solves_one_lp(self, solves, delayed_canonical):
        claim = (3, 0, 1, 0)
        hedge, _dual = superreplicate(delayed_canonical, claim)
        assert len(solves) == 1
        interval = price_interval(delayed_canonical, claim)
        assert len(solves) == 2  # the lower hedge; the upper one is the cached superhedge
        assert interval.upper == hedge.price

    @pytest.mark.parametrize("float_first", [True, False])
    def test_equal_claims_keep_their_arithmetic(self, solves, binomial, float_first):
        exact_claim, float_claim = (F(1, 2), F(1, 4)), (0.5, 0.25)
        assert RandomVariable(exact_claim) == RandomVariable(float_claim)
        claims = [float_claim, exact_claim] if float_first else [exact_claim, float_claim]
        answers = [superreplicate(binomial, claim) for claim in claims]
        exact, approx = answers[::-1] if float_first else answers
        assert len(solves) == 2
        assert float not in {type(v) for v in _numbers(exact)}
        assert F not in {type(v) for v in _numbers(approx)}
        assert type(exact[0].price) is F and type(approx[0].price) is float

    def test_arbitrage_refusal_is_not_cached(self, solves):
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(space, big, {"s": [(1, 1), (2, 2)]})
        for _ in range(3):
            with pytest.raises(UnpricedMarketError):
                superreplicate(model, (1, 0))
            with pytest.raises(UnpricedMarketError):
                price_interval(model, (1, 0))
        assert solves == []
        assert hedging._superhedge.cache_info().currsize == 0


class TestPriceInterval:
    def test_attainable_wealth_has_degenerate_interval(self, delayed_canonical):
        gens = enumerate_generators(delayed_canonical)
        g0 = gens[0].payoff
        interval = price_interval(delayed_canonical, g0)
        assert interval.lower == interval.upper == 0
        assert interval.replication is not None
        x, lam = interval.replication
        assert x == 0
        combo = [
            sum(c * g.payoff.values[i] for c, g in zip(lam, gens)) for i in range(4)
        ]
        assert tuple(combo) == g0.values

    def test_complete_market_every_claim_attainable(self, binomial):
        rng = random.Random(1)
        for _ in range(5):
            claim = random_claim(rng, 2)
            interval = price_interval(binomial, claim)
            assert interval.lower == interval.upper
            assert interval.attained_lower and interval.attained_upper

    def test_incomplete_open_interval(self, delayed_canonical):
        claim = RandomVariable((3, 0, 0, 0))
        interval = price_interval(delayed_canonical, claim, eta=F(1, 10**6))
        assert (interval.lower, interval.upper) == (0, F(1, 2))
        assert not interval.attained_upper and not interval.attained_lower
        w = interval.upper_witness
        assert w is not None and w.null_outcomes  # optimizer kills some outcome
        assert min(w.mixture) > 0  # the mixture has full support
        assert interval.upper - w.achieved <= F(1, 10**6)
        total = sum(w.mixture)
        assert total == 1

    def test_cash_translation_and_monotonicity(self, delayed_canonical):
        rng = random.Random(2)
        for _ in range(5):
            claim = random_claim(rng, 4)
            hedge, _ = superreplicate(delayed_canonical, claim)
            shifted, _ = superreplicate(delayed_canonical, claim + 3)
            assert shifted.price == hedge.price + 3
            bigger, _ = superreplicate(delayed_canonical, claim + RandomVariable((0, 1, 0, 2)))
            assert bigger.price >= hedge.price

    def test_subreplication_symmetry(self, delayed_canonical):
        rng = random.Random(3)
        for _ in range(5):
            claim = random_claim(rng, 4)
            interval = price_interval(delayed_canonical, claim)
            hedge_minus, _ = superreplicate(delayed_canonical, -claim)
            assert hedge_minus.price == -interval.lower

    def test_smaller_filtration_never_cheapens_hedges(self, delayed_canonical):
        # the same market observed fully
        full = build_market(
            delayed_canonical.space,
            delayed_canonical.big_filtration,
            {"s": list(delayed_canonical.price_path("s"))},
        )
        rng = random.Random(4)
        for _ in range(5):
            claim = random_claim(rng, 4)
            coarse_price, _ = superreplicate(delayed_canonical, claim)
            fine_price, _ = superreplicate(full, claim)
            assert coarse_price.price >= fine_price.price

    def test_long_only_never_cheaper(self, delayed_canonical):
        rng = random.Random(5)
        for _ in range(5):
            claim = random_claim(rng, 4)
            free_hedge, _ = superreplicate(delayed_canonical, claim, "free")
            long_hedge, _ = superreplicate(delayed_canonical, claim, "long_only")
            assert long_hedge.price >= free_hedge.price


class TestPolarCone:
    def test_constant_prices_polar_is_whole_simplex(self):
        space = FiniteSpace(("a", "b", "c"), (F(1, 3),) * 3)
        big = Filtration((0, 1), (part({0, 1, 2}), Partition.singletons(3)))
        model = build_market(space, big, {"s": [(1, 1, 1), (1, 1, 1)]})
        report = polar_cone_check(model)
        assert report.match
        assert set(report.polar_vertices) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_complete_binomial_polar_is_single_ray(self, binomial):
        report = polar_cone_check(binomial)
        assert report.match
        assert report.polar_vertices == ((F(1, 3), F(2, 3)),)

    def test_canonical_vertices_match(self, delayed_canonical):
        report = polar_cone_check(delayed_canonical, seed=11)
        assert report.match and report.polar_in_dual and report.dual_in_polar
        assert report.cone_inequality_samples_ok
        assert set(report.dual_vertices) == {
            (0, F(1, 3), F(2, 3), 0),
            (F(1, 6), F(1, 6), 0, F(2, 3)),
        }

    def test_long_only_variant(self, delayed_canonical):
        report = polar_cone_check(delayed_canonical, mode="long_only", seed=12)
        assert report.match and report.cone_inequality_samples_ok


class TestAttainability:
    def test_reachable_wealth_passes_all_tests(self, delayed_canonical):
        gen = enumerate_generators(delayed_canonical)[0]
        report = attainability_set_check(delayed_canonical, gen.payoff)
        assert report.zero_width and report.in_cone_both_ways
        assert report.zero_at_all_vertices and report.in_generator_span
        assert report.consistent and report.candidate_price == 0

    def test_cash_passes_with_price_one(self, delayed_canonical):
        report = attainability_set_check(delayed_canonical, (1, 1, 1, 1))
        assert report.consistent and report.zero_width
        assert report.candidate_price == 1

    def test_random_claims_consistent(self, delayed_canonical):
        rng = random.Random(6)
        for _ in range(10):
            report = attainability_set_check(delayed_canonical, random_claim(rng, 4))
            assert report.consistent

    def test_consistency_over_random_markets(self):
        rng = random.Random(7)
        done = 0
        while done < 8:
            model = random_market(rng, max_outcomes=6)
            if ftap_verdict(model).kind != "NO_ARBITRAGE":
                continue
            done += 1
            for _ in range(2):
                claim = random_claim(rng, model.n_outcomes)
                assert attainability_set_check(model, claim).consistent


def test_long_only_pricing_survives_free_arbitrage():
    # strictly falling price: free trading arbitrages it, long-only cannot
    space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
    big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
    model = build_market(space, big, {"s": [(2, 2), (1, F(1, 2))]})
    assert ftap_verdict(model, "long_only").kind == "NO_ARBITRAGE"
    with pytest.raises(UnpricedMarketError):
        superreplicate(model, (1, 0), "free")
    hedge, dual = superreplicate(model, (1, 0), "long_only")
    assert dual.kind == "supermartingale"
    assert hedge.price == sum(q * v for q, v in zip(dual.q_values, (1, 0)))


def _numbers(obj):
    """Every number held by an answer: dataclass fields, tuples, recursively."""
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _numbers(getattr(obj, field.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _numbers(item)
    elif isinstance(obj, (int, float, F)) and not isinstance(obj, bool):
        yield obj


def test_float_intervals_hold_no_fraction():
    """A float price interval is float throughout, its witnesses' ``eta``
    included, whatever type the ``eta`` argument has."""
    witnesses = 0
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "platonic" / "scenarios").glob("*.json")):
        scenario = parse_scenario(str(path))
        model = as_float_model(scenario.model)
        for claim in scenario.claims.values():
            try:
                interval = price_interval(model, claim, tol=1e-9)
            except UnpricedMarketError:
                continue
            assert not any(isinstance(v, F) for v in _numbers(interval)), path.stem
            witnesses += (interval.lower_witness is not None) + (interval.upper_witness is not None)
    assert witnesses == 8


def test_float_superhedge_measures_hold_no_negative_zero():
    """A zero mass of a float superhedge's dual measure is 0.0, never -0.0:
    neither the zero dual of a row the standard form negated nor the mass
    of an outcome that attains no class maximum carries a sign, also where
    the price is negative: each claim is also priced shifted below 0."""
    zeros = 0
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "platonic" / "scenarios").glob("*.json")):
        scenario = parse_scenario(str(path))
        model = as_float_model(scenario.model)
        for mode in ("free", "long_only"):
            for claim in [c for claim in scenario.claims.values()
                          for c in (claim, [v - max(claim.values) - 1 for v in claim.values])]:
                try:
                    q = superreplicate(model, claim, mode, 1e-9)[1].q_values
                except UnpricedMarketError:
                    continue
                masses = [v for v in q if v == 0]
                assert all(math.copysign(1, v) > 0 for v in masses), (path.stem, mode)
                zeros += len(masses)
    assert zeros > 0


TREES = [(binomial_tree, steps) for steps in (3, 4, 5)] + [(trinomial_tree, steps) for steps in (2, 3)]


def test_tree_prices_agree_across_arithmetics_and_the_measure_lp(monkeypatch):
    """On binomial and trinomial trees under full, delayed and gridded
    trading, three claims priced in a row: the float superhedge price
    matches the exact one within tol (1 + |price|), and every float
    superhedge solved after the first on the market starts from the
    previous one's optimal basis, repaired by dual pivots; the exact price
    is the optimum of the exact measure LP, max E_q[c] over the
    (super)martingale measures; and the verdict's measure passes
    ``checked_measure``."""
    tol = 1e-9
    warm = []
    inner = lpsolve._warm_float_solve

    def spy(*args):
        warm.append(inner(*args))
        return warm[-1]

    monkeypatch.setattr(lpsolve, "_warm_float_solve", spy)

    @settings(max_examples=40, deadline=None)
    @given(tree=st.sampled_from(TREES), trading=st.sampled_from(["full", "delayed", "gridded"]),
           mode=st.sampled_from(["free", "long_only"]), data=st.data())
    def check(tree, trading, mode, data):
        factory, steps = tree
        model = factory(steps, trading)
        float_model = as_float_model(model)
        n = model.n_outcomes
        cols = generator_matrix(model, mode)[1]
        kind = "martingale" if mode == "free" else "supermartingale"
        for m, eps in ((model, 0), (float_model, tol)):
            measure = ftap_verdict(m, mode, eps if eps else None).measure
            assert checked_measure(measure.q_values, cols, kind, eps) is not None
        polytope = martingale_polytope_constraints(cols, n, kind)
        solved = False
        for _ in range(3):
            claim = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
            exact = superreplicate(model, claim, mode)[0].price
            best = solve(LinearProgram.build(claim, "max", polytope, [(0, None)] * n))
            assert best.status == "optimal" and best.objective == exact
            start = len(warm)
            approx = superreplicate(float_model, [float(v) for v in claim], mode, tol)[0].price
            assert abs(approx - exact) <= tol * (1 + abs(exact))
            if solved:  # the slot holds this market's last superhedge: answered warm
                assert all(answer is not None for answer in warm[start:])
            solved = solved or len(warm) > start

    check()


def _unbounded(*args, **kwargs):
    return lpsolve.LpSolution(lpsolve.UNBOUNDED, None, None, None, None)


def _tampered(field, change):
    """A ``solve`` whose optimal solutions have ``field`` changed by ``change``."""
    def tampered(*args, **kwargs):
        sol = lpsolve.solve(*args, **kwargs)
        return dataclasses.replace(sol, **{field: change(getattr(sol, field))})
    return tampered


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
@pytest.mark.parametrize("question,module,name,replacement,message", [
    ("verdict", ftap, "solve", _unbounded, "arbitrage search ended with status unbounded"),
    ("measure", ftap, "solve", _unbounded, "measure search ended with status unbounded"),
    ("measure", ftap, "checked_measure", lambda *args: None, "optimizer is not a martingale measure"),
    ("hedge", hedging, "solve", _unbounded, "primal ended with status unbounded"),
    ("hedge", hedging, "checked_measure", lambda *args: None, "dual multipliers are not"),
    ("hedge", hedging, "solve", _tampered("objective", lambda v: v + 1), "duality gap"),
    ("hedge", hedging, "solve", _tampered("x", lambda x: (x[0], x[1] + 1, *x[2:])),
     "complementary slackness fails"),
], ids=["verdict-status", "measure-status", "measure-check", "hedge-status", "hedge-measure",
        "hedge-gap", "hedge-slackness"])
def test_a_failed_check_is_a_bug_in_exact_and_a_refusal_in_float(
        monkeypatch, cold_caches, arithmetic, question, module, name, replacement, message):
    """Each solver and certificate check of the verdict LP, the measure
    search and the superhedge raises ``errors.unverified``: a
    ``RuntimeError`` in exact arithmetic, where it would be a bug, and a
    ``FloatModeError`` in float, a refusal to answer."""
    model = binomial_tree(2)
    claim = [max(v - 100, 0) for v in model.price_path("stock")[-1]]
    if arithmetic == "float":
        model, claim = as_float_model(model), [float(v) for v in claim]
    ask = {
        "verdict": lambda: ftap_verdict(model),
        "measure": lambda: ftap.find_measure(model),
        "hedge": lambda: superreplicate(model, claim),
    }[question]
    monkeypatch.setattr(module, name, replacement)
    with pytest.raises(RuntimeError) as caught:
        ask()
    assert type(caught.value) is (RuntimeError if arithmetic == "exact" else FloatModeError)
    assert message in str(caught.value)
