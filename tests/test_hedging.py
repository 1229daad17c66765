import dataclasses
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _factories import (
    binomial_tree, gridded_tree_claim_price, random_claim, random_market, tree_claim_price, trinomial_tree,
)
from platonic import (
    GE,
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
from platonic import FloatModeError, as_float_model, ftap, hedging, lpsolve, market
from platonic.ftap import checked_measure, martingale_polytope_constraints
from platonic.market import class_rows, generator_matrix, group_outcomes
from platonic.numeric import DEFAULT_FLOAT_TOL
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

    def test_interval_after_superhedge_solves_one_lp(self, lp_solves, cold_caches, delayed_canonical):
        claim = (3, 0, 1, 0)
        hedge, _dual = superreplicate(delayed_canonical, claim)
        assert len(lp_solves.of("platonic.hedging")) == 1
        interval = price_interval(delayed_canonical, claim)
        # the lower hedge; the upper one is the cached superhedge
        assert len(lp_solves.of("platonic.hedging")) == 2
        assert interval.upper == hedge.price

    @pytest.mark.parametrize("float_first", [True, False])
    def test_equal_claims_keep_their_arithmetic(self, lp_solves, cold_caches, binomial, float_first):
        exact_claim, float_claim = (F(1, 2), F(1, 4)), (0.5, 0.25)
        assert RandomVariable(exact_claim) == RandomVariable(float_claim)
        claims = [float_claim, exact_claim] if float_first else [exact_claim, float_claim]
        answers = [superreplicate(binomial, claim) for claim in claims]
        exact, approx = answers[::-1] if float_first else answers
        assert len(lp_solves.of("platonic.hedging")) == 2
        assert float not in {type(v) for v in _numbers(exact)}
        assert F not in {type(v) for v in _numbers(approx)}
        assert type(exact[0].price) is F and type(approx[0].price) is float

    def test_arbitrage_refusal_is_not_cached(self, lp_solves, cold_caches):
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(space, big, {"s": [(1, 1), (2, 2)]})
        for _ in range(3):
            with pytest.raises(UnpricedMarketError):
                superreplicate(model, (1, 0))
            with pytest.raises(UnpricedMarketError):
                price_interval(model, (1, 0))
        assert lp_solves.of("platonic.hedging") == []
        assert hedging._superhedge.cache_info().currsize == 0

    @pytest.mark.parametrize("question", [superreplicate, price_interval, attainability_set_check],
                             ids=lambda question: question.__name__)
    @pytest.mark.parametrize("extra", [1, -1])
    def test_a_claim_of_the_wrong_length_is_refused_before_any_lp(self, lp_solves, cold_caches, question,
                                                                   extra):
        """A claim with one value too many or too few is refused as a claim
        on another space before any verdict or LP: also on a market with an
        arbitrage, whose verdict would refuse every price."""
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        rising = build_market(space, big, {"s": [(1, 1), (2, 2)]})
        for model in (rising, binomial_tree(3)):
            with pytest.raises(ValueError, match="claim lives on a different space"):
                question(model, [1] * (model.n_outcomes + extra))
        assert lp_solves == []


class TestOneMarketManyQuestions:
    """Questions on one market share its generators, its outcome classes and
    the claim-free rows of its superhedge LP, in both modes, and a long-only
    question takes the free verdict's measure once that verdict is solved:
    each question pays for its own LP only, and no answer depends on the
    questions asked before it."""

    def test_both_modes_and_three_claims_build_once(self, monkeypatch, cold_caches, delayed_canonical):
        builds = []
        inner = hedging.class_rows

        def spy(*args):
            builds.append(args)
            return inner(*args)

        monkeypatch.setattr(hedging, "class_rows", spy)
        for claim in ((3, 0, 1, 0), (0, 1, 1, 0), (F(1, 2), 2, 0, 5)):
            for mode in ("free", "long_only"):
                superreplicate(delayed_canonical, claim, mode)
        assert market._generators.cache_info().misses == 1
        assert market._outcome_classes.cache_info().misses == 1
        assert len(builds) == 1

    def test_appending_to_the_generator_columns_changes_no_answer(self, cold_caches, delayed_canonical):
        """``bayes.semistatic_direct_price`` appends option columns to the
        list ``generator_matrix`` returns; the cached columns stay as they
        were."""
        claim = (3, 0, 1, 0)
        answer = superreplicate(delayed_canonical, claim)
        cold_caches()
        _gens, cols = generator_matrix(delayed_canonical)
        before = list(cols)
        cols.append({0: 1, 3: -1})
        del cols[0]
        assert generator_matrix(delayed_canonical)[1] == before
        assert superreplicate(delayed_canonical, claim) == answer

    def test_free_arbitrage_refuses_free_prices_only(self, lp_solves, cold_caches):
        """A strictly falling price: the free verdict finds an arbitrage, so
        the long-only question asks its own verdict, which finds none."""
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(space, big, {"s": [(2, 2), (1, F(1, 2))]})
        assert ftap_verdict(model).kind == "ARBITRAGE"
        hedge, dual = superreplicate(model, (1, 0), "long_only")
        assert dual.kind == "supermartingale" and hedge.price == 1
        with pytest.raises(UnpricedMarketError):
            superreplicate(model, (1, 0), "free")
        assert lp_solves.modules() == ["platonic.ftap", "platonic.ftap", "platonic.hedging"]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_answers_do_not_depend_on_the_questions_before(self, seed, data, model_caches):
        """2 to 6 claims, one of them with its negative, in both modes,
        asked in a random order on a random or tree market in both
        arithmetics: each answer is the one the same question gets first on
        cold caches. Each superhedge LP is its market's template with the
        claim's right-hand sides, equal to the LP ``LinearProgram.build``
        makes from the same data, and solving that one on cold caches and an
        empty float slot gives the answer's price and coefficients. No solve
        changes a coefficient map that the template shares. A float
        superhedge may start from the basis of the one before it
        (``lpsolve._warm_float_solve``), which can move its last digits or,
        at a degenerate optimum, its coefficients; so a float answer is held
        to the same refusal and to its price within the tolerance."""
        def cold():
            for cache in model_caches:
                cache.cache_clear()
            lpsolve._last_optimum = None

        rng = random.Random(seed)
        shape = data.draw(st.sampled_from(["random", "binomial", "trinomial"]))
        if shape == "random":
            model = random_market(rng)
        else:
            trading = data.draw(st.sampled_from(["full", "delayed", "gridded"]))
            model = (binomial_tree if shape == "binomial" else trinomial_tree)(2, trading)
        n = model.n_outcomes
        claims = [random_claim(rng, n) for _ in range(data.draw(st.integers(1, 5)))]
        claims.append(-claims[0])
        questions = data.draw(st.permutations([(c, mode) for c in claims for mode in ("free", "long_only")]))
        for m in (model, as_float_model(model)):
            exact = m is model
            if not exact:
                questions = [(RandomVariable(tuple(map(float, c))), mode) for c, mode in questions]
            cold()
            solved = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(hedging, "solve", lambda lp, *args: solved.append(lp) or solve(lp, *args))
                answers = [_answer_or_refusal(m, c, mode) for c, mode in questions]
            cols = generator_matrix(m)[1]
            k, classes = len(cols), group_outcomes(cols, n)
            rows = class_rows(cols, classes, n)
            templates = {mode: hedging._superhedge_template(m, m.arithmetic, mode)
                         for mode in ("free", "long_only")}
            for template in templates.values():
                assert [con.coeffs for con in template.constraints] == [
                    {j: v for j, v in sorted(row.items()) if v != 0} for row in rows]
            for lp in solved:
                assert any(all(a.coeffs is b.coeffs for a, b in zip(lp.constraints, t.constraints))
                           for t in templates.values())
            for (claim, mode), answer in zip(questions, answers):
                cold()
                first = _answer_or_refusal(m, claim, mode)
                if exact or isinstance(answer, str):
                    assert first == answer
                    if isinstance(answer, str):
                        continue
                else:
                    assert _close(first[0].price, answer[0].price)
                cold()
                offset = max(claim.values)
                b = [max(claim.values[w] for w in c) - offset for c in classes]
                lam = (0, None) if mode == "long_only" else (None, None)
                built = LinearProgram.build([1] + [0] * k, "min", [(row, GE, rhs) for row, rhs in zip(rows, b)],
                                            [(None, None)] + [lam] * k)
                assert templates[mode].with_rhs(b) == built
                sol = solve(built, "exact" if exact else "float")
                if exact:
                    assert (answer[0].price, answer[0].lambdas) == (offset + sol.objective, sol.x[1:])
                else:
                    assert _close(answer[0].price, offset + sol.objective)

    @pytest.mark.parametrize("arithmetic", ["exact", "float"])
    def test_later_claims_build_no_lp_and_no_family(self, monkeypatch, lp_solves, cold_caches,
                                                     arithmetic):
        """Four claims on one market in one mode: the first builds the
        market's superhedge template and, on its first solve, the ``b``-free
        part of its standard form (its family) in the question's
        arithmetic. The later claims make no ``Constraint`` and no family,
        their standard forms take the first one's rows, and each claim's LP
        shares the template's coefficient maps. The verdict's form has the
        same rows, and in float mode the first claim starts from its
        optimum, so it solves no ``b = 0`` member of its own."""
        model = binomial_tree(3, "delayed")
        conv = F if arithmetic == "exact" else float
        if arithmetic == "float":
            model = as_float_model(model)
        claims = [tuple(conv((w * k) % 5 - 2) for w in range(model.n_outcomes)) for k in (1, 2, 3, 4)]
        families, forms, made = [], [], [0]
        new_family, post_init = lpsolve._new_family, lpsolve.Constraint.__post_init__
        standard_form = lpsolve._standard_form

        def family_spy(lp, arith):
            families.append((lp.sense, arith))
            return new_family(lp, arith)

        def form_spy(lp, arith):
            forms.append(standard_form(lp, arith))
            return forms[-1]

        def post_init_spy(con):
            made[0] += 1
            post_init(con)

        monkeypatch.setattr(lpsolve, "_new_family", family_spy)
        monkeypatch.setattr(lpsolve, "_standard_form", form_spy)
        monkeypatch.setattr(lpsolve.Constraint, "__post_init__", post_init_spy)
        ftap_verdict(model)
        superreplicate(model, claims[0])
        assert families == [("max", conv), ("min", conv)]  # the verdict's, the superhedges'
        made[0] = 0
        for claim in claims[1:]:
            superreplicate(model, claim)
        assert made == [0] and len(families) == 2
        verdict, first_claim, *later_claims = forms
        assert verdict.rows == first_claim.rows and verdict.family is not first_claim.family
        assert len(later_claims) == 3 and all(f.rows is first_claim.rows for f in later_claims)
        first, *later = lp_solves.of("platonic.hedging")
        assert len(later) == 3
        for lp in later:
            assert all(a.coeffs is b.coeffs for a, b in zip(lp.constraints, first.constraints))

    def test_float_same_matrix_is_read_off_the_family(self, monkeypatch, cold_caches):
        """On one float market, the superhedges after the first start warm
        from the float slot and never cold. Their standard form holds the
        very rows of the slot's form, so the same-matrix test reads no row
        map. The first superhedge follows the verdict, an LP of another
        family on equal rows: it starts warm from the verdict's optimum,
        neither from its own start nor cold. The verdict alone solves
        cold."""
        model = as_float_model(binomial_tree(3, "delayed"))
        claims = [tuple(float((w * k) % 5 - 2) for w in range(model.n_outcomes)) for k in (1, 2, 3, 4)]
        shared, cold, own = [], [], []
        slot_start, cold_solve, own_start = lpsolve._slot_start, lpsolve._cold_float_solve, lpsolve._own_start

        def slot_spy(form):
            shared.append(lpsolve._last_optimum is not None and lpsolve._last_optimum[0].rows is form.rows)
            return slot_start(form)

        def cold_spy(*args):
            cold.append(args)
            return cold_solve(*args)

        def own_spy(*args):
            own.append(own_start(*args))
            return own[-1]

        monkeypatch.setattr(lpsolve, "_slot_start", slot_spy)
        monkeypatch.setattr(lpsolve, "_cold_float_solve", cold_spy)
        monkeypatch.setattr(lpsolve, "_own_start", own_spy)
        ftap_verdict(model)
        superreplicate(model, claims[0])
        assert len(cold) == 1 and own == [None]  # the verdict's; at b = 0 its own start serves nothing
        assert shared == [False, False]  # an empty slot, then the verdict's equal rows
        shared.clear()
        cold.clear()
        own.clear()
        for claim in claims[1:]:
            superreplicate(model, claim)
        assert shared == [True] * 3 and cold == [] and own == []

FLOAT_TOL = 1e-9


def _close(a, b):
    return abs(a - b) <= FLOAT_TOL * (1 + abs(b))


def _answer_or_refusal(model, claim, mode):
    """The superhedge answer, or the name of the error refusing it."""
    try:
        return superreplicate(model, claim, mode)
    except (UnpricedMarketError, FloatModeError) as exc:
        return type(exc).__name__


class TestPriceInterval:
    @pytest.mark.parametrize("arithmetic", ["exact", "float"])
    def test_replicable_claim_solves_its_upper_hedge_only(self, lp_solves, cold_caches,
                                                          delayed_canonical, arithmetic):
        """A hedge that consumes nowhere replicates the claim: the interval
        is that hedge's price at both ends, and the negative's hedge is not
        solved."""
        model = delayed_canonical if arithmetic == "exact" else as_float_model(delayed_canonical)
        payoff = enumerate_generators(delayed_canonical)[0].payoff.values
        claim = tuple((2 + v) if arithmetic == "exact" else float(2 + v) for v in payoff)
        ftap_verdict(model)
        lp_solves.clear()
        interval = price_interval(model, claim)
        assert interval.lower == interval.upper == 2 and interval.replication is not None
        assert interval.attained_lower and interval.attained_upper
        assert len(lp_solves) == 1

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


def _calls(model, strikes):
    """The calls (S_T - K)+ on the model's stock, one per strike, in the
    model's arithmetic."""
    stock = model.prices[0][-1].values
    zero = stock[0] * 0
    return [[max(s - strike, zero) for s in stock] for strike in strikes]


def test_full_tree_call_prices_are_the_closed_form(cold_caches):
    """The full tree is a complete market: a claim's superhedge price is
    E_Q[c] under its unique measure (``tree_claim_price``). Exact
    superhedges of three calls on the full 6-step tree equal it exactly."""
    model = binomial_tree(6)
    for call in _calls(model, (60, 100, 140)):
        assert superreplicate(model, call)[0].price == tree_claim_price(6, call)


def test_gridded_tree_call_prices_are_the_backward_induction(cold_caches):
    """The gridded tree is a full-information market on its coarse grid:
    a claim's superhedge price is the backward induction over the coarse
    nodes of ``gridded_tree_claim_price``. Exact superhedges of three calls
    on the gridded 6-step tree equal it exactly."""
    model = binomial_tree(6, "gridded")
    for call in _calls(model, (60, 100, 140)):
        assert superreplicate(model, call)[0].price == gridded_tree_claim_price(6, call)


def _float_calls_after_the_verdict(monkeypatch, steps, trading, oracle):
    """Float superhedges of three calls after the verdict, none solved
    from the cash hedge, each priced within tol (1 + |price|) of
    ``oracle``."""
    tol = 1e-9
    model = as_float_model(binomial_tree(steps, trading))
    ftap_verdict(model, tol=tol)
    cold = []
    inner = lpsolve._cold_float_solve
    monkeypatch.setattr(lpsolve, "_cold_float_solve", lambda *args: cold.append(args) or inner(*args))
    for call in _calls(model, (60, 100, 140)):
        price = superreplicate(model, call, tol=tol)[0].price
        assert abs(price - oracle(steps, call)) <= tol * (1 + abs(price))
    assert cold == []


@pytest.mark.parametrize("trading", ["full", "gridded"])
def test_float_calls_on_the_8_step_tree_solve_no_lp_cold(monkeypatch, cold_caches, trading):
    """Float superhedges of three calls on the 8-step tree (256 outcomes),
    after the verdict: the first starts from the verdict's optimum (or,
    where that start is refused, from its own LP's at b = 0), the later
    ones from the claim before, and none is solved from the cash hedge.
    Each price is the oracle's: the closed form on the full tree, the
    coarse backward induction on the gridded one."""
    oracle = tree_claim_price if trading == "full" else gridded_tree_claim_price
    _float_calls_after_the_verdict(monkeypatch, 8, trading, oracle)


def test_float_calls_on_the_gridded_7_step_tree_are_the_backward_induction(monkeypatch, cold_caches):
    """As on the 8-step tree, on the gridded 7-step tree, whose last coarse
    node has one step to go."""
    _float_calls_after_the_verdict(monkeypatch, 7, "gridded", gridded_tree_claim_price)


def _verdict_lp(model, mode):
    """The arbitrage LP of the verdict of ``mode`` on ``model``, as
    ``ftap`` hands it to the solver, ``solve`` or, in exact arithmetic,
    ``float_basis`` first (a float refusal of it is dropped)."""
    built = []
    with pytest.MonkeyPatch.context() as patch:
        for entry in ("solve", "float_basis"):
            inner = getattr(ftap, entry)
            patch.setattr(ftap, entry, lambda lp, *args, _inner=inner: built.append(lp) or _inner(lp, *args))
        try:
            ftap._solve_arbitrage_lp(model, model.arithmetic, mode, None)
        except FloatModeError:
            pass
    return built[0]


class TestOneMatrixPerMarket:
    """The verdict's LP sits on its market's superhedge template: the same
    rows in standard form, so the float slot carries one question's optimum
    to the next, across costs and bounds."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(["random", "binomial", "trinomial"]),
           trading=st.sampled_from(["full", "delayed", "gridded"]))
    def test_the_verdict_and_the_template_share_their_standard_form(self, seed, shape, trading, model_caches):
        """On random and tree markets, in both modes and both arithmetics,
        the standard forms of the verdict's LP and of the superhedge
        template at b = 0 have equal rows, start columns, row signs and
        column counts: each gain sits where its row's slack does."""
        for cache in model_caches:
            cache.cache_clear()
        if shape == "random":
            model = random_market(random.Random(seed))
        else:
            model = (binomial_tree if shape == "binomial" else trinomial_tree)(2 + seed % 2, trading)
        for m, conv in ((model, F), (as_float_model(model), float)):
            for mode in ("free", "long_only"):
                verdict = lpsolve._standard_form(_verdict_lp(m, mode), conv)
                template = lpsolve._standard_form(hedging._superhedge_template(m, m.arithmetic, mode), conv)
                assert (verdict.rows, verdict.start, verdict.signs) == (
                    template.rows, template.start, template.signs)
                assert (verdict.n_real, len(verdict.cost)) == (template.n_real, len(template.cost))

    @staticmethod
    def _routes(monkeypatch):
        """Counts of basis changes, of warm starts from the LP's own start
        and of cold float solves."""
        counts = {"_do_pivot": 0, "_own_start": 0, "_cold_float_solve": 0}
        for name in counts:
            inner = getattr(lpsolve, name)

            def spy(*args, _name=name, _inner=inner):
                counts[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(lpsolve, name, spy)
        return counts

    def test_the_first_call_starts_from_the_verdict(self, monkeypatch, cold_caches):
        """After the free verdict of the float 6-step tree, the call at K =
        100 is one or two pivots from the verdict's optimum: neither its own
        start nor a cold solve runs."""
        model = as_float_model(binomial_tree(6))
        ftap_verdict(model)
        counts = self._routes(monkeypatch)
        [call] = _calls(model, (100,))
        assert abs(superreplicate(model, call)[0].price - tree_claim_price(6, call)) <= 1e-9 * 60
        assert counts["_do_pivot"] <= 2
        assert counts["_own_start"] == counts["_cold_float_solve"] == 0

    @pytest.mark.parametrize("trading", ["full", "gridded"])
    def test_a_call_after_another_market_starts_from_its_own_lp(self, monkeypatch, cold_caches, trading):
        """On the float 6-step tree, the call at K = 100 asked after the
        verdict and a claim of another market (the delayed tree) finds the
        slot on other rows: it is served warm from its own LP's start at b
        = 0, with no cold solve, and its price is the one asked right after
        its own verdict, within tol (1 + |price|)."""
        tol = 1e-9
        model, other = (as_float_model(binomial_tree(6, t)) for t in (trading, "delayed"))
        [call] = _calls(model, (100,))
        ftap_verdict(model, tol=tol)
        alone = superreplicate(model, call, tol=tol)[0].price
        cold_caches()
        ftap_verdict(model, tol=tol)
        ftap_verdict(other, tol=tol)
        superreplicate(other, _calls(other, (100,))[0], tol=tol)
        counts = self._routes(monkeypatch)
        price = superreplicate(model, call, tol=tol)[0].price
        assert counts["_own_start"] == 1 and counts["_cold_float_solve"] == 0
        assert abs(price - alone) <= tol * (1 + abs(alone))

    def test_the_free_verdict_starts_from_the_long_only_one(self, monkeypatch, cold_caches):
        """After the long-only verdict of the float 6-step tree, the free
        verdict starts from its optimum and solves nothing cold."""
        model = as_float_model(binomial_tree(6))
        ftap_verdict(model, "long_only")
        counts = self._routes(monkeypatch)
        assert ftap_verdict(model).kind == "NO_ARBITRAGE"
        assert counts["_cold_float_solve"] == 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_float_questions_in_any_order_answer_as_exact(self, seed, data, model_caches):
        """Verdicts and superhedges in both modes, asked in a random order on
        a float random market with or without an arbitrage, each from the
        slot the question before left: each verdict has the exact verdict's
        kind, each price lies within tol (1 + |price|) of the exact one, a
        question the exact market refuses is refused, and every answer
        passes its own checks again. A float refusal is never a wrong
        answer, so one is let through."""
        for cache in model_caches:
            cache.cache_clear()
        lpsolve._last_optimum = None
        rng = random.Random(seed)
        model = random_market(rng)
        fmodel = as_float_model(model)
        n, tol = model.n_outcomes, DEFAULT_FLOAT_TOL
        claims = [random_claim(rng, n) for _ in range(3)]
        cols = generator_matrix(fmodel)[1]
        mode = st.sampled_from(["free", "long_only"])
        questions = data.draw(st.lists(st.tuples(st.sampled_from([None, 0, 1, 2]), mode), min_size=2, max_size=8))
        for claim, m in questions:
            kind = "martingale" if m == "free" else "supermartingale"
            if claim is None:
                exact = ftap_verdict(model, m)
                try:
                    answer = ftap_verdict(fmodel, m)
                except FloatModeError:
                    continue
                assert answer.kind == exact.kind
                if answer.measure is not None:
                    assert checked_measure(answer.measure.q_values, cols, kind, tol, False) == answer.measure
                    assert answer.measure.full_support
                else:
                    gain = answer.arbitrage.terminal_gain.values
                    assert min(gain) >= -tol and max(gain) > tol
                continue
            values = claims[claim].values
            exact, answer = _answer_or_refusal(model, claims[claim], m), _answer_or_refusal(
                fmodel, RandomVariable(tuple(map(float, values))), m)
            if answer == "FloatModeError":
                continue
            if isinstance(exact, str):
                assert answer == exact
                continue
            hedge, dual = answer
            assert _close(hedge.price, exact[0].price)
            assert checked_measure(dual.q_values, cols, kind, tol, False) == dual
            bound = tol * (1 + max(abs(v) for v in values))
            assert min(hedge.consumption) >= -bound


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
    ("hedge", hedging, "solve", _unbounded, "primal ended with status unbounded"),
    ("hedge", hedging, "checked_measure", lambda *args: None, "dual multipliers are not"),
    ("hedge", hedging, "solve", _tampered("objective", lambda v: v + 1), "duality gap"),
    ("hedge", hedging, "solve", _tampered("x", lambda x: (x[0], x[1] + 1, *x[2:])),
     "complementary slackness fails"),
], ids=["verdict-status", "hedge-status", "hedge-measure", "hedge-gap", "hedge-slackness"])
def test_a_failed_check_is_a_bug_in_exact_and_a_refusal_in_float(
        monkeypatch, cold_caches, arithmetic, question, module, name, replacement, message):
    """Each solver and certificate check of the verdict LP and the
    superhedge raises ``errors.unverified``: a ``RuntimeError`` in exact
    arithmetic, where it would be a bug, and a ``FloatModeError`` in float,
    a refusal to answer. An exact verdict reaches ``solve`` only where its
    float basis gives no answer that passes its check, so here it gives
    none at all. The verdict's measure check is
    ``TestFloatMode::test_refused_measure_raises`` in ``test_ftap``."""
    model = binomial_tree(2)
    claim = [max(v - 100, 0) for v in model.price_path("stock")[-1]]
    if arithmetic == "float":
        model, claim = as_float_model(model), [float(v) for v in claim]
    ask = {
        "verdict": lambda: ftap_verdict(model),
        "hedge": lambda: superreplicate(model, claim),
    }[question]
    monkeypatch.setattr(module, name, replacement)
    if question == "verdict":
        monkeypatch.setattr(ftap, "float_basis", lambda lp: None)
    with pytest.raises(RuntimeError) as caught:
        ask()
    assert type(caught.value) is (RuntimeError if arithmetic == "exact" else FloatModeError)
    assert message in str(caught.value)
