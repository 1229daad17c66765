import copy
import itertools
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _factories import binomial_tree, random_claim, random_market, resample_reference, split_outcomes
from platonic import (
    EQ,
    GE,
    FiniteSpace,
    FloatModeError,
    Filtration,
    InvalidModelError,
    LinearProgram,
    Partition,
    RandomVariable,
    attainability_set_check,
    build_market,
    delayed_filtration,
    as_float_model,
    enumerate_generators,
    find_arbitrage,
    find_measure,
    find_separating_density,
    free_lunch_truncation,
    ftap_verdict,
    price_interval,
    project_prices,
    solve,
    superreplicate,
    wealth_process,
)
from platonic import ftap, hedging, numeric
from platonic.ftap import checked_measure, martingale_polytope_constraints
from platonic.market import generator_matrix
from platonic.probspace import conditional_expectation


def part(*blocks):
    return Partition(tuple(frozenset(b) for b in blocks))


def two_outcome(prices):
    space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
    times = [F(0), F(1, 2), F(1)][: len(prices)] if len(prices) < 4 else None
    big = Filtration(
        tuple(times),
        tuple([part({0, 1})] + [part({0}, {1})] * (len(prices) - 1)),
    )
    return space, big, {"s": prices}


@pytest.fixture
def binomial():
    space, big, prices = two_outcome([(1, 1), (2, F(1, 2))])
    big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
    return build_market(space, big, prices)


class TestFindArbitrage:
    def test_deterministic_increase(self):
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(space, big, {"s": [(1, 1), (2, 2)]})
        cert = find_arbitrage(model)
        assert cert is not None
        assert cert.terminal_gain.values == (1, 1)
        gens = enumerate_generators(model)
        combo = [
            sum(c * g.payoff.values[i] for c, g in zip(cert.lambdas, gens))
            for i in range(2)
        ]
        assert tuple(a - b for a, b in zip(combo, cert.consumption.values)) == cert.terminal_gain.values
        # reconstructed strategy really earns the combination
        wealth = wealth_process(model, cert.strategy)[-1]
        assert wealth.values == tuple(combo)

    def test_classical_binomial_clean(self, binomial):
        assert find_arbitrage(binomial) is None

    def test_delay_destroys_arbitrage(self):
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration(
            (0, F(1, 2), 1), (part({0, 1}), part({0}, {1}), part({0}, {1}))
        )
        prices = {"s": [(1, 1), (F(11, 10), F(9, 10)), (F(12, 10), F(8, 10))]}
        informed = build_market(space, big, prices)
        assert find_arbitrage(informed) is not None

        delayed = build_market(
            space, big, prices, trading_filtrations=delayed_filtration(big, F(1, 2))
        )
        assert find_arbitrage(delayed) is None
        # brute force: every constant-holdings pair changes sign at maturity
        s = delayed.price_path("s")
        g1 = tuple(s[1][i] - s[0][i] for i in range(2))
        g2 = tuple(s[2][i] - s[1][i] for i in range(2))
        grid = [F(k, 4) for k in range(-8, 9)]
        for l1, l2 in itertools.product(grid, repeat=2):
            wealth = tuple(l1 * a + l2 * b for a, b in zip(g1, g2))
            if any(v > 0 for v in wealth):
                assert any(v < 0 for v in wealth)

    def test_invalid_model_rejected(self):
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        bad = build_market(space, big, {"s": [(1, 2), (2, F(1, 2))]})
        with pytest.raises(InvalidModelError):
            find_arbitrage(bad)


class TestFindMeasure:
    def test_binomial_unique_measure(self, binomial):
        cert = find_measure(binomial)
        assert cert.q_values == (F(1, 3), F(2, 3))
        assert cert.kind == "martingale"
        assert cert.verification == (0,)
        assert cert.full_support

    def test_constant_prices_maximize_uniformly(self):
        space = FiniteSpace(("a", "b", "c"), (F(1, 2), F(1, 4), F(1, 4)))
        big = Filtration((0, 1), (part({0, 1, 2}), Partition.singletons(3)))
        model = build_market(space, big, {"s": [(1, 1, 1), (1, 1, 1)]})
        cert = find_measure(model)
        assert cert.q_values == (F(1, 3), F(1, 3), F(1, 3))

    def test_no_measure_when_arbitrage(self):
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(space, big, {"s": [(1, 1), (2, 2)]})
        assert find_measure(model) is None

    def test_supermartingale_measure(self):
        # strictly decreasing price: fine for long-only, fatal for free trading
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(space, big, {"s": [(2, 2), (1, F(1, 2))]})
        assert find_measure(model, "martingale") is None
        cert = find_measure(model, "supermartingale")
        assert cert is not None
        assert all(v <= 0 for v in cert.verification)


class TestVerdict:
    def test_arbitrage_branch(self):
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(space, big, {"s": [(1, 1), (2, 2)]})
        v = ftap_verdict(model)
        assert v.kind == "ARBITRAGE" and v.arbitrage is not None and v.measure is None

    def test_no_arbitrage_branch(self, binomial):
        v = ftap_verdict(binomial)
        assert v.kind == "NO_ARBITRAGE" and v.measure is not None

    @pytest.mark.parametrize("mode", ["free", "long_only"])
    def test_exclusivity_over_random_suite(self, mode):
        rng = random.Random(5150)
        for _ in range(40):
            model = random_market(rng)
            ftap_verdict(model, mode)  # raises FtapInconsistencyError on failure

    def test_scaling_invariance(self):
        rng = random.Random(77)
        for _ in range(15):
            model = random_market(rng)
            scaled_prices = {
                asset: [5 * rv for rv in model.price_path(asset)]
                for asset in model.assets
            }
            scaled = build_market(
                model.space, model.big_filtration, scaled_prices,
                admissible_sets=model.admissible_sets,
                trading_filtrations={
                    s: f for s, f in zip(model.admissible_sets, model.trading_filtrations)
                },
            )
            assert ftap_verdict(model).kind == ftap_verdict(scaled).kind

    def test_reference_measure_irrelevant(self):
        rng = random.Random(78)
        for _ in range(10):
            model = random_market(rng)
            verdict = ftap_verdict(model).kind
            for _ in range(3):
                assert ftap_verdict(resample_reference(rng, model)).kind == verdict

    def test_fewer_strategies_keep_no_arbitrage(self):
        rng = random.Random(79)
        checked = 0
        while checked < 10:
            model = random_market(rng)
            if ftap_verdict(model).kind != "NO_ARBITRAGE":
                continue
            checked += 1
            trivial = Filtration.trivial(model.n_outcomes, model.times)
            shrunk = build_market(
                model.space, model.big_filtration,
                {a: list(model.price_path(a)) for a in model.assets},
                trading_filtrations=trivial,
            )
            assert ftap_verdict(shrunk).kind == "NO_ARBITRAGE"


class TestSeparatingDensity:
    def test_binomial_density(self, binomial):
        sep = find_separating_density(binomial)
        assert sep.z.values == (F(2, 3), F(4, 3))
        assert all(m == 0 for m in sep.generator_moments)
        assert min(sep.z.values) > 0

    def test_constant_prices_unit_density(self):
        space = FiniteSpace(("a", "b"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(space, big, {"s": [(1, 1), (1, 1)]})
        sep = find_separating_density(model)
        assert sep.z.values == (1, 1)

    def test_none_when_arbitrage(self):
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(space, big, {"s": [(1, 1), (2, 2)]})
        assert find_separating_density(model) is None


class TestProjections:
    def setup_method(self):
        self.space = FiniteSpace(("uu", "ud", "du", "dd"), (F(1, 4),) * 4)
        self.big = Filtration(
            (0, F(1, 2), 1),
            (part({0, 1, 2, 3}), part({0, 1}, {2, 3}), Partition.singletons(4)),
        )
        self.prices = {"s": [(1,) * 4, (2, 2, F(1, 2), F(1, 2)), (4, 1, 1, F(1, 4))]}

    def test_full_information_projection_is_identity(self):
        model = build_market(self.space, self.big, self.prices)
        cert = find_measure(model)
        projected = project_prices(model, cert, frozenset({"s"}))
        for rv, price in zip(projected["s"], model.price_path("s")):
            assert rv.values == price.values

    def test_trivial_filtration_projects_to_expectation(self):
        trivial = Filtration.trivial(4, (0, F(1, 2), 1))
        model = build_market(self.space, self.big, self.prices, trading_filtrations=trivial)
        cert = find_measure(model)
        projected = project_prices(model, cert, frozenset({"s"}))
        for rv, price in zip(projected["s"], model.price_path("s")):
            mean = sum(q * v for q, v in zip(cert.q_values, price.values))
            assert rv.values == (mean,) * 4

    def test_delayed_projection_is_martingale(self):
        delayed = delayed_filtration(self.big, F(1, 2))
        model = build_market(self.space, self.big, self.prices, trading_filtrations=delayed)
        cert = find_measure(model)
        projected = project_prices(model, cert, frozenset({"s"}))
        # independent conditional-expectation arithmetic
        q = cert.q_values
        for k, t in enumerate(model.times):
            block_avg = conditional_expectation(
                model.price_path("s")[k], delayed.at(t), q
            )
            assert projected["s"][k].values == block_avg.values
        for i, t in enumerate(model.times):
            for j in range(i + 1, 3):
                pulled = conditional_expectation(projected["s"][j], delayed.at(t), q)
                assert pulled.values == projected["s"][i].values

    def test_non_admissible_set_rejected(self):
        model = build_market(self.space, self.big, self.prices)
        cert = find_measure(model)
        with pytest.raises(ValueError):
            project_prices(model, cert, frozenset({"nope"}))


class TestFloatMode:
    def test_float_verdicts_on_both_branches(self):
        space = FiniteSpace(("u", "d"), (0.5, 0.5))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        arb = build_market(space, big, {"s": [(1.0, 1.0), (2.0, 2.0)]})
        v = ftap_verdict(arb)
        assert v.kind == "ARBITRAGE"
        clean = build_market(space, big, {"s": [(1.0, 1.0), (2.0, 0.5)]})
        v = ftap_verdict(clean)
        assert v.kind == "NO_ARBITRAGE"
        assert abs(v.measure.q_values[0] - 1 / 3) < 1e-9
        assert max(abs(r) for r in v.measure.verification) <= 1e-9


    @pytest.mark.parametrize("to_float,failure", [
        (True, FloatModeError), (False, ftap.FtapInconsistencyError),
    ])
    def test_refused_measure_raises(self, monkeypatch, binomial, cold_caches, to_float, failure):
        """A dual measure that fails its check ends the verdict, and
        ``find_measure``, which returns the verdict's measure, raises as it
        does instead of returning None: a float one gives no certified
        answer, an exact one breaks the dichotomy."""
        model = as_float_model(binomial) if to_float else binomial
        monkeypatch.setattr(ftap, "checked_measure", lambda *args: None)
        for ask in (ftap_verdict, find_measure):
            cold_caches()
            with pytest.raises(failure):
                ask(model)

def _measure_holds(q, model, mode, tol, full_support=True):
    """q is a (full-support) probability vector killing (free) or dominating
    (long-only) every generator payoff, recomputed here from the payoffs."""
    if not all(v > 0 if full_support else v >= -tol for v in q) or abs(sum(q) - 1) > tol:
        return False
    for g in enumerate_generators(model, mode):
        e = sum(qi * gi for qi, gi in zip(q, g.payoff.values))
        if (abs(e) if mode == "free" else e) > tol:
            return False
    return True


def _arbitrage_holds(cert, model, mode, tol):
    """The certificate is an arbitrage, recomputed here from the payoffs: a
    nonnegative gain, positive somewhere, and a nonnegative consumption add
    up to the generator combination with coefficients ``lambdas``, which
    are nonnegative for long-only trading."""
    gain, consumption = cert.terminal_gain.values, cert.consumption.values
    if mode == "long_only" and any(lam < -tol for lam in cert.lambdas):
        return False
    if any(v < -tol for v in gain + consumption) or not max(gain) > tol:
        return False
    gens = enumerate_generators(model, mode)
    for w in range(model.n_outcomes):
        terms = [lam * g.payoff.values[w] for lam, g in zip(cert.lambdas, gens)]
        if abs(gain[w] + consumption[w] - sum(terms)) > tol * (1 + sum(abs(t) for t in terms)):
            return False
    return True


def _numbers(values):
    return {type(v) for v in values}


def _dyadic_binomial(s0):
    """Binomial market whose values float exactly, so its float copy compares
    equal to it; ``s0`` makes it distinct from every other test's model."""
    space = FiniteSpace(("u", "d"), (F(1, 4), F(3, 4)))
    big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
    return build_market(space, big, {"s": [(s0, s0), (2 * s0, s0 / 2)]})


class TestArithmeticInCacheKeys:
    """Exact and float models compare equal when their values do; no cache may
    hand one the other's certificates, whichever is asked first."""

    @pytest.mark.parametrize("float_first", [True, False])
    def test_free_lunch_measure(self, float_first):
        m, _ = free_lunch_truncation(3)
        fm = as_float_model(m)
        assert fm == m
        order = [fm, m] if float_first else [m, fm]
        certs = {id(model): find_measure(model) for model in order}
        assert _numbers(certs[id(m)].q_values) <= {F, int}
        assert _numbers(certs[id(fm)].q_values) == {float}

    @pytest.mark.parametrize("float_first", [True, False])
    def test_verdict_and_generators(self, float_first):
        m = _dyadic_binomial(F(5 + float_first, 8))
        fm = as_float_model(m)
        assert fm == m
        for model in ([fm, m] if float_first else [m, fm]):
            ftap_verdict(model)
            enumerate_generators(model)
        assert _numbers(ftap_verdict(m).measure.q_values) == {F}
        assert _numbers(ftap_verdict(fm).measure.q_values) == {float}
        assert _numbers(enumerate_generators(m)[0].payoff.values) <= {F, int}
        assert _numbers(enumerate_generators(fm)[0].payoff.values) == {float}


def test_cached_arithmetic_survives_copies():
    """The arithmetic is computed once per model and is part of every cache
    key: a pickle round trip or a deep copy of an exact model whose
    arithmetic was read stays exact, and its float copy is float."""
    m = _dyadic_binomial(F(7, 8))
    assert m.arithmetic == "exact" and "arithmetic" in vars(m)
    for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert copied == m and copied.arithmetic == "exact"
        assert _numbers(ftap_verdict(copied).measure.q_values) == {F}
    fm = as_float_model(m)
    assert fm == m and fm.arithmetic == "float"
    assert _numbers(ftap_verdict(fm).measure.q_values) == {float}


def test_cold_exact_verdict_reads_each_value_once(monkeypatch, cold_caches):
    """A cold exact verdict decides its arithmetic from the cached
    ``model.arithmetic``: ``numeric.is_exact`` runs at most once per
    probability and price, however many layers ask."""
    model = binomial_tree(3, "delayed")
    values = model.n_outcomes * (1 + sum(len(path) for path in model.prices))
    cold_caches()
    calls = [0]
    inner = numeric.is_exact

    def spy(value):
        calls[0] += 1
        return inner(value)

    monkeypatch.setattr(numeric, "is_exact", spy)
    assert ftap_verdict(model).kind == "NO_ARBITRAGE"
    assert 0 < calls[0] <= values


class TestSolvesPerQuestion:
    """The verdict solves one LP; superreplicate reuses it and solves one more,
    and a price interval is two superhedges, each solved once per process."""

    @pytest.mark.parametrize("arithmetic", ["exact", "float"])
    @pytest.mark.parametrize("mode", ["free", "long_only"])
    @pytest.mark.parametrize("kind", ["ARBITRAGE", "NO_ARBITRAGE"])
    def test_verdict_one_solve(self, lp_solves, cold_caches, arithmetic, mode, kind):
        # a fresh scale per case keeps every model out of the caches
        s0 = F(3 + ["free", "long_only"].index(mode), 17 + (arithmetic == "float"))
        m = _dyadic_binomial(s0)
        if kind == "ARBITRAGE":
            m = build_market(m.space, m.big_filtration, {"s": [(s0, s0), (2 * s0, 2 * s0)]})
        if arithmetic == "float":
            m = as_float_model(m)
        v = ftap_verdict(m, mode)
        assert v.kind == kind
        assert lp_solves.modules() == ["platonic.ftap"]

    @pytest.mark.parametrize("arithmetic", ["exact", "float"])
    @pytest.mark.parametrize("mode", ["free", "long_only"])
    def test_superreplicate_after_verdict_one_solve(self, lp_solves, cold_caches, arithmetic, mode):
        m = _dyadic_binomial(F(7 + ["free", "long_only"].index(mode), 31))
        if arithmetic == "float":
            m = as_float_model(m)
        ftap_verdict(m, mode)
        lp_solves.clear()
        hedge, dual = superreplicate(m, (1, 0), mode)
        assert lp_solves.modules() == ["platonic.hedging"]
        assert _measure_holds(dual.q_values, m, mode, 1e-9, full_support=False)

    @pytest.mark.parametrize("arithmetic", ["exact", "float"])
    def test_long_only_superreplicate_after_free_verdict_one_solve(self, lp_solves, cold_caches, arithmetic):
        """Without a free arbitrage there is no long-only one, and the free
        verdict's martingale measure is a supermartingale measure: the
        long-only superhedge solves no verdict of its own. After a long-only
        verdict it solves one LP too (``test_superreplicate_after_verdict_one_solve``)."""
        m = _dyadic_binomial(F(9, 31))
        if arithmetic == "float":
            m = as_float_model(m)
        ftap_verdict(m, "free")
        lp_solves.clear()
        hedge, dual = superreplicate(m, (1, 0), "long_only")
        assert lp_solves.modules() == ["platonic.hedging"]
        assert _measure_holds(dual.q_values, m, "long_only", 1e-9, full_support=False)
        assert ftap_verdict(m, "long_only").kind == "NO_ARBITRAGE"
        assert lp_solves.modules() == ["platonic.hedging", "platonic.ftap"]

    @pytest.mark.parametrize("replicable", [True, False])
    def test_interval_after_verdict_two_solves(self, lp_solves, cold_caches, replicable):
        m = binomial_tree(2, "delayed")
        terminal = m.price_path("stock")[-1]
        claim = terminal if replicable else RandomVariable(tuple(max(v - 100, 0) for v in terminal))
        ftap_verdict(m)
        lp_solves.clear()
        interval = price_interval(m, claim)
        assert (interval.replication is not None) == replicable
        # a replicable claim's interval is its upper hedge alone
        assert lp_solves.modules() == ["platonic.hedging"] * (1 if replicable else 2)
        lp_solves.clear()
        report = attainability_set_check(m, claim)
        assert report.consistent and report.zero_width == replicable
        assert lp_solves.modules() == ["platonic.hedging"] * 2  # the cone tests; the interval is cached


class TestVerdictAgainstMeasureSearch:
    """Each side of the one-LP verdict checked from the payoffs alone: the
    arbitrage against the generators, the measure against every generator.
    A full-support measure gives every such arbitrage a positive expectation
    and every generator combination one of at most 0, so no market has both
    (weak duality): each certified verdict is the right one."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        arithmetic=st.sampled_from(["exact", "float"]),
        mode=st.sampled_from(["free", "long_only"]),
    )
    def test_measure_checks_and_dichotomy_agrees(self, seed, arithmetic, mode):
        model = random_market(random.Random(seed))
        tol = 0
        if arithmetic == "float":
            model, tol = as_float_model(model), 1e-9
        verdict = ftap_verdict(model, mode)
        kind = "martingale" if mode == "free" else "supermartingale"
        assert find_measure(model, kind) is verdict.measure
        if verdict.kind == "ARBITRAGE":
            assert verdict.measure is None
            assert _arbitrage_holds(verdict.arbitrage, model, mode, tol)
        else:
            assert verdict.kind == "NO_ARBITRAGE" and verdict.arbitrage is None
            assert verdict.measure.kind == kind
            assert _measure_holds(verdict.measure.q_values, model, mode, tol)
            assert _numbers(verdict.measure.q_values) == ({F} if tol == 0 else {float})


def _max_min_mass(cols, n, claim, bound):
    """Largest minimum mass over the measures attaining ``bound``."""
    constraints = martingale_polytope_constraints(cols, n, "martingale")
    constraints.append((list(claim) + [0], EQ, bound))
    constraints += [({w: 1, n: -1}, GE, 0) for w in range(n)]
    return solve(LinearProgram.build([0] * n + [1], "max", constraints, [(0, None)] * (n + 1))).objective


class TestIntervalAgainstBoundLps:
    """The interval as two superhedges against the direct formulation as
    oracle: the optima of E_q[c] over the martingale polytope, and at a
    positive width the max-min-mass probe at each bound."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bounds_attainment_and_witnesses(self, seed):
        rng = random.Random(seed)
        model = random_market(rng, na_bias=1.0)
        claim = random_claim(rng, model.n_outcomes)
        assert ftap_verdict(model).kind == "NO_ARBITRAGE"
        interval = price_interval(model, claim)
        _gens, cols = generator_matrix(model, "free")
        n = model.n_outcomes
        polytope = martingale_polytope_constraints(cols, n, "martingale")
        oracle = [
            solve(LinearProgram.build(list(claim), sense, polytope, [(0, None)] * n)).objective
            for sense in ("min", "max")
        ]
        assert [interval.lower, interval.upper] == oracle
        if interval.width == 0:
            x, lambdas = interval.replication
            for w, c in enumerate(claim):
                assert x + sum(lam * col.get(w, 0) for lam, col in zip(lambdas, cols)) == c
            return
        assert [_max_min_mass(cols, n, claim, b) for b in oracle] == [0, 0]
        assert not interval.attained_lower and not interval.attained_upper
        for bound, witness in ((interval.lower, interval.lower_witness),
                               (interval.upper, interval.upper_witness)):
            assert _measure_holds(witness.optimizer, model, "free", 0, full_support=False)
            assert sum(q * c for q, c in zip(witness.optimizer, claim)) == bound
            assert witness.null_outcomes
            assert all(witness.optimizer[i] == 0 for i in witness.null_outcomes)
            assert _measure_holds(witness.mixture, model, "free", 0)
            assert abs(witness.achieved - bound) <= witness.eta


SIX_STEP_TREES = [("delayed", "free"), ("gridded", "long_only")]


class TestFloatSixStepTrees:
    """Float 6-step trees, delayed and gridded: the verdict answers with a
    measure that passes its check."""

    @pytest.mark.parametrize("trading,mode", SIX_STEP_TREES)
    def test_verdict_answers(self, trading, mode):
        model = as_float_model(binomial_tree(6, trading))
        verdict = ftap_verdict(model, mode)
        assert verdict.kind == "NO_ARBITRAGE"
        assert _measure_holds(verdict.measure.q_values, model, mode, 1e-9)


def _spy_lp_rows(monkeypatch):
    """The constraint count of every LP that ``ftap`` and ``hedging`` solve."""
    rows = []
    for module in (ftap, hedging):
        def spy(lp, *args, _inner=module.solve):
            rows.append(len(lp.constraints))
            return _inner(lp, *args)

        monkeypatch.setattr(module, "solve", spy)
    return rows


def _distinct_rows(model, mode="free"):
    """Outcomes counted once per distinct row of generator payoffs."""
    gens = enumerate_generators(model, mode)
    return len({tuple(g.payoff[w] for g in gens) for w in range(model.n_outcomes)})


class TestIndistinguishableOutcomes:
    """Outcomes that no generator tells apart are one row of every LP. A
    model whose outcomes are split into copies that share their prices
    answers as the unsplit model does, and its LPs have the unsplit row
    counts; every measure it returns holds on the split model."""

    @staticmethod
    def _answers(model, claim, empty):
        empty()
        measures, out = [], {}
        with pytest.MonkeyPatch.context() as mp:
            rows = _spy_lp_rows(mp)
            for mode in ("free", "long_only"):
                verdict = ftap_verdict(model, mode)
                out[mode] = [verdict.kind]
                if verdict.measure is not None:
                    hedge, dual = superreplicate(model, claim, mode)
                    out[mode].append(hedge.price)
                    measures += [(verdict.measure.q_values, mode, True), (dual.q_values, mode, False)]
            if out["free"][0] == "NO_ARBITRAGE":
                iv = price_interval(model, claim)
                out["interval"] = (iv.lower, iv.upper, iv.attained_lower, iv.attained_upper)
                measures += [(w.optimizer, "free", False) for w in (iv.lower_witness, iv.upper_witness) if w]
            for mode, kind in (("free", "martingale"), ("long_only", "supermartingale")):
                found = find_measure(model, kind)
                out[kind] = found is None
                if found is not None:
                    measures.append((found.q_values, mode, True))
        return out, measures, rows

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_split_copies_answer_as_the_unsplit_model(self, seed, data, model_caches):
        def empty():
            for cache in model_caches:
                cache.cache_clear()

        rng = random.Random(seed)
        model = random_market(rng)
        n = model.n_outcomes
        copies = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n).filter(
            lambda c: max(c) > 1))
        split, origin = split_outcomes(model, copies)
        claim = random_claim(rng, n)
        answers, _, rows = self._answers(model, claim, empty)
        split_answers, measures, split_rows = self._answers(
            split, RandomVariable(tuple(claim[i] for i in origin)), empty)
        assert split_answers == answers
        assert split_rows == rows
        assert split_rows[0] == _distinct_rows(split) < split.n_outcomes  # the free verdict LP
        for q, mode, full_support in measures:
            _gens, cols = generator_matrix(split, mode)
            kind = "martingale" if mode == "free" else "supermartingale"
            cert = checked_measure(q, cols, kind, 0)
            assert cert is not None and (cert.full_support or not full_support)

        # a claim that differs across copies costs what the largest copy costs
        spread = random_claim(rng, split.n_outcomes)
        top = [max(c for c, i in zip(spread, origin) if i == w) for w in range(n)]
        for mode, kind in (("free", "martingale"), ("long_only", "supermartingale")):
            if answers[mode][0] == "NO_ARBITRAGE":
                hedge, dual = superreplicate(split, spread, mode)
                assert hedge.price == superreplicate(model, top, mode)[0].price
                assert checked_measure(dual.q_values, generator_matrix(split, mode)[1], kind, 0)


class TestExactVerdictsAtScale:
    """Exact verdicts on 128 to 4,096 outcomes, in about a second each."""

    @pytest.mark.parametrize("name", ["bin7", "fl8"])
    def test_measure_checks(self, name):
        if name == "bin7":
            model = binomial_tree(7)
        else:
            model, _ = free_lunch_truncation(8, expanded=True)
        verdict = ftap_verdict(model)
        assert verdict.kind == "NO_ARBITRAGE"
        _gens, cols = generator_matrix(model, "free")
        cert = checked_measure(verdict.measure.q_values, cols, "martingale", 0)
        assert cert is not None and cert.full_support
        assert _numbers(cert.q_values) == {F}

    def test_fl12_solves_13_outcome_rows(self, monkeypatch, cold_caches):
        """``free_lunch_truncation(12, expanded=True)`` has 4,096 outcomes that
        its generators tell apart only by the first hit, 13 classes: the
        verdict LP and both superhedge LPs of an interval have 13 rows, and
        the measure and the bounds are checked on all 4,096 outcomes."""
        model, _ = free_lunch_truncation(12, expanded=True)
        rows = _spy_lp_rows(monkeypatch)
        verdict = ftap_verdict(model)
        assert verdict.kind == "NO_ARBITRAGE"
        _gens, cols = generator_matrix(model, "free")
        cert = checked_measure(verdict.measure.q_values, cols, "martingale", 0)
        assert cert is not None and cert.full_support
        claim = [F(w % 7) - 3 for w in range(model.n_outcomes)]
        interval = price_interval(model, claim)
        assert rows == [13, 13, 13]
        assert (interval.lower, interval.upper) == (
            F(-205961345021, 68660770815), F(-71271427, 68660770815))
        assert not interval.attained_lower and not interval.attained_upper
        for bound, witness in ((interval.lower, interval.lower_witness),
                               (interval.upper, interval.upper_witness)):
            assert checked_measure(witness.optimizer, cols, "martingale", 0) is not None
            assert sum(q * c for q, c in zip(witness.optimizer, claim)) == bound
