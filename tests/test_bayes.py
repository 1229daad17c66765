import warnings
from fractions import Fraction as F

import pytest

from platonic import (
    BayesSetup,
    FiniteSpace,
    Filtration,
    NoiseSpec,
    ObservationSpec,
    OptionGridSpec,
    Partition,
    RandomVariable,
    build_market,
    build_mixture_market,
    build_product_market,
    build_uncertain_price,
    conditional_expectation,
    delayed_filtration,
    embed_semistatic,
    enumerate_generators,
    find_measure,
    free_lunch_sweep,
    free_lunch_truncation,
    ftap_verdict,
    posterior,
    posterior_process,
    price_interval,
    semistatic_direct_price,
    superreplicate,
    validate,
)
from platonic.market import outcome_classes


def part(*blocks):
    return Partition(tuple(frozenset(b) for b in blocks))


PATHS = FiniteSpace(("uu", "ud", "du", "dd"), (F(1, 4),) * 4)
PATH_FILT = Filtration(
    (0, F(1, 2), 1),
    (part({0, 1, 2, 3}), part({0, 1}, {2, 3}), Partition.singletons(4)),
)
PRICES = {"s": [(1,) * 4, (2, 2, F(1, 2), F(1, 2)), (4, 1, 1, F(1, 4))]}


@pytest.fixture
def two_theta():
    return BayesSetup(
        path_space=PATHS,
        path_filtration=PATH_FILT,
        thetas=("bull", "bear"),
        prior=(F(1, 2), F(1, 2)),
        models=(
            (F(9, 16), F(3, 16), F(3, 16), F(1, 16)),
            (F(1, 16), F(3, 16), F(3, 16), F(9, 16)),
        ),
    )


class TestProductMarket:
    def test_degenerate_prior_reproduces_base_market(self):
        setup = BayesSetup(PATHS, PATH_FILT, ("only",), (1,), ((F(1, 4),) * 4,))
        model = build_product_market(setup, PRICES)
        assert model.space.size == 4
        assert model.space.probs == (F(1, 4),) * 4
        base = build_market(PATHS, PATH_FILT, PRICES)
        assert [rv.values for rv in model.price_path("s")] == [
            rv.values for rv in base.price_path("s")
        ]

    def test_theta_is_invisible_to_observations(self, two_theta):
        model = build_product_market(two_theta, PRICES)
        assert validate(model) == []
        filt = model.trading_filtrations[0]
        thetas = [o.split("|")[1] for o in model.space.outcomes]
        for partn in filt.partitions:
            for block in partn.blocks:
                assert {thetas[i] for i in block} == {"bull", "bear"}

    def test_pruning_zero_mass_pairs(self):
        setup = BayesSetup(
            PATHS, PATH_FILT, ("a", "b"), (F(1, 2), F(1, 2)),
            ((F(1, 2), F(1, 2), 0, 0), (0, 0, F(1, 2), F(1, 2))),
        )
        model = build_product_market(setup, PRICES)
        assert model.space.size == 4  # half of the 8 pairs carry no mass
        assert all(p > 0 for p in model.space.probs)

    def test_delayed_observation_partitions(self, two_theta):
        obs = ObservationSpec(delay=F(1, 2))
        model = build_product_market(two_theta, PRICES, obs)
        filt = model.trading_filtrations[0]
        # nothing observed at 0 and 1/2; one branch known at 1
        assert len(filt.partitions[0].blocks) == 1
        assert len(filt.partitions[1].blocks) == 1
        assert len(filt.partitions[2].blocks) == 2
        assert ftap_verdict(model).kind == "NO_ARBITRAGE"

class TestMixtureMarket:
    def test_degenerate_prior(self):
        setup = BayesSetup(PATHS, PATH_FILT, ("only",), (1,), ((F(1, 4),) * 4,))
        model = build_mixture_market(setup, PRICES)
        assert model.space.outcomes == PATHS.outcomes
        assert model.space.probs == (F(1, 4),) * 4

    def test_mixture_weights(self, two_theta):
        model = build_mixture_market(two_theta, PRICES)
        assert model.space.probs == (F(5, 16), F(3, 16), F(3, 16), F(5, 16))

    def test_same_verdict_and_price_as_product_for_path_claims(self, two_theta):
        product = build_product_market(two_theta, PRICES)
        mixture = build_mixture_market(two_theta, PRICES)
        assert ftap_verdict(product).kind == ftap_verdict(mixture).kind == "NO_ARBITRAGE"
        path_claim = [3, 0, 0, 0]
        lifted = [path_claim[PATHS.index(o.split("|")[0])] for o in product.space.outcomes]
        p1, _ = superreplicate(product, lifted)
        p2, _ = superreplicate(mixture, path_claim)
        assert p1.price == p2.price

    def test_posterior_refuses_mixture(self, two_theta):
        mixture = build_mixture_market(two_theta, PRICES)
        with pytest.raises(ValueError):
            posterior(two_theta, mixture, F(1, 2))

    def test_pruning_a_path_of_zero_mass(self):
        # "dd" has mass 0 under both parameters; "du" keeps its price after
        # 1/2, so the three paths left carry no arbitrage
        setup = BayesSetup(
            PATHS, PATH_FILT, ("a", "b"), (F(1, 3), F(2, 3)),
            ((F(1, 2), F(1, 4), F(1, 4), 0), (F(1, 3), F(1, 3), F(1, 3), 0)),
        )
        prices = {"s": [(1,) * 4, (2, 2, F(1, 2), F(1, 2)), (4, 1, F(1, 2), F(1, 4))]}
        model = build_mixture_market(setup, prices)
        assert model.space.outcomes == ("uu", "ud", "du")
        assert model.space.probs == (F(7, 18), F(11, 36), F(11, 36))
        assert model.big_filtration.partitions == (
            part({0, 1, 2}), part({0, 1}, {2}), Partition.singletons(3),
        )
        assert [rv.values for rv in model.price_path("s")] == [
            (1, 1, 1), (2, 2, F(1, 2)), (4, 1, F(1, 2)),
        ]
        assert ftap_verdict(model).kind == "NO_ARBITRAGE"


class TestPosterior:
    def test_prior_before_any_observation(self, two_theta):
        model = build_product_market(two_theta, PRICES)
        blocks = posterior(two_theta, model, 0)
        assert len(blocks) == 1
        assert blocks[0][1] == (F(1, 2), F(1, 2))

    def test_bayes_ratio_after_one_step(self, two_theta):
        model = build_product_market(two_theta, PRICES)
        blocks = posterior(two_theta, model, F(1, 2))
        dists = {min(block): dist for block, dist in blocks}
        # hand Bayes: (1/2 * 3/4) / (1/2 * 3/4 + 1/2 * 1/4) = 3/4 on the up branch
        assert sorted(dists.values()) == [(F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))]

    def test_fully_revealing_observation(self):
        setup = BayesSetup(
            PATHS, PATH_FILT, ("a", "b"), (F(1, 2), F(1, 2)),
            ((F(1, 2), F(1, 2), 0, 0), (0, 0, F(1, 2), F(1, 2))),
        )
        model = build_product_market(setup, PRICES)
        for _block, dist in posterior(setup, model, F(1, 2)):
            assert sorted(dist) == [0, 1]

    def test_posterior_is_martingale_per_theta(self, two_theta):
        model = build_product_market(two_theta, PRICES)
        filt = model.trading_filtrations[0]
        probs = model.space.probs
        for theta in two_theta.thetas:
            process = posterior_process(two_theta, model, theta)
            for i, t in enumerate(model.times):
                for later in process[i + 1:]:
                    pulled = conditional_expectation(later, filt.at(t), probs)
                    assert pulled.values == process[i].values

    def test_finer_observation_is_mean_preserving_spread(self, two_theta):
        fine_model = build_product_market(two_theta, PRICES)
        coarse_model = build_product_market(two_theta, PRICES, ObservationSpec(delay=F(1, 2)))
        probs = fine_model.space.probs
        support = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        for theta in two_theta.thetas:
            fine = posterior_process(two_theta, fine_model, theta)
            coarse = posterior_process(two_theta, coarse_model, theta)
            for rv_f, rv_c in zip(fine, coarse):
                mean_f = sum(p * v for p, v in zip(probs, rv_f))
                mean_c = sum(p * v for p, v in zip(probs, rv_c))
                assert mean_f == mean_c
                for a in support:
                    up_f = sum(p * max(v - a, 0) for p, v in zip(probs, rv_f))
                    up_c = sum(p * max(v - a, 0) for p, v in zip(probs, rv_c))
                    assert up_f >= up_c


@pytest.fixture
def delayed_base():
    return build_market(
        PATHS, PATH_FILT, PRICES, trading_filtrations=delayed_filtration(PATH_FILT, F(1, 2))
    )


class TestSemiStatic:
    def test_full_grid_option_equals_ordinary_asset(self, delayed_base):
        payoff = RandomVariable((3, 0, 0, 0))
        quotes = (
            RandomVariable((F(1, 4),) * 4),
            RandomVariable((F(1, 2), F(1, 2), 0, 0)),
            payoff,
        )
        spec = OptionGridSpec("opt", payoff, (0, F(1, 2), 1), quotes)
        embedded = embed_semistatic(delayed_base, [spec])
        direct = build_market(
            PATHS,
            Filtration(PATH_FILT.times, tuple(Partition.singletons(4) for _ in range(3))),
            {
                "s": PRICES["s"],
                "opt": [q.values for q in quotes],
            },
            trading_filtrations=delayed_filtration(PATH_FILT, F(1, 2)),
        )
        embedded_payoffs = {g.payoff.values for g in enumerate_generators(embedded)}
        direct_payoffs = {g.payoff.values for g in enumerate_generators(direct)}
        assert embedded_payoffs == direct_payoffs

    def test_static_at_zero_gives_one_position_per_block(self, delayed_base):
        payoff = RandomVariable((3, 0, 0, 0))
        spec = OptionGridSpec("opt", payoff, (F(0),), (RandomVariable((F(1, 4),) * 4),))
        embedded = embed_semistatic(delayed_base, [spec])
        opt_gens = [g for g in enumerate_generators(embedded) if g.asset == "opt"]
        filt = delayed_base.trading_filtrations[0]
        assert len(opt_gens) == len(filt.at(0).blocks) == 1
        assert opt_gens[0].payoff.values == tuple(v - F(1, 4) for v in payoff.values)

    def test_terminal_quote_must_match_payoff(self, delayed_base):
        payoff = RandomVariable((3, 0, 0, 0))
        bad = OptionGridSpec("opt", payoff, (0, 1), (RandomVariable((F(1, 4),) * 4), RandomVariable((1,) * 4)))
        with pytest.raises(ValueError):
            embed_semistatic(delayed_base, [bad])

    def test_embedded_equals_direct_price(self, delayed_base):
        payoff = RandomVariable((3, 0, 0, 0))
        spec = OptionGridSpec("opt", payoff, (F(0),), (RandomVariable((F(1, 4),) * 4),))
        embedded = embed_semistatic(delayed_base, [spec])
        assert ftap_verdict(embedded).kind == "NO_ARBITRAGE"
        for claim in [(1, 1, 1, 0), (0, 2, 1, 0), (4, 0, 0, 1)]:
            hedge, _ = superreplicate(embedded, claim)
            direct = semistatic_direct_price(delayed_base, [spec], claim)
            assert hedge.price == direct
            # the quoted option genuinely narrows the price interval
        wide = price_interval(delayed_base, payoff)
        narrow = price_interval(embedded, payoff)
        assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper
        assert narrow.lower == narrow.upper == F(1, 4)

    @pytest.mark.parametrize("claim", [(1, 1, 1, 0, 9), (1, 1, 1)])
    def test_a_claim_of_the_wrong_length_is_refused(self, delayed_base, claim):
        """A claim with one value too many is not priced on its first four
        values, and one with a value too few is refused the same way."""
        spec = OptionGridSpec("opt", RandomVariable((3, 0, 0, 0)), (F(0),), (RandomVariable((F(1, 4),) * 4),))
        with pytest.raises(ValueError, match="claim lives on a different space"):
            semistatic_direct_price(delayed_base, [spec], claim)

    def test_option_separates_outcomes_the_stock_cannot(self):
        """The stock pays alike on outcomes 1 and 2, so they are one class of
        the model's LPs; a quoted option on outcome 1 tells them apart, and
        the direct program, grouping on its own columns, prices the digital
        on outcome 2 as the embedded market does."""
        space = FiniteSpace(("a", "b", "c"), (F(1, 3),) * 3)
        big = Filtration((0, 1), (part({0, 1, 2}), Partition.singletons(3)))
        base = build_market(space, big, {"s": [(1, 1, 1), (2, F(1, 2), F(1, 2))]})
        assert outcome_classes(base) == ((0,), (1, 2))
        spec = OptionGridSpec("opt", RandomVariable((0, 1, 0)), (F(0),), (RandomVariable((F(1, 3),) * 3),))
        claim = (0, 0, 1)
        embedded = embed_semistatic(base, [spec])
        assert outcome_classes(embedded) == ((0,), (1,), (2,))
        hedge, _ = superreplicate(embedded, claim)
        assert semistatic_direct_price(base, [spec], claim) == hedge.price == F(1, 3)
        assert superreplicate(base, claim)[0].price == F(2, 3)


class TestUncertainPrice:
    def setup_method(self):
        self.space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        self.filt = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        self.prices = {"s": [(1, 1), (2, F(1, 2))]}
        self.noise = NoiseSpec((F(1, 10), F(-1, 10)), (F(1, 2), F(1, 2)), times=(1,))

    def test_zero_noise_is_base_market(self):
        silent = NoiseSpec((0,), (1,), times=(1,))
        model = build_uncertain_price(self.space, self.filt, self.prices, silent)
        assert model.space.size == 2
        assert [rv.values for rv in model.price_path("s")] == [(1, 1), (2, F(1, 2))]

    def test_trivial_observation_still_has_measure(self):
        model = build_uncertain_price(
            self.space, self.filt, self.prices, self.noise,
            obs=ObservationSpec(obs_times=()),
        )
        assert model.space.size == 4
        cert = find_measure(model)
        assert cert is not None and cert.full_support

    def test_noise_raises_call_price(self):
        base = build_market(self.space, self.filt, self.prices)
        base_call, _ = superreplicate(base, (1, 0))
        noisy = build_uncertain_price(self.space, self.filt, self.prices, self.noise)
        terminal = noisy.price_path("s")[-1]
        call = [max(v - 1, 0) for v in terminal.values]
        noisy_call, _ = superreplicate(noisy, call)
        assert noisy_call.price > base_call.price
        assert base_call.price == F(1, 3)

    def test_price_rows_must_match_the_base(self):
        longer = {"s": [(1, 1, 99), (2, F(1, 2), 99)]}
        with pytest.raises(ValueError, match="asset s has prices on the wrong path space"):
            build_uncertain_price(self.space, self.filt, longer, self.noise)

    def test_base_filtration_must_live_on_the_space(self):
        three = Filtration((0, 1), (part({0, 1, 2}), part({0}, {1}, {2})))
        with pytest.raises(ValueError, match="base filtration lives on a different space"):
            build_uncertain_price(self.space, three, self.prices, self.noise)

    def test_repeated_noise_times_are_rejected(self):
        with pytest.raises(ValueError, match="noise times must be distinct"):
            NoiseSpec((F(1, 10), F(-1, 10)), (F(1, 2), F(1, 2)), times=(1, 1))
        with pytest.raises(ValueError, match="noise times must be distinct"):
            NoiseSpec((0,), (1,), times=("1/2", F(1, 2)))

    def test_biased_noise_warns(self):
        biased = NoiseSpec((F(1, 10),), (1,), times=(1,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_uncertain_price(self.space, self.filt, self.prices, biased)
        assert any("mean" in str(w.message) for w in caught)


class TestFreeLunchTruncations:
    def test_small_case_exact_numbers(self):
        model, diag = free_lunch_truncation(1)
        assert diag.gap == F(3, 4)
        assert diag.combo.values == (1, -F(1, 2))
        assert diag.floor == -F(1, 2) >= -1
        assert diag.hit_probability == F(1, 2)
        assert ftap_verdict(model).kind == "NO_ARBITRAGE"

    def test_explicit_measure_is_martingale(self):
        for n in (1, 3, 5):
            model, diag = free_lunch_truncation(n)
            q = diag.martingale_measure
            assert sum(q) == 1 and min(q) > 0
            for asset in model.assets:
                terminal = model.price_path(asset)[-1]
                assert sum(qi * v for qi, v in zip(q, terminal.values)) == 0

    def test_gap_sequence_decreasing(self):
        rows = free_lunch_sweep(10)
        gaps = [r["gap"] for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[9] < gaps[0] / 4
        assert all(r["verdict"] == "NO_ARBITRAGE" for r in rows)

    def test_floor_and_hit_probability(self):
        for n in (2, 4):
            _, diag = free_lunch_truncation(n)
            assert diag.floor >= -1
            assert diag.hit_probability == 1 - F(1, 2**n)

    def test_expanded_space_agrees(self):
        for n in (1, 2, 4):
            _, chain = free_lunch_truncation(n)
            model, coins = free_lunch_truncation(n, expanded=True)
            assert model.space.size == 2**n
            assert coins.gap == chain.gap
            assert coins.floor == chain.floor
            assert coins.hit_probability == chain.hit_probability
            q = coins.martingale_measure
            assert sum(q) == 1 and min(q) > 0
            for asset in model.assets:
                terminal = model.price_path(asset)[-1]
                assert sum(qi * v for qi, v in zip(q, terminal.values)) == 0

    def test_guards(self):
        with pytest.raises(ValueError):
            free_lunch_truncation(0)
        with pytest.raises(ValueError):
            free_lunch_truncation(17)


class TestNoisyObservation:
    def test_quantized_noisy_observation_filtration(self):
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        filt = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        noise = NoiseSpec((F(1, 10), F(-1, 10)), (F(1, 2), F(1, 2)), times=(1,))
        # step 3/2 buckets 1.9 and 2.1 together (and 0.4 with 0.6); 1/20 splits them
        coarse = build_uncertain_price(
            space, filt, {"s": [(1, 1), (2, F(1, 2))]}, noise,
            observe="noisy", obs=ObservationSpec(quantizer=F(3, 2)),
        )
        fine = build_uncertain_price(
            space, filt, {"s": [(1, 1), (2, F(1, 2))]}, noise,
            observe="noisy", obs=ObservationSpec(quantizer=F(1, 20)),
        )
        coarse_blocks = len(coarse.trading_filtrations[0].partitions[-1].blocks)
        fine_blocks = len(fine.trading_filtrations[0].partitions[-1].blocks)
        assert coarse_blocks == 2 and fine_blocks == 4
        assert validate(coarse) == [] and validate(fine) == []
