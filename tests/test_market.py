import random
from fractions import Fraction as F

import pytest

from _factories import random_market, split_outcomes
from platonic import (
    FiniteSpace,
    Filtration,
    Leg,
    NonMeasurableHoldings,
    Partition,
    RandomVariable,
    Strategy,
    build_market,
    close_admissible_under_unions,
    delayed_filtration,
    enumerate_generators,
    validate,
    wealth_process,
)
from platonic import _linalg
from platonic.market import group_outcomes, outcome_classes


def part(*blocks):
    return Partition(tuple(frozenset(b) for b in blocks))


@pytest.fixture
def binomial():
    space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
    big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
    return build_market(space, big, {"s": [(1, 1), (2, F(1, 2))]})


@pytest.fixture
def canonical():
    """Two-period binomial; the stock-only view trades on a delayed filtration,
    the joint view (stock plus a quoted call) on the full one."""
    space = FiniteSpace(("uu", "ud", "du", "dd"), (F(1, 4),) * 4)
    big = Filtration(
        (0, F(1, 2), 1),
        (part({0, 1, 2, 3}), part({0, 1}, {2, 3}), Partition.singletons(4)),
    )
    delayed = delayed_filtration(big, F(1, 2))
    prices = {
        "stock": [(1, 1, 1, 1), (2, 2, F(1, 2), F(1, 2)), (4, 1, 1, F(1, 4))],
        "vcall": [(F(1, 3),) * 4, (1, 1, 0, 0), (3, 0, 0, 0)],
    }
    return build_market(
        space, big, prices,
        admissible_sets=[["stock"], ["stock", "vcall"]],
        trading_filtrations={
            frozenset({"stock"}): delayed,
            frozenset({"stock", "vcall"}): big,
        },
    )


class TestValidate:
    def test_classical_market_clean(self, binomial):
        assert validate(binomial) == []

    def test_adaptedness_violation(self):
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(space, big, {"s": [(1, 2), (2, F(1, 2))]})
        assert validate(model) == ["adaptedness: asset s at t=0"]

    def test_monotonicity_violation(self):
        space = FiniteSpace(("a", "b"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0}, {1}), part({0}, {1})))
        trivial = Filtration.trivial(2, (0, 1))
        model = build_market(
            space, big, {"x": [(1, 1), (1, 1)], "y": [(2, 2), (2, 2)]},
            admissible_sets=[["x"], ["x", "y"]],
            trading_filtrations={frozenset({"x"}): big, frozenset({"x", "y"}): trivial},
        )
        violations = validate(model)
        assert any(v.startswith("monotonicity") for v in violations)

    def test_union_closure_violation_and_fix(self):
        space = FiniteSpace(("a", "b"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(
            space, big, {"x": [(1, 1), (1, 1)], "y": [(2, 2), (2, 2)]},
            admissible_sets=[["x"], ["y"]],
            trading_filtrations=Filtration.trivial(2, (0, 1)),
        )
        violations = validate(model)
        assert any(v.startswith("refining") for v in violations)
        closed = close_admissible_under_unions(model)
        assert validate(closed) == []
        assert frozenset({"x", "y"}) in closed.admissible_sets

    def test_containment_violation(self):
        space = FiniteSpace(("a", "b"), (F(1, 2), F(1, 2)))
        big = Filtration.trivial(2, (0, 1))
        fine = Filtration((0, 1), (part({0}, {1}), part({0}, {1})))
        model = build_market(
            space, big, {"x": [(1, 1), (1, 1)]}, trading_filtrations=fine
        )
        assert any(v.startswith("containment") for v in validate(model))


class TestWealth:
    def test_zero_holdings(self, binomial):
        strat = Strategy(frozenset({"s"}), (Leg(F(0), F(1), (RandomVariable((0, 0)),)),))
        assert all(w.values == (0, 0) for w in wealth_process(binomial, strat))

    def test_buy_and_hold(self, binomial):
        strat = Strategy(frozenset({"s"}), (Leg(F(0), F(1), (RandomVariable((1, 1)),)),))
        wealth = wealth_process(binomial, strat)
        assert wealth[0].values == (0, 0)
        assert wealth[-1].values == (1, -F(1, 2))  # terminal price minus start

    def test_two_leg_reversal(self, canonical):
        # hold +1 into the first interval, -1 into the second
        strat = Strategy(
            frozenset({"stock"}),
            (
                Leg(F(0), F(1, 2), (RandomVariable((1,) * 4),)),
                Leg(F(1, 2), F(1), (RandomVariable((-1,) * 4),)),
            ),
        )
        wealth = wealth_process(canonical, strat)
        s = canonical.price_path("stock")
        expected = tuple(
            (s[1][i] - s[0][i]) - (s[2][i] - s[1][i]) for i in range(4)
        )
        assert wealth[-1].values == expected

    def test_non_measurable_holdings_rejected(self, canonical):
        # stock trades on the delayed filtration: nothing is known at 1/2
        strat = Strategy(
            frozenset({"stock"}),
            (Leg(F(1, 2), F(1), (RandomVariable((1, 1, 0, 0)),)),),
        )
        with pytest.raises(NonMeasurableHoldings):
            wealth_process(canonical, strat)

    def test_long_only_sign_check(self, binomial):
        strat = Strategy(
            frozenset({"s"}), (Leg(F(0), F(1), (RandomVariable((-1, -1)),)),), "long_only"
        )
        with pytest.raises(ValueError):
            wealth_process(binomial, strat)


class TestGenerators:
    def test_single_interval_trivial_filtration(self):
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(
            space, big, {"s": [(1, 1), (2, F(1, 2))]},
            trading_filtrations=Filtration.trivial(2, (0, 1)),
        )
        gens = enumerate_generators(model)
        assert len(gens) == 1
        assert gens[0].payoff.values == (1, -F(1, 2))
        # constant prices span nothing
        flat = build_market(space, big, {"s": [(3, 3), (3, 3)]})
        assert enumerate_generators(flat) == ()

    def test_binomial_two_periods_fully_observed(self):
        space = FiniteSpace(("uu", "ud", "du", "dd"), (F(1, 4),) * 4)
        big = Filtration(
            (0, F(1, 2), 1),
            (part({0, 1, 2, 3}), part({0, 1}, {2, 3}), Partition.singletons(4)),
        )
        model = build_market(
            space, big,
            {"s": [(1,) * 4, (2, 2, F(1, 2), F(1, 2)), (4, 1, 1, F(1, 4))]},
        )
        gens = enumerate_generators(model)
        assert len(gens) == 3  # one bet at t=0, one per block at t=1/2
        assert _linalg.rank([[g.payoff.values[i] for g in gens] for i in range(4)]) == 3
        by_time = {}
        for g in gens:
            by_time.setdefault(g.from_time, []).append(g)
        assert len(by_time[F(0)]) == 1 and len(by_time[F(1, 2)]) == 2

    def test_coarse_duplicates_removed(self, canonical):
        gens = enumerate_generators(canonical)
        # the t=0 stock bet appears for both admissible sets but only once here
        stock_at_0 = [g for g in gens if g.asset == "stock" and g.from_time == 0]
        assert len(stock_at_0) == 1
        payoffs = [g.payoff.values for g in gens]
        assert len(payoffs) == len(set(payoffs))

    def test_long_only_same_payoffs_tagged(self, canonical):
        free = enumerate_generators(canonical, "free")
        long_only = enumerate_generators(canonical, "long_only")
        assert [g.payoff.values for g in free] == [g.payoff.values for g in long_only]
        assert all(not g.one_sided for g in free)
        assert all(g.one_sided for g in long_only)

    def test_each_price_move_subtracted_once(self, monkeypatch, cold_caches):
        """A price move ``S_{k+1} - S_k`` is computed once per (asset, step),
        not once per admissible set that holds the asset: a deterministic
        counter on a union-closed family of three sets."""
        space = FiniteSpace(("uu", "ud", "du", "dd"), (F(1, 4),) * 4)
        big = Filtration(
            (0, F(1, 2), 1),
            (part({0, 1, 2, 3}), part({0, 1}, {2, 3}), Partition.singletons(4)),
        )
        model = build_market(
            space, big,
            {"s": [(1,) * 4, (2, 2, F(1, 2), F(1, 2)), (4, 1, 1, F(1, 4))],
             "c": [(F(1, 3),) * 4, (1, 1, 0, 0), (3, 0, 0, 0)]},
            admissible_sets=[["s"], ["c"], ["s", "c"]],
        )
        assert validate(model) == []
        moves = []
        inner = RandomVariable.__sub__

        def spy(self, other):
            moves.append((self, other))
            return inner(self, other)

        monkeypatch.setattr(RandomVariable, "__sub__", spy)
        cold_caches()
        assert len(enumerate_generators(model)) == 4  # c's move at 1/2 repeats one of s's
        assert len(moves) == 2 * 2  # assets times steps
        assert {(id(a), id(b)) for a, b in moves} == {
            (id(path[k + 1]), id(path[k])) for path in model.prices for k in range(2)}

    def test_generators_and_classes_hash_no_value(self, monkeypatch, cold_caches):
        """The payoff dedupe and the outcome grouping key on nonzero
        positions and on each value's numerator and denominator, all ints:
        no Fraction is hashed once the model's own hash is known."""
        model, _ = split_outcomes(random_market(random.Random(5)), [2] * 3 + [1] * 5)
        hash(model)
        calls = []
        inner = F.__hash__

        def spy(value):
            calls.append(value)
            return inner(value)

        monkeypatch.setattr(F, "__hash__", spy)
        for mode in ("free", "long_only"):
            assert enumerate_generators(model, mode)
            assert len(outcome_classes(model, mode)) < model.n_outcomes
        assert calls == []

    def test_redundant_grid_time_changes_nothing(self):
        space = FiniteSpace(("u", "d"), (F(1, 2), F(1, 2)))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        model = build_market(space, big, {"s": [(1, 1), (2, F(1, 2))]})
        stretched_big = Filtration(
            (0, F(1, 2), 1), (part({0, 1}), part({0, 1}), part({0}, {1}))
        )
        stretched = build_market(
            space, stretched_big, {"s": [(1, 1), (1, 1), (2, F(1, 2))]}
        )
        original = {g.payoff.values for g in enumerate_generators(model)}
        refined = {g.payoff.values for g in enumerate_generators(stretched)}
        assert original == refined

    def test_wealth_lies_in_generator_span(self):
        rng = random.Random(99)
        for _ in range(25):
            model = random_market(rng)
            aset = model.admissible_sets[-1]
            filt = model.filtration_for(aset)
            ordered = sorted(aset)
            grid = model.times
            legs = []
            for k in range(len(grid) - 1):
                part_k = filt.at(grid[k])
                holdings = []
                for _a in ordered:
                    vals = [0] * model.n_outcomes
                    for block in part_k.blocks:
                        v = F(rng.randint(-3, 3))
                        for i in block:
                            vals[i] = v
                    holdings.append(RandomVariable(tuple(vals)))
                legs.append(Leg(grid[k], grid[k + 1], tuple(holdings)))
            strat = Strategy(aset, tuple(legs))
            terminal = wealth_process(model, strat)[-1]
            cols = [list(g.payoff.values) for g in enumerate_generators(model)]
            coeffs = _linalg.column_span_solve(cols, list(terminal.values))
            assert coeffs is not None

    def test_wealth_additivity_across_sets(self, canonical):
        stock_strat = Strategy(
            frozenset({"stock"}), (Leg(F(0), F(1), (RandomVariable((2,) * 4),)),)
        )
        joint_strat = Strategy(
            frozenset({"stock", "vcall"}),
            (Leg(F(1, 2), F(1), (RandomVariable((1, 1, -1, -1)), RandomVariable((0,) * 4))),),
        )
        combined = Strategy(
            frozenset({"stock", "vcall"}),
            (
                Leg(F(0), F(1), (RandomVariable((2,) * 4), RandomVariable((0,) * 4))),
                Leg(F(1, 2), F(1), (RandomVariable((1, 1, -1, -1)), RandomVariable((0,) * 4))),
            ),
        )
        w1 = wealth_process(canonical, stock_strat)
        w2 = wealth_process(canonical, joint_strat)
        w = wealth_process(canonical, combined)
        for a, b, c in zip(w1, w2, w):
            assert (a + b).values == c.values


class TestOutcomeClasses:
    def test_equal_rows_share_a_class_in_first_outcome_order(self):
        cols = [{0: 1, 2: F(1), 3: 2}, {1: 5, 3: 5}, {0: F(1, 2), 1: 3, 2: F(1, 2), 3: 1}]
        assert group_outcomes(cols, 6) == ((0, 2), (1,), (3,), (4, 5))

    def test_same_positions_different_values_stay_apart(self):
        assert group_outcomes([{0: 1, 1: 2, 2: 1}], 3) == ((0, 2), (1,))

    def test_equal_values_of_any_type_share_a_class(self):
        cols = [{0: 1, 1: F(1), 2: 1.0, 3: F(1, 2), 4: F(2, 4)}]
        assert group_outcomes(cols, 5) == ((0, 1, 2), (3, 4))

    def test_distinct_rows_are_singletons(self):
        assert group_outcomes([{0: 1, 1: -1}, {1: 1}], 3) == ((0,), (1,), (2,))

    def test_split_copies_join_their_original(self):
        rng = random.Random(11)
        for _ in range(20):
            model = random_market(rng)
            copies = [rng.randint(1, 3) for _ in range(model.n_outcomes)]
            split, origin = split_outcomes(model, copies)
            assert validate(split) == []
            classes = outcome_classes(split)
            assert len(classes) == len(outcome_classes(model))
            for c in classes:
                assert list(c) == sorted(c)
                key = {origin[w] for w in c}
                assert {w for w in range(split.n_outcomes) if origin[w] in key} == set(c)
            assert [c[0] for c in classes] == sorted(c[0] for c in classes)
