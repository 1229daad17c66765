from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platonic import (
    FiniteSpace,
    Filtration,
    Partition,
    RandomVariable,
    ZeroMassBlock,
    conditional_expectation,
    delayed_filtration,
    is_sub_filtration,
    refines,
)


def part(*blocks):
    return Partition(tuple(frozenset(b) for b in blocks))


class TestFiniteSpace:
    def test_valid(self):
        s = FiniteSpace(("a", "b"), (F(1, 3), F(2, 3)))
        assert s.size == 2 and s.index("b") == 1

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            FiniteSpace(("a", "b"), (F(0), F(1)))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            FiniteSpace(("a", "b"), (F(1, 2), F(1, 3)))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            FiniteSpace(("a", "a"), (F(1, 2), F(1, 2)))

    def test_float_sum_tolerance(self):
        FiniteSpace(("a", "b", "c"), (0.2, 0.3, 0.5))


class TestRefines:
    def test_singletons_refine_everything(self):
        assert refines(part({0}, {1}), part({0, 1}))

    def test_coarse_does_not_refine_fine(self):
        assert not refines(part({0, 1}), part({0}, {1}))

    def test_one_block_coarse(self):
        assert refines(part({0, 1}, {2, 3}), part({0, 1, 2, 3}))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            refines(part({0, 1}), part({0, 1, 2}))


class TestPartition:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            part({0, 1}, {1, 2})

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            part({0}, {2})

    def test_join_is_common_refinement(self):
        a = part({0, 1}, {2, 3})
        b = part({0, 2}, {1, 3})
        assert a.join(b) == part({0}, {1}, {2}, {3})

    def test_group_by(self):
        assert Partition.group_by(["x", "y", "x"]) == part({0, 2}, {1})


class TestSubFiltration:
    def test_trivial_in_everything(self):
        big = Filtration((0, 1), (part({0}, {1}), part({0}, {1})))
        small = Filtration.trivial(2, (0, 1))
        assert is_sub_filtration(small, big)

    def test_reflexive(self):
        f = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        assert is_sub_filtration(f, f)

    def test_more_info_at_zero_fails(self):
        small = Filtration((0,), (part({0}, {1}),))
        big = Filtration((0, 1), (part({0, 1}), part({0}, {1})))
        assert not is_sub_filtration(small, big)

    def test_different_grids(self):
        # big carries the information earlier, so small is contained
        big = Filtration((0, F(1, 2)), (part({0}, {1}), part({0}, {1})))
        small = Filtration((F(3, 4),), (part({0}, {1}),))
        assert is_sub_filtration(small, big)

    def test_filtration_must_refine_in_time(self):
        with pytest.raises(ValueError):
            Filtration((0, 1), (part({0}, {1}), part({0, 1})))


class TestConditionalExpectation:
    def test_mean_on_one_block(self):
        out = conditional_expectation((1, 3), part({0, 1}), (F(1, 2), F(1, 2)))
        assert out.values == (2, 2)

    def test_full_information(self):
        x = (F(5), F(-1), F(7))
        out = conditional_expectation(x, Partition.singletons(3), (F(1, 3),) * 3)
        assert out.values == x

    def test_two_block_average(self):
        # block averages computed directly: (q0*x0+q1*x1)/(q0+q1) etc.
        x = (4, 1, 1, F(1, 4))
        q = (F(1, 3), F(1, 6), F(1, 3), F(1, 6))
        out = conditional_expectation(x, part({0, 1}, {2, 3}), q)
        assert out.values == (3, 3, F(3, 4), F(3, 4))

    def test_zero_mass_block_raises(self):
        with pytest.raises(ZeroMassBlock):
            conditional_expectation((1, 2), part({0}, {1}), (1, 0))

    def test_negative_measure_rejected(self):
        with pytest.raises(ValueError):
            conditional_expectation((1, 2), part({0, 1}), (2, -1))


def spaces_with_data(max_n=8):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(-6, 6).map(F), min_size=n, max_size=n),
            st.lists(st.integers(1, 9).map(F), min_size=n, max_size=n),
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
        )
    )


@settings(max_examples=60, deadline=None)
@given(spaces_with_data())
def test_tower_property_and_expectation(data):
    n, x, weights, keys = data
    q = [w / sum(weights) for w in weights]
    chain_fine = Partition.group_by(keys)
    chain_coarse = Partition.group_by([k % 2 for k in keys])
    assert refines(chain_fine, chain_coarse)

    ce_fine = conditional_expectation(x, chain_fine, q)
    ce_then_coarse = conditional_expectation(ce_fine, chain_coarse, q)
    ce_coarse = conditional_expectation(x, chain_coarse, q)
    assert ce_then_coarse.values == ce_coarse.values  # tower, exact

    const = conditional_expectation([F(7)] * n, chain_fine, q)
    assert const.values == tuple([F(7)] * n)  # constants preserved

    lhs = sum(a * b for a, b in zip(q, ce_fine.values))
    rhs = sum(a * b for a, b in zip(q, x))
    assert lhs == rhs  # expectation preserved


class TestDelayedFiltration:
    def setup_method(self):
        self.base = Filtration(
            (0, F(1, 2), 1),
            (part({0, 1, 2, 3}), part({0, 1}, {2, 3}), Partition.singletons(4)),
        )

    def test_zero_delay_is_identity(self):
        assert delayed_filtration(self.base, 0) == self.base

    def test_huge_delay_kills_information(self):
        out = delayed_filtration(self.base, 2)
        assert all(p == Partition.trivial(4) for p in out.partitions)

    def test_one_step_shift(self):
        out = delayed_filtration(self.base, F(1, 2))
        assert out.partitions == (
            Partition.trivial(4),
            self.base.partitions[0],
            self.base.partitions[1],
        )

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            delayed_filtration(self.base, -1)

    @pytest.mark.parametrize("d1,d2", [(0, F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), 1)])
    def test_monotone_in_delay(self, d1, d2):
        f1 = delayed_filtration(self.base, d1)
        f2 = delayed_filtration(self.base, d2)
        assert is_sub_filtration(f2, f1)


def test_random_variable_arithmetic():
    a = RandomVariable((1, 2))
    b = RandomVariable((F(1, 2), -1))
    assert (a + b).values == (F(3, 2), 1)
    assert (a - 1).values == (0, 1)
    assert (2 * b).values == (1, -2)
    assert (-a).values == (-1, -2)
    assert a.dot((F(1, 4), F(3, 4))) == F(7, 4)
    assert RandomVariable.indicator(3, {1}).values == (0, 1, 0)
