import random
from fractions import Fraction as F

import pytest

from platonic import _linalg
from platonic import (
    EQ,
    GE,
    LE,
    DimensionGuardError,
    FloatModeError,
    LinearProgram,
    enumerate_vertices,
    solve,
)


def lp(objective, sense, constraints, bounds=None):
    return LinearProgram.build(objective, sense, constraints, bounds)


class TestBasics:
    def test_bounded_maximum(self):
        sol = solve(lp([1], "max", [([1], LE, 1)], [(0, None)]))
        assert sol.status == "optimal"
        assert sol.x == (1,) and sol.objective == 1

    def test_unbounded(self):
        sol = solve(lp([1], "max", [], [(0, None)]))
        assert sol.status == "unbounded"

    def test_infeasible(self):
        sol = solve(lp([1], "max", [([1], LE, -1)], [(0, None)]))
        assert sol.status == "infeasible"

    def test_equality_and_free_variables(self):
        sol = solve(lp([1, 1], "min", [([1, 1], EQ, 2), ([1, -1], EQ, 4)]))
        assert sol.status == "optimal"
        assert sol.x == (3, -1) and sol.objective == 2

    def test_bound_shifts(self):
        sol = solve(lp([1], "min", [([1], GE, -10)], [(-3, 7)]))
        assert sol.x == (-3,) and sol.objective == -3

    def test_empty_box(self):
        sol = solve(lp([1], "max", [], [(2, 1)]))
        assert sol.status == "infeasible"

    def test_duals_match_objective(self):
        sol = solve(lp([3, 5], "max", [([1, 0], LE, 4), ([0, 2], LE, 12), ([3, 2], LE, 18)],
                       [(0, None), (0, None)]))
        assert sol.objective == 36
        assert sol.objective == sol.dual_objective
        assert sol.duals == (0, F(3, 2), 1)

    def test_determinism(self):
        problem = lp([1, 2, 1], "max",
                     [([1, 1, 1], LE, 5), ([2, 1, 0], LE, 4), ([0, 1, 3], LE, 6)],
                     [(0, None)] * 3)
        a, b = solve(problem), solve(problem)
        assert a == b


def random_bounded_lp(rng):
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    cons = []
    for _ in range(m):
        coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
        cons.append((coeffs, rng.choice([LE, GE, EQ]), F(rng.randint(-4, 4))))
    bounds = [(F(rng.randint(-3, 0)), F(rng.randint(1, 4))) for _ in range(n)]
    objective = [F(rng.randint(-4, 4)) for _ in range(n)]
    return lp(objective, rng.choice(["max", "min"]), cons, bounds)


def test_strong_duality_on_random_instances():
    rng = random.Random(7)
    statuses = {"optimal": 0, "infeasible": 0}
    for _ in range(120):
        problem = random_bounded_lp(rng)
        sol = solve(problem)
        assert sol.status in ("optimal", "infeasible")  # boxes keep it bounded
        statuses[sol.status] += 1
        if sol.status == "optimal":
            assert sol.objective == sol.dual_objective
    assert statuses["optimal"] > 30 and statuses["infeasible"] > 5


def test_float_agrees_with_exact_on_random_instances():
    rng = random.Random(11)
    for _ in range(60):
        problem = random_bounded_lp(rng)
        exact = solve(problem)
        try:
            approx = solve(problem, "float", 1e-8)
        except FloatModeError:
            continue  # certification refused, never a wrong answer
        assert approx.status == exact.status
        if exact.status == "optimal":
            assert abs(float(exact.objective) - approx.objective) < 1e-6


class TestVertices:
    def test_probability_simplex(self):
        problem = lp([0, 0], "max", [([1, 1], EQ, 1)], [(0, None), (0, None)])
        assert enumerate_vertices(problem) == [(0, 1), (1, 0)]

    def test_extra_equality(self):
        problem = lp([0, 0], "max", [([1, 1], EQ, 1), ([1, -1], EQ, 0)], [(0, None), (0, None)])
        assert enumerate_vertices(problem) == [(F(1, 2), F(1, 2))]

    def test_square(self):
        problem = lp([0, 0], "max", [], [(0, 1), (0, 1)])
        assert set(enumerate_vertices(problem)) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_dimension_guard(self):
        problem = lp([0] * 13, "max", [], [(0, 1)] * 13)
        with pytest.raises(DimensionGuardError):
            enumerate_vertices(problem)

    def test_oracle_agreement_with_lp(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 4)
            cons = []
            for _ in range(rng.randint(0, 3)):
                cons.append(([F(rng.randint(-3, 3)) for _ in range(n)], LE, F(rng.randint(0, 5))))
            bounds = [(F(0), F(rng.randint(1, 3))) for _ in range(n)]
            objective = [F(rng.randint(-4, 4)) for _ in range(n)]
            problem = lp(objective, "max", cons, bounds)
            sol = solve(problem)
            assert sol.status == "optimal"  # box is nonempty: 0 may violate cons though
            vertices = enumerate_vertices(problem)
            best = max(sum(c * v for c, v in zip(objective, vx)) for vx in vertices)
            assert best == sol.objective


class TestDegenerateSystems:
    def test_redundant_equalities_still_give_duals(self):
        problem = lp(
            [1, 2], "min",
            [([1, 1], EQ, 2), ([2, 2], EQ, 4), ([3, 3], EQ, 6), ([1, 0], GE, F(1, 2))],
            [(0, None), (0, None)],
        )
        sol = solve(problem)
        assert sol.status == "optimal" and sol.x == (2, 0)
        assert sol.objective == sol.dual_objective == 2

    def test_inconsistent_redundancy_is_infeasible(self):
        problem = lp([1], "min", [([1], EQ, 1), ([2], EQ, 3)])
        assert solve(problem).status == "infeasible"

    def test_fully_degenerate_ties_terminate(self):
        problem = lp(
            [1, 1, 1], "max",
            [([1, 1, 0], LE, 0), ([0, 1, 1], LE, 0), ([1, 0, 1], LE, 0)],
            [(0, None)] * 3,
        )
        sol = solve(problem)
        assert sol.status == "optimal" and sol.objective == 0


class TestElimination:
    """One elimination serves both the unique and the span solve."""

    def test_unique_solution(self):
        assert _linalg.solve_unique([[2, 1], [1, 1]], [3, 2]) == [1, 1]

    @pytest.mark.parametrize("matrix,rhs", [
        ([[1, 1], [2, 2]], [1, 2]),  # consistent but singular
        ([[1, 1], [2, 2]], [1, 3]),  # inconsistent
    ])
    def test_unique_refuses(self, matrix, rhs):
        assert _linalg.solve_unique(matrix, rhs) is None

    def test_span_solve_takes_free_variables_at_zero(self):
        cols = [(1, 0, 1), (2, 0, 2), (0, 1, 0)]
        assert _linalg.column_span_solve(cols, [3, 4, 3]) == [3, 0, 4]
        assert _linalg.column_span_solve(cols, [1, 0, 0]) is None
        # a residual within the float tolerance counts as inside the span
        assert _linalg.column_span_solve([(1.0, 0.0)], [0.5, 1e-12], 1e-9) == [0.5]
        assert _linalg.column_span_solve([(1.0, 0.0)], [0.5, 1e-6], 1e-9) is None
