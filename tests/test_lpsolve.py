import dataclasses
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _factories import GOLDEN_REPLICABLE, binomial_tree
from platonic import _linalg, ftap, lpsolve
from platonic.market import generator_matrix
from platonic.numeric import pick_tol
from platonic import (
    EQ,
    GE,
    LE,
    DimensionGuardError,
    FloatModeError,
    LinearProgram,
    as_float_model,
    enumerate_vertices,
    ftap_verdict,
    price_interval,
    solve,
    superreplicate,
)
from platonic.scenario import parse_scenario


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

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_beale_cycling_lp_terminates(self, mode):
        """Beale's (1955) LP, on which the most-negative-cost rule cycles
        without a guard; the Bland guard breaks the degenerate run."""
        problem = lp(
            [F(-3, 4), 20, F(-1, 2), 6], "min",
            [([F(1, 4), -8, -1, 9], LE, 0), ([F(1, 2), -12, F(-1, 2), 3], LE, 0),
             ([0, 0, 1, 0], LE, 1)],
            [(0, None)] * 4,
        )
        best = min(sum(c * v for c, v in zip(problem.objective, x))
                   for x in enumerate_vertices(problem))
        assert best == F(-5, 4)
        sol = solve(problem, mode)
        assert sol.status == "optimal"
        assert abs(sol.objective - best) <= 1e-9 and abs(sol.dual_objective - best) <= 1e-9

    def test_float_duals_with_a_dropped_row(self, monkeypatch):
        """A repeated equation leaves the float tableau as redundant; the duals
        read off the final cost row still cover it, certify, and price the
        exact optimum."""
        problem = lp(
            [1, 2], "min",
            [([1, 1], EQ, 2), ([1, 1], EQ, 2), ([1, 0], GE, F(1, 2))],
            [(0, None), (0, None)],
        )
        exact = solve(problem)
        sizes = []
        inner = lpsolve._simplex

        def spy(form, tab, *args):
            status = inner(form, tab, *args)
            sizes.append((len(tab.kept), len(form.rows)))
            return status

        monkeypatch.setattr(lpsolve, "_simplex", spy)
        tol = 1e-9
        sol = solve(problem, "float", tol)
        assert sizes == [(2, 3)]  # one of the twin rows was dropped
        assert sol.status == "optimal"
        assert abs(sol.objective - exact.objective) <= tol
        assert abs(sol.dual_objective - exact.objective) <= tol


def sparse_x(rows, rhs):
    """The solution ``x`` of :func:`_linalg.solve_sparse`; None when singular."""
    solved = _linalg.solve_sparse(rows, rhs)
    return None if solved is None else solved.x


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

    def test_sparse_solve_matches_dense(self):
        rng = random.Random(5)
        singular = 0
        for _ in range(300):
            n = rng.randint(0, 6)
            entries = (0, 0, 0, 1, -1, 2, F(1, 3))
            matrix = [[F(rng.choice(entries)) for _ in range(n)] for _ in range(n)]
            rhs = [F(rng.randint(-3, 3)) for _ in range(n)]
            rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
            x = sparse_x(rows, rhs)
            assert x == _linalg.solve_unique(matrix, rhs)
            singular += x is None
        assert singular > 20

    @pytest.mark.parametrize("rows,rhs,solution", [
        ([{0: 2}], [1], [F(1, 2)]),
        ([{0: 1}, {1: -1}], [3, 0], [F(3), F(0)]),
        ([{0: 1, 1: F(1, 3)}, {1: 2}], [1, F(2, 3)], [F(8, 9), F(1, 3)]),
    ])
    def test_sparse_solve_returns_fractions(self, rows, rhs, solution):
        # ints alone or mixed with Fractions in, Fractions out
        x = sparse_x(rows, rhs)
        assert x == solution
        assert all(type(v) is F for v in x)


EPS = F(1, 2**60)
# 1 and 1 + 2^-60 are one float: data that float arithmetic cannot separate
VALUES = (F(0), F(1), F(-1), F(2), F(-3), F(1, 2), 1 + EPS, -1 - EPS, EPS)
# ints and Fractions, among them entries whose products need many bits
SPARSE_ENTRIES = (1, -1, 2, F(1, 3), 1 + EPS, F(10**12, 7))


@st.composite
def sparse_systems(draw):
    """Square systems of up to 30 rows as ``{column: value}`` maps, mostly
    zeros. A diagonal planted under a random permutation makes a system
    nonsingular but for rare cancellations; a row then replaced by a
    combination of two others makes it singular; scattered entries alone
    make it singular more often than not."""
    n = draw(st.integers(0, 30))
    kind = draw(st.sampled_from(("planted", "dependent", "scattered")))
    entry = st.sampled_from(SPARSE_ENTRIES)
    rows: list[dict] = [{} for _ in range(n)]
    if n and kind != "scattered":
        for i, j in enumerate(draw(st.permutations(range(n)))):
            rows[i][j] = draw(entry)
    for _ in range(draw(st.integers(0, 2 * n))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(entry)
    if n >= 3 and kind == "dependent":
        a, b, c = draw(st.permutations(range(n)))[:3]
        ca, cb = draw(entry), draw(entry)
        combo = {j: ca * rows[a].get(j, 0) + cb * rows[b].get(j, 0) for j in sorted({*rows[a], *rows[b]})}
        rows[c] = {j: v for j, v in combo.items() if v}
    rhs = [draw(st.sampled_from((0,) + SPARSE_ENTRIES)) for _ in range(n)]
    return rows, rhs


def test_sparse_solve_against_dense_elimination():
    """The sparse integer elimination agrees with the dense rational one,
    on singular and nonsingular systems, and its solution solves the system
    exactly."""
    singular = set()

    @settings(max_examples=150, deadline=None)
    @given(system=sparse_systems())
    def check(system):
        rows, rhs = system
        x = sparse_x(rows, rhs)
        dense = [[F(row.get(j, 0)) for j in range(len(rows))] for row in rows]
        assert x == _linalg.solve_unique(dense, [F(v) for v in rhs])
        singular.add(x is None)
        if x is not None:
            assert all(type(v) is F for v in x)
            assert [sum(v * x[j] for j, v in row.items()) for row in rows] == rhs

    check()
    assert singular == {True, False}


def test_transposed_solve_replays_the_elimination():
    """The record of one elimination of ``A`` also solves ``A^T y = c``,
    and agrees with the dense rational elimination of the transpose. The
    right-hand sides ``F(1, 3)`` and ``1 + 2**-60`` enter the start scale of
    their equation, which the replay must restore. A singular ``A`` leaves
    no record, and ``A^T`` is singular too."""
    # the rhs 1/3 starts the first equation at scale 3, which y must undo
    solved = _linalg.solve_sparse([{0: 1, 1: 1}, {1: 2}], [F(1, 3), 1])
    assert solved.transposed([1, 4]) == [1, F(3, 2)]
    singular = set()
    entry = st.sampled_from((0,) + SPARSE_ENTRIES)

    @settings(max_examples=150, deadline=None)
    @given(system=sparse_systems(), data=st.data())
    def check(system, data):
        rows, rhs = system
        n = len(rows)
        c = data.draw(st.lists(entry, min_size=n, max_size=n))
        transpose = [[F(rows[i].get(j, 0)) for i in range(n)] for j in range(n)]
        y = _linalg.solve_unique(transpose, [F(v) for v in c])
        solved = _linalg.solve_sparse(rows, rhs)
        singular.add(solved is None)
        if solved is None:
            assert y is None
        else:
            assert solved.transposed(c) == y
            assert all(type(v) is F for v in solved.transposed(c))

    check()
    assert singular == {True, False}


def test_exact_dots_equal_the_fraction_sums():
    """``_linalg.dots``: the exact int kernel equals the sum of the Fraction
    products, for ints and Fractions mixed, empty rows, zero weights and zero
    entries; the float path equals the in-order ``sum`` of the products where
    ``x`` is nonzero bit for bit, also with int weights, and is a float 0.0
    on an empty row."""
    value = st.sampled_from((0, 1, -1, 2, F(0), F(1, 3), F(-5, 6), 1 + EPS, F(10**12, 7)))
    real = st.sampled_from((0, 1, -1, 0.0, -0.0, 0.1, -2.5, 1e-17, 3e16, 1 / 3))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), exact=st.booleans())
    def check(data, exact):
        n = data.draw(st.integers(0, 8))
        x = data.draw(st.lists(value if exact else real, min_size=n, max_size=n))
        row = st.dictionaries(st.integers(0, n - 1), value if exact else real) if n else st.just({})
        rows = data.draw(st.lists(row, max_size=5))
        sums = _linalg.dots(rows, x, exact)
        if exact:
            assert sums == [sum((F(v) * x[j] for j, v in r.items()), F(0)) for r in rows]
            assert all(type(v) is F for v in sums)
        else:
            expected = [sum(v * x[j] for j, v in r.items() if x[j]) for r in rows]
            assert [v.hex() for v in sums] == [float(v).hex() for v in expected]
            assert all(type(v) is float for v in sums)

    check()
    assert _linalg.dots([{}], [], False) == [0.0] and type(_linalg.dots([{}], [], False)[0]) is float


@st.composite
def boxed_lps(draw):
    """Small LPs whose variables all lie in finite boxes, so they are bounded.

    A box is the variable's bound pair, or part or all of it is a constraint
    row instead, so that the variable is free, bounded on one side only, or
    fixed (a box of width 0) as the solver sees it."""
    value = st.sampled_from(VALUES) | st.integers(-4, 4).map(F)
    n = draw(st.integers(1, 4))
    constraints = [
        ([draw(value) for _ in range(n)], draw(st.sampled_from((LE, GE, EQ))), draw(value))
        for _ in range(draw(st.integers(0, 4)))
    ]
    bounds = []
    for j in range(n):
        lo = draw(value)
        hi = lo + abs(draw(value))
        kind = draw(st.sampled_from(("box", "free", "lower", "upper", "fixed")))
        if kind == "fixed":
            bounds.append((lo, lo))
            continue
        bounds.append((lo if kind in ("box", "lower") else None,
                       hi if kind in ("box", "upper") else None))
        unit = [F(0)] * n
        unit[j] = F(1)
        if bounds[-1][0] is None:
            constraints.append((unit, GE, lo))
        if bounds[-1][1] is None:
            constraints.append((unit, LE, hi))
    return lp([draw(value) for _ in range(n)], draw(st.sampled_from(("max", "min"))),
              constraints, bounds)


def _violation(problem, x):
    """Largest violation of a constraint or bound of ``problem`` at ``x``."""
    x = [F(v) for v in x]
    worst = F(0)
    for con in problem.constraints:
        gap = sum(con.coeffs.get(j, 0) * v for j, v in enumerate(x)) - con.rhs
        worst = max(worst, {LE: gap, GE: -gap, EQ: abs(gap)}[con.relation])
    for (lo, hi), v in zip(problem.bounds, x):
        if lo is not None:
            worst = max(worst, lo - v)
        if hi is not None:
            worst = max(worst, v - hi)
    return worst


@pytest.fixture
def stages(monkeypatch):
    """Every call of the pivot stage: its arithmetic, and whether it started
    from the slack and artificial basis."""
    calls = []
    inner = lpsolve._simplex

    def spy(form, tab, tol_piv, tol_cert, mode):
        calls.append((mode, tab.basis == form.start))
        return inner(form, tab, tol_piv, tol_cert, mode)

    monkeypatch.setattr(lpsolve, "_simplex", spy)
    return calls


# Float bases that fail the exact check, with the exact optimum (None when
# infeasible); exact pivoting then runs from the slack and artificial start.
FLOAT_BASIS_REFUSED = {
    # max x1 + (1 + eps) x2 on x1 + x2 <= 1: float sees a tie and keeps x1,
    # an exactly feasible basis that is not optimal
    "tie": (lp([1, 1 + EPS], "max", [([1, 1], LE, 1)], [(0, 1), (0, 1)]), 1 + EPS),
    # x >= 1 + eps and x <= 1: float finds x = 1, exactly infeasible
    "split hair": (lp([1], "max", [([1], GE, 1 + EPS), ([1], LE, 1)], [(0, 2)]), None),
    # x + y = 1 and x + (1 + eps) y = 1 are one row to float, which drops the
    # second; at its optimum y = 1 the dropped row fails exactly
    "twin rows": (lp([0, 1], "max", [([1, 1], EQ, 1), ([1, 1 + EPS], EQ, 1)],
                     [(0, 2), (0, 2)]), 0),
    # the same rows: float stops at x = 1, feasible but priced without the
    # dropped row, which the kept row does not imply exactly
    "twin rows, tie": (lp([1, 1 + EPS], "max", [([1, 1], EQ, 1), ([1, 1 + EPS], EQ, 1)],
                          [(0, 2), (0, 2)]), 1),
}


def test_exact_and_float_solve_against_vertex_enumeration(stages):
    """The exact optimum is the best vertex, whether the float basis was
    accepted or exact pivoting took over. Float agrees within its tol: its
    optimum is feasible within tol and no worse than the exact one."""

    @settings(max_examples=300, deadline=None)
    @given(problem=boxed_lps())
    @example(problem=FLOAT_BASIS_REFUSED["tie"][0])
    @example(problem=FLOAT_BASIS_REFUSED["twin rows"][0])
    def check(problem):
        exact = solve(problem)
        vertices = enumerate_vertices(problem)
        if not vertices:
            assert exact.status == "infeasible"
        else:
            values = [sum(c * v for c, v in zip(problem.objective, vx)) for vx in vertices]
            best = max(values) if problem.sense == "max" else min(values)
            assert exact.status == "optimal"
            assert exact.objective == exact.dual_objective == best
            if any(bound == (None, None) for bound in problem.bounds):
                # a free column may end nonbasic at 0, between its rows
                assert _violation(problem, exact.x) == 0
            else:
                assert exact.x in vertices
        try:
            approx = solve(problem, "float", 1e-8)
        except FloatModeError:
            return  # a refusal, never a wrong answer
        if approx.status == "optimal":
            # float solves the problem up to its tolerance, which may admit
            # more points than the exact one, never fewer
            assert _violation(problem, approx.x) <= 1e-8
            if vertices:
                loss = approx.objective - float(best)
                loss = -loss if problem.sense == "max" else loss
                assert loss <= 1e-8 * (1 + abs(float(best)))
        else:
            assert approx.status == exact.status

    check()
    exact_starts = {from_start for mode, from_start in stages if mode == "exact"}
    assert exact_starts == {True}  # exact pivoting starts from scratch only


@pytest.mark.parametrize("name", sorted(FLOAT_BASIS_REFUSED))
def test_refused_float_basis_hands_over_to_exact_pivoting(stages, name):
    problem, objective = FLOAT_BASIS_REFUSED[name]
    sol = solve(problem)
    assert sol.objective == objective
    assert sol.status == ("infeasible" if objective is None else "optimal")
    assert stages == [("float", True), ("exact", True)]


GOLDEN = sorted((Path(__file__).resolve().parents[1] / "src" / "platonic" / "scenarios").glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_verdicts_take_the_float_basis(stages, path, cold_caches):
    """Every exact solve of a golden scenario certifies its float basis and
    pivots in no rational: the verdicts, each claim's superhedges (free and
    long-only) and its price interval, two superhedges of which the upper
    one is the cached free superhedge, or that one alone for a replicable
    claim. A claim equal to an earlier one is answered from the cache."""
    scenario = parse_scenario(str(path))
    model = scenario.model
    for mode in ("free", "long_only"):
        ftap_verdict(model, mode)
        for claim in scenario.claims.values():
            superreplicate(model, claim, mode)
    for claim in scenario.claims.values():
        price_interval(model, claim)
    claims = set(scenario.claims.values())
    replicable = {scenario.claims[c] for c in GOLDEN_REPLICABLE[path.stem]}
    assert stages == [("float", True)] * (2 + 3 * len(claims) - len(replicable))  # no exact pivot


@pytest.fixture
def pivots(monkeypatch):
    """Basis changes and bound flips, counted."""
    counts = {"_do_pivot": 0, "_flip": 0}
    for name in counts:
        inner = getattr(lpsolve, name)

        def spy(*args, _name=name, _inner=inner):
            counts[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(lpsolve, name, spy)
    return counts


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_golden_pivot_counts(pivots, arithmetic, cold_caches):
    """Simplex steps of every golden-scenario verdict and superhedge, free
    and long-only: basis changes (``_do_pivot``) plus bound flips
    (``_flip``), a deterministic counter that moves with the pricing rule,
    the start basis and the bound handling. Exact answers take the float
    basis here. No verdict flips its fixed price column: a column with
    bounds (0, 0) never enters, so no LP here flips at all. Float mode
    pivots less: every LP of a market has the same rows, so each LP starts
    from the optimal basis of the one before, carried by primal pivots to
    its own optimum at b = 0 where its costs or bounds differ, then repaired
    by dual pivots where it left its bounds.
    ``free_lunch_3``'s second claim equals its first, so both of its
    superhedges come from the cache and pivot none (4 exact pivots each
    when solved). ``two_theta``'s 8 outcomes are 4 classes that no
    generator tells apart, so each of its verdict LPs has 4 rows, not 8, and
    pivots 3 times."""
    for path in GOLDEN:
        scenario = parse_scenario(str(path))
        model = scenario.model if arithmetic == "exact" else as_float_model(scenario.model)
        for mode in ("free", "long_only"):
            ftap_verdict(model, mode)
            for claim in scenario.claims.values():
                superreplicate(model, claim, mode)
    assert pivots == {"exact": {"_do_pivot": 127, "_flip": 0},
                      "float": {"_do_pivot": 54, "_flip": 0}}[arithmetic]


class TestWithRhs:
    """``LinearProgram.with_rhs`` shares everything of an LP but its
    right-hand sides, and the ``b``-free part of its standard form."""

    def test_one_right_hand_side_per_constraint(self):
        with pytest.raises(ValueError, match="one right-hand side per constraint"):
            _hedge_like().with_rhs([1])

    @settings(max_examples=150, deadline=None)
    @given(problem=boxed_lps(), data=st.data())
    def test_derived_lps_are_lps_built_afresh(self, problem, data):
        """A sequence of right-hand sides on one LP: each derived LP equals
        the LP built afresh with them, and so do its standard form in both
        arithmetics (each row reused from the family's first form or built
        from the family's entries) and its exact and float answers, each
        float one solved with an empty float slot. No solve changes the
        shared maps."""
        value = st.sampled_from(VALUES) | st.integers(-4, 4).map(F)
        maps = [dict(con.coeffs) for con in problem.constraints]
        for _ in range(data.draw(st.integers(1, 4))):
            rhs = [data.draw(value) for _ in problem.constraints]
            derived = problem.with_rhs(rhs)
            fresh = lp(problem.objective, problem.sense,
                       [(con.coeffs, con.relation, b) for con, b in zip(problem.constraints, rhs)],
                       problem.bounds)
            assert derived == fresh
            assert all(a.coeffs is b.coeffs for a, b in zip(derived.constraints, problem.constraints))
            for conv in (F, float):
                forms = [lpsolve._standard_form(p, conv) for p in (derived, fresh)]
                derived_form, fresh_form = (f and dataclasses.replace(f, family=None) for f in forms)
                assert derived_form == fresh_form
                first = derived_form and forms[0].family.first
                if first and (first.signs, first.start) == (derived_form.signs, derived_form.start):
                    # a row that agrees is the first's
                    assert all(row is old for row, old, scale, old_scale in zip(
                        derived_form.rows, first.rows, derived_form.scales, first.scales)
                        if scale == old_scale)
            assert solve(derived) == solve(fresh)
            answers = []
            for p in (derived, fresh):
                lpsolve._last_optimum = None
                try:
                    answers.append(solve(p, "float"))
                except FloatModeError as exc:
                    answers.append(str(exc))
            assert answers[0] == answers[1]
        assert [con.coeffs for con in problem.constraints] == maps

    @pytest.mark.parametrize("conv", [F, float])
    def test_a_start_that_moves_with_b_is_not_reused(self, conv):
        """x + 2y = b with x in [0, 4]: x is in no other row and has entry
        1, so the row starts on x while x = b lies within its bounds, and on
        an artificial past them, at the same row sign. A later form of the
        family takes the first form's rows only where its start columns
        agree too."""
        def problem(b):
            return lp([1, 1], "max", [([1, 2], EQ, b)], [(0, 4), (0, 10)])

        template = problem(1)
        assert lpsolve._standard_form(template, conv).start == [0]
        for b in (6, 3):
            derived = lpsolve._standard_form(template.with_rhs([b]), conv)
            fresh = lpsolve._standard_form(problem(b), conv)
            assert derived.start == fresh.start == ([2] if b > 4 else [0])
            assert dataclasses.replace(derived, family=None) == dataclasses.replace(fresh, family=None)
            assert solve(template.with_rhs([b])) == solve(problem(b))


def _hedge_like(b1=4, b2=9, upper_x=3, lower_y=0, cost_x=3, a_22=3):
    """max cost_x x + 2y on x + y <= b1, x + a_22 y <= b2, x in [0, upper_x],
    y >= lower_y. At the defaults the optimum is x = 3 (at its upper bound),
    y = 1, with the second row's slack basic at 3."""
    return lp([cost_x, 2], "max", [([1, 1], LE, b1), ([1, a_22], LE, b2)],
              [(0, upper_x), (lower_y, None)])


class TestWarmFloatBasis:
    """A float LP that differs from the last optimal float LP in its
    right-hand side alone starts from that optimum's basis."""

    def test_feasible_old_basis_is_reused_without_a_pivot(self, stages, pivots):
        # the first solve starts from its own start at b = 0: one pivot
        # solves that LP (x enters at 0), and one dual pivot takes its basis
        # to b1 = 4, where x leaves at its upper bound 3 and y enters
        solve(_hedge_like(), "float")
        assert stages == [("float", True)]
        warm = solve(_hedge_like(b1=4.5), "float")
        assert stages == [("float", True)]  # no pivot stage ran
        assert pivots == {"_do_pivot": 2, "_flip": 0}  # the first solve's only
        assert warm.x == (3, 1.5)
        lpsolve._last_optimum = None
        cold = solve(_hedge_like(b1=4.5), "float")
        assert abs(warm.objective - cold.objective) <= 1e-9 * (1 + abs(cold.objective))
        assert warm.objective == solve(_hedge_like(b1=F(9, 2))).objective == 12

    def test_infeasible_old_basis_is_repaired_by_dual_pivots(self, stages, pivots, monkeypatch):
        inner = lpsolve._start_tableau
        tableaus = []

        def spy(form, conv):
            tableaus.append(conv)
            return inner(form, conv)

        monkeypatch.setattr(lpsolve, "_start_tableau", spy)
        solve(_hedge_like(), "float")
        # b1 = 7 puts y = 4 on the old basis, and the second row's slack at -6:
        # one dual pivot, where that slack leaves at 0 and the first row's enters
        sol = solve(_hedge_like(b1=7), "float")
        assert tableaus == [float] and stages == [("float", True)]  # no second start
        assert pivots == {"_do_pivot": 3, "_flip": 0}  # the first solve's two, from its own start
        assert sol.x == (3, 2) and sol.objective == solve(_hedge_like(b1=7)).objective == 13

    def test_infeasible_right_hand_side_hands_back_to_a_cold_solve(self, stages, monkeypatch):
        """2x + 3y >= b on [0, 3]^2 holds for b <= 15 only. At b = 16 the
        surplus row has no column to enter, so the dual loop gives up and
        the cold solve reports the LP infeasible. The row starts on an
        artificial at both right-hand sides: a column of entry 1, such as
        x in x + 2y >= b, would start the row at b <= 3 only, and a form
        with another start is solved cold without the dual loop."""
        inner = lpsolve._dual_loop
        repaired = []

        def spy(*args):
            repaired.append(inner(*args))
            return repaired[-1]

        monkeypatch.setattr(lpsolve, "_dual_loop", spy)

        def problem(b):
            return lp([1, 1], "max", [([2, 3], GE, b)], [(0, 3), (0, 3)])

        assert solve(problem(1), "float").objective == 6
        sol = solve(problem(16), "float")
        assert repaired == [False] and stages == [("float", True)] * 2
        assert sol.status == solve(problem(16)).status == "infeasible"
        assert lpsolve._last_optimum is None

    def test_a_sequence_of_right_hand_sides_on_one_matrix(self, monkeypatch):
        """Each float answer, warm or cold, has the status of the exact
        solve, and an objective within tol (1 + |objective|) of it; some
        warm answers take dual pivots."""
        tol = 1e-9
        inner = lpsolve._dual_loop
        repairs = []

        def spy(tab, *args):
            before = list(tab.basis)
            feasible = inner(tab, *args)
            repairs.append(feasible and tab.basis != before)
            return feasible

        monkeypatch.setattr(lpsolve, "_dual_loop", spy)

        @settings(max_examples=60, deadline=None)
        @given(rhs=st.lists(st.tuples(*[st.integers(1, 20)] * 4), min_size=2, max_size=6))
        def check(rhs):
            lpsolve._last_optimum = None
            for b1, b2, b3, b4 in rhs:
                problem = lp([3, 2, 1, -1], "max", [
                    ([1, 1, 1, 0], LE, b1), ([1, 3, 0, -1], LE, b2),
                    ([2, 0, 1, 1], LE, b3), ([-1, 1, 1, 0], GE, b4),
                ], [(0, 3), (0, None), (0, 4), (None, None)])
                exact = solve(problem)
                approx = solve(problem, "float", tol)
                assert approx.status == exact.status
                if exact.status == "optimal":
                    assert abs(approx.objective - exact.objective) <= tol * (1 + abs(approx.objective))

        check()
        assert any(repairs)  # a basis repaired by at least one dual pivot

    @pytest.mark.parametrize("change", [{"upper_x": 2.5}, {"lower_y": 0.5}, {"cost_x": 3.5}],
                             ids=lambda change: next(iter(change)))
    def test_a_cost_or_bound_change_is_served_warm(self, stages, pivots, monkeypatch, change):
        """An LP on the slot's rows, start columns and row signs is served
        from the slot's basis, whatever its costs and bounds: a new upper
        bound or cost is taken into the tableau, whose basis primal pivots
        carry to the optimum at b = 0 and dual pivots to the LP's ``b``; a
        new lower bound only shifts ``b``. No other start runs, and the
        answer is certified, its reduced costs included."""
        solve(_hedge_like(), "float")
        pivots.update(_do_pivot=0, _flip=0)
        checked = []
        inner = lpsolve._reduced_costs_hold
        monkeypatch.setattr(lpsolve, "_reduced_costs_hold", lambda *args: checked.append(inner(*args)) or
                            checked[-1])
        sol = solve(_hedge_like(**change), "float")
        assert stages == [("float", True)]  # the first solve's start only
        assert checked == ([] if "lower_y" in change else [True])
        assert pivots == {"_do_pivot": 0 if "lower_y" in change else 2, "_flip": 0}
        exact = solve(_hedge_like(**{k: F(v) for k, v in change.items()}))
        assert abs(sol.objective - float(exact.objective)) <= 1e-9 * (1 + abs(sol.objective))
        last, form = lpsolve._last_optimum[0], lpsolve._standard_form(_hedge_like(**change), float)
        assert (last.cost, last.upper, last.rhs) == (form.cost, form.upper, form.rhs)  # the new optimum's

    @pytest.mark.parametrize("change", [{"a_22": 2.5}], ids=lambda change: next(iter(change)))
    def test_any_other_change_solves_cold(self, stages, monkeypatch, change):
        """An LP whose rows differ from the slot's is not served from the
        slot's basis: it is solved from its own start, at ``b = 0``, and
        the warm start carries that optimum to its ``b``."""
        solve(_hedge_like(), "float")
        cold = []
        inner = lpsolve._cold_float_solve
        monkeypatch.setattr(lpsolve, "_cold_float_solve", lambda *args: cold.append(args) or inner(*args))
        sol = solve(_hedge_like(**change), "float")
        assert stages == [("float", True)] * 2 and cold == []
        exact = solve(_hedge_like(**{k: F(v) for k, v in change.items()}))
        assert abs(sol.objective - float(exact.objective)) <= 1e-9 * (1 + abs(sol.objective))

    def test_unbounded_own_start_hands_back_to_a_cold_solve(self, stages):
        """max x on x - y <= 1, x, y >= 0: the LP's own start at b = 0 is
        unbounded, so the LP is solved from its start and reported
        unbounded there, with the slot left empty."""
        sol = solve(lp([1, 0], "max", [([1, -1], LE, 1)], [(0, None), (0, None)]), "float")
        assert sol.status == "unbounded" and stages == [("float", True)] * 2
        assert lpsolve._last_optimum is None

    def test_exact_mode_never_reuses(self, stages):
        solve(_hedge_like(), "float")
        for b1 in (4, F(9, 2), F(9, 2)):
            sol = solve(_hedge_like(b1=b1))
        assert stages == [("float", True)] * 4  # every exact solve from its start
        assert sol.x == (3, F(3, 2)) and all(type(v) is F for v in sol.x)

    @staticmethod
    def _refuse_first(monkeypatch, refusals):
        """Spies on ``_certify``, which refuses its first ``refusals`` calls,
        and on ``_cold_float_solve``; returns both call lists."""
        certify, cold = lpsolve._certify, lpsolve._cold_float_solve
        calls = {"certify": [], "cold": []}

        def certify_spy(*args):
            calls["certify"].append(args)
            if len(calls["certify"]) <= refusals:
                raise FloatModeError("refused; retry exact")
            return certify(*args)

        def cold_spy(*args):
            calls["cold"].append(args)
            return cold(*args)

        monkeypatch.setattr(lpsolve, "_certify", certify_spy)
        monkeypatch.setattr(lpsolve, "_cold_float_solve", cold_spy)
        return calls

    def test_drifted_basic_values_are_refined(self, stages, monkeypatch):
        """Round-off in ``x_B`` that the certificate refuses (here 1e-6 added
        to every basic value after the dual pivots) is undone by one step of
        iterative refinement: the answer is served warm from the slot's
        basis, on its second certificate, and no start runs."""
        solve(_hedge_like(), "float")
        inner = lpsolve._dual_loop

        def drift(tab, *args):
            done = inner(tab, *args)
            for row in tab.rows:
                row[-1] += 1e-6
            return done

        monkeypatch.setattr(lpsolve, "_dual_loop", drift)
        calls = self._refuse_first(monkeypatch, 0)
        sol = solve(_hedge_like(b1=4.5), "float")
        assert len(calls["certify"]) == 2 and stages == [("float", True)]
        assert calls["cold"] == []
        assert sol.x == pytest.approx((3, 1.5), abs=1e-12)

    def test_refused_warm_answer_is_served_from_its_own_start(self, stages, monkeypatch):
        """A warm answer that fails its certificate, refined or not, is not
        handed out: the LP is solved again from its own start at ``b = 0``,
        whose optimum the dual pivots take to the LP's ``b``."""
        solve(_hedge_like(), "float")
        calls = self._refuse_first(monkeypatch, 2)
        sol = solve(_hedge_like(b1=4.5), "float")
        assert len(calls["certify"]) == 3 and stages == [("float", True)] * 2
        assert calls["cold"] == []
        assert sol.x == (3, 1.5)

    def test_refused_warm_answer_solves_cold(self, stages, monkeypatch):
        """When the answer from its own start is refused too, refined or
        not, the LP is solved cold from its start, and that answer is
        certified and handed out."""
        solve(_hedge_like(), "float")
        calls = self._refuse_first(monkeypatch, 4)
        sol = solve(_hedge_like(b1=4.5), "float")
        assert len(calls["certify"]) == 5 and stages == [("float", True)] * 3
        assert len(calls["cold"]) == 1
        assert sol.x == (3, 1.5)

    def test_a_crossed_answer_with_wrong_duals_is_not_handed_out(self, stages, monkeypatch):
        """After a change of costs, the duals of the slot's basis are checked
        against every reduced cost summed afresh. Here the first row's dual
        is moved by 10 after the dual pivots: the check refuses it before
        any certificate, and the LP is served from its own start."""
        solve(_hedge_like(), "float")
        inner_loop, inner_check = lpsolve._dual_loop, lpsolve._reduced_costs_hold
        checked = []

        def tamper(tab, *args):
            done = inner_loop(tab, *args)
            if not checked:
                tab.reduced[2] -= 10  # the first row's slack: y_0 = -d_2
            return done

        monkeypatch.setattr(lpsolve, "_dual_loop", tamper)
        monkeypatch.setattr(lpsolve, "_reduced_costs_hold", lambda *args: checked.append(inner_check(*args)) or
                            checked[-1])
        calls = self._refuse_first(monkeypatch, 0)
        sol = solve(_hedge_like(cost_x=3.5), "float")
        assert checked == [False] and len(calls["certify"]) == 1  # the own start's answer only
        assert stages == [("float", True)] * 2 and calls["cold"] == []
        assert sol.objective == pytest.approx(float(solve(_hedge_like(cost_x=F(7, 2))).objective), abs=1e-12)

    def test_a_row_negated_at_its_b_is_served_from_its_own_start(self, stages, monkeypatch):
        """min x + z on x - z <= b, x, z >= 0: at b = -1 the row is negated
        and starts on z, while at b = 0 it would start on its slack. The
        sign does not change the row's solutions at b = 0, where the start
        is feasible, so the LP is served warm from its own start there,
        with no cold solve."""
        cold = []
        inner = lpsolve._cold_float_solve
        monkeypatch.setattr(lpsolve, "_cold_float_solve", lambda *args: cold.append(args) or inner(*args))
        problem = lp([1, 1], "min", [([1, -1], LE, -1)], [(0, None), (0, None)])
        form = lpsolve._standard_form(problem, float)
        assert (form.signs, form.start) == ([-1], [1])
        sol = solve(problem, "float")
        assert stages == [("float", True)] and cold == []
        assert sol.x == (0, 1) and sol.objective == solve(problem).objective == 1


def test_a_degenerate_dual_run_hands_over_to_the_lowest_index(monkeypatch):
    """Every reduced cost is 0, so every dual step is degenerate. After as
    many in a row as the tableau has rows (no column has an upper bound),
    the leaving row is the one whose basic column has the lowest index
    among those outside their bounds, not the farthest outside: the fourth
    step on this exact three-row tableau leaves column 3 at -7/13, not
    column 5 at -9/13. The loop then ends on a feasible basis."""
    rows = [[1, 0, 0, 1, 2, -2, -2, -1], [0, 1, 0, -1, 0, 1, -2, -2], [0, 0, 1, 1, -2, 2, 1, -1]]
    tab = lpsolve._Tableau([[F(v) for v in row] for row in rows], [F(0)] * 7, [0, 1, 2], [0, 1, 2],
                           [None] * 7, [1] * 7)
    left = []
    inner = lpsolve._exchange

    def spy(tab, cost, r, enter, to_upper):
        outside = {tab.basis[i]: row[-1] for i, row in enumerate(tab.rows) if row[-1] < 0}
        left.append((tab.basis[r], outside))
        return inner(tab, cost, r, enter, to_upper)

    monkeypatch.setattr(lpsolve, "_exchange", spy)
    assert lpsolve._dual_loop(tab, [F(0)] * 8, 7, 0)
    assert [leave for leave, _outside in left] == [1, 0, 2, 3, 5]
    assert left[3][1] == {5: F(-9, 13), 3: F(-7, 13)}
    assert tab.basis == [4, 1, 6] and [row[-1] for row in tab.rows] == [F(3, 2), 2, 2]
    # the basic solution solves the rows as given
    x = dict.fromkeys(range(7), 0) | dict(zip(tab.basis, (row[-1] for row in tab.rows)))
    assert [sum(v * x[j] for j, v in enumerate(row[:-1])) for row in rows] == [row[-1] for row in rows]


def test_long_only_degenerate_run_stays_on_dantzig(monkeypatch, cold_caches):
    """The long-only arbitrage LP of the 7-step tree is degenerate at every
    step (its optimum is 0 at the start vertex). Dantzig pricing ends it in
    215 steps; the Bland guard waits as many steps as the problem has rows
    with every upper bound counted as one, and Bland's rule alone would
    still be pivoting after thousands of steps."""
    count = [0]
    inner = lpsolve._do_pivot

    def spy(*args):
        count[0] += 1
        return inner(*args)

    monkeypatch.setattr(lpsolve, "_do_pivot", spy)
    model = as_float_model(binomial_tree(7))
    assert ftap_verdict(model, "long_only").kind == "NO_ARBITRAGE"
    assert count[0] == 215


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
@pytest.mark.parametrize("steps, trading, steps_taken", [(7, "delayed", 147), (8, "gridded", 347)])
def test_delayed_and_gridded_long_only_verdicts_answer(monkeypatch, pivots, arithmetic, steps, trading,
                                                       steps_taken, cold_caches):
    """The long-only arbitrage LPs of the 7-step delayed and the 8-step
    gridded tree, whose verdicts took 4,617 and 1,036 degenerate steps from
    a start on consumption slacks, and which float mode refused. Each class
    row now starts on its own gain, so the standard form has no artificial,
    and Dantzig pricing ends in 147 and 347 basis changes and no bound
    flip: the price column, fixed at 0, never enters. Each verdict is NO_ARBITRAGE with a full-support measure that passes
    its check again here, at tolerance 0 in exact mode."""
    forms = []
    inner = lpsolve._standard_form

    def spy(problem, conv):
        forms.append(inner(problem, conv))
        return forms[-1]

    monkeypatch.setattr(lpsolve, "_standard_form", spy)
    model = binomial_tree(steps, trading)
    exact = arithmetic == "exact"
    if not exact:
        model = as_float_model(model)
    verdict = ftap_verdict(model, "long_only")
    assert verdict.kind == "NO_ARBITRAGE" and verdict.measure.full_support
    [form] = forms
    assert form.art_rows == [] and form.n_real == len(form.cost)
    assert pivots == {"_do_pivot": steps_taken, "_flip": 0}
    cols = generator_matrix(model, "long_only")[1]
    tol = pick_tol(model.arithmetic, None)
    assert ftap.checked_measure(verdict.measure.q_values, cols, "supermartingale", tol, exact) == verdict.measure


@pytest.mark.parametrize("mode", ["free", "long_only"])
def test_standard_form_shape(monkeypatch, mode, cold_caches):
    """Columns stay whole and bounds take no row. On an n-outcome model with
    k generators, the arbitrage LP has n rows and 1 + k + n caller columns
    (the price fixed at 0, the lambdas, the gains), no slack (its rows are
    equations) and no artificial: each row starts on its own gain. The
    superhedge LP has n rows and 1 + k caller columns plus a slack per row
    and no artificial either. Both have the same standard-form rows, start
    columns and row signs: each gain sits where its row's slack does."""
    forms = []
    inner = lpsolve._standard_form

    def spy(problem, conv):
        forms.append(inner(problem, conv))
        return forms[-1]

    monkeypatch.setattr(lpsolve, "_standard_form", spy)
    model = binomial_tree(3)
    n, k = model.n_outcomes, len(generator_matrix(model, mode)[1])
    ftap_verdict(model, mode)
    superreplicate(model, [F(w) for w in range(n)], mode)
    arbitrage, hedge = forms
    assert (len(arbitrage.rows), len(arbitrage.col_map)) == (n, 1 + k + n)
    assert arbitrage.n_real == len(arbitrage.cost) == 1 + k + n
    assert arbitrage.start == list(range(1 + k, 1 + k + n))
    assert (len(hedge.rows), len(hedge.col_map)) == (n, 1 + k)
    assert hedge.n_real == len(hedge.cost) == 1 + k + n
    assert (hedge.rows, hedge.start, hedge.signs) == (arbitrage.rows, arbitrage.start, arbitrage.signs)


def test_build_reads_dense_and_map_rows():
    """A dense row and the map of its nonzero entries make equal
    constraints: zeros dropped, columns ascending."""
    dense = lp([1] * 4, "max", [([0, F(2), 0.0, -1], LE, 1)], [(0, 1)] * 4)
    mapped = lp([1] * 4, "max", [({3: -1, 1: F(2), 0: 0}, LE, 1)], [(0, 1)] * 4)
    assert dense.constraints == mapped.constraints
    for problem in (dense, mapped):
        assert list(problem.constraints[0].coeffs.items()) == [(1, F(2)), (3, -1)]
    assert solve(dense) == solve(mapped)


@pytest.mark.parametrize("row", [{4: 1}, {-1: 1}, [0, 0, 0, 0, 1]])
def test_column_outside_the_objective_is_rejected(row):
    with pytest.raises(ValueError, match="constraint dimension mismatch"):
        lp([1] * 4, "max", [(row, LE, 1)])


def test_arbitrage_lp_stores_its_nonzeros_only(monkeypatch, cold_caches):
    """The arbitrage LP of the 8-step tree (256 outcomes, 255 generators)
    stores 2,560 coefficients: the price's 1, 8 generator entries and the
    gain's -1 per outcome row, not 256 dense rows of 512 entries. The exact
    verdict hands it to ``float_basis`` and, as its measure passes its
    check, not to ``solve``."""
    stored = []
    inner = ftap.float_basis

    def spy(problem, *args):
        stored.append(sum(len(con.coeffs) for con in problem.constraints))
        return inner(problem, *args)

    monkeypatch.setattr(ftap, "float_basis", spy)
    monkeypatch.setattr(ftap, "solve", None)
    assert ftap_verdict(binomial_tree(8)).kind == "NO_ARBITRAGE"
    assert stored == [2560]


@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_superhedges_run_no_phase_1(monkeypatch, arithmetic, cold_caches):
    """Every golden superhedge, free and long-only, starts at the cash hedge:
    its LP has no artificial, so the simplex never enters phase 1 (a pivot
    loop that runs before the phase-2 cost row exists)."""
    forms, phase_1 = [], []
    inner_form, inner_loop = lpsolve._standard_form, lpsolve._pivot_loop

    def form_spy(problem, conv):
        forms.append(inner_form(problem, conv))
        return forms[-1]

    def loop_spy(tab, cost, n_enter, *args):
        if tab.reduced is None:
            phase_1.append(n_enter)
        return inner_loop(tab, cost, n_enter, *args)

    for path in GOLDEN:
        scenario = parse_scenario(str(path))
        model = scenario.model if arithmetic == "exact" else as_float_model(scenario.model)
        for mode in ("free", "long_only"):
            ftap_verdict(model, mode)
            monkeypatch.setattr(lpsolve, "_standard_form", form_spy)
            monkeypatch.setattr(lpsolve, "_pivot_loop", loop_spy)
            for claim in scenario.claims.values():
                superreplicate(model, claim, mode)
            monkeypatch.undo()
    assert phase_1 == []
    assert forms and all(len(form.cost) == form.n_real for form in forms)


def _certify_message(problems, mode):
    """The message :func:`lpsolve._certify` raises with for ``problems``."""
    message = "solve failed self-certification: " + "; ".join(problems)
    return message if mode == "exact" else message + "; retry exact"


def _dense_problems(problem, x, duals, objective, dual_objective, tol):
    """What the certificate must find, with every constraint summed over its
    dense coefficients, zeros included."""
    problems = []
    for j, (lo, hi) in enumerate(problem.bounds):
        if lo is not None and x[j] < lo - tol:
            problems.append(f"bound violation on variable {j}")
        if hi is not None and x[j] > hi + tol:
            problems.append(f"bound violation on variable {j}")
    for i, con in enumerate(problem.constraints):
        gap = sum(con.coeffs.get(j, 0) * v for j, v in enumerate(x)) - con.rhs
        if {LE: gap > tol, GE: gap < -tol, EQ: abs(gap) > tol}[con.relation]:
            problems.append(f"constraint {i} violated")
        if con.relation != EQ and abs(duals[i]) > tol and abs(gap) > tol:
            problems.append(f"complementary slackness fails on constraint {i}")
    if abs(objective - dual_objective) > tol * (1 + abs(objective)):
        problems.append("duality gap")
    return problems


class TestCertifyRejects:
    """The certificate sums each constraint over the nonzero entries of x and
    still rejects what fails: a bug (``RuntimeError``) in exact mode, a
    refusal (``FloatModeError``) in float mode."""

    # max x0 + x2 s.t. x0 + x2 <= 2, x1 - x2 >= -1, x >= 0: optimum 2, y = (1, 0)
    PROBLEM = lp([1, 0, 1], "max", [([1, 0, 1], LE, 2), ([0, 1, -1], GE, -1)], [(0, None)] * 3)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("x,duals,objective,dual_objective,problems", [
        ((3, 0, 0), (0, 0), 3, 3, ["constraint 0 violated"]),
        ((0, 0, 2), (0, 0), 2, 2, ["constraint 1 violated"]),
        ((1, 0, 0), (1, 0), 1, 1, ["complementary slackness fails on constraint 0"]),
        ((2, 0, 0), (1, 0), 2, 3, ["duality gap"]),
    ])
    def test_each_failure_is_reported(self, mode, x, duals, objective, dual_objective, problems):
        conv, tol = (F, 0) if mode == "exact" else (float, 1e-9)
        with pytest.raises(RuntimeError) as caught:
            lpsolve._certify(self.PROBLEM, [conv(v) for v in x], [conv(v) for v in duals],
                             conv(objective), conv(dual_objective), tol, mode)
        assert type(caught.value) is (RuntimeError if mode == "exact" else FloatModeError)
        assert str(caught.value) == _certify_message(problems, mode)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_the_optimum_passes(self, mode):
        conv, tol = (F, 0) if mode == "exact" else (float, 1e-9)
        lpsolve._certify(self.PROBLEM, [conv(2), conv(0), conv(0)], [conv(1), conv(0)],
                         conv(2), conv(2), tol, mode)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(("exact", "float")))
    def test_sparse_check_reports_what_the_dense_one_does(self, data, mode):
        """Random small LPs and points with zeros: the certificate reports
        exactly the problems of a dense evaluation, in the same order."""
        value = st.sampled_from(VALUES[:6])
        n = data.draw(st.integers(1, 5))
        constraints = [
            ([data.draw(value) for _ in range(n)], data.draw(st.sampled_from((LE, GE, EQ))),
             data.draw(value))
            for _ in range(data.draw(st.integers(0, 5)))
        ]
        bounds = [data.draw(st.sampled_from(((None, None), (0, None), (-1, 2), (None, 1))))
                  for _ in range(n)]
        problem = lp([data.draw(value) for _ in range(n)], "max", constraints, bounds)
        conv, tol = (F, 0) if mode == "exact" else (float, 1e-9)
        x = [conv(data.draw(value)) for _ in range(n)]
        duals = [conv(data.draw(value)) for _ in constraints]
        objective, dual_objective = conv(data.draw(value)), conv(data.draw(value))
        problems = _dense_problems(problem, x, duals, objective, dual_objective, tol)
        if not problems:
            lpsolve._certify(problem, x, duals, objective, dual_objective, tol, mode)
            return
        with pytest.raises(RuntimeError) as caught:
            lpsolve._certify(problem, x, duals, objective, dual_objective, tol, mode)
        assert type(caught.value) is (RuntimeError if mode == "exact" else FloatModeError)
        assert str(caught.value) == _certify_message(problems, mode)


def test_standard_form_holds_exact_rows_in_ints():
    """In exact mode the standard form holds Python ints: each row and its
    right-hand side times the lcm of their denominators, the cost times one
    lcm; a slack entry is +-scale. Divided back, the caller's shifted,
    mirrored and negated numbers come out exactly in rationals, and bit for
    bit as their ``float()`` in float, also for an entry whose numerator
    exceeds 2**53, where ``float(v) / scale`` would round twice."""
    big = F(2**53 + 1, 3)
    coeffs = (F(1, 3), F(-2), 5, big, F(7, 2))
    bounds = [(0, None), (None, None), (-1, 4), (0, 1), (None, 0)]
    problem = lp([F(1, 4), 2, F(-5, 6), 0, 1], "max",
                 [(coeffs, LE, 1), (coeffs, EQ, F(1, 2)), (coeffs, LE, -7), (coeffs, GE, -5)],
                 bounds)
    form = lpsolve._standard_form(problem, F)
    assert form.signs == [1, 1, -1, -1]  # column 2's shift of -1 adds 5 to each rhs
    assert [sign for sign, _ in form.col_map] == [1, 1, 1, 1, -1]
    numbers = [*form.rhs, *form.cost, *(v for row in form.rows for v in row.values())]
    assert all(type(v) is int for v in numbers)
    assert all(type(s) is int and s > 0 for s in (*form.scales, form.cost_scale))
    assert form.scales == [6, 6, 6, 6] and form.cost_scale == 12
    assert [form.rows[i][col] for i, col in ((0, 5), (2, 6), (3, 7))] == [6, -6, 6]  # the slacks
    assert form.rows[1][8] == 6  # the artificial of the equation

    # the caller's numbers after the shift, the mirror and the negation
    exact_tab, float_tab = lpsolve._start_tableau(form, F), lpsolve._start_tableau(form, float)
    for i, con in enumerate(problem.constraints):
        sign = form.signs[i]
        rhs = sign * (con.rhs + coeffs[2])
        entries = [sign * v for v in coeffs[:4]] + [-sign * coeffs[4]]
        assert exact_tab.rows[i][:5] + exact_tab.rows[i][-1:] == entries + [rhs]
        assert [exact_tab.rows[i][j] for j in form.start] == [int(k == i) for k in range(4)]
        assert all(type(v) is F for v in exact_tab.rows[i])
        assert float_tab.rows[i][:5] + float_tab.rows[i][-1:] == [float(v) for v in entries + [rhs]]
        assert all(type(v) is float for v in float_tab.rows[i])
    cost = [-F(1, 4), -2, F(5, 6), 0, 1]
    assert exact_tab.cost[:5] == cost and float_tab.cost[:5] == [float(v) for v in cost]
    assert float_tab.rows[0][3] == float(big) != float(form.rows[0][3]) / form.scales[0]


def _lagrangian_bound(problem, duals):
    """The bound that ``duals`` give on the optimum of ``problem``: the best
    value of its Lagrangian over the bounds. None when a dual has the wrong
    sign (a max problem's ``<=`` rows take duals >= 0, its ``>=`` rows
    duals <= 0, and a min problem the other way) or the bound is infinite.
    It equals the optimum exactly when the duals are optimal."""
    flip = 1 if problem.sense == "max" else -1
    for y, con in zip(duals, problem.constraints):
        if flip * y * {LE: 1, GE: -1, EQ: 0}[con.relation] < 0:
            return None
    value = sum(y * con.rhs for y, con in zip(duals, problem.constraints))
    for j, (c, (lo, hi)) in enumerate(zip(problem.objective, problem.bounds)):
        d = c - sum(y * con.coeffs.get(j, 0) for y, con in zip(duals, problem.constraints))
        if d:
            end = hi if flip * d > 0 else lo
            if end is None:
                return None
            value += d * end
    return value


def test_scaled_rows_give_the_same_answer():
    """Each constraint multiplied by a positive rational, and some ``>=``
    rows written as ``<=`` rows of their negation: the standard form's
    scales and signs change, the LP does not. The status and objective are
    the original's; the scaled LP's duals times the multipliers pass the
    original LP's certificate and are optimal duals of it; and every number
    of an exact answer is a Fraction (an int / int slip in the unscaling
    would make a float)."""
    multiplier = st.sampled_from((1, 3, F(1, 2), F(7, 3), 1 + EPS, F(10**12, 7)))

    @settings(max_examples=200, deadline=None)
    @given(problem=boxed_lps(), data=st.data())
    def check(problem, data):
        constraints, factors = [], []
        for con in problem.constraints:
            m, relation = data.draw(multiplier), con.relation
            if relation == GE and data.draw(st.booleans()):
                m, relation = -m, LE
            constraints.append(({j: m * v for j, v in con.coeffs.items()}, relation, m * con.rhs))
            factors.append(m)
        scaled = lp(problem.objective, problem.sense, constraints, problem.bounds)
        original, sol = solve(problem), solve(scaled)
        assert (sol.status, sol.objective) == (original.status, original.objective)
        if sol.status != "optimal":
            return
        for answer in (original, sol):
            numbers = [*answer.x, *answer.duals, answer.objective, answer.dual_objective]
            assert all(type(v) is F for v in numbers)
        duals = [d * m for d, m in zip(sol.duals, factors)]
        lpsolve._certify(problem, sol.x, duals, sol.objective, sol.dual_objective, 0, "exact")
        bound = _lagrangian_bound(problem, original.duals)
        assert _lagrangian_bound(problem, duals) == bound == sol.objective

    check()


def test_exact_fallback_count(monkeypatch, suite, cold_caches):
    """Exact pivoting runs only where the float basis fails its certificate,
    and starts with a tableau in rationals: a deterministic counter of such
    starts. No exact solve of a verdict (free and long-only), a superhedge
    (free and long-only) or a price interval falls back, on every golden
    scenario and the 200-market acceptance suite with 5 claims each: 2,012
    exact solves, all on their float basis (a replicable claim's interval
    solves no lower hedge). Each of the 414 verdicts among them takes the
    answer of its float basis, which passes its own check: none falls back
    to ``solve``, which would certify the LP's optimum first."""
    starts = {float: 0, F: 0}
    inner = lpsolve._start_tableau

    def spy(form, conv):
        starts[conv] += 1
        return inner(form, conv)

    monkeypatch.setattr(lpsolve, "_start_tableau", spy)
    verdicts = {"float_basis": 0, "solve": 0}
    for entry in verdicts:
        def entry_spy(*args, _entry=entry, _inner=getattr(ftap, entry)):
            verdicts[_entry] += 1
            return _inner(*args)

        monkeypatch.setattr(ftap, entry, entry_spy)
    models = [(scenario.model, list(scenario.claims.values()))
              for scenario in map(parse_scenario, map(str, GOLDEN))]
    models += list(zip(suite["instances"], suite["claims"]))
    for model, claims in models:
        for mode in ("free", "long_only"):
            if ftap_verdict(model, mode).kind == "NO_ARBITRAGE":
                for claim in claims:
                    superreplicate(model, claim, mode)
                    if mode == "free":
                        price_interval(model, claim)
    assert starts == {float: 2012, F: 0}
    assert verdicts == {"float_basis": 414, "solve": 0}


def test_one_elimination_per_certified_basis(monkeypatch, suite, cold_caches):
    """An exact basis costs one fraction-free elimination: its record gives
    x_B and, transposed, the duals. A superhedge's or an interval's basis is
    certified optimal by both. A verdict's is not: without arbitrage it
    needs the duals for its measure, with one only x for its gain, and either
    answer passes its own check. On the questions of
    :func:`test_exact_fallback_count`, 1,598 superhedges and intervals and
    414 verdicts (173 with an arbitrage), that is 2,012 eliminations, 1,839
    transposed solves and 1,598 certified bases."""
    counts = {"eliminations": 0, "transposed": 0, "certified": 0}
    solve_sparse, transposed, certified = (
        _linalg.solve_sparse, _linalg.SparseSolution.transposed, lpsolve._certified)

    def count(key, inner, *args):
        counts[key] += 1
        return inner(*args)

    monkeypatch.setattr(_linalg, "solve_sparse", lambda *a: count("eliminations", solve_sparse, *a))
    monkeypatch.setattr(_linalg.SparseSolution, "transposed",
                        lambda *a: count("transposed", transposed, *a))

    def certified_spy(*args):
        optimum = certified(*args)
        counts["certified"] += optimum is not None
        return optimum

    monkeypatch.setattr(lpsolve, "_certified", certified_spy)
    models = [(scenario.model, list(scenario.claims.values()))
              for scenario in map(parse_scenario, map(str, GOLDEN))]
    models += list(zip(suite["instances"], suite["claims"]))
    verdicts = Counter()
    for model, claims in models:
        for mode in ("free", "long_only"):
            kind = ftap_verdict(model, mode).kind
            verdicts[kind] += 1
            if kind == "NO_ARBITRAGE":
                for claim in claims:
                    superreplicate(model, claim, mode)
                    if mode == "free":
                        price_interval(model, claim)
    assert verdicts == {"NO_ARBITRAGE": 241, "ARBITRAGE": 173}
    assert counts == {"eliminations": 2012, "transposed": 1839, "certified": 1598}
