"""Superreplication by linear-programming duality.

The cheapest dominating hedge of a claim equals the largest expectation of the
claim over the polytope of measures under which every admissible projection of
prices is a (super)martingale; in exact mode the two optimal values coincide
as rational numbers. A price interval is two superhedges, of the claim and of
its negative (one when the first replicates the claim), and the hedges'
consumption certifies that an optimizer has no full support. The polar-cone
identity and the attainability trichotomy are verified with the same
machinery plus a brute-force vertex oracle on small instances.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from . import _linalg
from .errors import DimensionGuardError, unverified
from .errors import UnpricedMarketError  # noqa: F401  re-exported: the pricing functions raise it on arbitrage
from .ftap import (
    MeasureCertificate,
    _measure_or_refuse,
    _require_valid,
    checked_measure,
    martingale_polytope_constraints,
)
from .lpsolve import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    LinearProgram,
    enumerate_vertices,
    solve,
)
from .market import (
    CACHE_SIZE, MarketModel, claim_arithmetic, class_rows, generator_matrix, outcome_classes,
    outcome_rows, per_outcome,
)
from .numeric import Num, lp_mode_and_tol, solver_tol
from .probspace import RandomVariable, as_random_variable


@dataclass(frozen=True)
class HedgeCertificate:
    """Cheapest dominating position: price plus generator coefficients.

    ``price + wealth(lambdas) = claim + consumption`` outcome-wise with
    nonnegative consumption, which vanishes wherever the dual optimizer puts
    mass (complementary slackness).
    """

    price: Num
    lambdas: tuple[Num, ...]
    consumption: RandomVariable
    claim: RandomVariable


@dataclass(frozen=True)
class BoundWitness:
    """Why an un-attained bound is still approachable by full-support measures.

    ``optimizer`` is the bound's hedge's dual measure; ``null_outcomes`` are
    where its mass is at most the tolerance (0 in exact mode), and
    ``mixture`` mixes it with the verdict's full-support measure to land
    ``achieved`` within ``eta`` of the bound.
    """

    optimizer: tuple[Num, ...]
    null_outcomes: tuple[int, ...]
    mixture: tuple[Num, ...]
    eta: Num
    achieved: Num


@dataclass(frozen=True)
class PriceInterval:
    """Price bounds of a claim: [lower, upper] with attainment flags.

    ``upper`` is the superreplication price of the claim and ``lower`` minus
    that of its negative. Zero width means the claim is replicable;
    ``replication`` then holds the upper hedge's exact (price, coefficients)
    pair. Otherwise each hedge consumes somewhere, so no full-support measure
    attains either bound, and the witnesses exhibit mixtures coming within
    ``eta`` of the bounds.
    """

    lower: Num
    upper: Num
    attained_lower: bool
    attained_upper: bool
    replication: tuple[Num, tuple[Num, ...]] | None
    lower_witness: BoundWitness | None
    upper_witness: BoundWitness | None

    @property
    def width(self) -> Num:
        return self.upper - self.lower


def superhedge_template(rows: Sequence[Mapping[int, Num]], k: int, mode: str) -> LinearProgram:
    """The superhedge LP of a market in ``mode`` over its claim-free rows,
    the :func:`platonic.market.class_rows` of ``k`` columns, which the
    verdict's LP shares, with every right-hand side 0:
    minimize the price column 0 such that each row is >= its right-hand
    side, with lambda >= 0 for long-only trading. It holds everything of the
    LP but the claim, so a market builds it once per mode and each claim
    only sets ``b`` (:func:`superhedge_lp`)."""
    lam_bounds = (0, None) if mode == "long_only" else (None, None)
    return LinearProgram.build(
        objective=[1] + [0] * k,
        sense="min",
        constraints=[(row, GE, 0) for row in rows],
        bounds=[(None, None)] + [lam_bounds] * k,
    )


def superhedge_lp(
    template: LinearProgram, claim: RandomVariable, classes: Sequence[Sequence[int]],
) -> tuple[LinearProgram, Num, list[tuple[int, ...]]]:
    """The superhedge primal of ``claim`` (:meth:`LinearProgram.with_rhs` of
    the :func:`superhedge_template` on ``classes``), its price offset ``m =
    max(claim)``, and per class the outcomes where the claim attains the
    class maximum.

    Minimize x such that x plus the wealth sum_j lambda_j cols[j] dominates
    the claim at every outcome. Every column pays the same on a class, so
    the class needs one row, the one of its largest claim value, which
    dominates the others. The LP is written in the translated price ``x' =
    x - m``: its rows are ``x' + sum_j lambda_j cols[j] >= claim - m``,
    whose right-hand sides are all <= 0, so every row starts on its slack
    at the cash hedge (hold m, do not trade; x' = 0, lambda = 0) and no
    phase 1 runs. The translation keeps the feasible set, the duals and the
    optimal set of the LP in x; a caller adds ``m`` back to the optimal
    value and to ``x'``. A class row's dual mass belongs to the outcomes
    that attain the class maximum, the only ones where an optimal hedge
    need not consume. This step reads the claim only: it sets the
    right-hand sides and shares the rest of the template, whose standard
    form in each arithmetic is then built once for every claim."""
    values = claim.values
    offset = max(values, default=0)
    tops = [max(values[w] for w in c) for c in classes]
    attaining = [tuple(w for w in c if values[w] == top) for c, top in zip(classes, tops)]
    return template.with_rhs([top - offset for top in tops]), offset, attaining


def superreplicate(
    model: MarketModel,
    claim: RandomVariable | Sequence[Num],
    mode: str = "free",
    tol: Num | None = None,
) -> tuple[HedgeCertificate, MeasureCertificate]:
    """Cheapest dominating hedge and the dual measure certifying its price.

    Primal: minimize x such that x plus some reachable wealth dominates the
    claim everywhere; it is the only LP solved (the arbitrage refusal reuses
    the cached verdict). The dual measure is read off the primal's duals: the
    free price column forces them to sum to 1 and the generator columns make
    every generator's expectation 0 (at most 0 long-only), so they are an
    optimizer of the claim's expectation over the measure polytope. The
    measure is checked against the generators, and the duality gap and
    complementary slackness with the hedge are checked, exactly in exact mode.

    Answers are cached per model, claim, arithmetic of the question, mode
    and tolerance, so the upper hedge of a price interval that follows a
    free superhedge of the same claim is not solved again. A cached answer
    is one that passed every check above; a refusal is not cached.
    """
    claim = as_random_variable(claim)
    return _superhedge(model, claim, claim_arithmetic(model, claim), mode, tol)


@lru_cache(maxsize=CACHE_SIZE)
def _superhedge_rows(model: MarketModel, _arithmetic: str) -> tuple[dict[int, Num], ...]:
    return tuple(class_rows(generator_matrix(model)[1], outcome_classes(model), model.n_outcomes))


@lru_cache(maxsize=CACHE_SIZE)
def _superhedge_template(model: MarketModel, arithmetic: str, mode: str) -> LinearProgram:
    rows = _superhedge_rows(model, arithmetic)
    return superhedge_template(rows, len(generator_matrix(model)[1]), mode)


@lru_cache(maxsize=CACHE_SIZE)
def _superhedge(
    model: MarketModel, claim: RandomVariable, arithmetic: str, mode: str, tol: Num | None
) -> tuple[HedgeCertificate, MeasureCertificate]:
    kind = "martingale" if mode == "free" else "supermartingale"
    _measure_or_refuse(model, mode, tol)
    lp_mode, eff_tol = lp_mode_and_tol(arithmetic, tol)
    _gens, cols = generator_matrix(model, mode)
    n = model.n_outcomes
    classes = outcome_classes(model)
    template = _superhedge_template(model, model.arithmetic, mode)
    lp, offset, attaining = superhedge_lp(template, claim, classes)
    exact = lp_mode == "exact"
    psol = solve(lp, lp_mode, solver_tol(eff_tol))
    if psol.status != OPTIMAL:  # dual feasibility makes it bounded
        raise unverified(f"superreplication primal ended with status {psol.status}", exact)
    price = offset + psol.objective
    lambdas = tuple(psol.x[1:])
    # price plus wealth, one sum per class: the LP's class rows at (price,
    # lambdas), column 0 taking the price; constant on a class, the claim need not be
    value = per_outcome(_linalg.dots([con.coeffs for con in lp.constraints], (price, *lambdas), exact),
                        classes, n)
    consumption = RandomVariable(tuple(hv - cv for hv, cv in zip(value, claim)))

    # The solver certifies the gap but not dual feasibility: check the measure.
    masses = [d if len(a) == 1 else d / len(a) for d, a in zip(psol.duals, attaining)]
    q = per_outcome(masses, attaining, n, Fraction(0) if exact else 0.0)
    dual_cert = checked_measure(q, cols, kind, eff_tol, exact)
    if dual_cert is None:
        raise unverified(f"the hedge's dual multipliers are not a {kind} measure", exact)
    q = dual_cert.q_values
    gap = price - _linalg.dots([dict(enumerate(claim.values))], q, exact)[0]
    if abs(gap) > eff_tol * (1 + abs(price)):
        raise unverified(f"duality gap {gap} between hedge price and dual value", exact)
    bound = eff_tol * (1 + max(offset, -min(claim.values, default=-1)))  # 1 + max |claim|
    for qe, ce in zip(q, consumption):
        if qe > eff_tol and (ce > bound or ce < -bound):
            raise unverified("complementary slackness fails between hedge and dual", exact)
    hedge = HedgeCertificate(
        price=price,
        lambdas=lambdas,
        consumption=consumption,
        claim=claim,
    )
    return hedge, dual_cert


def _mixing_witness(q_star, base_cert, claim, bound, eta, eff_tol, exact) -> BoundWitness:
    """Full-support mixture of the optimizer with a full-support feasible
    measure, landing within eta of the bound; ``eta`` and ``exact`` are the
    hedges' arithmetic."""
    claim_row = [dict(enumerate(claim.values))]
    base = base_cert.q_values
    base_value = _linalg.dots(claim_row, base, exact)[0]
    gap = abs(bound - base_value)
    alpha = 1 if gap == 0 else min(1, eta / gap)
    # each outcome's pair (q*, base) against the weights (1 - alpha, alpha)
    pairs = [{0: qs, 1: qb} for qs, qb in zip(q_star, base)]
    mix = tuple(_linalg.dots(pairs, [1 - alpha, alpha], exact))
    achieved = _linalg.dots(claim_row, mix, exact)[0]
    nulls = tuple(i for i, q in enumerate(q_star) if q <= eff_tol)
    return BoundWitness(tuple(q_star), nulls, mix, eta, achieved)


def price_interval(
    model: MarketModel,
    claim: RandomVariable | Sequence[Num],
    eta: Num = Fraction(1, 10**6),
    tol: Num | None = None,
) -> PriceInterval:
    """Price bounds of a claim as two superhedges, with attainability resolved.

    The upper bound is the superreplication price of the claim and the lower
    bound minus that of its negative; each bound's optimizer is its hedge's
    checked dual measure. When the upper hedge consumes nowhere (within the
    tolerance), it replicates the claim, and every martingale measure prices
    a replication at its cost: the interval has zero width, read off that
    hedge alone, and the negative's hedge is not solved. Otherwise a bound
    is attained by a full-support measure only if its hedge consumes
    nowhere, since by complementary slackness every optimizer puts no mass
    where the hedge consumes; an un-attained bound is approached within
    ``eta`` by mixing.
    """
    claim = as_random_variable(claim)
    lp_mode, eff_tol = lp_mode_and_tol(claim_arithmetic(model, claim), tol)
    base_cert = _measure_or_refuse(model, "free", tol)
    exact = lp_mode == "exact"
    eta = Fraction(eta) if exact else float(eta)  # the hedges' arithmetic
    up_hedge, up_dual = superreplicate(model, claim, "free", tol)
    upper = up_hedge.price
    if all(abs(v) <= eff_tol for v in up_hedge.consumption):
        # an exact replication: every martingale measure prices it at its cost
        return PriceInterval(upper, upper, True, True, (upper, up_hedge.lambdas), None, None)
    lo_hedge, lo_dual = superreplicate(model, -claim, "free", tol)
    lower = -lo_hedge.price
    att_lo = all(abs(v) <= eff_tol for v in lo_hedge.consumption)
    if abs(upper - lower) <= eff_tol * (1 + abs(upper)):
        # zero width forces replicability in exact arithmetic only
        raise unverified("zero-width interval without an exact replication", exact)

    up_witness = _mixing_witness(up_dual.q_values, base_cert, claim, upper, eta, eff_tol, exact)
    lo_witness = None if att_lo else _mixing_witness(
        lo_dual.q_values, base_cert, claim, lower, eta, eff_tol, exact)
    return PriceInterval(lower, upper, att_lo, False, None, lo_witness, up_witness)


@dataclass(frozen=True)
class PolarConeReport:
    """Vertex-level comparison of two descriptions of the same dual object."""

    match: bool
    polar_vertices: tuple[tuple[Num, ...], ...]
    dual_vertices: tuple[tuple[Num, ...], ...]
    polar_in_dual: bool
    dual_in_polar: bool
    cone_inequality_samples_ok: bool


def polar_cone_check(
    model: MarketModel,
    mode: str = "free",
    seed: int = 0,
    tol: Num | None = None,
) -> PolarConeReport:
    """The polar of the claim cone, normalized to total mass one, must be the
    measure polytope: both are enumerated as vertex sets and compared exactly.

    The polar is described through signed inequalities against the generator
    columns, the polytope through the (super)martingale rows; 20 random
    elements of the claim cone are also paired against every polar vertex.
    """
    _require_valid(model, tol)
    n = model.n_outcomes
    if n > 6:
        raise DimensionGuardError("polar cone check supports at most 6 outcomes")
    kind = "martingale" if mode == "free" else "supermartingale"
    _measure_or_refuse(model, mode, tol)
    _gens, cols = generator_matrix(model, mode)

    polar_rows: list[tuple[Mapping[int, Num], str, Num]] = [(dict.fromkeys(range(n), 1), EQ, 1)]
    for col in cols:
        polar_rows.append((col, LE, 0))
        if mode == "free":
            polar_rows.append(({w: -v for w, v in col.items()}, LE, 0))
    polar_lp = LinearProgram.build([0] * n, "max", polar_rows, [(0, None)] * n)
    dual_lp = LinearProgram.build(
        [0] * n, "max", martingale_polytope_constraints(cols, n, kind), [(0, None)] * n
    )
    polar_vertices = tuple(enumerate_vertices(polar_lp))
    dual_vertices = tuple(enumerate_vertices(dual_lp))

    def satisfies(point, lp: LinearProgram) -> bool:
        for con in lp.constraints:
            lhs = sum(Fraction(c) * point[j] for j, c in con.coeffs.items())
            rhs = Fraction(con.rhs)
            if con.relation == EQ and lhs != rhs:
                return False
            if con.relation == LE and lhs > rhs:
                return False
            if con.relation == GE and lhs < rhs:
                return False
        return all(v >= 0 for v in point)

    polar_in_dual = all(satisfies(v, dual_lp) for v in polar_vertices)
    dual_in_polar = all(satisfies(v, polar_lp) for v in dual_vertices)

    rng = random.Random(seed)
    samples_ok = True
    k = len(cols)
    rows = outcome_rows(cols, n, 0)
    for _ in range(20):
        lam = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)]
        if mode == "long_only":
            lam = [abs(v) for v in lam]
        h = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)]
        # the wealth of lam, summed exactly also on float generators
        element = [e - hw for e, hw in zip(_linalg.dots(rows, lam, True), h)]
        for vertex in polar_vertices:
            if sum(z * e for z, e in zip(vertex, element)) > 0:
                samples_ok = False
    return PolarConeReport(
        match=set(polar_vertices) == set(dual_vertices),
        polar_vertices=polar_vertices,
        dual_vertices=dual_vertices,
        polar_in_dual=polar_in_dual,
        dual_in_polar=dual_in_polar,
        cone_inequality_samples_ok=samples_ok,
    )


@dataclass(frozen=True)
class AttainabilityReport:
    """Three equivalent membership tests for replicability at the candidate price."""

    candidate_price: Num
    zero_width: bool
    in_cone_both_ways: bool
    zero_at_all_vertices: bool
    in_generator_span: bool

    @property
    def consistent(self) -> bool:
        return (
            self.zero_width
            == self.in_cone_both_ways
            == self.zero_at_all_vertices
            == self.in_generator_span
        )


def _cone_feasible(cols, n, target, lp_mode, eff_tol) -> bool:
    """Is there a generator combination dominating ``target`` outcome-wise?"""
    k = len(cols)
    lp = LinearProgram.build(
        objective=[0] * k,
        sense="min",
        constraints=[(row, GE, t) for row, t in zip(outcome_rows(cols, n, 0), target)],
        bounds=[(None, None)] * k,
    )
    return solve(lp, lp_mode, solver_tol(eff_tol)).status != INFEASIBLE


def attainability_set_check(
    model: MarketModel,
    claim: RandomVariable | Sequence[Num],
    tol: Num | None = None,
) -> AttainabilityReport:
    """Check the replicability characterizations against each other.

    With x the upper dual bound: the claim minus x lies in the claim cone in
    both directions iff its expectation vanishes at every vertex of the
    measure polytope iff it lies in the span of the generators, and all three
    hold exactly when the price interval degenerates.
    """
    claim = as_random_variable(claim)
    interval = price_interval(model, claim, tol=tol)
    lp_mode, eff_tol = lp_mode_and_tol(claim_arithmetic(model, claim), tol)
    _gens, cols = generator_matrix(model, "free")
    n = model.n_outcomes
    x = interval.upper
    shifted = [v - x for v in claim.values]

    in_cone = _cone_feasible(cols, n, shifted, lp_mode, eff_tol) and _cone_feasible(
        cols, n, [-v for v in shifted], lp_mode, eff_tol
    )
    dual_lp = LinearProgram.build(
        [0] * n, "max", martingale_polytope_constraints(cols, n, "martingale"), [(0, None)] * n
    )
    vertices = enumerate_vertices(dual_lp)
    at_vertices = all(
        abs(sum(q * v for q, v in zip(vertex, shifted))) <= eff_tol for vertex in vertices
    )
    dense = [[col.get(w, 0) for w in range(n)] for col in cols]
    span = _linalg.column_span_solve(dense, shifted, eff_tol) is not None
    return AttainabilityReport(
        candidate_price=x,
        zero_width=abs(interval.width) <= eff_tol * (1 + abs(x)),
        in_cone_both_ways=in_cone,
        zero_at_all_vertices=at_vertices,
        in_generator_span=span,
    )
