"""Both sides of the fundamental theorem on a finite space, read off one LP.

The arbitrage LP maximizes the mass of a nonnegative terminal gain dominated
by a zero-cost wealth. Its rows are the classes of outcomes on which every
generator pays the same (``market.outcome_classes``): no strategy tells
the outcomes of a class apart, so they share one gain, weighted by the
class size in the objective. A positive optimum is an arbitrage. At a zero
optimum the multipliers y of the class rows satisfy G^T y = 0 (<= 0 for
long-only trading) and y_c >= |c| on each class c, so spreading each y_c
evenly over its class and dividing by sum(y) gives a full-support measure
that turns every admissible projection of prices into a
(super)martingale: the separating measure is the dual of the no-arbitrage
LP. The verdict checks that measure against the generators on every
outcome; when the check fails it raises, in exact arithmetic as a broken
dichotomy and in float as a refusal to answer. ``find_measure`` keeps the
independent search over the probability simplex, which maximizes the
minimum mass, with one mass q_c >= |c| eps per class.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import FloatModeError, FtapInconsistencyError, InvalidModelError, ProjectionError
from .lpsolve import EQ, GE, LE, INFEASIBLE, OPTIMAL, LinearProgram, solve
from .market import (
    CACHE_SIZE,
    MarketModel,
    Strategy,
    class_columns,
    combine,
    generator_matrix,
    outcome_classes,
    outcome_rows,
    per_outcome,
    strategy_from_coefficients,
    validate,
)
from .numeric import Num, lp_mode_and_tol, pick_tol, solver_tol
from .probspace import RandomVariable, conditional_expectation


@dataclass(frozen=True)
class MeasureCertificate:
    """A probability vector with its per-generator expectations attached."""

    q_values: tuple[Num, ...]
    kind: str  # "martingale" | "supermartingale"
    min_mass: Num
    verification: tuple[Num, ...]

    @property
    def full_support(self) -> bool:
        return self.min_mass > 0

    def density(self, reference: Sequence[Num]) -> RandomVariable:
        return RandomVariable(tuple(q / p for q, p in zip(self.q_values, reference)))


def _expectations(q: Sequence[Num], cols: Sequence[Mapping[int, Num]]) -> tuple[Num, ...]:
    """E_q of every generator column, summed over its entries where q has mass."""
    zero = q[0] - q[0]  # 0 in q's arithmetic
    return tuple(sum((q[i] * c for i, c in col.items() if q[i]), zero) for col in cols)


def checked_measure(
    q: Sequence[Num], cols: Sequence[Mapping[int, Num]], kind: str, tol: Num
) -> MeasureCertificate | None:
    """``q`` as a certificate when it is a probability vector under which every
    generator column has expectation 0 (martingale) or at most 0
    (supermartingale), all within ``tol``; None when any of that fails."""
    if any(v < -tol for v in q) or abs(sum(q) - 1) > tol:
        return None
    verification = _expectations(q, cols)
    if kind == "martingale":
        ok = all(abs(e) <= tol for e in verification)
    else:
        ok = all(e <= tol for e in verification)
    return MeasureCertificate(tuple(q), kind, min(q), verification) if ok else None


@dataclass(frozen=True)
class ArbitrageCertificate:
    """A nonnegative, somewhere-positive terminal gain reachable from zero cost.

    ``terminal_gain + consumption`` equals the generator combination with
    coefficients ``lambdas`` outcome by outcome.
    """

    strategy: Strategy
    terminal_gain: RandomVariable
    consumption: RandomVariable
    lambdas: tuple[Num, ...]


@dataclass(frozen=True)
class FtapVerdict:
    kind: str  # "ARBITRAGE" | "NO_ARBITRAGE"
    arbitrage: ArbitrageCertificate | None
    measure: MeasureCertificate | None


@dataclass(frozen=True)
class SeparatingDensity:
    """Strictly positive density whose pairing with every reachable claim is <= 0."""

    z: RandomVariable
    generator_moments: tuple[Num, ...]
    measure: MeasureCertificate


def _require_valid(model: MarketModel, tol: Num | None) -> None:
    violations = validate(model, tol)
    if violations:
        raise InvalidModelError(violations)


def find_arbitrage(model: MarketModel, mode: str = "free", tol: Num | None = None) -> ArbitrageCertificate | None:
    """Maximize the mass of a nonnegative terminal gain dominated by a
    zero-cost wealth; a positive optimum is an arbitrage and zero decides
    that none exists (the claim cone is closed here, nothing is lost).

    The gain is capped by 1 outcome-wise: the cone is scale-invariant, so the
    cap only makes the search bounded.
    """
    return _arbitrage_lp(model, model.arithmetic, mode, tol)[0]


@lru_cache(maxsize=CACHE_SIZE)
def _arbitrage_lp(
    model: MarketModel, arithmetic: str, mode: str, tol: Num | None
) -> tuple[ArbitrageCertificate | None, MeasureCertificate | None]:
    """Solve the arbitrage LP once and read both sides of the dichotomy off
    it: the arbitrage at a positive optimum; at a zero optimum the dual
    measure, or None when it fails its check."""
    _require_valid(model, tol)
    lp_mode, eff_tol = lp_mode_and_tol(arithmetic, tol)
    gens, cols = generator_matrix(model, mode)
    classes = outcome_classes(model, mode)
    n, m, k = model.n_outcomes, len(classes), len(cols)
    lam_bounds = (0, None) if mode == "long_only" else (None, None)
    objective = [0] * k + [len(c) for c in classes]
    bounds = [lam_bounds] * k + [(0, 1)] * m
    class_cols = class_columns(cols, classes, n)
    rows = outcome_rows(class_cols, m, 0)
    for i, row in enumerate(rows):
        row[k + i] = -1
    lp = LinearProgram.build(objective, "max", [(row, GE, 0) for row in rows], bounds)
    sol = solve(lp, lp_mode, solver_tol(eff_tol))
    if sol.status != OPTIMAL:  # pragma: no cover - always feasible and bounded
        raise RuntimeError(f"arbitrage search ended with status {sol.status}")
    if sol.objective <= eff_tol:
        # The solver reports -y for the >= rows of this max problem.
        y = [-d for d in sol.duals]
        total = sum(y)
        if not total > 0:
            return None, None
        kind = "martingale" if mode == "free" else "supermartingale"
        q = per_outcome([v / len(c) / total for v, c in zip(y, classes)], classes, n)
        measure = checked_measure(q, cols, kind, eff_tol)
        return None, (measure if measure is not None and measure.full_support else None)
    lam = sol.x[:k]
    gain = sol.x[k:]
    wealth = combine(lam, class_cols, m, gain[0] - gain[0])  # from 0 in the solution's arithmetic
    consumption = [wv - fv for wv, fv in zip(wealth, gain)]
    return ArbitrageCertificate(
        strategy=strategy_from_coefficients(model, gens, lam, mode),
        terminal_gain=RandomVariable(tuple(per_outcome(gain, classes, n))),
        consumption=RandomVariable(tuple(per_outcome(consumption, classes, n))),
        lambdas=tuple(lam),
    ), None


def martingale_polytope_constraints(
    cols: Sequence[Mapping[int, Num]], n: int, kind: str
) -> list[tuple[Mapping[int, Num], str, Num]]:
    """Rows of the dual polytope over measure variables q[0..n-1]: the total
    mass, then one row per generator column."""
    relation = EQ if kind == "martingale" else LE
    return [(dict.fromkeys(range(n), 1), EQ, 1)] + [(col, relation, 0) for col in cols]


def find_measure(model: MarketModel, kind: str = "martingale", tol: Num | None = None) -> MeasureCertificate | None:
    """Search for a full-support measure killing (martingale, expectations
    exactly zero) or dominating (supermartingale, <= 0) every generator.

    Strict positivity is decided by maximizing the minimum mass; the optimum
    is positive iff a full-support measure exists. In float mode a positive
    optimum below the tolerance cannot be told from zero and raises, asking
    for an exact rerun. The measure is checked against every generator, as
    the verdict's is; a failed check raises ``RuntimeError`` in exact mode
    and ``FloatModeError`` in float mode.
    """
    if kind not in ("martingale", "supermartingale"):
        raise ValueError("kind must be 'martingale' or 'supermartingale'")
    return _find_measure(model, model.arithmetic, kind, tol)


@lru_cache(maxsize=CACHE_SIZE)
def _find_measure(model: MarketModel, arithmetic: str, kind: str, tol: Num | None) -> MeasureCertificate | None:
    _require_valid(model, tol)
    lp_mode, eff_tol = lp_mode_and_tol(arithmetic, tol)
    mode = "free" if kind == "martingale" else "long_only"
    _gens, cols = generator_matrix(model, mode)
    classes = outcome_classes(model, mode)
    n, m = model.n_outcomes, len(classes)
    constraints = martingale_polytope_constraints(class_columns(cols, classes, n), m, kind)
    constraints += [({i: 1, m: -len(c)}, GE, 0) for i, c in enumerate(classes)]
    objective = [0] * m + [1]
    bounds = [(0, None)] * m + [(0, None)]
    lp = LinearProgram.build(objective, "max", constraints, bounds)
    sol = solve(lp, lp_mode, solver_tol(eff_tol))
    if sol.status == INFEASIBLE:
        return None
    if sol.status != OPTIMAL:  # pragma: no cover - epsilon is bounded by 1/n
        raise RuntimeError(f"measure search ended with status {sol.status}")
    eps = sol.objective
    if lp_mode == "exact":
        if eps == 0:
            return None
    else:
        # Numerically zero means no full-support measure; a genuinely positive
        # minimum mass below the tolerance cannot be certified either way.
        if abs(eps) <= eff_tol * 1e-3:
            return None
        if eps <= eff_tol:
            raise FloatModeError(
                f"minimum mass {eps} is below the tolerance; boundary case, rerun exact"
            )
    q = per_outcome([v / len(c) for v, c in zip(sol.x[:m], classes)], classes, n)
    cert = checked_measure(q, cols, kind, eff_tol)
    if cert is None:
        failure = RuntimeError if lp_mode == "exact" else FloatModeError
        raise failure(f"the measure search's optimizer is not a {kind} measure")
    return cert


def ftap_verdict(model: MarketModel, mode: str = "free", tol: Num | None = None) -> FtapVerdict:
    """Arbitrage or full-support (super)martingale measure, from one LP.

    The arbitrage LP is solved once (and cached per model, arithmetic, mode
    and tolerance). Without an arbitrage, its dual multipliers give the
    measure, which is checked against every generator before it is returned.
    A failed check raises :class:`FtapInconsistencyError` in exact mode, where
    it means a bug; in float mode, where rounding may spoil the multipliers,
    it raises ``FloatModeError``: no certified answer, rerun exact.
    """
    arbitrage, measure = _arbitrage_lp(model, model.arithmetic, mode, tol)
    if arbitrage is not None:
        return FtapVerdict("ARBITRAGE", arbitrage, None)
    if measure is None:
        message = "no arbitrage found, yet no full-support measure passed its check"
        if lp_mode_and_tol(model.arithmetic, tol)[0] == "float":
            raise FloatModeError(message + "; rerun exact")
        raise FtapInconsistencyError(message, None, None)
    return FtapVerdict("NO_ARBITRAGE", None, measure)


def find_separating_density(model: MarketModel, tol: Num | None = None) -> SeparatingDensity | None:
    """Strictly positive Z with E_P[Z g] = 0 for every generator, when one
    exists: the measure certificate re-expressed as a density against the
    reference probabilities."""
    cert = find_measure(model, "martingale", tol)
    if cert is None:
        return None
    z = cert.density(model.space.probs)
    _gens, cols = generator_matrix(model, "free")
    probs = model.space.probs
    moments = tuple(sum(probs[i] * z[i] * c for i, c in col.items()) for col in cols)
    return SeparatingDensity(z=z, generator_moments=moments, measure=cert)


def project_prices(
    model: MarketModel,
    cert: MeasureCertificate,
    asset_set: frozenset[str] | Sequence[str],
    tol: Num | None = None,
) -> dict[str, list[RandomVariable]]:
    """Best trading-filtration view of each price in the set under ``cert``:
    value at t is the conditional expectation of S_t given the blocks at t.

    Verifies the defining property before returning: conditioning the later
    projected values back to time t reproduces (martingale) or is dominated
    by (supermartingale) the value at t.
    """
    _require_valid(model, tol)
    eff_tol = pick_tol(model.arithmetic, tol)
    aset = frozenset(asset_set)
    if aset not in model.admissible_sets:
        raise ValueError(f"asset set {sorted(aset)} is not admissible")
    filt = model.filtration_for(aset)
    q = cert.q_values
    grid = model.times
    out: dict[str, list[RandomVariable]] = {}
    for asset in sorted(aset):
        path = model.price_path(asset)
        projected = [
            conditional_expectation(rv, filt.at(t), q, tol=eff_tol)
            for t, rv in zip(grid, path)
        ]
        for i, t in enumerate(grid):
            part = filt.at(t)
            for later in projected[i + 1:]:
                pulled = conditional_expectation(later, part, q, tol=eff_tol)
                for a, b in zip(pulled, projected[i]):
                    diff = a - b
                    ok = abs(diff) <= eff_tol if cert.kind == "martingale" else diff <= eff_tol
                    if not ok:
                        raise ProjectionError(
                            f"projection of {asset} is not a {cert.kind} at t={t}"
                        )
        out[asset] = projected
    return out
