"""Both sides of the fundamental theorem on a finite space, read off one LP.

The arbitrage LP maximizes the mass of a nonnegative terminal gain that a
zero-cost wealth reaches exactly. Its rows are the equations ``x + G_c
lambda - g_c = 0`` with the price ``x`` fixed at 0, one per class c of
outcomes on which every generator pays the same
(``market.outcome_classes``): no strategy tells the outcomes of a class
apart, so they share one gain, weighted by the class size in the
objective. They are the market's superhedge rows ``x + G_c lambda``
(``market.class_rows``) with the gain where a superhedge row has its
slack, so both questions on a market solve LPs on one constraint matrix,
and in float mode each starts from the optimum of the one before
(``lpsolve``'s warm start). Each row starts the simplex on its own gain at
0, with no slack and no phase 1. A positive optimum is an arbitrage. At a
zero optimum the class rows' multipliers, negated, are a y with G^T y = 0
(<= 0 for long-only trading) and, by the reduced costs of the gains, y_c
>= |c| on each class c. So spreading each y_c evenly over its class and
dividing by sum(y) gives a full-support measure that turns every
admissible projection of prices into a (super)martingale: the separating
measure is the dual of the no-arbitrage LP. The verdict checks that
measure against the generators on every outcome; when the check fails it
raises, in exact arithmetic as a broken dichotomy and in float as a
refusal to answer. ``find_measure`` returns that measure, so one LP
answers every question about the dichotomy.

In exact arithmetic each side of the dichotomy is its own proof, so the
verdict proves its answer, not the LP's optimum. ``lpsolve.float_basis``
gives the float simplex's basis with x exactly and, from the same
elimination transposed, the duals. Where no gain is positive, the measure
from those duals, checked as above with full support, is the certificate.
Otherwise the gain is: x's price is 0, every gain lies in [0, 1] and one is
positive, long-only multipliers are >= 0, and every row ``x + G_c lambda -
g_c`` is 0 exactly, so the consumption is 0. Where that check fails, or the
float stage gives no basis, ``lpsolve.solve`` proves the LP's optimum and
the answer is read off it as in float mode.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from . import _linalg
from .errors import FtapInconsistencyError, InvalidModelError, ProjectionError, UnpricedMarketError, unverified
from .lpsolve import EQ, LE, OPTIMAL, LinearProgram, float_basis, solve
from .market import (
    CACHE_SIZE,
    MarketModel,
    Strategy,
    class_rows,
    generator_matrix,
    outcome_classes,
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


def checked_measure(
    q: Sequence[Num], cols: Sequence[Mapping[int, Num]], kind: str, tol: Num,
    exact: bool = True,
) -> MeasureCertificate | None:
    """``q`` as a certificate when it is a probability vector under which every
    generator column has expectation 0 (martingale) or at most 0
    (supermartingale), all within ``tol``; None when any of that fails.
    The total mass and the expectations are summed by ``_linalg.dots`` in
    the caller's arithmetic: exact unless ``exact`` is False."""
    total, *verification = _linalg.dots([dict.fromkeys(range(len(q)), 1), *cols], q, exact)
    gap = total - 1
    if any(v < -tol for v in q) or gap > tol or gap < -tol:
        return None
    verification = tuple(verification)
    if kind == "martingale":
        ok = all(-tol <= e <= tol for e in verification)
    else:
        ok = all(e <= tol for e in verification)
    return MeasureCertificate(tuple(q), kind, min(q), verification) if ok else None


@dataclass(frozen=True)
class ArbitrageCertificate:
    """A nonnegative, somewhere-positive terminal gain reachable from zero cost.

    ``terminal_gain + consumption`` equals the generator combination with
    coefficients ``lambdas`` outcome by outcome. The arbitrage LP makes the
    gain that combination itself, so ``consumption`` is 0 in exact mode; in
    float mode it holds the rounding residual of the LP's equations.
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
    """Maximize the mass of a nonnegative terminal gain equal to a zero-cost
    wealth; a positive optimum is an arbitrage and zero decides
    that none exists (the claim cone is closed here, nothing is lost).

    The gain is capped by 1 outcome-wise: the cone is scale-invariant, so the
    cap only makes the search bounded. An exact certificate is checked as
    an answer: its gain lies in [0, 1] and is positive somewhere, and the
    zero-cost wealth of ``lambdas`` equals it on every row exactly, so its
    consumption is 0. The LP's optimality is proved only where that check
    fails and ``lpsolve.solve`` solves the LP (see the module docstring).
    """
    return _arbitrage_lp(model, model.arithmetic, mode, tol)[0]


_Verdict = tuple[ArbitrageCertificate | None, MeasureCertificate | None]


@lru_cache(maxsize=CACHE_SIZE)
def _solved_verdicts(model: MarketModel, arithmetic: str, tol: Num | None) -> dict[str, _Verdict]:
    """The verdicts solved so far on a valid model, by mode: one cache entry
    per model, arithmetic and tolerance, filled by :func:`_arbitrage_lp`."""
    _require_valid(model, tol)
    return {}


def _arbitrage_lp(model: MarketModel, arithmetic: str, mode: str, tol: Num | None) -> _Verdict:
    """The verdict of ``mode``, solved on the first question and recorded
    in :func:`_solved_verdicts`; an exception records nothing."""
    solved = _solved_verdicts(model, arithmetic, tol)
    if mode not in solved:
        solved[mode] = _solve_arbitrage_lp(model, arithmetic, mode, tol)
    return solved[mode]


def _solve_arbitrage_lp(model: MarketModel, arithmetic: str, mode: str, tol: Num | None) -> _Verdict:
    """Solve the arbitrage LP once and read both sides of the dichotomy off
    it: the arbitrage at a positive optimum; at a zero optimum the dual
    measure, or None when it fails its check. In exact arithmetic the
    answer of the float basis comes first, and it stands when it passes its
    own check (see the module docstring); only otherwise does ``solve``
    prove the LP's optimum."""
    lp_mode, eff_tol = lp_mode_and_tol(arithmetic, tol)
    gens, cols = generator_matrix(model, mode)
    classes = outcome_classes(model)
    n, m, k = model.n_outcomes, len(classes), len(cols)
    lam_bounds = (0, None) if mode == "long_only" else (None, None)
    # the superhedge template's columns: the price x fixed at 0, the lambdas,
    # then the gains where the template's slacks sit in standard form
    objective = [0] * (1 + k) + [len(c) for c in classes]
    bounds = [(0, 0)] + [lam_bounds] * k + [(0, 1)] * m
    rows = [{**row, k + 1 + i: -1} for i, row in enumerate(class_rows(cols, classes, n))]
    lp = LinearProgram.build(objective, "max", [(row, EQ, 0) for row in rows], bounds)
    exact = lp_mode == "exact"
    kind = "martingale" if mode == "free" else "supermartingale"

    def measure(duals) -> MeasureCertificate | None:
        # The gain's reduced cost makes each class row's dual at most -|c|
        # in this max problem; the signs cancel in q = y_c / |c| / sum(y).
        total = _linalg.dots([dict.fromkeys(range(m), 1)], duals, exact)[0]
        if not total < 0:
            return None
        if exact:  # one Fraction per class
            masses = [Fraction(d.numerator * total.denominator, d.denominator * len(c) * total.numerator)
                      for d, c in zip(duals, classes)]
        else:
            masses = [d / len(c) / total for d, c in zip(duals, classes)]
        cert = checked_measure(per_outcome(masses, classes, n), cols, kind, eff_tol, exact)
        return cert if cert is not None and cert.full_support else None

    def arbitrage(x) -> ArbitrageCertificate:
        # row i of the LP is the wealth on class i minus its gain: 0 in exact mode
        consumption = _linalg.dots([con.coeffs for con in lp.constraints], x, exact)
        return ArbitrageCertificate(
            strategy=strategy_from_coefficients(model, gens, x[1:k + 1], mode),
            terminal_gain=RandomVariable(tuple(per_outcome(x[k + 1:], classes, n))),
            consumption=RandomVariable(tuple(per_outcome(consumption, classes, n))),
            lambdas=tuple(x[1:k + 1]),
        )

    basis = float_basis(lp) if exact else None
    if basis is not None and not any(basis.x[k + 1:]):  # no gain: the measure proves the verdict
        found = measure(basis.duals())
        if found is not None:
            return None, found
    elif basis is not None:  # a gain not all 0, proved by a zero-cost wealth equal to it in [0, 1]
        cert = arbitrage(basis.x)
        if (basis.x[0] == 0 and not any(cert.consumption) and all(0 <= g <= 1 for g in cert.terminal_gain)
                and (mode == "free" or all(v >= 0 for v in cert.lambdas))):
            return cert, None
    sol = solve(lp, lp_mode, solver_tol(eff_tol))
    if sol.status != OPTIMAL:  # always feasible and bounded
        raise unverified(f"arbitrage search ended with status {sol.status}", exact)
    if sol.objective <= eff_tol:
        return None, measure(sol.duals)
    return arbitrage(sol.x), None


def martingale_polytope_constraints(
    cols: Sequence[Mapping[int, Num]], n: int, kind: str
) -> list[tuple[Mapping[int, Num], str, Num]]:
    """Rows of the dual polytope over measure variables q[0..n-1]: the total
    mass, then one row per generator column."""
    relation = EQ if kind == "martingale" else LE
    return [(dict.fromkeys(range(n), 1), EQ, 1)] + [(col, relation, 0) for col in cols]


def find_measure(model: MarketModel, kind: str = "martingale", tol: Num | None = None) -> MeasureCertificate | None:
    """The verdict's full-support measure killing (martingale, expectations
    exactly zero) or dominating (supermartingale, <= 0) every generator;
    None when the market admits an arbitrage for free (martingale) or
    long-only (supermartingale) trading.

    It is the dual of the verdict's LP, not the measure of largest minimum
    mass, so its ``min_mass`` may lie below the largest one. A measure that
    fails its check raises as :func:`ftap_verdict` does.
    """
    if kind not in ("martingale", "supermartingale"):
        raise ValueError("kind must be 'martingale' or 'supermartingale'")
    return ftap_verdict(model, "free" if kind == "martingale" else "long_only", tol).measure


def _measure_or_refuse(model: MarketModel, mode: str, tol: Num | None) -> MeasureCertificate:
    """A full-support measure under which every generator of ``mode`` is a
    martingale (free) or supermartingale (long-only); refuses on arbitrage.

    It is the verdict's measure of ``mode``, except that a long-only
    question takes the free verdict's martingale measure once that verdict
    is solved: long-only trading reaches fewer claims, so a market without
    a free arbitrage has no long-only one, and a measure killing every
    generator also dominates it. So no question after a free verdict
    solves a second verdict LP, and none solves a free verdict it does not
    need.
    """
    if mode == "long_only":
        free = _solved_verdicts(model, model.arithmetic, tol).get("free")
        if free is not None and free[1] is not None:
            return free[1]
    cert = ftap_verdict(model, mode, tol).measure
    if cert is None:
        kind = "martingale" if mode == "free" else "supermartingale"
        raise UnpricedMarketError(f"the market admits arbitrage: no full-support {kind} measure exists")
    return cert


def ftap_verdict(model: MarketModel, mode: str = "free", tol: Num | None = None) -> FtapVerdict:
    """Arbitrage or full-support (super)martingale measure, from one LP.

    The arbitrage LP is solved once per model, arithmetic, mode and
    tolerance; the verdicts of both modes share one cache entry. Without an
    arbitrage, its dual multipliers give the measure, which is checked
    against every generator before it is returned.
    A failed check raises :class:`FtapInconsistencyError` in exact mode, where
    it means a bug; in float mode, where rounding may spoil the multipliers,
    it raises ``FloatModeError`` (``errors.unverified``): no certified
    answer, rerun exact.
    """
    arbitrage, measure = _arbitrage_lp(model, model.arithmetic, mode, tol)
    if arbitrage is not None:
        return FtapVerdict("ARBITRAGE", arbitrage, None)
    if measure is None:
        message = "no arbitrage found, yet no full-support measure passed its check"
        if lp_mode_and_tol(model.arithmetic, tol)[0] == "exact":
            raise FtapInconsistencyError(message, None, None)
        raise unverified(message, False)
    return FtapVerdict("NO_ARBITRAGE", None, measure)


def find_separating_density(model: MarketModel, tol: Num | None = None) -> SeparatingDensity | None:
    """Strictly positive Z with E_P[Z g] = 0 for every generator, when one
    exists: the measure certificate re-expressed as a density against the
    reference probabilities."""
    cert = find_measure(model, "martingale", tol)
    if cert is None:
        return None
    probs = model.space.probs
    z = cert.density(probs)
    _gens, cols = generator_matrix(model, "free")
    exact = lp_mode_and_tol(model.arithmetic, tol)[0] == "exact"
    moments = tuple(_linalg.dots(cols, [p * zi for p, zi in zip(probs, z)], exact))
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
