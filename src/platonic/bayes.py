"""Scenario constructors around model uncertainty and partial observation:
product and mixture randomizations over a parameter set, observation
filtrations (gridded, quantized, delayed), semi-static option embedding,
additively noisy prices, and the near-free-lunch truncation family.

The product, mixture and noisy-price markets share one constructor on
outcomes that are pairs (path, extra coordinate). The extra coordinate is
the parameter in the product, absent in the mixture and the noise draws in
the noisy-price market; the product and the mixture prune pairs of zero mass.
"""
from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .ftap import _require_valid, ftap_verdict
from .hedging import superhedge_lp, superhedge_template
from .lpsolve import OPTIMAL, solve
from .market import (
    MarketModel, build_market, claim_arithmetic, class_rows, generator_matrix, group_outcomes, validate,
)
from .numeric import Num, lp_mode_and_tol, parse_number, solver_tol
from .probspace import (
    FiniteSpace,
    Filtration,
    Partition,
    RandomVariable,
    as_random_variable,
)

THETA_SEPARATOR = "|"


@dataclass(frozen=True)
class BayesSetup:
    """A path space, a finite parameter set with a prior, and one path-space
    probability vector per parameter value."""

    path_space: FiniteSpace
    path_filtration: Filtration
    thetas: tuple[str, ...]
    prior: tuple[Num, ...]
    models: tuple[tuple[Num, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thetas", tuple(self.thetas))
        object.__setattr__(self, "prior", tuple(self.prior))
        object.__setattr__(self, "models", tuple(tuple(m) for m in self.models))
        if self.path_filtration.n_outcomes != self.path_space.size:
            raise ValueError("path filtration lives on a different space")
        if len(set(self.thetas)) != len(self.thetas) or not self.thetas:
            raise ValueError("parameter labels must be unique and nonempty")
        if any(THETA_SEPARATOR in t for t in self.thetas) or any(
            THETA_SEPARATOR in o for o in self.path_space.outcomes
        ):
            raise ValueError(f"labels may not contain {THETA_SEPARATOR!r}")
        if len(self.prior) != len(self.thetas):
            raise ValueError("one prior weight per parameter required")
        if any(w <= 0 for w in self.prior) or sum(self.prior) != 1:
            raise ValueError("prior must be full-support and sum to 1")
        if len(self.models) != len(self.thetas):
            raise ValueError("one path measure per parameter required")
        for theta, row in zip(self.thetas, self.models):
            if len(row) != self.path_space.size:
                raise ValueError(f"measure for {theta} has the wrong length")
            if any(p < 0 for p in row) or sum(row) != 1:
                raise ValueError(f"measure for {theta} must be a probability vector")
            if all(p == 0 for p in row):
                raise ValueError(f"measure for {theta} is identically zero")


@dataclass(frozen=True)
class NoiseSpec:
    """Finite-valued noise, independent across times, ideally mean zero."""

    values: tuple[Num, ...]
    probs: tuple[Num, ...]
    times: tuple[Fraction, ...] | None = None  # None means every grid time

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "probs", tuple(self.probs))
        if self.times is not None:
            object.__setattr__(self, "times", tuple(parse_number(t) for t in self.times))
            if len(set(self.times)) != len(self.times):
                raise ValueError("noise times must be distinct")
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("noise needs matching nonempty values and probs")
        if any(p <= 0 for p in self.probs) or sum(self.probs) != 1:
            raise ValueError("noise probabilities must be positive and sum to 1")

    @property
    def mean(self) -> Num:
        return sum(v * p for v, p in zip(self.values, self.probs))


@dataclass(frozen=True)
class ObservationSpec:
    """What the trader sees: which grid times, how coarsely, and how late."""

    obs_times: tuple[Fraction, ...] | None = None  # None means every grid time
    quantizer: Num | Mapping[str, Num] | None = None
    delay: Num = 0

    def __post_init__(self) -> None:
        if self.obs_times is not None:
            object.__setattr__(self, "obs_times", tuple(parse_number(t) for t in self.obs_times))
        object.__setattr__(self, "delay", parse_number(self.delay))
        if self.delay < 0:
            raise ValueError("delay must be nonnegative")
        if isinstance(self.quantizer, Mapping):
            if any(parse_number(s) <= 0 for s in self.quantizer.values()):
                raise ValueError("quantizer steps must be positive")
        elif self.quantizer is not None and parse_number(self.quantizer) <= 0:
            raise ValueError("quantizer steps must be positive")

    def step_for(self, asset: str) -> Num | None:
        if self.quantizer is None:
            return None
        if isinstance(self.quantizer, Mapping):
            raw = self.quantizer.get(asset)
            return None if raw is None else parse_number(raw)
        return parse_number(self.quantizer)


@dataclass(frozen=True)
class OptionGridSpec:
    """One option: terminal payoff, the times it trades, and its quotes there."""

    name: str
    payoff: RandomVariable
    times: tuple[Fraction, ...]
    quotes: tuple[RandomVariable, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "payoff", as_random_variable(self.payoff))
        object.__setattr__(self, "times", tuple(parse_number(t) for t in self.times))
        object.__setattr__(self, "quotes", tuple(as_random_variable(q) for q in self.quotes))
        if not self.times or any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise ValueError("trading times must be nonempty and strictly increasing")
        if len(self.quotes) != len(self.times):
            raise ValueError("one quote per trading time required")


def _quantize(value: Num, step: Num | None) -> Num:
    if step is None:
        return value
    return (value // step) * step


def observation_filtration(
    grid: Sequence[Fraction],
    prices: Mapping[str, Sequence[RandomVariable]],
    obs: ObservationSpec,
) -> Filtration:
    """Filtration generated by quantized price observations arriving with delay."""
    obs_times = tuple(obs.obs_times) if obs.obs_times is not None else tuple(grid)
    grid_set = set(grid)
    if any(t not in grid_set for t in obs_times):
        raise ValueError("observation times must lie on the grid")
    if not prices:
        raise ValueError("observation needs at least one price process")
    assets = sorted(prices)
    index_of = {t: k for k, t in enumerate(grid)}
    n = len(next(iter(prices.values()))[0])
    partitions = []
    for t in grid:
        visible = [s for s in obs_times if s <= t - obs.delay]
        keys = []
        for i in range(n):
            history = tuple(
                tuple(_quantize(prices[a][index_of[s]][i], obs.step_for(a)) for a in assets)
                for s in visible
            )
            keys.append(history)
        partitions.append(Partition.group_by(keys))
    return Filtration(tuple(grid), tuple(partitions))


def _lift_prices(
    prices: Mapping[str, Sequence[RandomVariable | Sequence[Num]]],
    grid_len: int,
    path_count: int,
    pairs: Sequence[tuple[int, object]],
) -> dict[str, list[RandomVariable]]:
    """Each price, one value per base outcome and grid time, read on the pairs."""
    lifted: dict[str, list[RandomVariable]] = {}
    for asset, path in prices.items():
        rvs = [as_random_variable(rv) for rv in path]
        if len(rvs) != grid_len:
            raise ValueError(f"asset {asset} needs one price per grid time")
        if any(len(rv) != path_count for rv in rvs):
            raise ValueError(f"asset {asset} has prices on the wrong path space")
        lifted[asset] = [RandomVariable(tuple(rv[d] for d, _x in pairs)) for rv in rvs]
    return lifted


def _market_on_pairs(
    labels: Sequence[str],
    masses: Sequence[Num],
    path_filtration: Filtration,
    pairs: Sequence[tuple[int, object]],
    revealed: Callable[[object, Fraction], object],
    prices: Mapping[str, Sequence[RandomVariable]],
    observed: Mapping[str, Sequence[RandomVariable]],
    obs: ObservationSpec,
) -> MarketModel:
    """Market on outcomes that are pairs (path index, extra coordinate).

    At time t the big filtration knows the path's block and
    ``revealed(extra, t)``; the trading filtration sees only the
    ``observed`` prices through ``obs``.
    """
    grid = path_filtration.times
    big = Filtration(grid, tuple(
        Partition.group_by([(part.block_index[d], revealed(x, t)) for d, x in pairs])
        for t, part in zip(grid, path_filtration.partitions)
    ))
    small = observation_filtration(grid, observed, obs)
    model = build_market(FiniteSpace(tuple(labels), tuple(masses)), big, prices,
                         trading_filtrations=small)
    _require_valid(model, None)
    return model


def build_product_market(
    setup: BayesSetup,
    prices: Mapping[str, Sequence[RandomVariable | Sequence[Num]]],
    obs: ObservationSpec = ObservationSpec(),
) -> MarketModel:
    """Market on path-parameter pairs: mass is path measure times prior,
    zero-mass pairs are pruned, the big filtration knows the path history and
    the parameter, the trading filtration only sees observed prices.
    """
    pairs = [
        (di, ti)
        for ti in range(len(setup.thetas))
        for di in range(setup.path_space.size)
        if setup.models[ti][di] * setup.prior[ti] != 0
    ]
    labels = [f"{setup.path_space.outcomes[d]}{THETA_SEPARATOR}{setup.thetas[t]}" for d, t in pairs]
    masses = [setup.models[t][d] * setup.prior[t] for d, t in pairs]
    lifted = _lift_prices(prices, len(setup.path_filtration.times), setup.path_space.size, pairs)
    return _market_on_pairs(labels, masses, setup.path_filtration, pairs,
                            lambda theta, _t: theta, lifted, lifted, obs)


def build_mixture_market(
    setup: BayesSetup,
    prices: Mapping[str, Sequence[RandomVariable | Sequence[Num]]],
    obs: ObservationSpec = ObservationSpec(),
) -> MarketModel:
    """Market on the path space alone under the prior mixture of the path
    measures. Paths of zero mixture mass are pruned, and the big filtration is
    the path filtration on the paths kept. Parameter-dependent payoffs cannot
    live here; they need the product construction."""
    mix = [
        sum(setup.models[t][d] * setup.prior[t] for t in range(len(setup.thetas)))
        for d in range(setup.path_space.size)
    ]
    pairs = [(d, None) for d, m in enumerate(mix) if m != 0]
    labels = [setup.path_space.outcomes[d] for d, _x in pairs]
    masses = [mix[d] for d, _x in pairs]
    lifted = _lift_prices(prices, len(setup.path_filtration.times), setup.path_space.size, pairs)
    return _market_on_pairs(labels, masses, setup.path_filtration, pairs,
                            lambda _x, _t: None, lifted, lifted, obs)


def split_product_label(label: str) -> tuple[str, str]:
    path, sep, theta = label.rpartition(THETA_SEPARATOR)
    if not sep:
        raise ValueError(f"outcome {label!r} carries no parameter coordinate")
    return path, theta


def posterior(
    setup: BayesSetup, market: MarketModel, t: Num
) -> list[tuple[frozenset[int], tuple[Num, ...]]]:
    """Updated parameter weights per trading-filtration block at time t.

    Works on product markets only; each block maps to the renormalized mass
    of each parameter value inside it. Where nothing has been observed the
    update is the prior itself.
    """
    try:
        theta_of = [split_product_label(o)[1] for o in market.space.outcomes]
    except ValueError as exc:
        raise ValueError("posterior needs a product market, not a mixture") from exc
    theta_index = {theta: k for k, theta in enumerate(setup.thetas)}
    filt = market.trading_filtrations[0]
    part = filt.at(t)
    out = []
    for block in part.blocks:
        per_theta = [0] * len(setup.thetas)
        for i in block:
            per_theta[theta_index[theta_of[i]]] += market.space.probs[i]
        total = sum(per_theta)
        out.append((block, tuple(w / total for w in per_theta)))
    return out


def posterior_process(setup: BayesSetup, market: MarketModel, theta: str) -> list[RandomVariable]:
    """The posterior weight of one parameter value as a process on the market."""
    k = setup.thetas.index(theta)
    n = market.space.size
    out = []
    for t in market.times:
        values: list[Num] = [0] * n
        for block, dist in posterior(setup, market, t):
            for i in block:
                values[i] = dist[k]
        out.append(RandomVariable(tuple(values)))
    return out


def extended_quote_process(
    model: MarketModel, spec: OptionGridSpec, tol: Num = 0
) -> list[RandomVariable]:
    """Quotes extended to the whole grid by looking forward to the next
    trading time; past the last one the option settles at its payoff.

    If the terminal grid time is itself a trading time its quote must equal
    the payoff.
    """
    grid = model.times
    grid_set = set(grid)
    if any(t not in grid_set for t in spec.times):
        raise ValueError(f"option {spec.name}: trading times must lie on the grid")
    if any(len(q) != model.n_outcomes for q in spec.quotes) or len(spec.payoff) != model.n_outcomes:
        raise ValueError(f"option {spec.name}: payoff and quotes live on the wrong space")
    terminal = grid[-1]
    if spec.times[-1] == terminal:
        mism = max(abs(a - b) for a, b in zip(spec.quotes[-1], spec.payoff))
        if mism > tol:
            raise ValueError(f"option {spec.name}: terminal quote differs from payoff")
    quote_at = dict(zip(spec.times, spec.quotes))
    out = []
    for t in grid:
        nxt = next((s for s in spec.times if s >= t), None)
        out.append(quote_at[nxt] if nxt is not None else spec.payoff)
    return out


def embed_semistatic(model: MarketModel, specs: Sequence[OptionGridSpec], tol: Num = 0) -> MarketModel:
    """Add each option as an ordinary asset carrying its forward-looking quote
    process; dynamic trading in that asset then earns exactly the semi-static
    trades, because the quote only moves across intervals containing one of
    the option's trading times.

    The big filtration is enlarged to the constant terminal one whenever a
    forward-looking quote is not adapted to it; trading filtrations and
    admissible structure are preserved (each old set also appears together
    with all the options).
    """
    if not specs:
        return model
    names = [s.name for s in specs]
    if len(set(names)) != len(names) or any(n in model.assets for n in names):
        raise ValueError("option names must be fresh and distinct")
    extended = {s.name: extended_quote_process(model, s, tol) for s in specs}

    big = model.big_filtration
    needs_terminal = False
    for path in extended.values():
        for t, rv in zip(model.times, path):
            if not rv.is_constant_on(big.at(t), tol):
                needs_terminal = True
    if needs_terminal:
        n = model.n_outcomes
        big = Filtration(model.times, tuple(Partition.singletons(n) for _ in model.times))

    assets = model.assets + tuple(names)
    prices = model.prices + tuple(tuple(extended[n]) for n in names)
    option_set = frozenset(names)
    sets = list(model.admissible_sets)
    filts = list(model.trading_filtrations)
    for aset, filt in zip(model.admissible_sets, model.trading_filtrations):
        enlarged = aset | option_set
        if enlarged not in sets:
            sets.append(enlarged)
            filts.append(filt)
    out = MarketModel(model.space, big, assets, prices, tuple(sets), tuple(filts))
    violations = validate(out)
    if violations:
        raise ValueError("embedding broke the model: " + "; ".join(violations))
    return out


def semistatic_direct_price(
    model: MarketModel,
    specs: Sequence[OptionGridSpec],
    claim: RandomVariable | Sequence[Num],
    mode: str = "free",
    tol: Num | None = None,
) -> Num:
    """Superreplication price with explicit per-trading-time option positions.

    Independent formulation used to cross-check the embedded one: option j
    contributes one position variable per trading time and block, paying the
    quote difference to the next trading time (or the payoff after the last).
    These columns join the model's generators in the shared superhedge
    primal, :func:`platonic.hedging.superhedge_template` of its
    :func:`~platonic.market.class_rows` then
    :func:`~platonic.hedging.superhedge_lp`, on the classes of outcomes
    that all of them pay alike: an option column can tell apart outcomes
    that the generators cannot.
    """
    claim = as_random_variable(claim)
    full = frozenset(model.assets)
    if full not in model.admissible_sets:
        raise ValueError("direct semi-static pricing needs the full asset set admissible")
    filt = model.filtration_for(full)
    _gens, cols = generator_matrix(model, mode)
    terminal = model.times[-1]
    for spec in specs:
        quotes = list(spec.quotes) + ([spec.payoff] if spec.times[-1] != terminal else [])
        times = list(spec.times) + ([terminal] if spec.times[-1] != terminal else [])
        for k in range(len(times) - 1):
            diff = quotes[k + 1] - quotes[k]
            for block in filt.at(times[k]).blocks:
                col = {i: v for i in sorted(block) if (v := diff[i]) != 0}
                if col:
                    cols.append(col)
    lp_mode, eff_tol = lp_mode_and_tol(claim_arithmetic(model, claim), tol)
    classes = group_outcomes(cols, model.n_outcomes)
    template = superhedge_template(class_rows(cols, classes, model.n_outcomes), len(cols), mode)
    lp, offset, _attaining = superhedge_lp(template, claim, classes)
    sol = solve(lp, lp_mode, solver_tol(eff_tol))
    if sol.status != OPTIMAL:
        raise UnboundedSemiStaticError(f"direct semi-static LP ended with status {sol.status}")
    return offset + sol.objective


class UnboundedSemiStaticError(RuntimeError):
    """The direct semi-static program has no finite value (quotes admit arbitrage)."""


def build_uncertain_price(
    space: FiniteSpace,
    base_filtration: Filtration,
    prices: Mapping[str, Sequence[RandomVariable | Sequence[Num]]],
    noise: NoiseSpec,
    observe: str = "base",
    obs: ObservationSpec = ObservationSpec(),
) -> MarketModel:
    """Traded prices are the base prices plus independent additive noise.

    Outcomes are base outcomes times one noise draw per noise time; the big
    filtration sees base history and noise history, the trading filtration
    sees either the clean base prices (``observe="base"``) or the noisy ones
    (``observe="noisy"``), possibly quantized and delayed via ``obs``.
    """
    if observe not in ("base", "noisy"):
        raise ValueError("observe must be 'base' or 'noisy'")
    if base_filtration.n_outcomes != space.size:
        raise ValueError("base filtration lives on a different space")
    if noise.mean != 0:
        warnings.warn(f"noise mean is {noise.mean}, not zero", stacklevel=2)
    grid = base_filtration.times
    noise_times = noise.times if noise.times is not None else grid
    grid_set = set(grid)
    if any(t not in grid_set for t in noise_times):
        raise ValueError("noise times must lie on the grid")
    draws = list(itertools.product(range(len(noise.values)), repeat=len(noise_times)))
    pairs = [(d, draw) for d in range(space.size) for draw in draws]  # (base outcome, draw)
    labels = [f"{space.outcomes[d]}~{','.join(str(noise.values[z]) for z in draw)}" for d, draw in pairs]
    masses = [math.prod((noise.probs[z] for z in draw), start=space.probs[d]) for d, draw in pairs]
    clean = _lift_prices(prices, len(grid), space.size, pairs)
    bumps = {
        t: RandomVariable(tuple(noise.values[draw[z]] for _d, draw in pairs))
        for z, t in enumerate(noise_times)
    }
    noisy = {
        asset: [rv + bumps[t] if t in bumps else rv for t, rv in zip(grid, path)]
        for asset, path in clean.items()
    }
    return _market_on_pairs(labels, masses, base_filtration, pairs,
                            lambda draw, t: tuple(z for z, s in zip(draw, noise_times) if s <= t),
                            noisy, clean if observe == "base" else noisy, obs)


@dataclass(frozen=True)
class FreeLunchDiagnostics:
    """Exact bookkeeping for one truncation of the near-free-lunch family."""

    n: int
    gap: Fraction                      # L1 distance from 1 to the capped combo
    combo: RandomVariable              # sum of all derivative payoffs
    capped_combo: RandomVariable       # the combo with gains capped at 1
    floor: Fraction                    # minimum of the combo (stays >= -1)
    hit_probability: Fraction          # mass where the combo reaches 1
    martingale_measure: tuple[Fraction, ...]  # explicit full-support measure


def free_lunch_truncation(n: int, expanded: bool = False) -> tuple[MarketModel, FreeLunchDiagnostics]:
    """One-period market with ``n`` derivatives priced at zero whose combined
    payoff reaches 1 except on a set of mass 2^-n while never falling below
    -1: the truncations stay arbitrage-free (an explicit full-support
    martingale measure is part of the diagnostics), yet the capped combo
    converges to the constant 1 in L1 as n grows.

    The default outcome space is the stopping-time chain (n + 1 outcomes);
    ``expanded=True`` builds the underlying coin space of size 2^n instead.
    """
    if n < 1 or n > 16:
        raise ValueError("n must lie in 1..16")
    if expanded and n > 12:
        raise ValueError("expanded spaces are limited to n <= 12")

    losses = [Fraction(1, 2 ** k) for k in range(1, n + 1)]
    cum = [Fraction(0)]
    for l in losses:
        cum.append(cum[-1] + l)
    wins = [1 + cum[k] for k in range(n)]  # payoff when the k-th round hits

    def payoff_at(k: int, tau: int | None) -> Fraction:
        # tau is the 1-based hitting round; None means no hit within n rounds
        if tau is not None and tau < k:
            return Fraction(0)
        if tau == k:
            return wins[k - 1]
        return -losses[k - 1]

    if expanded:
        outcomes = ["".join(bits) for bits in itertools.product("01", repeat=n)]
        probs = [Fraction(1, 2 ** n)] * len(outcomes)
        taus: list[int | None] = [
            (bits.index("1") + 1 if "1" in bits else None) for bits in outcomes
        ]
    else:
        outcomes = [f"hit{k}" for k in range(1, n + 1)] + ["never"]
        probs = [Fraction(1, 2 ** k) for k in range(1, n + 1)] + [Fraction(1, 2 ** n)]
        taus = list(range(1, n + 1)) + [None]

    space = FiniteSpace(tuple(outcomes), tuple(probs))
    m = len(outcomes)
    grid = (Fraction(0), Fraction(1))
    big = Filtration(grid, (Partition.trivial(m), Partition.singletons(m)))
    small = Filtration.trivial(m, grid)
    prices = {
        f"d{k}": [
            RandomVariable.constant(m, 0),
            RandomVariable(tuple(payoff_at(k, tau) for tau in taus)),
        ]
        for k in range(1, n + 1)
    }
    model = build_market(space, big, prices, trading_filtrations=small)

    combo = [sum(payoff_at(k, tau) for k in range(1, n + 1)) for tau in taus]
    capped = [min(v, Fraction(1)) for v in combo]
    gap = sum(p * abs(1 - v) for p, v in zip(probs, capped))
    hit = sum(p for p, tau in zip(probs, taus) if tau is not None)

    hazards = [losses[k] / (wins[k] + losses[k]) for k in range(n)]
    q_tau: list[Fraction] = []
    survive = Fraction(1)
    for h in hazards:
        q_tau.append(survive * h)
        survive *= 1 - h
    q_never = survive
    if expanded:
        # Spread each hitting mass uniformly over the coin flips after the hit.
        q = []
        for tau, bits in zip(taus, outcomes):
            if tau is None:
                q.append(q_never)
            else:
                q.append(q_tau[tau - 1] / Fraction(2 ** (n - tau)))
        measure = tuple(q)
    else:
        measure = tuple(q_tau + [q_never])

    diag = FreeLunchDiagnostics(
        n=n,
        gap=gap,
        combo=RandomVariable(tuple(combo)),
        capped_combo=RandomVariable(tuple(capped)),
        floor=min(combo),
        hit_probability=hit,
        martingale_measure=measure,
    )
    return model, diag


def free_lunch_sweep(max_n: int, expanded: bool = False) -> list[dict]:
    """Verdicts and exact gaps for every truncation up to ``max_n``.

    ``min_mass`` is the smallest mass of the verdict's measure certificate,
    not the largest minimum mass over all martingale measures.
    """
    rows = []
    for n in range(1, max_n + 1):
        model, diag = free_lunch_truncation(n, expanded)
        verdict = ftap_verdict(model)
        rows.append(
            {
                "n": n,
                "verdict": verdict.kind,
                "gap": diag.gap,
                "floor": diag.floor,
                "hit_probability": diag.hit_probability,
                "min_mass": verdict.measure.min_mass if verdict.measure else None,
            }
        )
    return rows
