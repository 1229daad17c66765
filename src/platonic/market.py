"""Market models where prices are adapted to a large filtration while trading
uses smaller ones: assets on a common time grid, the admissible family of
tradable asset sets with its filtration assignment, simple strategies, wealth
processes and the elementary one-interval bets that span all terminal wealths.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Hashable, Mapping, Sequence

from .numeric import Num, all_exact, pick_tol
from .probspace import (
    FiniteSpace,
    Filtration,
    Partition,
    RandomVariable,
    as_random_variable,
    is_sub_filtration,
)


# Bound of every model-keyed cache: a long-lived process keeps at most this
# many recent models per cache.
CACHE_SIZE = 256


class NonMeasurableHoldings(ValueError):
    """Strategy holdings are not constant on the trading-filtration blocks."""


@dataclass(frozen=True)
class MarketModel:
    """Assets with prices on the common grid of ``big_filtration.times``.

    ``prices[k]`` belongs to ``assets[k]``; ``trading_filtrations[k]`` belongs
    to ``admissible_sets[k]``. Instances are immutable and hashable, which the
    model-keyed caches rely on; the hash is computed once per instance, not
    at every cache lookup.
    """

    space: FiniteSpace
    big_filtration: Filtration
    assets: tuple[str, ...]
    prices: tuple[tuple[RandomVariable, ...], ...]
    admissible_sets: tuple[frozenset[str], ...]
    trading_filtrations: tuple[Filtration, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assets", tuple(self.assets))
        object.__setattr__(self, "prices", tuple(tuple(p) for p in self.prices))
        object.__setattr__(self, "admissible_sets", tuple(frozenset(a) for a in self.admissible_sets))
        object.__setattr__(self, "trading_filtrations", tuple(self.trading_filtrations))
        n = self.space.size
        if self.big_filtration.n_outcomes != n:
            raise ValueError("big filtration lives on a different space")
        if len(set(self.assets)) != len(self.assets) or not self.assets:
            raise ValueError("asset ids must be unique and nonempty")
        if len(self.prices) != len(self.assets):
            raise ValueError("one price path per asset required")
        grid = self.times
        for asset, path in zip(self.assets, self.prices):
            if len(path) != len(grid):
                raise ValueError(f"asset {asset} needs one price per grid time")
            if any(len(rv) != n for rv in path):
                raise ValueError(f"asset {asset} has prices on the wrong space")
        if not self.admissible_sets:
            raise ValueError("at least one admissible asset set required")
        if len(set(self.admissible_sets)) != len(self.admissible_sets):
            raise ValueError("admissible sets must be distinct")
        known = set(self.assets)
        for aset in self.admissible_sets:
            if not aset or not aset <= known:
                raise ValueError(f"admissible set {sorted(aset)} is empty or has unknown assets")
        if len(self.trading_filtrations) != len(self.admissible_sets):
            raise ValueError("one trading filtration per admissible set required")
        if any(f.n_outcomes != n for f in self.trading_filtrations):
            raise ValueError("trading filtration lives on a different space")

    @cached_property
    def _hash(self) -> int:
        return hash((self.space, self.big_filtration, self.assets, self.prices,
                     self.admissible_sets, self.trading_filtrations))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # string hashes differ between processes: a copy rehashes
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def times(self) -> tuple[Fraction, ...]:
        return self.big_filtration.times

    @property
    def n_outcomes(self) -> int:
        return self.space.size

    def price_path(self, asset: str) -> tuple[RandomVariable, ...]:
        return self.prices[self.assets.index(asset)]

    def filtration_for(self, asset_set: frozenset[str]) -> Filtration:
        return self.trading_filtrations[self.admissible_sets.index(frozenset(asset_set))]

    @cached_property
    def arithmetic(self) -> str:
        """``"exact"`` when every probability and price is exact, else ``"float"``.

        Part of every model-keyed cache key: equality and hashing treat 1/2
        and 0.5 alike, so an exact and a float model can compare equal.
        Computed once per instance, like the hash.
        """
        exact = all_exact(self.space.probs) and all(
            all_exact(rv.values) for path in self.prices for rv in path)
        return "exact" if exact else "float"


def build_market(
    space: FiniteSpace,
    big_filtration: Filtration,
    prices: Mapping[str, Sequence[RandomVariable | Sequence[Num]]],
    *,
    admissible_sets: Sequence[Sequence[str]] | None = None,
    trading_filtrations: Filtration | Mapping[frozenset[str], Filtration] | None = None,
) -> MarketModel:
    """Convenience constructor.

    Defaults: one admissible set holding every asset; a single trading
    filtration applies to all admissible sets (the big filtration itself when
    none is given, which is the classical fully-observed market).
    """
    assets = tuple(prices.keys())
    paths = tuple(tuple(as_random_variable(rv) for rv in prices[a]) for a in assets)
    if admissible_sets is None:
        sets: tuple[frozenset[str], ...] = (frozenset(assets),)
    else:
        sets = tuple(frozenset(s) for s in admissible_sets)
    if trading_filtrations is None:
        filts = tuple(big_filtration for _ in sets)
    elif isinstance(trading_filtrations, Filtration):
        filts = tuple(trading_filtrations for _ in sets)
    else:
        filts = tuple(trading_filtrations[s] for s in sets)
    return MarketModel(space, big_filtration, assets, paths, sets, filts)


@dataclass(frozen=True)
class Leg:
    """Holdings set at ``start`` and kept until ``end``; one value per asset."""

    start: Fraction
    end: Fraction
    holdings: tuple[RandomVariable, ...]  # aligned with sorted(strategy.asset_set)


@dataclass(frozen=True)
class Strategy:
    asset_set: frozenset[str]
    legs: tuple[Leg, ...]
    sign_constraint: str = "free"

    def __post_init__(self) -> None:
        object.__setattr__(self, "asset_set", frozenset(self.asset_set))
        object.__setattr__(self, "legs", tuple(self.legs))
        if self.sign_constraint not in ("free", "long_only"):
            raise ValueError("sign_constraint must be 'free' or 'long_only'")


@dataclass(frozen=True)
class Generator:
    """The elementary bet ``1_B (S_u - S_t)`` over one grid interval.

    The payoff is recoverable from the fields; ``asset_set`` records which
    admissible set contributed the block, so strategies can be rebuilt from
    generator coefficients. ``one_sided`` marks long-only enumeration.
    """

    asset: str
    from_time: Fraction
    to_time: Fraction
    block: frozenset[int]
    payoff: RandomVariable
    asset_set: frozenset[str]
    one_sided: bool = False


def validate(model: MarketModel, tol: Num | None = None) -> list[str]:
    """Semantic invariant check; returns violations as data, never raises."""
    return list(_validate(model, model.arithmetic, tol))


@lru_cache(maxsize=CACHE_SIZE)
def _validate(model: MarketModel, arithmetic: str, tol: Num | None) -> tuple[str, ...]:
    tol = pick_tol(arithmetic, tol)
    violations: list[str] = []
    big = model.big_filtration  # the grid is its times
    for asset, path in zip(model.assets, model.prices):
        for t, rv, part in zip(big.times, path, big.partitions):
            if not rv.is_constant_on(part, tol):
                violations.append(f"adaptedness: asset {asset} at t={t}")
    family = set(model.admissible_sets)
    for i, a1 in enumerate(model.admissible_sets):
        for a2 in model.admissible_sets[i + 1:]:
            if a1 | a2 not in family:
                violations.append(
                    f"refining: union of {sorted(a1)} and {sorted(a2)} is not admissible"
                )
    for i, a1 in enumerate(model.admissible_sets):
        for j, a2 in enumerate(model.admissible_sets):
            if i != j and a1 < a2:
                if not is_sub_filtration(model.trading_filtrations[i], model.trading_filtrations[j]):
                    violations.append(f"monotonicity: {sorted(a1)} within {sorted(a2)}")
    for aset, filt in zip(model.admissible_sets, model.trading_filtrations):
        if not is_sub_filtration(filt, model.big_filtration):
            violations.append(f"containment: trading filtration for {sorted(aset)}")
    return tuple(violations)


def close_admissible_under_unions(model: MarketModel) -> MarketModel:
    """Union-closure of the admissible family; created unions get the join of
    the filtrations of every admissible subset they contain."""
    family = {s: f for s, f in zip(model.admissible_sets, model.trading_filtrations)}
    closed = set(family)
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            for b in list(closed):
                if a | b not in closed:
                    closed.add(a | b)
                    changed = True
    grid = model.times
    out_sets = list(model.admissible_sets)
    out_filts = list(model.trading_filtrations)
    for u in sorted(closed - set(family), key=lambda s: (len(s), sorted(s))):
        parts = []
        for t in grid:
            joined = Partition.trivial(model.n_outcomes)
            for s, f in family.items():
                if s <= u:
                    joined = joined.join(f.at(t))
            parts.append(joined)
        out_sets.append(u)
        out_filts.append(Filtration(grid, tuple(parts)))
    return MarketModel(
        model.space, model.big_filtration, model.assets, model.prices,
        tuple(out_sets), tuple(out_filts),
    )


def wealth_process(model: MarketModel, strat: Strategy, tol: Num | None = None) -> list[RandomVariable]:
    """Portfolio value at every grid time: holdings times stopped price moves.

    The value at grid time t is the sum over legs and assets of
    ``H * (S(end ^ t) - S(start ^ t))``; it is identically zero at time 0.
    """
    tol = pick_tol(model.arithmetic, tol)
    grid = model.times
    n = model.n_outcomes
    if frozenset(strat.asset_set) not in model.admissible_sets:
        raise ValueError(f"asset set {sorted(strat.asset_set)} is not admissible")
    filt = model.filtration_for(strat.asset_set)
    ordered = sorted(strat.asset_set)
    index_of = {t: k for k, t in enumerate(grid)}
    out = [RandomVariable.constant(n, 0) for _ in grid]
    for leg in strat.legs:
        if leg.start not in index_of or leg.end not in index_of:
            raise ValueError("leg endpoints must be grid times")
        k0, k1 = index_of[leg.start], index_of[leg.end]
        if k0 >= k1:
            raise ValueError("leg must cover a nonempty interval")
        part = filt.at(leg.start)
        if len(leg.holdings) != len(ordered):
            raise ValueError("one holding per asset in the set required")
        for asset, holding in zip(ordered, leg.holdings):
            if not holding.is_constant_on(part, tol):
                raise NonMeasurableHoldings(f"holdings in {asset} at t={leg.start}")
            if strat.sign_constraint == "long_only" and any(v < -tol for v in holding):
                raise ValueError("long-only strategy with a negative holding")
            path = model.price_path(asset)
            for k in range(1, len(grid)):
                lo, hi = min(k0, k), min(k1, k)
                if lo < hi:
                    out[k] = out[k] + holding * (path[hi] - path[lo])
    return out


def _value_key(v: Num) -> Hashable:
    """``v`` as a set or dict key that hashes in C, since a Fraction's own
    hash runs Python code: an int or float stands for itself, a Fraction
    for its numerator when it is an integer and else for the pair
    (numerator, denominator). Equal exact values get equal keys."""
    if type(v) is not Fraction:
        return v
    return v.numerator if v.denominator == 1 else (v.numerator, v.denominator)


@lru_cache(maxsize=CACHE_SIZE)
def _generators(
    model: MarketModel, _arithmetic: str
) -> tuple[tuple[Generator, ...], tuple[dict[int, Num], ...]]:
    """The untagged generators and their payoff columns, once per model and
    arithmetic for both modes: long-only payoffs are the free ones."""
    grid = model.times
    n = model.n_outcomes
    # each price move once per (asset, step), whatever the sets holding the asset
    moves = {asset: [(path[k + 1] - path[k]).values for k in range(len(grid) - 1)]
             for asset, path in zip(model.assets, model.prices)}
    seen: set[tuple[tuple[int, ...], tuple[Hashable, ...]]] = set()
    gens: list[Generator] = []
    cols: list[dict[int, Num]] = []
    for aset, filt in zip(model.admissible_sets, model.trading_filtrations):
        parts = filt.on(grid)
        for asset in sorted(aset):
            for k, diff in enumerate(moves[asset]):
                for block in parts[k].blocks:
                    support = tuple(i for i in sorted(block) if diff[i])
                    key = (support, tuple(_value_key(diff[i]) for i in support))
                    if not support or key in seen:
                        continue
                    seen.add(key)
                    payoff = tuple(diff[i] if i in block else 0 for i in range(n))
                    gens.append(Generator(asset, grid[k], grid[k + 1], block, RandomVariable(payoff), aset))
                    cols.append({i: diff[i] for i in support})
    return tuple(gens), tuple(cols)


def _check_mode(mode: str) -> None:
    if mode not in ("free", "long_only"):
        raise ValueError("mode must be 'free' or 'long_only'")


def enumerate_generators(model: MarketModel, mode: str = "free") -> tuple[Generator, ...]:
    """Every elementary bet over adjacent grid intervals, deduplicated by payoff.

    Bets over longer intervals decompose into adjacent ones with the same
    (still measurable) holding, so adjacent intervals span all terminal
    wealths. Identically-zero payoffs are dropped. The generators are
    enumerated once per model and arithmetic; in long-only mode each call
    returns copies of them tagged one-sided, which no LP of the package
    reads (:func:`generator_matrix` hands out the untagged ones).
    """
    _check_mode(mode)
    gens = _generators(model, model.arithmetic)[0]
    if mode == "free":
        return gens
    return tuple(replace(g, one_sided=True) for g in gens)


def strategy_from_coefficients(
    model: MarketModel,
    gens: Sequence[Generator],
    coeffs: Sequence[Num],
    mode: str = "free",
) -> Strategy:
    """Rebuild a simple strategy from generator coefficients."""
    n = model.n_outcomes
    active = [(g, c) for g, c in zip(gens, coeffs) if c != 0]
    involved: frozenset[str] = frozenset()
    for g, _ in active:
        involved |= g.asset_set
    if not involved:
        aset = model.admissible_sets[0]
        return Strategy(aset, (), mode)
    if involved in model.admissible_sets:
        aset = involved
    else:
        candidates = [s for s in model.admissible_sets if involved <= s]
        if not candidates:
            raise ValueError("no admissible set covers the generators used")
        aset = min(candidates, key=lambda s: (len(s), sorted(s)))
    ordered = sorted(aset)
    by_interval: dict[tuple[Fraction, Fraction], dict[str, list[Num]]] = {}
    for g, c in active:
        slot = by_interval.setdefault((g.from_time, g.to_time), {})
        holding = slot.setdefault(g.asset, [0] * n)
        for i in g.block:
            holding[i] += c
    legs = []
    for (t0, t1), per_asset in sorted(by_interval.items()):
        holdings = tuple(
            RandomVariable(tuple(per_asset.get(a, [0] * n))) for a in ordered
        )
        legs.append(Leg(t0, t1, holdings))
    return Strategy(aset, tuple(legs), mode)


def generator_matrix(model: MarketModel, mode: str = "free") -> tuple[tuple[Generator, ...], list[dict[int, Num]]]:
    """Generators plus their payoff columns for LP assembly. A column maps
    each outcome of the generator's block where the payoff is nonzero to
    that payoff, in outcome order; every other outcome pays 0.

    Both modes get the same untagged generators and columns, built once per
    model and arithmetic: long-only trading only bounds the coefficients,
    which the LPs do; ``mode`` is checked and does not change the answer.
    The list is new on every call, so a caller may append its own columns;
    the column maps are shared and must not be changed."""
    _check_mode(mode)
    gens, cols = _generators(model, model.arithmetic)
    return gens, list(cols)


def claim_arithmetic(model: MarketModel, claim: Sequence[Num]) -> str:
    """The arithmetic of a question about ``claim`` in ``model``: ``"exact"``
    when the model and every value of the claim are exact. A claim without
    one value per outcome raises ``ValueError``: a question asks this before
    its first verdict or LP."""
    if len(claim) != model.n_outcomes:
        raise ValueError("claim lives on a different space")
    return "exact" if model.arithmetic == "exact" and all_exact(claim) else "float"


def outcome_rows(cols: Sequence[Mapping[int, Num]], n: int, first: int) -> list[dict[int, Num]]:
    """The transpose of ``cols``: per outcome, the map from column index to
    its nonzero entry there, in column order, with column j at ``first + j``."""
    rows: list[dict[int, Num]] = [{} for _ in range(n)]
    for j, col in enumerate(cols, first):
        for w, v in col.items():
            rows[w][j] = v
    return rows


def group_outcomes(cols: Sequence[Mapping[int, Num]], n: int) -> tuple[tuple[int, ...], ...]:
    """The classes of outcomes on which every column of ``cols`` pays the
    same: no combination of the columns tells two outcomes of a class apart.
    Classes are ordered by their first outcome and list their outcomes in
    order, so where every class is one outcome they are ``(0,), (1,), ...``.
    A row is keyed by its nonzero columns and the :func:`_value_key` of its
    entries there."""
    classes: dict[tuple[tuple[int, ...], tuple[Hashable, ...]], list[int]] = {}
    for w, row in enumerate(outcome_rows(cols, n, 0)):
        classes.setdefault((tuple(row), tuple(map(_value_key, row.values()))), []).append(w)
    return tuple(map(tuple, classes.values()))


@lru_cache(maxsize=CACHE_SIZE)
def _outcome_classes(model: MarketModel, _arithmetic: str) -> tuple[tuple[int, ...], ...]:
    return group_outcomes(_generators(model, _arithmetic)[1], model.n_outcomes)


def outcome_classes(model: MarketModel, mode: str = "free") -> tuple[tuple[int, ...], ...]:
    """:func:`group_outcomes` over the model's generators: the outcomes that
    no strategy can tell apart, one row of every LP on the model. Cached per
    model and arithmetic, like the generators, and the same for both modes."""
    _check_mode(mode)
    return _outcome_classes(model, model.arithmetic)


def class_columns(cols: Sequence[Mapping[int, Num]], classes: Sequence[Sequence[int]],
                  n: int) -> Sequence[Mapping[int, Num]]:
    """``cols`` on the classes of :func:`group_outcomes`: class i takes the
    value of its first outcome. Singleton classes leave ``cols`` as is."""
    if len(classes) == n:
        return cols
    first = {c[0]: i for i, c in enumerate(classes)}
    return [{first[w]: v for w, v in col.items() if w in first} for col in cols]


def class_rows(cols: Sequence[Mapping[int, Num]], classes: Sequence[Sequence[int]],
               n: int) -> list[dict[int, Num]]:
    """Per class of ``classes`` in order, the map of a row ``x + sum_j
    lambda_j cols[j]``: the price ``x`` at column 0 with coefficient 1 and
    ``cols[j]`` at column ``1 + j``. ``classes`` are :func:`group_outcomes`
    of ``cols`` on ``n`` outcomes, so every column pays the same on a class
    and its first outcome stands for it. Both questions on a market put
    their LPs on these rows: the superhedge (``>=`` the claim) and the
    verdict (``=`` the class's gain, with the price fixed at 0). The maps
    are new on every call."""
    return [{0: 1, **row} for row in outcome_rows(class_columns(cols, classes, n), len(classes), 1)]


def per_outcome(values: Sequence[Num], groups: Sequence[Sequence[int]], n: int, fill: Num = 0) -> list[Num]:
    """The outcome vector giving every outcome of ``groups[i]`` the value
    ``values[i]`` and every outcome in no group ``fill``."""
    out = [fill] * n
    for v, group in zip(values, groups):
        for w in group:
            out[w] = v
    return out


def as_float_model(model: MarketModel) -> MarketModel:
    """Copy of the model with float probabilities and prices (times stay exact)."""
    space = FiniteSpace(model.space.outcomes, tuple(float(p) for p in model.space.probs))
    prices = tuple(
        tuple(RandomVariable(tuple(float(v) for v in rv)) for rv in path)
        for path in model.prices
    )
    return MarketModel(
        space, model.big_filtration, model.assets, prices,
        model.admissible_sets, model.trading_filtrations,
    )
