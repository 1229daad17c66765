"""Randomized market instances for the property and acceptance suites.

Instances stay tiny (at most 8 outcomes, 3 assets, 4 grid times) and exact.
Roughly half are arbitrage-free by construction: their prices are backward
conditional expectations of random terminal values under a hidden
full-support measure, which makes every admissible projection a martingale
regardless of the trading filtrations drawn.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from platonic import (
    FiniteSpace,
    Filtration,
    MarketModel,
    Partition,
    RandomVariable,
    build_market,
    conditional_expectation,
    delayed_filtration,
    validate,
)

# The claims of each golden scenario that its market replicates: each has a
# zero-width price interval, read off the upper hedge alone.
GOLDEN_REPLICABLE = {
    "binomial": {"bond", "call", "stock_gain"},
    "delayed_binomial": {"first_leg"},
    "free_lunch_3": {"capped_combo", "combo"},
    "noisy_price": set(),
    "semistatic_call": {"call", "digital"},
    "two_asset_binomial": {"butterfly", "digital"},
    "two_theta": {"call", "digital"},
}

TIME_POOL = [
    Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
    Fraction(2, 3), Fraction(3, 4), Fraction(1),
]


def random_positive_probs(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    weights = [Fraction(rng.randint(1, 9)) for _ in range(n)]
    total = sum(weights)
    return tuple(w / total for w in weights)


def random_claim(rng: random.Random, n: int) -> RandomVariable:
    return RandomVariable(
        tuple(Fraction(rng.randint(-8, 12), rng.randint(1, 4)) for _ in range(n))
    )


def _random_partition(rng: random.Random, n: int) -> Partition:
    if rng.random() < 0.6:
        return Partition.singletons(n)
    keys = [rng.randrange(max(2, n - 1)) for _ in range(n)]
    return Partition.group_by(keys)


def _coarsen(rng: random.Random, part: Partition) -> Partition:
    m = rng.randint(1, len(part.blocks))
    assignment = [rng.randrange(m) for _ in part.blocks]
    merged: dict[int, set[int]] = {}
    for label, block in zip(assignment, part.blocks):
        merged.setdefault(label, set()).update(block)
    return Partition(tuple(frozenset(b) for b in merged.values()))


def _coarsen_within(rng: random.Random, fine: Partition, prev: Partition) -> Partition:
    """A partition refining ``prev`` and refined by ``fine``."""
    out: list[frozenset[int]] = []
    fine_ids = fine.block_index
    for prev_block in prev.blocks:
        inner = sorted({fine_ids[i] for i in prev_block})
        m = rng.randint(1, len(inner))
        groups: dict[int, set[int]] = {}
        for fid in inner:
            groups.setdefault(rng.randrange(m), set()).update(fine.blocks[fid])
        out.extend(frozenset(g) for g in groups.values())
    return Partition(tuple(out))


def _big_filtration(rng: random.Random, n: int, times) -> Filtration:
    parts = [_random_partition(rng, n)]
    for _ in range(len(times) - 1):
        parts.append(_coarsen(rng, parts[-1]))
    parts.reverse()
    return Filtration(times, tuple(parts))


def _observation_filtration(rng: random.Random, big: Filtration) -> Filtration:
    if rng.random() < 0.3:
        pool = [t for t in big.times[1:]]
        delay = rng.choice(pool) if pool else Fraction(0)
        return delayed_filtration(big, delay)
    parts = []
    prev = Partition.trivial(big.n_outcomes)
    for t in big.times:
        prev = _coarsen_within(rng, big.at(t), prev)
        parts.append(prev)
    return Filtration(big.times, tuple(parts))


def _coarsening_of(rng: random.Random, filt: Filtration) -> Filtration:
    parts = []
    prev = Partition.trivial(filt.n_outcomes)
    for t in filt.times:
        prev = _coarsen_within(rng, filt.at(t), prev)
        parts.append(prev)
    return Filtration(filt.times, tuple(parts))


def _union_closed_family(rng: random.Random, assets: tuple[str, ...]):
    if len(assets) == 1 or rng.random() < 0.5:
        return (frozenset(assets),)
    family = set()
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, len(assets))
        family.add(frozenset(rng.sample(assets, size)))
    changed = True
    while changed:
        changed = False
        for a in list(family):
            for b in list(family):
                if a | b not in family:
                    family.add(a | b)
                    changed = True
    return tuple(sorted(family, key=lambda s: (len(s), sorted(s))))


def random_market(
    rng: random.Random,
    max_outcomes: int = 8,
    max_assets: int = 3,
    max_times: int = 4,
    na_bias: float = 0.5,
) -> MarketModel:
    n = rng.randint(2, max_outcomes)
    n_times = rng.randint(2, max_times)
    times = tuple(sorted(rng.sample(TIME_POOL, n_times)))
    big = _big_filtration(rng, n, times)

    n_assets = rng.randint(1, max_assets)
    asset_ids = tuple(f"a{k}" for k in range(n_assets))
    martingale_built = rng.random() < na_bias
    hidden = random_positive_probs(rng, n)
    prices = {}
    for asset in asset_ids:
        if martingale_built:
            terminal = conditional_expectation(
                [Fraction(rng.randint(0, 12), rng.randint(1, 3)) for _ in range(n)],
                big.at(times[-1]),
                hidden,
            )
            path = [terminal]
            for t in reversed(times[:-1]):
                path.append(conditional_expectation(path[-1], big.at(t), hidden))
            path.reverse()
        else:
            path = []
            for t in times:
                block_vals = {}
                part = big.at(t)
                values = []
                for i in range(n):
                    b = part.block_index[i]
                    if b not in block_vals:
                        block_vals[b] = Fraction(rng.randint(0, 12), rng.randint(1, 3))
                    values.append(block_vals[b])
                path.append(RandomVariable(tuple(values)))
        prices[asset] = path

    family = _union_closed_family(rng, asset_ids)
    fine = _observation_filtration(rng, big)
    if len({len(s) for s in family}) > 1 and rng.random() < 0.6:
        coarse = _coarsening_of(rng, fine)
        cutoff = rng.randint(1, len(asset_ids))
        filts = {s: (coarse if len(s) <= cutoff else fine) for s in family}
    else:
        filts = {s: fine for s in family}

    space = FiniteSpace(tuple(f"w{i}" for i in range(n)), random_positive_probs(rng, n))
    model = build_market(
        space, big, prices, admissible_sets=family, trading_filtrations=filts
    )
    assert validate(model) == [], validate(model)
    return model


def resample_reference(rng: random.Random, model: MarketModel) -> MarketModel:
    """Same market, fresh full-support reference probabilities."""
    space = FiniteSpace(model.space.outcomes, random_positive_probs(rng, model.space.size))
    return MarketModel(
        space, model.big_filtration, model.assets, model.prices,
        model.admissible_sets, model.trading_filtrations,
    )


def split_outcomes(model: MarketModel, copies) -> tuple[MarketModel, tuple[int, ...]]:
    """The model with outcome i split into ``copies[i]`` outcomes that share
    its prices and its place in every filtration, each with 1/copies[i] of
    its probability, and the original outcome of each new one. The n
    originals keep their indices; the extra copies follow them."""
    n = model.n_outcomes
    origin = tuple(range(n)) + tuple(i for i in range(n) for _ in range(copies[i] - 1))

    def lift(values):
        return RandomVariable(tuple(values[i] for i in origin))

    def lift_filtration(filt):
        return Filtration(filt.times, tuple(
            Partition(tuple(frozenset(w for w, i in enumerate(origin) if i in block)
                            for block in part.blocks))
            for part in filt.partitions))

    probs = tuple(model.space.probs[i] / copies[i] for i in origin)
    space = FiniteSpace(tuple(f"w{w}" for w in range(len(origin))), probs)
    split = MarketModel(
        space, lift_filtration(model.big_filtration), model.assets,
        tuple(tuple(lift(rv) for rv in path) for path in model.prices),
        model.admissible_sets, tuple(lift_filtration(f) for f in model.trading_filtrations),
    )
    return split, origin


def binomial_tree(steps: int, trading: str = "full") -> MarketModel:
    """One stock on a non-recombining binomial tree: S0 = 100, moves 2 and
    1/2, uniform reference probabilities. ``trading`` is ``"full"`` (the tree
    filtration), ``"delayed"`` (one step late) or ``"gridded"`` (observes
    every second grid time only). Arbitrage-free under every choice."""
    return tree_market(steps, "ud", trading)


def tree_claim_price(steps: int, payoff) -> Fraction:
    """E_Q[c], exactly, for the claim ``payoff`` (one value per outcome of
    :func:`binomial_tree` ``(steps)``, in its order) under the tree's unique
    martingale measure: each step moves up with q = (1 - d) / (u - d) = 1/3.
    The full tree is a complete market, so this is the superhedge price of
    the claim; a test oracle where ``enumerate_vertices`` cannot go."""
    u, d = _MOVES["u"], _MOVES["d"]
    q = {"u": (1 - d) / (u - d), "d": (u - 1) / (u - d)}
    paths = itertools.product("ud", repeat=steps)
    return sum((math.prod((q[m] for m in p), start=Fraction(1)) * Fraction(c)
                for p, c in zip(paths, payoff, strict=True)), Fraction(0))


def gridded_tree_claim_price(steps: int, payoff) -> Fraction:
    """The superhedge price, exactly, of the claim ``payoff`` (one value per
    outcome of :func:`binomial_tree` ``(steps, "gridded")``, in its order),
    by backward induction over the coarse grid 0, 2, 4, ... A trader there
    knows the whole path at each coarse time and picks both positions of
    the next two steps then, so the price at a coarse node is the largest
    expectation of the node's values two steps on (one at an odd last
    step) over the node's martingale measures: the measures on its
    continuations under which each of those steps' gains has mean 0. That
    small polytope is the same at every node, as the moves are; its
    vertices are found by brute force over their supports. A test oracle
    where ``enumerate_vertices`` cannot go."""
    values = dict(zip(itertools.product("ud", repeat=steps), map(Fraction, payoff), strict=True))
    for start in reversed(range(0, steps, 2)):
        paths = list(itertools.product("ud", repeat=min(2, steps - start)))
        vertices = _martingale_vertices(paths)
        values = {node: max(sum(q * values[node + path] for q, path in zip(vertex, paths))
                            for vertex in vertices)
                  for node in itertools.product("ud", repeat=start)}
    return values[()]


def _martingale_vertices(paths) -> list[tuple[Fraction, ...]]:
    """The vertices of the measures q on ``paths`` (move sequences of one
    length h, from a price of 1) under which the gain of each of the h
    steps has mean 0: the points q >= 0 of ``sum q = 1`` and the h step
    equations that are unique on their support of h + 1 paths."""
    rows = [[Fraction(1)] * len(paths)]
    for step in range(len(paths[0])):
        rows.append([math.prod((_MOVES[m] for m in path[:step]), start=Fraction(1)) * (_MOVES[path[step]] - 1)
                     for path in paths])
    rhs = [Fraction(1)] + [Fraction(0)] * (len(rows) - 1)
    vertices = set()
    for support in itertools.combinations(range(len(paths)), len(rows)):
        solved = _solve_square([[row[j] for j in support] for row in rows], rhs)
        if solved is not None and min(solved) >= 0:
            q = [Fraction(0)] * len(paths)
            for j, v in zip(support, solved):
                q[j] = v
            vertices.add(tuple(q))
    return sorted(vertices)


def _solve_square(a, b):
    """The unique solution of the square system ``a x = b`` by Gaussian
    elimination in Fractions; None when ``a`` is singular."""
    m = [list(row) + [v] for row, v in zip(a, b)]
    n = len(m)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col] / m[col][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[r][n] / m[r][r] for r in range(n)]


def trinomial_tree(steps: int, trading: str = "full") -> MarketModel:
    """:func:`binomial_tree` with a third move, 1: incomplete, still
    arbitrage-free under every ``trading``."""
    return tree_market(steps, "umd", trading)


_MOVES = {"u": Fraction(2), "m": Fraction(1), "d": Fraction(1, 2)}


def tree_market(steps: int, moves: str, trading: str) -> MarketModel:
    """One stock from S0 = 100 on the non-recombining tree of ``moves``
    (letters of :data:`_MOVES`), uniform reference probabilities; ``trading``
    as in :func:`binomial_tree`."""
    paths = list(itertools.product(moves, repeat=steps))
    times = tuple(Fraction(k, steps) for k in range(steps + 1))
    big = Filtration.generated(times, [[p[:k] for p in paths] for k in range(steps + 1)])
    prices = [
        tuple(100 * math.prod((_MOVES[m] for m in p[:k]), start=Fraction(1)) for p in paths)
        for k in range(steps + 1)
    ]
    if trading == "full":
        filt = big
    elif trading == "delayed":
        filt = delayed_filtration(big, times[1])
    elif trading == "gridded":
        filt = Filtration(times, tuple(big.partitions[k - k % 2] for k in range(steps + 1)))
    else:
        raise ValueError(trading)
    n = len(paths)
    space = FiniteSpace(tuple("".join(p) for p in paths), (Fraction(1, n),) * n)
    return build_market(space, big, {"stock": prices}, trading_filtrations=filt)
