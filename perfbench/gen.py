"""Seeded inputs of the library workloads (the ``cli`` ones are in cligen.py).

Everything here is a pure function of the seed. The workloads get
``MarketModel`` objects and claims built through the public constructors.
Prices are computed with plain ``Fraction`` arithmetic in this file, so
building inputs calls no pricing code and warms none of the program's caches.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

from platonic import (
    FiniteSpace,
    Filtration,
    Partition,
    RandomVariable,
    as_float_model,
    build_market,
    delayed_filtration,
    free_lunch_truncation,
)

FLOAT_TOL = 1e-9


# --- model families -----------------------------------------------------------

def _positive_probs(rng: random.Random, n: int) -> tuple[F, ...]:
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


def _gridded(big: Filtration, every: int) -> Filtration:
    """Trading filtration that observes only every ``every``-th grid time."""
    parts = []
    for k in range(len(big.times)):
        parts.append(big.partitions[k - k % every])
    return Filtration(big.times, tuple(parts))


def _trading(big: Filtration, kind: str) -> Filtration:
    if kind == "full":
        return big
    if kind == "delayed":
        return delayed_filtration(big, big.times[1])
    if kind == "gridded":
        return _gridded(big, 2)
    raise ValueError(kind)


def tree_market(rng: random.Random, branches: int, steps: int, filtration: str):
    """One stock on a non-recombining tree: S0 = 100, moves 2 and 1/2 (and 1
    on trinomial trees), seeded reference probabilities.

    The moves straddle 1, so the tree measure making the stock a martingale
    has full support and every trading filtration coarser than the tree's is
    arbitrage-free. Only the reference probabilities depend on the seed; they
    enter no LP, so a tree's cost is the same for every seed.
    """
    moves = (F(2), F(1, 2)) if branches == 2 else (F(2), F(1), F(1, 2))
    letters = "ud" if branches == 2 else "umd"
    paths = list(itertools.product(range(branches), repeat=steps))
    n = len(paths)
    times = tuple(F(k, steps) for k in range(steps + 1))
    big = Filtration.generated(times, [[p[:k] for p in paths] for k in range(steps + 1)])
    prices = []
    for k in range(steps + 1):
        vals = []
        for p in paths:
            v = F(100)
            for m in p[:k]:
                v *= moves[m]
            vals.append(v)
        prices.append(RandomVariable(tuple(vals)))
    space = FiniteSpace(tuple("".join(letters[m] for m in p) for p in paths), _positive_probs(rng, n))
    model = build_market(space, big, {"stock": prices}, trading_filtrations=_trading(big, filtration))
    return model, f"{'bin' if branches == 2 else 'tri'}{steps}-{filtration}"


def _refine(rng: random.Random, part: Partition, pieces: int) -> Partition:
    """Split each block into up to ``pieces`` random nonempty parts."""
    out = []
    for block in part.blocks:
        items = sorted(block)
        rng.shuffle(items)
        k = min(len(items), rng.randint(2, pieces))
        cuts = sorted(rng.sample(range(1, len(items)), k - 1)) if k > 1 else []
        for lo, hi in zip([0] + cuts, cuts + [len(items)]):
            out.append(frozenset(items[lo:hi]))
    return Partition(tuple(out))


def _cond_exp(values, part: Partition, q) -> tuple[F, ...]:
    out = [F(0)] * len(values)
    for block in part.blocks:
        mass = sum(q[i] for i in block)
        avg = sum(q[i] * values[i] for i in block) / mass
        for i in block:
            out[i] = avg
    return tuple(out)


def random_market(rng: random.Random, slot: int, n: int, n_assets: int, n_times: int,
                  arbitrage: bool):
    """Multi-asset market on ``n`` outcomes with a union-closed admissible family.

    Prices are backward conditional expectations of random terminal values
    under a hidden full-support measure, so the market is arbitrage-free.
    With ``arbitrage`` one asset's last price move is made positive on a whole
    block of the trading partition: holding that asset on the block is then
    an arbitrage in both trading modes. The shape (size, assets, times,
    partitions, filtrations, which block gets the arbitrage) depends on
    ``slot`` only; ``rng`` draws the prices and probabilities.
    """
    shape = random.Random(slot)
    times = tuple(F(k, n_times - 1) for k in range(n_times))
    parts = [Partition.trivial(n)]
    for _ in range(n_times - 2):
        parts.append(_refine(shape, parts[-1], 3))
    parts.append(Partition.singletons(n))
    big = Filtration(times, tuple(parts))
    hidden = _positive_probs(rng, n)
    assets = ("a0", "a1", "a2")[:n_assets]
    paths = {}
    for a in assets:
        terminal = tuple(F(rng.randint(1, 24), rng.randint(1, 4)) for _ in range(n))
        path = [terminal]
        for part in reversed(parts[:-1]):
            path.append(_cond_exp(path[-1], part, hidden))
        paths[a] = list(reversed(path))
    full = frozenset(assets)
    fine = big if shape.random() < 0.5 else delayed_filtration(big, times[1])
    family = {full: fine}
    family[frozenset(assets[:1])] = delayed_filtration(fine, times[1])
    family[frozenset(assets[1:2])] = _gridded(fine, 2)
    if n_assets == 3:
        family[frozenset(assets[:2])] = fine
    if arbitrage:
        a = shape.choice(assets)
        before = paths[a][-2]
        block = shape.choice(fine.at(times[-2]).blocks)
        bump = F(rng.randint(1, 4), rng.randint(2, 5))
        last = list(paths[a][-1])
        for i in block:
            last[i] = max(last[i], before[i]) + bump
        paths[a][-1] = tuple(last)
    space = FiniteSpace(tuple(f"w{i}" for i in range(n)), _positive_probs(rng, n))
    sets = sorted(family, key=lambda s: (len(s), sorted(s)))
    model = build_market(
        space, big, {a: [RandomVariable(v) for v in p] for a, p in paths.items()},
        admissible_sets=sets, trading_filtrations=family,
    )
    return model, f"rand{n}-{'arb' if arbitrage else 'na'}"


CLAIM_KINDS = ("call", "put", "digital", "random")


def claim(rng: random.Random, model, kind: str) -> RandomVariable:
    """A claim on the first asset's terminal price, or a random one.

    ``replicable`` is a constant plus buy-and-hold of the first asset from
    time 0, which every trading filtration can do, so it is replicable.
    """
    n = model.n_outcomes
    path = model.price_path(model.assets[0])
    s0, st = path[0][0], path[-1].values
    strike = s0 * F(rng.randint(6, 14), 10)
    if kind == "call":
        vals = tuple(max(v - strike, F(0)) for v in st)
    elif kind == "put":
        vals = tuple(max(strike - v, F(0)) for v in st)
    elif kind == "digital":
        vals = tuple(F(1) if v > strike else F(0) for v in st)
    elif kind == "random":
        vals = tuple(F(rng.randint(-8, 12), rng.randint(1, 4)) for _ in range(n))
    else:
        h, c = F(rng.randint(1, 5), rng.randint(1, 3)), F(rng.randint(0, 6))
        vals = tuple(c + h * (v - s0) for v in st)
    return RandomVariable(vals)


# --- workloads ----------------------------------------------------------------
#
# Shapes are fixed and only values depend on the seed, so every seed gives
# the same mix of problem sizes. A pass takes about five seconds here, so a
# run repeats it several times.

def exact_verdict(seed: int) -> list[dict]:
    """60 pairwise distinct exact models, one ``ftap_verdict`` each,
    alternating free and long-only trading."""
    rng = random.Random(seed)
    models = []
    for branches, steps in ((2, 3), (2, 4), (3, 3)):
        for filt in ("full", "delayed", "gridded"):
            models.append(tree_market(rng, branches, steps, filt))
    for n in (4, 5):
        models.append((free_lunch_truncation(n, expanded=True)[0], f"fl{n}"))
    for k in range(49):
        models.append(random_market(rng, k, 10 + k % 4, 2 + k % 2, 3 + (k // 2) % 2, k % 3 == 0))
    if len(set(m for m, _ in models)) != len(models):
        raise AssertionError("exact-verdict models must be pairwise distinct")
    queries = []
    for k, (model, label) in enumerate(models):
        mode = "free" if k % 2 == 0 else "long_only"
        queries.append({"op": "verdict", "model": model, "mode": mode, "label": label})
    rng.shuffle(queries)
    return queries


def exact_pricing(seed: int) -> list[dict]:
    """Eight no-arbitrage models. Per model one verdict, then two claims that
    each get ``superreplicate`` in both modes and ``price_interval``."""
    rng = random.Random(seed)
    models = [
        tree_market(rng, 2, 4, "delayed"),
        tree_market(rng, 2, 4, "gridded"),
        tree_market(rng, 3, 3, "full"),
    ]
    models += [random_market(rng, 100 + k, 12 + k % 3, 2 + k % 2, 3, False) for k in range(5)]
    queries = []
    for i, (model, label) in enumerate(models):
        queries.append({"op": "verdict", "model": model, "mode": "free", "label": label})
        for kind in (CLAIM_KINDS[i % 4], "replicable" if i % 2 else CLAIM_KINDS[(i + 1) % 4]):
            c = claim(rng, model, kind)
            for mode in ("free", "long_only"):
                queries.append({"op": "superreplicate", "model": model, "claim": c,
                                "mode": mode, "label": f"{label}/{kind}"})
            queries.append({"op": "interval", "model": model, "claim": c,
                            "label": f"{label}/{kind}"})
    return queries


def float_screen(seed: int) -> list[dict]:
    """Trees and free-lunch truncations of 64 to 128 outcomes in float mode
    at tol 1e-9: per model a verdict and four superreplications."""
    rng = random.Random(seed)
    specs = [
        (2, 6, "full", "free"), (2, 6, "full", "long_only"), (2, 6, "gridded", "free"),
        (2, 6, "gridded", "free"), (3, 4, "full", "long_only"), (3, 4, "delayed", "free"),
        (3, 4, "gridded", "long_only"), (2, 7, "full", "free"),
    ]
    models = [(tree_market(rng, b, steps, filt), mode) for b, steps, filt, mode in specs]
    models += [((free_lunch_truncation(6, expanded=True)[0], "fl6"), "free"),
               ((free_lunch_truncation(7, expanded=True)[0], "fl7"), "long_only")]
    queries = []
    for k, ((model, label), mode) in enumerate(models):
        fmodel = as_float_model(model)
        queries.append({"op": "verdict", "model": fmodel, "mode": mode, "tol": FLOAT_TOL,
                        "label": label})
        for kind in CLAIM_KINDS[:3] + ("replicable",):
            c = claim(rng, model, kind)
            queries.append({"op": "superreplicate", "model": fmodel, "mode": "free",
                            "tol": FLOAT_TOL, "claim": RandomVariable(tuple(map(float, c))),
                            "label": f"{label}/{kind}"})
    return queries


LIBRARY_WORKLOADS = {
    "exact-verdict": exact_verdict,
    "exact-pricing": exact_pricing,
    "float-screen": float_screen,
}
