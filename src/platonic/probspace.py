"""Finite probability spaces, partitions, filtrations and conditional expectation.

Finite sigma-algebras are represented as partitions of the outcome index set;
measurability of a random variable means block-constancy. Filtration time
stamps are exact rationals so that grid alignment never depends on float
rounding, while outcome values may be exact or float.
"""
from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

from .numeric import Num, PROB_SUM_TOL, all_exact, parse_number


class ZeroMassBlock(ValueError):
    """Conditional expectation met a block of zero mass under its measure."""


@dataclass(frozen=True)
class RandomVariable:
    """One scalar value per outcome."""

    values: tuple[Num, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    @classmethod
    def constant(cls, n: int, value: Num) -> "RandomVariable":
        return cls((value,) * n)

    @classmethod
    def indicator(cls, n: int, block: Iterable[int]) -> "RandomVariable":
        inside = set(block)
        return cls(tuple(1 if i in inside else 0 for i in range(n)))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> Num:
        return self.values[i]

    def _combine(self, other, op) -> "RandomVariable":
        if isinstance(other, RandomVariable):
            if len(other) != len(self):
                raise ValueError("random variables live on different spaces")
            return RandomVariable(tuple(op(a, b) for a, b in zip(self.values, other.values)))
        return RandomVariable(tuple(op(a, other) for a in self.values))

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return self._combine(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._combine(other, operator.mul)

    __rmul__ = __mul__

    def __neg__(self):
        return RandomVariable(tuple(-v for v in self.values))

    def dot(self, weights: Sequence[Num]) -> Num:
        if len(weights) != len(self.values):
            raise ValueError("weight vector has the wrong length")
        return sum(w * v for w, v in zip(weights, self.values))

    def is_constant_on(self, part: "Partition", tol: Num = 0) -> bool:
        values = self.values
        for block in part.blocks:
            it = iter(block)
            ref = values[next(it)]
            for i in it:
                v = values[i]
                if v != ref and abs(v - ref) > tol:
                    return False
        return True


def as_random_variable(values: RandomVariable | Sequence[Num]) -> RandomVariable:
    if isinstance(values, RandomVariable):
        return values
    return RandomVariable(tuple(values))


@dataclass(frozen=True)
class FiniteSpace:
    """Outcome labels with strictly positive reference probabilities."""

    outcomes: tuple[str, ...]
    probs: tuple[Num, ...]

    def __post_init__(self) -> None:
        outcomes = tuple(self.outcomes)
        probs = tuple(self.probs)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "probs", probs)
        if not outcomes:
            raise ValueError("a finite space needs at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be unique")
        if len(probs) != len(outcomes):
            raise ValueError("one probability per outcome required")
        if any(p <= 0 for p in probs):
            raise ValueError("reference probabilities must be strictly positive")
        total = sum(probs)
        if all_exact(probs):
            if total != 1:
                raise ValueError(f"probabilities must sum to 1 exactly, got {total}")
        elif abs(total - 1) > PROB_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {total}")

    @property
    def size(self) -> int:
        return len(self.outcomes)

    @cached_property
    def _index(self) -> Mapping[str, int]:
        return {label: i for i, label in enumerate(self.outcomes)}

    def index(self, label: str) -> int:
        return self._index[label]

    def expectation(self, x: RandomVariable | Sequence[Num]) -> Num:
        return as_random_variable(x).dot(self.probs)


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty index blocks covering ``range(n)``; a finite sigma-algebra."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        blocks = tuple(frozenset(b) for b in self.blocks)
        if any(not b for b in blocks):
            raise ValueError("partitions may not contain empty blocks")
        flat = sorted(itertools.chain.from_iterable(blocks))
        if flat != list(range(len(flat))):
            raise ValueError("blocks must be disjoint and cover all outcomes")
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=min)))

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        return cls((frozenset(range(n)),))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple(frozenset((i,)) for i in range(n)))

    @classmethod
    def group_by(cls, keys: Sequence[Hashable]) -> "Partition":
        """Partition generated by a map on outcomes (level sets of ``keys``)."""
        groups: dict[Hashable, list[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        return cls(tuple(frozenset(g) for g in groups.values()))

    @property
    def n_outcomes(self) -> int:
        return sum(len(b) for b in self.blocks)

    @cached_property
    def block_index(self) -> tuple[int, ...]:
        """For each outcome, the position of its block in ``blocks``."""
        idx = [0] * self.n_outcomes
        for b, block in enumerate(self.blocks):
            for i in block:
                idx[i] = b
        return tuple(idx)

    def join(self, other: "Partition") -> "Partition":
        """Common refinement (join of the generated sigma-algebras)."""
        if self.n_outcomes != other.n_outcomes:
            raise ValueError("partitions live on different spaces")
        keys = tuple(zip(self.block_index, other.block_index))
        return Partition.group_by(keys)


def refines(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of ``fine`` is contained in some block of ``coarse``."""
    if fine.n_outcomes != coarse.n_outcomes:
        raise ValueError("partitions live on different spaces")
    coarse_idx = coarse.block_index
    for block in fine.blocks:
        it = iter(block)
        ref = coarse_idx[next(it)]
        if any(coarse_idx[i] != ref for i in it):
            return False
    return True


@dataclass(frozen=True)
class Filtration:
    """Time-indexed refining sequence of partitions on rational time stamps in [0, 1]."""

    times: tuple[Fraction, ...]
    partitions: tuple[Partition, ...]

    def __post_init__(self) -> None:
        times = tuple(parse_number(t) for t in self.times)
        partitions = tuple(self.partitions)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "partitions", partitions)
        if not times:
            raise ValueError("a filtration needs at least one time stamp")
        if len(times) != len(partitions):
            raise ValueError("one partition per time stamp required")
        if times[0] < 0 or times[-1] > 1:
            raise ValueError("time stamps must lie in [0, 1]")
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError("time stamps must be strictly increasing")
        n = partitions[0].n_outcomes
        if any(p.n_outcomes != n for p in partitions):
            raise ValueError("all partitions must cover the same outcomes")
        for k, (fine, coarse) in enumerate(zip(partitions[1:], partitions)):
            if not refines(fine, coarse):
                raise ValueError(f"partition at index {k + 1} does not refine its predecessor")

    @classmethod
    def trivial(cls, n: int, times: Sequence[Num]) -> "Filtration":
        times = tuple(times)
        return cls(times, tuple(Partition.trivial(n) for _ in times))

    @classmethod
    def generated(cls, times: Sequence[Num], observables: Sequence[Sequence[Hashable]]) -> "Filtration":
        """Filtration generated by per-time observations (history grouping).

        ``observables[k][i]`` is what outcome ``i`` reveals at ``times[k]``; the
        partition at time k groups outcomes with identical history up to k.
        """
        if len(times) != len(observables):
            raise ValueError("one observation layer per time stamp required")
        partitions = []
        histories: list[tuple[Hashable, ...]] | None = None
        for layer in observables:
            layer = tuple(layer)
            if histories is None:
                histories = [(obs,) for obs in layer]
            else:
                histories = [h + (obs,) for h, obs in zip(histories, layer)]
            partitions.append(Partition.group_by(histories))
        return cls(tuple(times), tuple(partitions))

    @property
    def n_outcomes(self) -> int:
        return self.partitions[0].n_outcomes

    def at(self, t: Num) -> Partition:
        """Partition at the latest time stamp <= t; trivial if there is none."""
        if type(t) is not Fraction:
            t = parse_number(t)
        pos = bisect.bisect_right(self.times, t)
        if pos == 0:
            return Partition.trivial(self.n_outcomes)
        return self.partitions[pos - 1]


def is_sub_filtration(small: Filtration, big: Filtration) -> bool:
    """True iff ``big`` carries at least the information of ``small`` at all times."""
    if small.n_outcomes != big.n_outcomes:
        raise ValueError("filtrations live on different spaces")
    for t, part in zip(small.times, small.partitions):
        if not refines(big.at(t), part):
            return False
    return True


def conditional_expectation(
    x: RandomVariable | Sequence[Num],
    part: Partition,
    q: Sequence[Num],
    *,
    tol: Num = 0,
) -> RandomVariable:
    """Block-wise average of ``x`` under the (nonnegative) measure ``q``.

    On a block of q-mass at most ``tol`` the average is undefined, and
    :class:`ZeroMassBlock` is raised.
    """
    rv = as_random_variable(x)
    n = len(rv)
    if len(q) != n or part.n_outcomes != n:
        raise ValueError("variable, partition and measure must agree on the space")
    if any(w < 0 for w in q):
        raise ValueError("conditioning measure must be nonnegative")
    out: list[Num] = [0] * n
    for block in part.blocks:
        mass = sum(q[i] for i in block)
        if mass <= tol:
            raise ZeroMassBlock(f"block {sorted(block)} has zero mass under q")
        avg = sum(q[i] * rv[i] for i in block) / mass
        for i in block:
            out[i] = avg
    return RandomVariable(tuple(out))


def delayed_filtration(base: Filtration, delay: Num) -> Filtration:
    """The same time grid but with information arriving ``delay`` later."""
    delay = parse_number(delay)
    if delay < 0:
        raise ValueError("delay must be nonnegative")
    return Filtration(base.times, tuple(base.at(t - delay) for t in base.times))
