"""Independent checks of every answer the benchmark receives.

The checks recompute each certificate's defining property from the model
with plain arithmetic: exact comparisons for exact answers, comparisons
within ``tol`` times the data scale for float answers. They call no pricing
code. The one program call is ``enumerate_generators``, whose order gives the
hedge coefficients their meaning; each generator it returns is re-derived
from the model before use.

Each check returns ``None`` when the answer holds and a one-line cause when
it does not.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction

from platonic import enumerate_generators


class Failed(Exception):
    """An answer failed its check; the message is the cause."""


class Checker:
    def __init__(self, model, tol):
        self.model = model
        values = [abs(v) for path in model.prices for rv in path for v in rv]
        self.tol = 0 if tol is None else tol * (1 + max(values, default=0))
        self.grid = model.times

    # --- comparisons -----------------------------------------------------------
    def zero(self, value, what):
        if abs(value) > self.tol:
            raise Failed(f"{what} is {value}, not 0")

    def nonneg(self, value, what):
        if value < -self.tol:
            raise Failed(f"{what} is {value} < 0")

    def equal(self, a, b, what):
        if abs(a - b) > self.tol * (1 + abs(b)):
            raise Failed(f"{what}: {a} != {b}")

    # --- model-side quantities -----------------------------------------------------
    def increments(self):
        """Every elementary bet 1_B (S_u - S_t) of the model, as value tuples."""
        m = self.model
        out = []
        for aset, filt in zip(m.admissible_sets, m.trading_filtrations):
            for asset in sorted(aset):
                path = m.price_path(asset)
                for k in range(len(self.grid) - 1):
                    for block in filt.at(self.grid[k]).blocks:
                        out.append(tuple(
                            path[k + 1][i] - path[k][i] if i in block else 0
                            for i in range(m.n_outcomes)
                        ))
        return out

    def measure(self, q, mode, full_support, what):
        """q is a probability vector killing (free) or dominating (long-only)
        every elementary bet."""
        m = self.model
        if len(q) != m.n_outcomes:
            raise Failed(f"{what} has {len(q)} entries for {m.n_outcomes} outcomes")
        if abs(sum(q) - 1) > self.tol * m.n_outcomes:
            raise Failed(f"{what} sums to {sum(q)}")
        for i, v in enumerate(q):
            if full_support and not v > 0:
                raise Failed(f"{what} has mass {v} at outcome {i}")
            self.nonneg(v, f"{what} mass at outcome {i}")
        for j, bet in enumerate(self.increments()):
            e = sum(qi * bi for qi, bi in zip(q, bet))
            if mode == "free":
                self.zero(e, f"{what} expectation of bet {j}")
            elif e > self.tol:
                raise Failed(f"{what} expectation of bet {j} is {e} > 0")

    def generators(self, mode):
        """The program's generators, each re-derived from the model."""
        m = self.model
        gens = enumerate_generators(m, mode)
        index_of = {t: k for k, t in enumerate(self.grid)}
        for g in gens:
            k = index_of.get(g.from_time)
            if k is None or k + 1 >= len(self.grid) or self.grid[k + 1] != g.to_time:
                raise Failed(f"generator on [{g.from_time}, {g.to_time}] is not one grid step")
            if g.asset_set not in m.admissible_sets or g.asset not in g.asset_set:
                raise Failed(f"generator for {g.asset} names an inadmissible set")
            if g.block not in m.filtration_for(g.asset_set).at(g.from_time).blocks:
                raise Failed(f"generator for {g.asset} uses a block the trader cannot see")
            if g.one_sided != (mode == "long_only"):
                raise Failed("generator sidedness does not match the mode")
            path = m.price_path(g.asset)
            want = tuple(path[k + 1][i] - path[k][i] if i in g.block else 0
                         for i in range(m.n_outcomes))
            if tuple(g.payoff.values) != want:
                raise Failed(f"generator for {g.asset} has a wrong payoff")
        return gens

    def wealth(self, lambdas, mode, what):
        gens = self.generators(mode)
        if len(lambdas) != len(gens):
            raise Failed(f"{what} has {len(lambdas)} coefficients for {len(gens)} generators")
        if mode == "long_only":
            for j, lam in enumerate(lambdas):
                self.nonneg(lam, f"{what} long-only coefficient {j}")
        n = self.model.n_outcomes
        return [sum(lam * g.payoff[i] for lam, g in zip(lambdas, gens)) for i in range(n)]

    def strategy_wealth(self, strat, mode):
        """Terminal wealth of a simple strategy, with measurability checked."""
        m = self.model
        if strat.asset_set not in m.admissible_sets:
            raise Failed("arbitrage strategy trades an inadmissible set")
        filt = m.filtration_for(strat.asset_set)
        ordered = sorted(strat.asset_set)
        out = [0] * m.n_outcomes
        for leg in strat.legs:
            if leg.start not in self.grid or leg.end not in self.grid or leg.start >= leg.end:
                raise Failed("arbitrage leg does not cover a grid interval")
            part = filt.at(leg.start)
            for asset, holding in zip(ordered, leg.holdings):
                for block in part.blocks:
                    vals = {holding[i] for i in block}
                    if max(vals) - min(vals) > self.tol:
                        raise Failed(f"holding in {asset} at t={leg.start} is not measurable")
                if mode == "long_only":
                    for v in holding:
                        self.nonneg(v, f"long-only holding in {asset}")
                path = m.price_path(asset)
                s0, s1 = path[self.grid.index(leg.start)], path[self.grid.index(leg.end)]
                for i in range(m.n_outcomes):
                    out[i] += holding[i] * (s1[i] - s0[i])
        return out

    # --- answers -----------------------------------------------------------------
    def verdict(self, v, mode):
        if v.kind == "NO_ARBITRAGE":
            if v.measure is None or v.arbitrage is not None:
                raise Failed("NO_ARBITRAGE verdict without exactly a measure certificate")
            kind = "martingale" if mode == "free" else "supermartingale"
            if v.measure.kind != kind:
                raise Failed(f"measure kind {v.measure.kind} for mode {mode}")
            self.measure(v.measure.q_values, mode, True, "verdict measure")
        elif v.kind == "ARBITRAGE":
            if v.arbitrage is None or v.measure is not None:
                raise Failed("ARBITRAGE verdict without exactly an arbitrage certificate")
            cert = v.arbitrage
            gain, cons = cert.terminal_gain, cert.consumption
            for i, g in enumerate(gain):
                self.nonneg(g, f"arbitrage gain at outcome {i}")
                self.nonneg(cons[i], f"arbitrage consumption at outcome {i}")
            if not max(gain) > self.tol:
                raise Failed("arbitrage gain is nowhere positive")
            wealth = self.strategy_wealth(cert.strategy, mode)
            for i, w in enumerate(wealth):
                self.equal(gain[i] + cons[i], w, f"gain plus consumption at outcome {i}")
        else:
            raise Failed(f"unknown verdict {v.kind!r}")

    def hedge(self, answer, claim, mode):
        hedge, dual = answer
        self.measure(dual.q_values, mode, False, "dual measure")
        value = sum(q * c for q, c in zip(dual.q_values, claim))
        self.equal(hedge.price, value, "hedge price against its dual value")
        wealth = self.wealth(hedge.lambdas, mode, "hedge")
        for i, (w, c) in enumerate(zip(wealth, claim)):
            self.nonneg(hedge.price + w - c, f"hedge surplus at outcome {i}")

    def interval(self, iv, claim, eta):
        if iv.lower - iv.upper > self.tol:
            raise Failed(f"interval lower {iv.lower} > upper {iv.upper}")
        if iv.replication is not None:
            x, coeffs = iv.replication
            wealth = self.wealth(coeffs, "free", "replication")
            for i, (w, c) in enumerate(zip(wealth, claim)):
                self.equal(x + w, c, f"replication at outcome {i}")
            self.equal(iv.lower, x, "replicable claim's lower bound")
            self.equal(iv.upper, x, "replicable claim's upper bound")
        for side, bound, witness in (("lower", iv.lower, iv.lower_witness),
                                     ("upper", iv.upper, iv.upper_witness)):
            if witness is None:
                continue
            self.measure(witness.optimizer, "free", False, f"{side} optimizer")
            self.equal(sum(q * c for q, c in zip(witness.optimizer, claim)), bound,
                       f"{side} optimizer value")
            self.measure(witness.mixture, "free", True, f"{side} witness mixture")
            achieved = sum(q * c for q, c in zip(witness.mixture, claim))
            if abs(achieved - bound) > eta + self.tol:
                raise Failed(f"{side} witness lands {abs(achieved - bound)} from the bound")


def numbers_in(obj):
    """Every number inside an answer: dataclass fields, tuples and lists."""
    if isinstance(obj, (int, float, Fraction)) and not isinstance(obj, bool):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from numbers_in(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list, frozenset)):
        for item in obj:
            yield from numbers_in(item)


def purity(answer, exact: bool):
    """Exact answers hold no float, float answers no Fraction."""
    banned = float if exact else Fraction
    for v in numbers_in(answer):
        if isinstance(v, banned):
            raise Failed(f"{'exact' if exact else 'float'} answer contains a {banned.__name__}")


def check(query: dict, answer, eta=Fraction(1, 10**6)) -> str | None:
    """Check one library answer; return the cause of failure or None."""
    tol = query.get("tol")
    checker = Checker(query["model"], tol)
    try:
        purity(answer, tol is None)
        if query["op"] == "verdict":
            checker.verdict(answer, query["mode"])
        elif query["op"] == "superreplicate":
            checker.hedge(answer, query["claim"], query["mode"])
        else:
            checker.interval(answer, query["claim"], eta)
    except Failed as exc:
        return str(exc)
    except Exception as exc:  # an answer the checker cannot read is a failure too
        return f"unreadable answer ({type(exc).__name__}: {exc})"
    return None
