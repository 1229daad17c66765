"""JSON scenario format (schema_version 1): parsing, building and round-trip
serialization. Rationals travel as strings like "1/3" so nothing is lost to
float rounding; plain market sections and builder sections (bayes, noise,
options) both produce a ready model plus named claims.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .bayes import (
    BayesSetup,
    NoiseSpec,
    ObservationSpec,
    OptionGridSpec,
    build_mixture_market,
    build_product_market,
    build_uncertain_price,
    embed_semistatic,
    split_product_label,
)
from .ftap import InvalidModelError
from .market import MarketModel, build_market
from .numeric import format_number, parse_number
from .probspace import FiniteSpace, Filtration, Partition, RandomVariable

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Malformed scenario document; the message carries the JSON location."""


@contextmanager
def _section(where: str):
    """Report a builder's failure on malformed input as a :class:`ScenarioError`
    naming the section, so that no such input ends in a traceback. A built
    model that fails validation stays an :class:`InvalidModelError`."""
    try:
        yield
    except (ScenarioError, InvalidModelError):
        raise
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing key {exc.args[0]!r}") from None
    except (TypeError, AttributeError, ValueError, IndexError) as exc:
        raise ScenarioError(f"{where}: {exc}") from None


@dataclass
class Scenario:
    name: str
    model: MarketModel
    claims: dict[str, RandomVariable] = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _num(raw, where: str) -> Fraction:
    try:
        return parse_number(raw)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{where}: bad number {raw!r} ({exc})") from None


def _numbers(raw, where: str) -> tuple[Fraction, ...]:
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: expected a list of numbers")
    return tuple(_num(v, f"{where}[{i}]") for i, v in enumerate(raw))


def _partition(raw, index: Mapping[str, int], where: str) -> Partition:
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: expected a list of blocks")
    blocks = []
    for b, block in enumerate(raw):
        if not isinstance(block, list):
            raise ScenarioError(f"{where}[{b}]: expected a list of outcome labels")
        try:
            blocks.append(frozenset(index[label] for label in block))
        except KeyError as exc:
            raise ScenarioError(f"{where}[{b}]: unknown outcome {exc.args[0]!r}") from None
    try:
        return Partition(tuple(blocks))
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _filtration(raw, times, index, where: str) -> Filtration:
    if isinstance(raw, dict) and "partitions" in raw:
        f_times = _numbers(raw["times"], f"{where}.times") if "times" in raw else times
        parts = raw["partitions"]
    else:
        f_times, parts = times, raw
    if not isinstance(parts, list) or len(parts) != len(f_times):
        raise ScenarioError(f"{where}: need one partition per time")
    partitions = tuple(_partition(p, index, f"{where}[{k}]") for k, p in enumerate(parts))
    try:
        return Filtration(f_times, partitions)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _observation(raw, where: str) -> ObservationSpec:
    if raw is None:
        return ObservationSpec()
    times = _numbers(raw["times"], f"{where}.times") if "times" in raw else None
    quant = raw.get("quantize")
    if isinstance(quant, dict):
        quant = {a: _num(v, f"{where}.quantize.{a}") for a, v in quant.items()}
    elif quant is not None:
        quant = _num(quant, f"{where}.quantize")
    delay = _num(raw.get("delay", 0), f"{where}.delay")
    return ObservationSpec(obs_times=times, quantizer=quant, delay=delay)


def _claim_values(raw, model: MarketModel, where: str) -> RandomVariable:
    n = model.n_outcomes
    if isinstance(raw, list):
        if len(raw) != n:
            raise ScenarioError(f"{where}: expected {n} values, one per outcome")
        return RandomVariable(_numbers(raw, where))
    for key, sign in (("call_on", 1), ("put_on", -1)):
        if isinstance(raw, dict) and key in raw:
            asset = raw[key]
            if asset not in model.assets:
                raise ScenarioError(f"{where}: unknown asset {asset!r}")
            strike = _num(raw.get("strike", 0), f"{where}.strike")
            terminal = model.price_path(asset)[-1]
            return RandomVariable(tuple(max(sign * (v - strike), 0) for v in terminal))
    if isinstance(raw, dict) and "theta_indicator" in raw:
        wanted = raw["theta_indicator"]
        try:
            thetas = [split_product_label(o)[1] for o in model.space.outcomes]
        except ValueError:
            raise ScenarioError(f"{where}: theta_indicator needs a product market") from None
        return RandomVariable(tuple(1 if t == wanted else 0 for t in thetas))
    raise ScenarioError(f"{where}: unsupported claim format")


def _claims_on_paths(raw, pairs_of, n, where: str) -> RandomVariable:
    values = _numbers(raw, where)
    return RandomVariable(tuple(values[pairs_of[i]] for i in range(n)))


def _parse_plain(doc: dict) -> MarketModel:
    space_doc = doc.get("space")
    if not isinstance(space_doc, dict):
        raise ScenarioError("space: missing section")
    outcomes = space_doc.get("outcomes")
    if not isinstance(outcomes, list) or not all(isinstance(o, str) for o in outcomes):
        raise ScenarioError("space.outcomes: expected a list of labels")
    probs = _numbers(space_doc.get("probs"), "space.probs")
    try:
        space = FiniteSpace(tuple(outcomes), probs)
    except ValueError as exc:
        raise ScenarioError(f"space: {exc}") from None
    index = {label: i for i, label in enumerate(outcomes)}
    times = _numbers(doc.get("grid"), "grid")
    big = _filtration(doc.get("big_filtration"), times, index, "big_filtration")

    assets_doc = doc.get("assets")
    if not isinstance(assets_doc, dict) or not assets_doc:
        raise ScenarioError("assets: missing section")
    prices = {}
    for asset, path in assets_doc.items():
        if not isinstance(path, list) or len(path) != len(times):
            raise ScenarioError(f"assets.{asset}: need one value list per grid time")
        prices[asset] = [RandomVariable(_numbers(vals, f"assets.{asset}[{k}]")) for k, vals in enumerate(path)]

    named_doc = doc.get("filtrations", {})
    if not isinstance(named_doc, dict):
        raise ScenarioError("filtrations: expected an object of named filtrations")
    named = {
        name: _filtration(raw, times, index, f"filtrations.{name}")
        for name, raw in named_doc.items()
    }
    admissible = doc.get("admissible_sets")
    sets = None
    if admissible is not None:
        sets = [frozenset(s) for s in admissible]
    trading = doc.get("trading_filtrations", "default")
    if trading == "default" or trading is None:
        filts = None
    elif isinstance(trading, str):
        if trading not in named:
            raise ScenarioError(f"trading_filtrations: unknown filtration {trading!r}")
        filts = named[trading]
    else:
        if sets is None:
            raise ScenarioError("trading_filtrations: per-set mapping needs admissible_sets")
        filts = {}
        for key, name in trading.items():
            if name not in named:
                raise ScenarioError(f"trading_filtrations.{key}: unknown filtration {name!r}")
            filts[frozenset(key.split(","))] = named[name]
    return build_market(
        space, big, prices,
        admissible_sets=sets,
        trading_filtrations=filts,
    )


def _base_section(block: dict, where: str, space_key: str, filt_key: str):
    """Path space, outcome index, base filtration and prices of a builder section."""
    raw = block.get(space_key)
    space = FiniteSpace(tuple(raw["outcomes"]), _numbers(raw["probs"], f"{where}.{space_key}.probs"))
    index = {o: i for i, o in enumerate(space.outcomes)}
    times = _numbers(block.get("grid"), f"{where}.grid")
    filt = _filtration(block.get(filt_key), times, index, f"{where}.{filt_key}")
    prices = {
        a: [RandomVariable(_numbers(vals, f"{where}.prices.{a}[{k}]")) for k, vals in enumerate(path)]
        for a, path in block.get("prices", {}).items()
    }
    return space, index, filt, prices


def _parse_bayes(doc: dict) -> tuple[MarketModel, dict[str, RandomVariable]]:
    b = doc["bayes"]
    where = "bayes"
    space, index, filt, prices = _base_section(b, where, "paths", "path_filtration")
    thetas = tuple(b.get("thetas"))
    prior = _numbers(b.get("prior"), f"{where}.prior")
    models = tuple(_numbers(b["models"][t], f"{where}.models.{t}") for t in thetas)
    setup = BayesSetup(space, filt, thetas, prior, models)
    obs = _observation(b.get("observation"), f"{where}.observation")
    kind = b.get("kind", "product")
    if kind == "product":
        model = build_product_market(setup, prices, obs)
    elif kind == "mixture":
        model = build_mixture_market(setup, prices, obs)
    else:
        raise ScenarioError(f"{where}.kind: expected 'product' or 'mixture'")

    claims: dict[str, RandomVariable] = {}
    if kind == "product":
        pairs_of = [index[split_product_label(o)[0]] for o in model.space.outcomes]
    else:
        pairs_of = [index[o] for o in model.space.outcomes]
    for name, raw in b.get("claims_on_paths", {}).items():
        claims[name] = _claims_on_paths(raw, pairs_of, model.n_outcomes, f"{where}.claims_on_paths.{name}")
    return model, claims


def _parse_noise(doc: dict) -> MarketModel:
    nd = doc["noise"]
    where = "noise"
    space, _index, filt, prices = _base_section(nd, where, "base", "base_filtration")
    spec = NoiseSpec(
        values=_numbers(nd.get("values"), f"{where}.values"),
        probs=_numbers(nd.get("probs"), f"{where}.probs"),
        times=_numbers(nd["times"], f"{where}.times") if "times" in nd else None,
    )
    obs = _observation(nd.get("observation"), f"{where}.observation")
    return build_uncertain_price(space, filt, prices, spec, nd.get("observe", "base"), obs)


def _apply_options(model: MarketModel, doc: dict, claims: dict[str, RandomVariable]) -> MarketModel:
    specs = []
    for od in doc["options"]:
        name = od["name"]
        where = f"options.{name}"
        payoff_raw = od.get("payoff")
        if isinstance(payoff_raw, str):
            if payoff_raw not in claims:
                raise ScenarioError(f"{where}.payoff: unknown claim {payoff_raw!r}")
            payoff = claims[payoff_raw]
        else:
            payoff = _claim_values(payoff_raw, model, f"{where}.payoff")
        times = _numbers(od.get("times"), f"{where}.times")
        quotes_raw = od.get("quotes")
        if not isinstance(quotes_raw, list) or len(quotes_raw) != len(times):
            raise ScenarioError(f"{where}.quotes: one quote vector per trading time")
        quotes = []
        for k, q in enumerate(quotes_raw):
            if isinstance(q, list):
                quotes.append(RandomVariable(_numbers(q, f"{where}.quotes[{k}]")))
            else:
                quotes.append(RandomVariable.constant(model.n_outcomes, _num(q, f"{where}.quotes[{k}]")))
        specs.append(OptionGridSpec(name, payoff, times, tuple(quotes)))
    try:
        return embed_semistatic(model, specs)
    except ValueError as exc:
        raise ScenarioError(f"options: {exc}") from None


def parse_scenario(source: str | Path | dict) -> Scenario:
    """Load and build a scenario; raises :class:`ScenarioError` with location info."""
    if isinstance(source, dict):
        doc = source
        name = doc.get("name", "<inline>")
    else:
        path = Path(source)
        name = path.stem
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
        except OSError as exc:
            raise ScenarioError(str(exc)) from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    claims: dict[str, RandomVariable] = {}
    if "bayes" in doc:
        with _section("bayes"):
            model, claims = _parse_bayes(doc)
    elif "noise" in doc:
        with _section("noise"):
            model = _parse_noise(doc)
    else:
        with _section("market"):
            model = _parse_plain(doc)

    claims_doc = doc.get("claims", {})
    if not isinstance(claims_doc, dict):
        raise ScenarioError("claims: expected an object of named claims")
    for cname, raw in claims_doc.items():
        if cname not in claims:
            claims[cname] = _claim_values(raw, model, f"claims.{cname}")
    if "options" in doc:
        with _section("options"):
            model = _apply_options(model, doc, claims)
    return Scenario(name=name, model=model, claims=claims, raw=doc)


def serialize_model(model: MarketModel, claims: Mapping[str, RandomVariable] | None = None, name: str | None = None) -> dict:
    """Plain-market document that parses back to a structurally equal model."""
    labels = model.space.outcomes

    def partition_doc(part: Partition) -> list[list[str]]:
        return [[labels[i] for i in sorted(block)] for block in part.blocks]

    def filtration_doc(filt: Filtration) -> dict:
        return {
            "times": [format_number(t) for t in filt.times],
            "partitions": [partition_doc(p) for p in filt.partitions],
        }

    named = {}
    trading = {}
    for aset, filt in zip(model.admissible_sets, model.trading_filtrations):
        fdoc = filtration_doc(filt)
        fname = next((name for name, seen in named.items() if seen == fdoc), f"filtration_{len(named)}")
        named[fname] = fdoc
        trading[",".join(sorted(aset))] = fname
    doc = {
        "schema_version": SCHEMA_VERSION,
        "space": {
            "outcomes": list(labels),
            "probs": [format_number(p) for p in model.space.probs],
        },
        "grid": [format_number(t) for t in model.times],
        "big_filtration": [partition_doc(p) for p in model.big_filtration.partitions],
        "assets": {
            asset: [[format_number(v) for v in rv] for rv in path]
            for asset, path in zip(model.assets, model.prices)
        },
        "admissible_sets": [sorted(s) for s in model.admissible_sets],
        "filtrations": named,
        "trading_filtrations": trading,
    }
    if name:
        doc["name"] = name
    if claims:
        doc["claims"] = {cname: [format_number(v) for v in rv] for cname, rv in claims.items()}
    return doc
