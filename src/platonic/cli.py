"""Command-line front end: scenario ingestion, command dispatch and
machine-readable reports.

Exit codes: 0 success, 1 unparseable scenario (or a scenario or ``--out``
file that cannot be read or written, an asset set it does not admit, or a
``project --measure`` file that is not a measure), 2 model fails
validation, 3 a certificate failed its check (internal inconsistency, or a
``project --measure`` measure that fails the projection check), 4 no
certified answer (the market admits arbitrage, the float backend refused,
or the instance exceeds a brute-force size guard). Each warning the library
raises is printed to stderr as one ``warning: ...`` line. A reader that
closes stdout early changes neither the exit code nor stderr.

``min_mass`` in a measure report is the smallest mass of the certificate
returned, not the largest minimum mass over all measures; ``project
--measure search`` uses the measure search that maximizes the minimum mass.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import bayes, hedging
from .ftap import (
    FtapInconsistencyError,
    InvalidModelError,
    MeasureCertificate,
    ProjectionError,
    find_measure,
    ftap_verdict,
    project_prices,
)
from .hedging import UnpricedMarketError
from .lpsolve import DimensionGuardError, FloatModeError
from .market import MarketModel, as_float_model, validate
from .numeric import format_number, pick_tol
from .probspace import RandomVariable, ZeroMassBlock
from .scenario import Scenario, ScenarioError, parse_scenario, serialize_model

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3
EXIT_NO_ANSWER = 4


def _fmt(value):
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return format_number(value)
    return value


def _measure_doc(cert: MeasureCertificate, model: MarketModel) -> dict:
    return {
        "kind": cert.kind,
        "q": {o: _fmt(q) for o, q in zip(model.space.outcomes, cert.q_values)},
        "min_mass": _fmt(cert.min_mass),
        "full_support": cert.full_support,
        "generator_expectations": _fmt(list(cert.verification)),
        "max_residual": _fmt(max((abs(v) for v in cert.verification), default=0)),
    }


def _print_report(report: dict, as_json: bool) -> None:
    """Print the report; a reader that closed stdout early (``| head``)
    leaves the rest unread and the exit code as it would have been."""
    def walk(node, indent=0):
        pad = "  " * indent
        if isinstance(node, dict):
            for k, v in node.items():
                if isinstance(v, (dict, list)):
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}")
        elif isinstance(node, list):
            for v in node:
                if isinstance(v, (dict, list)):
                    walk(v, indent + 1)
                else:
                    print(f"{pad}- {v}")
    try:
        if as_json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            walk(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered goes nowhere, also at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load(args) -> tuple[Scenario, dict]:
    """The scenario in the arithmetic asked for and the report header; sets
    ``args.tol`` to the questions' tolerance, None for exact questions."""
    scenario = parse_scenario(args.scenario)
    if args.float_mode:
        scenario.model = as_float_model(scenario.model)
        scenario.claims = {k: RandomVariable(tuple(float(v) for v in rv)) for k, rv in scenario.claims.items()}
    else:
        args.tol = None
    return scenario, {
        "command": args.command,
        "scenario": scenario.name,
        "mode": "float" if args.float_mode else "exact",
        "tol": "0" if args.tol is None else args.tol,
        "seed": args.seed,
    }


def _claim(scenario: Scenario, name: str) -> RandomVariable:
    if name not in scenario.claims:
        raise ScenarioError(
            f"claims.{name}: not defined (available: {', '.join(sorted(scenario.claims)) or 'none'})"
        )
    return scenario.claims[name]


def _tolerance(text: str) -> float:
    """A ``--tol`` value, checked while parsing as ``numeric.pick_tol``
    checks a library tolerance."""
    try:
        return pick_tol("float", float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}: need a finite number >= 0") from None


def cmd_validate(args, scenario: Scenario, report: dict) -> int | None:
    violations = validate(scenario.model)
    report["violations"] = violations
    report["valid"] = not violations
    return EXIT_INVALID if violations else None


def cmd_ftap(args, scenario: Scenario, report: dict) -> None:
    mode = "long_only" if args.long_only else "free"
    verdict = ftap_verdict(scenario.model, mode, args.tol)
    report["strategy_mode"] = mode
    report["verdict"] = verdict.kind
    if verdict.measure is not None:
        report["measure"] = _measure_doc(verdict.measure, scenario.model)
    if verdict.arbitrage is not None:
        cert = verdict.arbitrage
        report["arbitrage"] = {
            "terminal_gain": _fmt(list(cert.terminal_gain)),
            "consumption": _fmt(list(cert.consumption)),
            "asset_set": sorted(cert.strategy.asset_set),
            "legs": [
                {
                    "from": _fmt(leg.start),
                    "to": _fmt(leg.end),
                    "holdings": {
                        a: _fmt(list(h))
                        for a, h in zip(sorted(cert.strategy.asset_set), leg.holdings)
                    },
                }
                for leg in cert.strategy.legs
            ],
        }


def _measure_file(path: str, model: MarketModel) -> MeasureCertificate:
    """The ``measure`` section of a report file (its ``kind`` and its ``q`` by
    outcome) as an unverified certificate; a :class:`ScenarioError` naming
    the file when it cannot be read as a (super)martingale measure."""
    try:
        doc = json.loads(Path(path).read_text())["measure"]
        kind, q_doc = doc["kind"], doc["q"]
        q = tuple(Fraction(str(q_doc[o])) for o in model.space.outcomes)
    except KeyError as exc:
        raise ScenarioError(f"--measure {path}: missing key {exc.args[0]!r}") from None
    except (OSError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise ScenarioError(f"--measure {path}: {exc}") from None
    if kind not in ("martingale", "supermartingale"):
        raise ScenarioError(f"--measure {path}: kind {kind!r} is neither martingale nor supermartingale")
    if min(q) < 0:
        raise ScenarioError(f"--measure {path}: negative mass")
    return MeasureCertificate(q_values=q, kind=kind, min_mass=min(q), verification=())


def cmd_project(args, scenario: Scenario, report: dict) -> None:
    asset_set = frozenset(args.set.split(","))
    if asset_set not in scenario.model.admissible_sets:
        admissible = "; ".join(",".join(sorted(s)) for s in scenario.model.admissible_sets)
        raise ScenarioError(f"--set {args.set}: not an admissible asset set (admissible: {admissible})")
    if args.measure == "search":
        cert = find_measure(scenario.model, "martingale", args.tol)
        if cert is None:
            raise UnpricedMarketError("the market admits arbitrage: no martingale measure to project with")
    else:
        cert = _measure_file(args.measure, scenario.model)
    projected = project_prices(scenario.model, cert, asset_set, args.tol)
    report["asset_set"] = sorted(asset_set)
    report["measure"] = _measure_doc(cert, scenario.model) if cert.verification else {"kind": cert.kind}
    report["projections"] = {
        asset: [ _fmt(list(rv)) for rv in path ] for asset, path in projected.items()
    }
    report["times"] = _fmt(list(scenario.model.times))


def cmd_superhedge(args, scenario: Scenario, report: dict) -> None:
    mode = "long_only" if args.long_only else "free"
    claim = _claim(scenario, args.claim)
    hedge, dual = hedging.superreplicate(scenario.model, claim, mode, args.tol)
    gap = hedge.price - sum(q * v for q, v in zip(dual.q_values, claim))
    report["strategy_mode"] = mode
    report["claim"] = args.claim
    report["price"] = _fmt(hedge.price)
    report["lambdas"] = _fmt(list(hedge.lambdas))
    report["consumption"] = _fmt(list(hedge.consumption))
    report["duality_gap"] = _fmt(gap)
    report["dual_measure"] = _measure_doc(dual, scenario.model)


def cmd_interval(args, scenario: Scenario, report: dict) -> None:
    claim = _claim(scenario, args.claim)
    interval = hedging.price_interval(scenario.model, claim, tol=args.tol)
    report["claim"] = args.claim
    report["lower"] = _fmt(interval.lower)
    report["upper"] = _fmt(interval.upper)
    report["width"] = _fmt(interval.width)
    report["attained"] = {"lower": interval.attained_lower, "upper": interval.attained_upper}
    if interval.replication is not None:
        x, lambdas = interval.replication
        report["replication"] = {"price": _fmt(x), "lambdas": _fmt(list(lambdas))}
    for side, witness in (("upper", interval.upper_witness), ("lower", interval.lower_witness)):
        if witness is not None:
            report[f"{side}_openness"] = {
                "optimizer_null_outcomes": [
                    scenario.model.space.outcomes[i] for i in witness.null_outcomes
                ],
                "eta": _fmt(witness.eta),
                "full_support_value_within_eta": _fmt(witness.achieved),
            }


def cmd_check_duality(args, scenario: Scenario, report: dict) -> None:
    model = scenario.model
    checks: dict = {}
    if model.n_outcomes <= 6:
        polar = hedging.polar_cone_check(model, seed=args.seed)
        checks["polar_cone"] = {
            "vertex_sets_match": polar.match,
            "polar_vertex_count": len(polar.polar_vertices),
            "dual_vertex_count": len(polar.dual_vertices),
            "double_inclusion": polar.polar_in_dual and polar.dual_in_polar,
            "cone_samples_ok": polar.cone_inequality_samples_ok,
        }
    else:
        checks["polar_cone"] = "skipped (more than 6 outcomes)"
    per_claim = {}
    for name, claim in sorted(scenario.claims.items()):
        hedge, dual = hedging.superreplicate(model, claim, "free", args.tol)
        attain = hedging.attainability_set_check(model, claim, args.tol)
        dual_value = sum(q * v for q, v in zip(dual.q_values, claim))
        per_claim[name] = {
            "price": _fmt(hedge.price),
            "dual_value": _fmt(dual_value),
            "gap": _fmt(hedge.price - dual_value),
            "attainability_tests_agree": attain.consistent,
            "replicable": attain.zero_width,
        }
    checks["claims"] = per_claim
    report["checks"] = checks


def cmd_bayes_build(args, scenario: Scenario, report: dict) -> None:
    doc = serialize_model(scenario.model, scenario.claims, name=scenario.name + "-built")
    if args.out:
        try:
            Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True))
        except OSError as exc:
            raise ScenarioError(f"--out {args.out}: {exc}") from None
        report["written"] = str(args.out)
    else:
        report["scenario"] = doc
    report["outcomes"] = len(scenario.model.space.outcomes)


def cmd_experiment_free_lunch(args, scenario: None, report: dict) -> None:
    report.update(command="experiment free-lunch", mode="exact", seed=args.seed, max_n=args.max_n)
    rows = bayes.free_lunch_sweep(args.max_n)
    report["rows"] = [
        {
            "n": r["n"],
            "verdict": r["verdict"],
            "gap": _fmt(r["gap"]),
            "floor": _fmt(r["floor"]),
            "hit_probability": _fmt(r["hit_probability"]),
            "measure_min_mass": _fmt(r["min_mass"]),
        }
        for r in rows
    ]
    gaps = [r["gap"] for r in rows]
    report["gap_strictly_decreasing"] = all(a > b for a, b in zip(gaps, gaps[1:]))
    report["all_no_arbitrage"] = all(r["verdict"] == "NO_ARBITRAGE" for r in rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platonic",
        description="Finite-market lab: arbitrage, martingale measures, superhedging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, func, help, scenario=True):
        """A subcommand with the shared flags, run by ``_run`` through ``func``."""
        p = subparsers.add_parser(name, help=help)
        if scenario:
            p.add_argument("scenario", help="path to a scenario JSON file")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--exact", dest="float_mode", action="store_false", default=False,
                           help="exact rational arithmetic (default)")
        group.add_argument("--float", dest="float_mode", action="store_true",
                           help="double precision with tolerance")
        p.add_argument("--tol", type=_tolerance, default=1e-9, help="float-mode tolerance")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="json", action="store_true", default=True)
        fmt.add_argument("--table", dest="json", action="store_false")
        p.set_defaults(func=func)
        return p

    command(sub, "validate", cmd_validate, "report model invariant violations")
    p = command(sub, "ftap", cmd_ftap, "arbitrage verdict with certificate")
    p.add_argument("--long-only", action="store_true")
    p = command(sub, "project", cmd_project, "project prices onto a trading filtration")
    p.add_argument("--set", required=True, help="comma-separated asset ids")
    p.add_argument("--measure", default="search", help="'search' or a report JSON with a measure")
    p = command(sub, "superhedge", cmd_superhedge, "superreplication price and hedge")
    p.add_argument("--claim", required=True)
    p.add_argument("--long-only", action="store_true")
    p = command(sub, "interval", cmd_interval, "dual price interval and attainability")
    p.add_argument("--claim", required=True)
    command(sub, "check-duality", cmd_check_duality, "polar cone and strong duality checks")

    bsub = sub.add_parser("bayes", help="scenario builders").add_subparsers(dest="bayes_command", required=True)
    p = command(bsub, "build", cmd_bayes_build, "materialize a builder scenario to a plain one")
    p.add_argument("--out", help="write the built scenario to this file")

    esub = sub.add_parser("experiment", help="built-in experiments").add_subparsers(
        dest="experiment_command", required=True)
    p = command(esub, "free-lunch", cmd_experiment_free_lunch, "near-free-lunch truncation sweep",
                scenario=False)
    p.add_argument("--max-n", type=int, default=8)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        return _run(args)


def _run(args) -> int:
    """Load the scenario, let the command fill the report and print it: the
    one place where an exception becomes an exit code. A command returns a
    code only when it is part of its result (``validate``'s exit 2)."""
    started = time.perf_counter()
    try:
        scenario, report = _load(args) if "scenario" in vars(args) else (None, {})
        code = args.func(args, scenario, report)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidModelError as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ZeroMassBlock, ProjectionError) as exc:
        print(f"measure check failed: --measure {args.measure}: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except FtapInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (UnpricedMarketError, FloatModeError, DimensionGuardError) as exc:
        print(f"no certified answer: {exc}", file=sys.stderr)
        return EXIT_NO_ANSWER
    report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    _print_report(report, args.json)
    return code or EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
