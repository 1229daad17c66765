"""Benchmark of certified answers: one closed-loop client, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. ``exact-verdict``, ``exact-pricing`` and
``float-screen`` call the library; each pass runs in a fresh interpreter
(perfbench/worker.py), so no cache carries answers from one pass to the
next. ``cli`` runs one fresh ``python3 -m platonic.cli`` process per query.
Every answer is checked independently. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes over the same inputs and prints the per-layer metrics. The last line
of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

LIBRARY = ("exact-verdict", "exact-pricing", "float-screen")
WORKLOADS = LIBRARY + ("cli",)
HARD_LIMIT_S = 150  # no query starts later than this into a run
SETUPS = 3          # set-ups measured per run, at least
TAIL_PASSES = 3     # the tail comes from the first passes, a fixed sample count
CLI_EXIT_CODES = {0, 1, 2, 3}

sys.path.insert(0, str(HERE))
import refclock  # noqa: E402
import tracer as tracing  # noqa: E402


class Run:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.trace = args.trace
        self.t0 = time.monotonic()
        self.deadline = self.t0 + args.seconds
        self.hard_deadline = self.t0 + HARD_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.work = WORK / f"{self.workload}-{self.seed}-{os.getpid()}"
        self.files = 0

    def path(self, suffix: str) -> str:
        self.files += 1
        return str(self.work / f"{self.files}{suffix}")

    def spawn(self, argv) -> tuple[subprocess.CompletedProcess, float, float]:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, *[a.replace("{spawned}", repr(spawned)) for a in argv]],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.hard_deadline + 25 - spawned),
        )
        return proc, spawned, time.monotonic()

    # --- library workloads ---------------------------------------------------------
    def library_pass(self, index: int, traced: bool, setup_only: bool = False) -> dict:
        """One pass in a fresh worker. Pass ``index`` of a run gets its own
        inputs, drawn from the run's seed and the index."""
        trace_file = self.path(".spans") if traced else "-"
        limit = self.t0 if setup_only else self.hard_deadline
        before = refclock.factor()
        proc, spawned, ended = self.spawn([
            str(HERE / "worker.py"), self.workload, str(self.seed * 1000 + index), "{spawned}",
            trace_file, repr(limit),
        ])
        if proc.returncode != 0:
            raise SystemExit(f"worker failed with exit code {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_s"] = ended - spawned
        setup_factor = (before + result["ready_factor"]) / 2
        for key in ("setup_s", "interpreter_s", "import_s"):
            result[key] *= setup_factor
        result["latencies"] = [t * f for t, f in zip(result["latencies"], result["factors"])]
        if traced:
            factors = dict(enumerate(result["factors"]))
            factors[None] = setup_factor
            spans = tracing.read_spans(trace_file)
            result["layers"] = tracing.summarize(
                spans, dict(enumerate(result["latencies"])), factors)
        return result

    def library(self) -> tuple[list, list, list]:
        """Complete passes while another one fits in the run; then set-ups.
        A traced run asks each pass's inputs twice, untraced and traced."""
        passes, traced = [], []
        while True:
            index = len(passes)
            if self.trace:
                started = time.monotonic()
                passes.append(self.library_pass(index, False))
                traced.append(self.library_pass(index, True))
                est = time.monotonic() - started
            else:
                passes.append(self.library_pass(index, False))
                est = passes[-1]["wall_s"]
            if time.monotonic() + est > self.deadline:
                break
        setups = [p["setup_s"] for p in passes]
        while not self.trace and len(setups) < SETUPS:
            setups.append(self.library_pass(len(setups), False, setup_only=True)["setup_s"])
        return passes, traced, setups

    # --- cli workload ----------------------------------------------------------------
    def cli_setup(self, index: int) -> tuple[list, float]:
        """Scenario files and plan of sweep ``index`` of the run."""
        out = self.work / f"plan{index}"
        before = refclock.factor()
        proc, spawned, ended = self.spawn(
            [str(HERE / "cligen.py"), str(self.seed * 1000 + index), str(out)])
        if proc.returncode != 0:
            raise SystemExit(f"cligen failed with exit code {proc.returncode}:\n{proc.stderr}")
        setup = (ended - spawned) * (before + refclock.factor()) / 2
        return json.loads((out / "plan.json").read_text()), setup

    def cli_call(self, argv, traced: bool) -> dict:
        if traced:
            trace_file = self.path(".spans")
            cmd = [str(HERE / "launch.py"), "{spawned}", trace_file, *argv]
        else:
            cmd = ["-m", "platonic.cli", *argv]
        before = refclock.factor()
        proc, spawned, ended = self.spawn(cmd)
        factor = (before + refclock.factor()) / 2
        outcome = cli_outcome(argv, proc)
        result = {"label": " ".join(argv), "latency": (ended - spawned) * factor,
                  "factor": factor, "outcome": outcome}
        if traced:
            result["spans"] = tracing.read_spans(trace_file)
            meta = json.loads(Path(trace_file + ".meta").read_text())
            result["meta"] = {k: v * factor for k, v in meta.items()}
        return result

    def cli(self) -> tuple[list, list, list]:
        """Sweeps over fresh plans until the time is up; the last sweep may
        stop part-way, since invocations share no state."""
        setups, passes, traced = [], [], []
        if not self.trace:
            while time.monotonic() < self.deadline:
                plan, setup = self.cli_setup(len(setups))
                setups.append(setup)
                calls = []
                for argv in plan:
                    if (calls or passes) and time.monotonic() >= self.deadline:
                        break
                    calls.append(self.cli_call(argv, False))
                passes.append({"calls": calls})
            while len(setups) < SETUPS:
                setups.append(self.cli_setup(len(setups))[1])
            return passes, traced, setups
        while True:
            started = time.monotonic()
            plan, setup = self.cli_setup(len(setups))
            setups.append(setup)
            passes.append({"calls": [self.cli_call(a, False) for a in plan]})
            traced.append({"calls": [self.cli_call(a, True) for a in plan]})
            if time.monotonic() + (time.monotonic() - started) > self.deadline:
                break
        for sweep in traced:
            sweep["layers"] = cli_layers(sweep["calls"])
        return passes, traced, setups


def cli_outcome(argv, proc) -> tuple[str, str | None]:
    """Exit code documented and 0, no traceback, and a report that holds."""
    if proc.returncode not in CLI_EXIT_CODES:
        return "failed", f"undocumented exit code {proc.returncode}"
    if "Traceback" in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1]
        return "failed", f"traceback: {last}"
    if proc.returncode != 0:
        return "failed", f"exit code {proc.returncode}: {proc.stderr.strip()[:200]}"
    try:
        report = json.loads(proc.stdout)
        cause = check_report(argv, report)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        cause = f"unreadable report ({type(exc).__name__}: {exc})"
    return ("failed", f"check: {cause}") if cause else ("ok", None)


def _num(v):
    return Fraction(v) if isinstance(v, str) else v


def _floats(node):
    if isinstance(node, float):
        yield node
    elif isinstance(node, dict):
        for k, v in node.items():
            if k != "timing_ms":
                yield from _floats(v)
    elif isinstance(node, list):
        for v in node:
            yield from _floats(v)


def check_report(argv, report) -> str | None:
    """Re-check the certificate numbers a CLI report carries."""
    command = argv[0]
    exact = "--float" not in argv
    tol = 0 if exact else 1e-6
    if exact and any(True for _ in _floats(report)):
        return "exact report contains a float"
    if command == "validate":
        return None if report["valid"] else "golden scenario reported invalid"
    if command == "ftap":
        if report["verdict"] == "NO_ARBITRAGE":
            m = report["measure"]
            q = [_num(v) for v in m["q"].values()]
            if abs(sum(q) - 1) > tol or min(q) <= 0:
                return "measure is not a full-support probability"
            expectations = [_num(v) for v in m["generator_expectations"]]
            kind = m["kind"]
            if kind == "martingale" and any(abs(e) > tol for e in expectations):
                return "a generator has nonzero expectation"
            if kind == "supermartingale" and any(e > tol for e in expectations):
                return "a generator has positive expectation"
        elif report["verdict"] == "ARBITRAGE":
            gain = [_num(v) for v in report["arbitrage"]["terminal_gain"]]
            if min(gain) < -tol or max(gain) <= tol:
                return "arbitrage gain is not nonnegative and somewhere positive"
        else:
            return f"unknown verdict {report['verdict']!r}"
    elif command == "superhedge":
        if abs(_num(report["duality_gap"])) > tol:
            return "nonzero duality gap"
        if any(_num(v) < -tol for v in report["consumption"]):
            return "hedge does not dominate the claim"
    elif command == "interval":
        if _num(report["lower"]) > _num(report["upper"]):
            return "interval lower bound above upper bound"
    elif command == "check-duality":
        checks = report["checks"]
        polar = checks["polar_cone"]
        if isinstance(polar, dict) and not (polar["vertex_sets_match"] and polar["double_inclusion"]):
            return "polar cone and measure polytope differ"
        for name, c in checks["claims"].items():
            if _num(c["gap"]) != 0 or not c["attainability_tests_agree"]:
                return f"duality check fails for claim {name}"
    elif command == "project":
        if not report["projections"]:
            return "no projections"
    elif command == "bayes":
        built = json.loads((ROOT / argv[argv.index("--out") + 1]).read_text())
        if built.get("schema_version") != 1 or not built["space"]["outcomes"]:
            return "built scenario is not a plain scenario"
    elif command == "experiment":
        if not (report["gap_strictly_decreasing"] and report["all_no_arbitrage"]):
            return "free-lunch sweep lost its diagnostics"
    return None


def cli_layers(calls) -> dict:
    """Per-layer metrics of one traced sweep: each invocation's spans joined,
    and its whole latency counted as query time."""
    spans, times, factors = [], {}, {}
    for k, call in enumerate(calls):
        offset = len(spans)
        for name, start, end, parent, _query, extra in call["spans"]:
            spans.append((name, start, end, parent + offset if parent >= 0 else -1, k, extra))
        times[k] = call["latency"]
        factors[k] = call["factor"]
    return tracing.summarize(spans, times, factors)


# --- reporting -----------------------------------------------------------------------

E2E_UNITS = {
    "query_p50_s": "s", "query_tail_s": "s", "queries_per_s": "1/s",
    "answered_share": "share", "setup_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER_TIMED = (
    "market.build_market", "market.validate", "market.generator_matrix",
    "market.enumerate_generators", "ftap.ftap_verdict", "ftap.find_arbitrage",
    "ftap.find_measure", "lpsolve.solve", "linalg.solve_unique",
)


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in tracing.span_names():
        units[f"{name}.calls"] = "count"
    for name in PER_LAYER_TIMED:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units["lpsolve.solve.calls"] = "count"
    units.update({
        "lpsolve.solve.exact.rows": "count",
        "lpsolve.solve.exact.cols": "count",
        "lpsolve.solve.exact.max_bits": "bits",
        "lpsolve.solve.float.refusals": "count",
        "lpsolve.solves_per_query": "count",
        "lpsolve.share": "share",
        "ftap.find_measure.cache_served": "count",
        "ftap.find_arbitrage.cache_served": "count",
        "market.generator_matrix.generators": "count",
        "hedging.solves_per_call": "count",
        "startup.interpreter_s": "s",
        "startup.import_s": "s",
        "trace.overhead_share": "share",
        "trace.untraced_share": "share",
    })
    return units


def flatten(workload, passes) -> list:
    """(label, latency, outcome) of every query asked in ``passes``."""
    rows = []
    for p in passes:
        if workload == "cli":
            rows += [(c["label"], c["latency"], tuple(c["outcome"])) for c in p["calls"]]
        else:
            rows += list(zip(p["labels"], p["latencies"], map(tuple, p["outcomes"])))
    return rows


def end_to_end(rows, first_rows, setups) -> tuple[dict, list[str]]:
    """The tail comes from ``first_rows`` (the first passes), so its
    percentile does not depend on how many passes fit into the run."""
    lat = [r[1] for r in rows]
    first = sorted(r[1] for r in first_rows)
    m = len(first)
    n = len(rows)
    failed = sum(1 for r in rows if r[2][0] == "failed")
    refused = sum(1 for r in rows if r[2][0] == "refused")
    beyond = min(10, m - 1)
    metrics = {
        "query_p50_s": statistics.median(lat),
        "query_tail_s": first[m - 1 - beyond],
        "queries_per_s": (n - failed) / sum(lat),
        "answered_share": (n - failed - refused) / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    notes = [
        f"query_tail_s is p{100 * (m - beyond) / m:.1f} of the {m} queries of the first "
        f"{TAIL_PASSES} passes ({beyond} beyond it)",
        f"failed_share {failed / n:.4f} ({failed} of {n})",
        f"refused_share {refused / n:.4f} ({refused} of {n})",
        f"setup_s is the median of {len(setups)} set-ups",
    ]
    return metrics, notes


def causes(rows) -> list[str]:
    counts: dict = {}
    for label, _lat, (status, cause) in rows:
        if status != "ok":
            key = (status, label, cause)
            counts[key] = counts.get(key, 0) + 1
    return [f"{s}: {label}: {cause} (x{c})" for (s, label, cause), c in sorted(counts.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "platonic" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'platonic'}", file=sys.stderr)
        return 2
    # one core for the run and its children, so the reference clock is read
    # on the core that does the timed work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli":
            passes, traced, setups = run.cli()
        else:
            passes, traced, setups = run.library()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    rows = flatten(args.workload, passes + traced)
    failed = sum(1 for r in rows if r[2][0] == "failed")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          f"closed loop, 1 client, {len(passes) + len(traced)} passes, {len(rows)} queries")
    if args.trace:
        metrics = layer_metrics(args.workload, passes, traced)
        units = per_layer_units()
        idle = {n for n in tracing.span_names() if metrics[f"{n}.calls"] == 0}
        for name, value in sorted(metrics.items()):
            if name.rsplit(".", 1)[0] not in idle:
                print(f"  {name:44} {value:14.6g} {units.get(name, 's')}")
        reported = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    else:
        first = flatten(args.workload, passes[:TAIL_PASSES])
        metrics, notes = end_to_end(rows, first, setups)
        for name, unit in E2E_UNITS.items():
            print(f"  {name:16} {metrics[name]:12.6g} {unit}")
        for note in notes:
            print(f"  {note}")
        reported = {k: {"value": metrics[k], "unit": u} for k, u in E2E_UNITS.items()}
    for line in causes(rows):
        print(f"  {line}")
    print(json.dumps({"correct": failed == 0, "attempted": len(rows), "failed": failed,
                      "metrics": reported}))
    return 0


def layer_metrics(workload, passes, traced) -> dict:
    """Median over traced passes, plus start-up and tracing overhead."""
    metrics = tracing.median_metrics([t["layers"] for t in traced])
    if workload == "cli":
        metas = [c["meta"] for t in traced for c in t["calls"]]
        interp = [m["interpreter_s"] for m in metas]
        imports = [m["import_s"] for m in metas]
        plain = sum(c["latency"] for p in passes for c in p["calls"])
        timed = sum(c["latency"] for t in traced for c in t["calls"])
    else:
        interp = [p["interpreter_s"] for p in passes + traced]
        imports = [p["import_s"] for p in passes + traced]
        plain = sum(sum(p["latencies"]) for p in passes)
        timed = sum(sum(t["latencies"]) for t in traced)
    metrics["startup.interpreter_s"] = statistics.median(interp)
    metrics["startup.import_s"] = statistics.median(imports)
    metrics["trace.overhead_share"] = timed / plain - 1
    return metrics


if __name__ == "__main__":
    sys.exit(main())
