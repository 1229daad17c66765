"""Span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces every ``platonic.*`` module attribute bound to a
traced function object with a wrapper, so calls through ``from .lpsolve
import solve`` and through ``_linalg.solve_unique`` are caught as well. Each
call records a span ``(name, start, end, parent, query, extra)``; spans stay
in memory until the caller writes them out. ``summarize`` turns spans into
the per-layer metrics.
"""
from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from fractions import Fraction

TRACED = {
    "probspace": ("conditional_expectation",),
    "_linalg": ("solve_unique", "column_span_solve"),
    "lpsolve": ("solve", "enumerate_vertices"),
    "market": ("build_market", "validate", "generator_matrix", "enumerate_generators",
               "as_float_model"),
    "ftap": ("ftap_verdict", "find_arbitrage", "find_measure", "project_prices"),
    "hedging": ("superreplicate", "price_interval", "attainability_set_check",
                "polar_cone_check"),
    "bayes": ("build_product_market", "build_mixture_market", "build_uncertain_price",
              "embed_semistatic", "free_lunch_truncation"),
    "scenario": ("parse_scenario", "serialize_model"),
    "cli": ("main",),
}

SOLVE_MODES = ("exact", "float")


def _label(module: str, func: str) -> str:
    # metric names start with a letter, so _linalg is reported as linalg
    return f"{module.lstrip('_')}.{func}"


def span_names() -> list[str]:
    names = []
    for module, funcs in TRACED.items():
        for f in funcs:
            if module == "lpsolve" and f == "solve":
                names.extend(f"lpsolve.solve.{m}" for m in SOLVE_MODES)
            else:
                names.append(_label(module, f))
    return names


def _bits(values) -> int:
    out = 0
    for v in values or ():
        if isinstance(v, Fraction):
            out = max(out, v.numerator.bit_length(), v.denominator.bit_length())
        elif isinstance(v, int):
            out = max(out, v.bit_length())
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.query = None  # id of the query in flight; None during set-up
        self.active = False
        self._patched: list = []

    def _wrap(self, name, func):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            label = name
            if name == "lpsolve.solve":
                mode = args[1] if len(args) > 1 else kwargs.get("mode", "exact")
                label = f"lpsolve.solve.{mode}"
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            extra = None
            start = clock()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                end = clock()
                extra = {"raised": type(exc).__name__}
                raise
            else:
                end = clock()
                if label.startswith("lpsolve.solve."):
                    lp = args[0] if args else kwargs["lp"]
                    extra = {"rows": len(lp.constraints), "cols": len(lp.objective),
                             "bits": max(_bits(result.x), _bits(result.duals))}
                elif name == "market.generator_matrix":
                    extra = {"generators": len(result[1])}
                return result
            finally:
                tracer.stack.pop()
                tracer.spans[idx] = (label, start, end, parent, tracer.query, extra)

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Wrap every traced function and turn recording on."""
        importlib.import_module("platonic")
        for module in TRACED:
            importlib.import_module(f"platonic.{module}")
        for module, funcs in TRACED.items():
            mod = sys.modules[f"platonic.{module}"]
            for f in funcs:
                original = getattr(mod, f)
                wrapper = self._wrap(_label(module, f), original)
                for mname, m in list(sys.modules.items()):
                    if mname != "platonic" and not mname.startswith("platonic."):
                        continue
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))
        self.active = True

    def uninstall(self) -> None:
        """Stop recording and restore the original functions."""
        self.active = False
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh]


def summarize(spans, query_times: dict, factors: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``query_times`` maps each query id to its latency and ``factors`` maps
    each query id, and ``None`` for set-up, to the reference clock factor
    that scales the durations of its spans. Calls, inclusive time and self
    time count every span of the pass, set-up included; the shares and
    per-query ratios count spans inside queries only.
    """
    names = span_names()
    calls = dict.fromkeys(names, 0)
    incl = dict.fromkeys(names, 0.0)
    durations = [(end - start) * factors[q] for _n, start, end, _p, q, _x in spans]
    child = [0.0] * len(spans)
    has_solve = [False] * len(spans)
    for i, (name, start, end, parent, _q, _x) in enumerate(spans):
        if parent >= 0:
            child[parent] += durations[i]
    # a span "made a solve" when a solve span sits anywhere below it
    for i in range(len(spans) - 1, -1, -1):
        name, _s, _e, parent, _q, _x = spans[i]
        if name.startswith("lpsolve.solve.") or has_solve[i]:
            has_solve[i] = True
            if parent >= 0:
                has_solve[parent] = True
    selfs = dict.fromkeys(names, 0.0)
    out: dict = {}
    rows = cols = bits = refusals = generators = 0
    served = {"ftap.find_measure": 0, "ftap.find_arbitrage": 0}
    solves_in_queries = 0
    lp_self_in_queries = 0.0
    covered = 0.0
    hedging_calls = hedging_solves = 0
    for i, (name, start, end, parent, query, extra) in enumerate(spans):
        dur = durations[i]
        calls[name] += 1
        incl[name] += dur
        selfs[name] += dur - child[i]
        extra = extra or {}
        if name == "lpsolve.solve.exact" and "rows" in extra:
            rows += extra["rows"]
            cols += extra["cols"]
            bits = max(bits, extra["bits"])
        if name == "lpsolve.solve.float" and extra.get("raised") == "FloatModeError":
            refusals += 1
        if name == "market.generator_matrix":
            generators += extra.get("generators", 0)
        if name in served and not has_solve[i]:
            served[name] += 1
        if query is None:
            continue
        if parent < 0:
            covered += dur
        if name.startswith("lpsolve.solve."):
            solves_in_queries += 1
        if name.startswith("lpsolve."):
            lp_self_in_queries += dur - child[i]
        if name.startswith("hedging.") and not _under(spans, parent, "hedging."):
            hedging_calls += 1
            hedging_solves += _count_below(spans, i, "lpsolve.solve.")
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = incl[name]
        out[f"{name}.self_s"] = selfs[name]
    # lpsolve.solve over both modes
    for key in ("calls", "s", "self_s"):
        out[f"lpsolve.solve.{key}"] = sum(out[f"lpsolve.solve.{m}.{key}"] for m in SOLVE_MODES)
    total_q = sum(query_times.values())
    out.update({
        "lpsolve.solve.exact.rows": rows,
        "lpsolve.solve.exact.cols": cols,
        "lpsolve.solve.exact.max_bits": bits,
        "lpsolve.solve.float.refusals": refusals,
        "lpsolve.solves_per_query": solves_in_queries / max(1, len(query_times)),
        "lpsolve.share": lp_self_in_queries / total_q if total_q else 0.0,
        "ftap.find_measure.cache_served": served["ftap.find_measure"],
        "ftap.find_arbitrage.cache_served": served["ftap.find_arbitrage"],
        "market.generator_matrix.generators": generators,
        "hedging.solves_per_call": hedging_solves / hedging_calls if hedging_calls else 0.0,
        "trace.untraced_share": 1 - covered / total_q if total_q else 0.0,
    })
    return out


def _under(spans, idx, prefix) -> bool:
    while idx >= 0:
        if spans[idx][0].startswith(prefix):
            return True
        idx = spans[idx][3]
    return False


def _count_below(spans, idx, prefix) -> int:
    # one thread and spans in call order: the spans that start before this
    # one ends are exactly its descendants
    n = 0
    end = spans[idx][2]
    for j in range(idx + 1, len(spans)):
        if spans[j][1] > end:
            break
        n += spans[j][0].startswith(prefix)
    return n


def median_metrics(passes: list[dict]) -> dict:
    """Median of each metric over traced passes."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
