"""Wall time per question on binomial trees that grow, one rung at a time.

    python3 tools/ladder.py [--root DIR]

A rung is one market: ``tests/_factories.binomial_tree(steps, trading)``
(2**steps outcomes), exact or passed through ``as_float_model``. On each
rung a fresh interpreter builds the market, asks its free verdict, then
the free superhedges of the calls (S_T - K)+ at K = 60, 100 and 140, one
after another as a user would, and reports the wall time of each question
and its answer: the verdict's kind, or the price, or the type and message
of the error that refused it. The rungs run one after another, each in its
own child process, so no cache or float basis carries from one rung to the
next. A rung still running after ``CUTOFF`` (60) seconds is stopped; each
question it had not answered then is reported as ``"> cutoff"`` with the
cutoff in seconds, not as a failure. A rung whose child fails on its own
(a nonzero exit status before the cutoff) reports each question it had not
answered as an error carrying the end of the child's stderr.

Prints one JSON line with the commit of the checkout and the interpreter,
then one JSON line per rung. The rungs are steps 6 to 9 under full,
delayed and gridded trading in both arithmetics. ``--root`` names the
checkout whose ``src/`` and ``tests/`` are used (default: the one holding
this script), so one copy of this script can measure an older checkout
too. Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

STEPS = (6, 7, 8, 9)
TRADINGS = ("full", "delayed", "gridded")
ARITHMETICS = ("exact", "float")
STRIKES = (60, 100, 140)
CUTOFF = 60.0  # seconds per rung

# Run in the child: one JSON line per question, flushed as it is answered.
_RUNG = """
import json, sys, time
from _factories import binomial_tree
from platonic import as_float_model, ftap_verdict, superreplicate
steps, trading, arithmetic = int(sys.argv[1]), sys.argv[2], sys.argv[3]
strikes = [int(k) for k in sys.argv[4:]]


def timed(question, ask, show):
    start = time.perf_counter()
    try:
        value = ask()
        answer = show(value)
    except Exception as exc:
        value, answer = None, {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps({"question": question, "s": round(time.perf_counter() - start, 4), **answer}),
          flush=True)
    return value


def build():
    model = binomial_tree(steps, trading)
    return model if arithmetic == "exact" else as_float_model(model)


model = timed("build", build, lambda m: {"outcomes": m.n_outcomes})
timed("verdict", lambda: ftap_verdict(model), lambda v: {"verdict": v.kind})
stock = model.prices[0][-1].values
zero = stock[0] * 0
for strike in strikes:
    call = [max(s - strike, zero) for s in stock]
    timed(f"call {strike}", lambda: superreplicate(model, call), lambda h: {"price": str(h[0].price)})
"""


def rung(root: Path, steps: int, trading: str, arithmetic: str, cutoff: float) -> dict:
    """One rung's report: its questions in order, each with its wall time
    in seconds and its answer, or ``"> cutoff"`` when the rung was stopped
    first, or the child's error when it failed first."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    args = [sys.executable, "-c", _RUNG, str(steps), trading, arithmetic, *map(str, STRIKES)]
    try:
        done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=cutoff)
        out, stopped = done.stdout, False
        unanswered = {"s": None, "error": f"child exited with status {done.returncode}: "
                                          f"{done.stderr.strip()[-500:]}"}
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        out = out.decode() if isinstance(out, bytes) else out
        stopped, unanswered = True, {"s": "> cutoff"}
    answered = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    asked = ["build", "verdict", *(f"call {k}" for k in STRIKES)]
    questions = answered + [{"question": q, **unanswered} for q in asked[len(answered):]]
    return {"rung": f"bin {steps} {trading} {arithmetic}", "steps": steps, "trading": trading,
            "arithmetic": arithmetic, "cutoff_s": cutoff, "stopped": stopped, "questions": questions}


def commit(root: Path) -> str:
    try:
        return subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    root = parser.parse_args(argv).root.resolve()
    print(json.dumps({"commit": commit(root), "python": platform.python_version(),
                      "cutoff_s": CUTOFF}), flush=True)
    for steps in STEPS:
        for trading in TRADINGS:
            for arithmetic in ARITHMETICS:
                print(json.dumps(rung(root, steps, trading, arithmetic, CUTOFF)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
