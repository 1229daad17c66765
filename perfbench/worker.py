"""One pass of a library workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED TRACE_FILE LIMIT

Sets up (imports the program, builds the inputs of SEED), asks every query in
turn, each after the previous answer came back, then checks every answer.
``SPAWNED`` is the parent's ``time.monotonic()`` just before it started this
process; no query starts after the ``time.monotonic()`` value ``LIMIT``, so a
limit in the past measures set-up only. With a ``TRACE_FILE`` other than
``-`` the program's public functions are traced and the spans are written
there. Between queries the reference clock is read; each query gets the mean
of the factors read before and after it. Prints one JSON object with raw
times; the caller applies the factors.
"""
import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    workload, seed, spawned, trace_file = argv[0], int(argv[1]), float(argv[2]), argv[3]
    limit = float(argv[4])
    t0 = time.perf_counter()
    import platonic
    import_s = time.perf_counter() - t0
    if Path(platonic.__file__).resolve().parent != SRC / "platonic":
        raise SystemExit(f"platonic imported from {platonic.__file__}, not from {SRC}")
    tracer = None
    if trace_file != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import gen
    import refclock
    from check import check
    from platonic import DimensionGuardError, FloatModeError

    queries = gen.LIBRARY_WORKLOADS[workload](seed)
    call = {
        "verdict": lambda q: platonic.ftap_verdict(q["model"], q["mode"], q.get("tol")),
        "superreplicate": lambda q: platonic.superreplicate(
            q["model"], q["claim"], q["mode"], q.get("tol")),
        "interval": lambda q: platonic.price_interval(q["model"], q["claim"], tol=q.get("tol")),
    }
    ready = time.monotonic()
    speed = ready_factor = refclock.factor()
    latencies, factors, answers, outcomes = [], [], [], []
    clock = time.perf_counter
    for k, q in enumerate(queries):
        if time.monotonic() > limit:
            break
        fn = call[q["op"]]
        if tracer:
            tracer.query = k
        start = clock()
        try:
            answer = fn(q)
        except (FloatModeError, DimensionGuardError) as exc:
            end = clock()
            answer, outcome = None, ("refused", f"{type(exc).__name__}: {exc}")
        except Exception as exc:
            end = clock()
            answer, outcome = None, ("failed", f"raised {type(exc).__name__}: {exc}")
        else:
            end = clock()
            outcome = ("ok", None)
        latencies.append(end - start)
        after = refclock.factor()
        factors.append((speed + after) / 2)
        speed = after
        answers.append(answer)
        outcomes.append(outcome)
    if tracer:
        tracer.query = None
        tracer.uninstall()
        tracer.write(trace_file)
    for k, (q, answer) in enumerate(zip(queries, answers)):
        if outcomes[k][0] == "ok":
            cause = check(q, answer)
            if cause:
                outcomes[k] = ("failed", f"check: {cause}")
    print(json.dumps({
        "interpreter_s": STARTED - spawned,
        "import_s": import_s,
        "setup_s": ready - spawned,
        "labels": [f"{q['op']} {q.get('mode', '')} {q['label']}" for q in queries][:len(latencies)],
        "latencies": latencies,
        "factors": factors,
        "ready_factor": ready_factor,
        "outcomes": outcomes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
