"""Count and sha256 of the answers of the library benchmark plans.

    python3 tools/answer_digest.py [--root DIR] SEED [SEED ...]

For each seed, asks every query of the ``exact-verdict``, ``exact-pricing``
and ``float-screen`` plans of ``perfbench/gen.py`` (read, not changed) in
order, each plan in a fresh interpreter as a benchmark pass is, and
collects the :func:`render` of each answer, or the type and message of
the error that refused it. Prints one line per plan and seed, then one
line for all of them, each with the answer count and the sha256 of those
renderings joined by newlines. Two checkouts give the same answers when
their last lines match.

Every pass runs under ``PYTHONHASHSEED=0``. That does not pin string
hashing across Python versions (it changed in 3.11), and a set's ``repr``
follows it, so :func:`render` lists a frozenset's items sorted. The
``exact-verdict`` and ``exact-pricing`` digests are then the same on
Python 3.10 to 3.13. The ``float-screen`` digests still differ between
3.11 and 3.12, whose ``sum()`` of floats is compensated (ROADMAP item 15).
``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script), so one copy of this script can
digest an older checkout too. Stdlib only.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

PLANS = ("exact-verdict", "exact-pricing", "float-screen")

def render(value) -> str:
    """The ``repr`` of an answer, except that a frozenset lists its items
    sorted, also inside the tuples and dataclasses that answers are made
    of, which are rendered as their ``repr`` (a dataclass's default one)."""
    if isinstance(value, frozenset) and value:
        return "frozenset({" + ", ".join(sorted(map(render, value))) + "})"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = (f"{f.name}={render(getattr(value, f.name))}" for f in dataclasses.fields(value) if f.repr)
        return f"{type(value).__qualname__}({', '.join(fields)})"
    if isinstance(value, tuple):
        return f"({', '.join(map(render, value))}{',' if len(value) == 1 else ''})"
    return repr(value)


# Run in the child: the renderings of one plan's answers, as a JSON list.
_PASS = """
import json, sys
import gen, platonic
from answer_digest import render
workload, seed = sys.argv[1], int(sys.argv[2])
call = {
    "verdict": lambda q: platonic.ftap_verdict(q["model"], q["mode"], q.get("tol")),
    "superreplicate": lambda q: platonic.superreplicate(q["model"], q["claim"], q["mode"], q.get("tol")),
    "interval": lambda q: platonic.price_interval(q["model"], q["claim"], tol=q.get("tol")),
}
out = []
for q in gen.LIBRARY_WORKLOADS[workload](seed):
    try:
        out.append(render(call[q["op"]](q)))
    except Exception as exc:
        out.append(f"{type(exc).__name__}: {exc}")
print(json.dumps(out))
"""


def answers(root: Path, workload: str, seed: int) -> list[str]:
    path = [str(root / "src"), str(root / "perfbench"), str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", _PASS, workload, str(seed)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def digest(reprs: list[str]) -> str:
    return hashlib.sha256("\n".join(reprs).encode()).hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    everything = []
    for seed in args.seeds:
        for workload in PLANS:
            reprs = answers(args.root.resolve(), workload, seed)
            everything += reprs
            print(f"{workload} seed {seed}: {len(reprs)} answers, sha256 {digest(reprs)}")
    print(f"all: {len(everything)} answers, sha256 {digest(everything)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
