"""Seeded inputs of the ``cli`` workload: scenario files and the invocations.

    python3 perfbench/cligen.py SEED OUT_DIR

Writes the builder scenarios and ``plan.json`` (one argv list per CLI
invocation) into OUT_DIR. Uses the JSON golden scenarios as data only and
imports nothing from the program, so generating the plan warms nothing.
"""
from __future__ import annotations

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "src" / "platonic" / "scenarios"


def _s(x: F) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _probs(rng: random.Random, n: int) -> list[str]:
    w = [rng.randint(1, 9) for _ in range(n)]
    return [_s(F(v, sum(w))) for v in w]


def _binomial_paths(steps: int) -> dict:
    """Two-step or three-step binomial path space with a stock from 1, u=2, d=1/2."""
    paths = [format(i, f"0{steps}b").replace("0", "u").replace("1", "d") for i in range(2 ** steps)]
    grid = [_s(F(k, steps)) for k in range(steps + 1)]
    filt = [[[p for p in paths if p[:k] == prefix] for prefix in sorted({p[:k] for p in paths})]
            for k in range(steps + 1)]
    stock = []
    for k in range(steps + 1):
        row = []
        for p in paths:
            v = F(1)
            for c in p[:k]:
                v *= 2 if c == "u" else F(1, 2)
            row.append(_s(v))
        stock.append(row)
    return {"outcomes": paths, "grid": grid, "filtration": filt, "stock": stock}


def bayes_doc(rng: random.Random, kind: str, n_thetas: int, steps: int) -> dict:
    base = _binomial_paths(steps)
    thetas = [f"t{k}" for k in range(n_thetas)]
    n = len(base["outcomes"])
    return {
        "schema_version": 1,
        "name": f"{kind}{n_thetas}x{n}",
        "bayes": {
            "kind": kind,
            "paths": {"outcomes": base["outcomes"], "probs": _probs(rng, n)},
            "grid": base["grid"],
            "path_filtration": base["filtration"],
            "thetas": thetas,
            "prior": _probs(rng, n_thetas),
            "models": {t: _probs(rng, n) for t in thetas},
            "prices": {"stock": base["stock"]},
            "observation": rng.choice([{}, {"delay": base["grid"][1]}, {"quantize": "1"}]),
            "claims_on_paths": {"call": [_s(max(F(v) - 1, F(0))) for v in base["stock"][-1]]},
        },
    }


def noise_doc(rng: random.Random, alphabet: int) -> dict:
    base = _binomial_paths(2)
    half = [F(k, 10) for k in range(1, alphabet // 2 + 1)]
    values = [-v for v in reversed(half)] + ([F(0)] if alphabet % 2 else []) + half
    return {
        "schema_version": 1,
        "name": f"noise{alphabet}",
        "noise": {
            "base": {"outcomes": base["outcomes"], "probs": _probs(rng, 4)},
            "grid": base["grid"],
            "base_filtration": base["filtration"],
            "prices": {"stock": base["stock"]},
            "values": [_s(v) for v in values],
            "probs": [_s(F(1, alphabet))] * alphabet,
            "times": [base["grid"][-1]],
            "observe": rng.choice(["base", "noisy"]),
            "observation": {},
        },
        "claims": {"call": {"call_on": "stock", "strike": "1"}},
    }


def _claims(doc: dict) -> list[str]:
    names = list(doc.get("claims", {}))
    names += list(doc.get("bayes", {}).get("claims_on_paths", {}))
    return sorted(set(names))


def _trading_set(doc: dict) -> str:
    if "admissible_sets" in doc:
        return ",".join(doc["admissible_sets"][0])
    block = doc.get("bayes") or doc.get("noise")
    return ",".join(sorted(block["prices"]))


def plan(seed: int, out: Path) -> list[list[str]]:
    """Every command on every golden scenario, with seeded flags and claims,
    plus ``bayes build`` on seeded builder scenarios that grow the parameter
    set and the noise alphabet. Paths are relative to the checkout root."""
    rng = random.Random(seed)
    root = GOLDEN.parent.parent.parent
    invocations = []
    for path in sorted(GOLDEN.glob("*.json")):
        doc = json.loads(path.read_text())
        f = str(path.relative_to(root))
        claims = _claims(doc)
        invocations += [
            ["validate", f],
            ["ftap", f, *rng.choice([[], ["--long-only"], ["--float"]])],
            ["project", f, "--set", _trading_set(doc)],
            ["superhedge", f, "--claim", rng.choice(claims), *rng.choice([[], ["--long-only"]])],
            ["interval", f, "--claim", rng.choice(claims)],
            ["check-duality", f, "--seed", str(rng.randint(0, 99))],
            ["bayes", "build", f, "--out", str(out.relative_to(root) / f"{path.stem}-built.json")],
        ]
    invocations.append(["experiment", "free-lunch", "--max-n", str(rng.randint(6, 8))])
    builders = [bayes_doc(rng, "product", k, 2) for k in (2, 4)]
    builders.append(bayes_doc(rng, "mixture", 3, 3))
    builders += [noise_doc(rng, m) for m in (3, 5)]
    for doc in builders:
        path = out / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=1))
        invocations.append(["bayes", "build", str(path.relative_to(root)),
                            "--out", str(path.relative_to(root).with_suffix(".built.json"))])
    rng.shuffle(invocations)
    return invocations


if __name__ == "__main__":
    seed, out = int(sys.argv[1]), Path(sys.argv[2]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    (out / "plan.json").write_text(json.dumps(plan(seed, out)))
