from __future__ import annotations

import random
from pathlib import Path

import pytest

from _factories import random_claim, random_market
from platonic import lpsolve

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "platonic" / "scenarios"

SUITE_SEED = 20250811
SUITE_SIZE = 200


@pytest.fixture(autouse=True)
def cold_float_slot():
    """Each test starts with no stored float basis, so a pivot count does
    not depend on the tests that ran before it."""
    lpsolve._last_optimum = None


@pytest.fixture(scope="session")
def suite():
    """The randomized instance suite shared by the acceptance criteria."""
    rng = random.Random(SUITE_SEED)
    instances = [random_market(rng) for _ in range(SUITE_SIZE)]
    claims = [
        [random_claim(rng, m.n_outcomes) for _ in range(5)] for m in instances
    ]
    return {"instances": instances, "claims": claims, "verdicts": {}, "long_verdicts": {}}


@pytest.fixture()
def scenario_path():
    def get(name: str) -> str:
        return str(SCENARIO_DIR / f"{name}.json")

    return get
