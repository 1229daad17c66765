from __future__ import annotations

import importlib
import pkgutil
import random
import sys
from pathlib import Path

import pytest

import platonic
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
def model_caches():
    """Every ``functools.lru_cache`` function defined in a ``platonic``
    module: the model-keyed caches, found without a hand-kept list."""
    found = []
    for info in pkgutil.iter_modules(platonic.__path__):
        module = importlib.import_module(f"platonic.{info.name}")
        found += [obj for obj in vars(module).values()
                  if hasattr(obj, "cache_info") and obj.__module__ == module.__name__]
    return found


class LpSolves(list):
    """Every LP solve of a test in call order, each as the pair (name of
    the ``platonic`` module that called it, the LP): a call of
    ``lpsolve.solve``, or of ``lpsolve.float_basis``, which an exact verdict
    solves its LP with when the answer passes its own check."""

    def modules(self) -> list[str]:
        return [module for module, _lp in self]

    def of(self, module: str) -> list:
        """The LPs that ``module`` solved, in call order."""
        return [lp for name, lp in self if name == module]


@pytest.fixture
def lp_solves(monkeypatch, model_caches):
    """Records each LP solve of the test: every ``platonic`` submodule that
    imports ``lpsolve.solve`` or ``lpsolve.float_basis`` (``model_caches``
    loads them all) gets a wrapper that appends its own name and the LP."""
    calls = LpSolves()

    def recording(name, inner):
        def solve(*args, **kwargs):
            calls.append((name, args[0]))
            return inner(*args, **kwargs)
        return solve

    for entry in ("solve", "float_basis"):
        inner = getattr(lpsolve, entry)
        for name, module in list(sys.modules.items()):
            if name.startswith("platonic.") and getattr(module, entry, None) is inner:
                monkeypatch.setattr(module, entry, recording(name, inner))
    return calls


@pytest.fixture
def cold_caches(model_caches):
    """Empties every model-keyed cache before and after the test; call the
    returned function to empty them again, so that a count of solves or
    pivots does not depend on the questions asked before it."""

    def empty():
        for cache in model_caches:
            cache.cache_clear()

    empty()
    yield empty
    empty()


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
