"""The package namespace: its public names load on first use, and every
exception a CLI exit code stands for is one class wherever it is imported."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import platonic
import platonic.errors
import platonic.ftap
import platonic.hedging
import platonic.lpsolve

SRC = Path(__file__).resolve().parents[1] / "src"

# The public names of the package, each with the module that defines it.
PUBLIC = {
    "bayes": ["BayesSetup", "NoiseSpec", "ObservationSpec", "OptionGridSpec",
              "build_mixture_market", "build_product_market", "build_uncertain_price",
              "embed_semistatic", "free_lunch_sweep", "free_lunch_truncation", "posterior",
              "posterior_process", "semistatic_direct_price"],
    "ftap": ["ArbitrageCertificate", "FtapVerdict", "MeasureCertificate", "SeparatingDensity",
             "find_arbitrage", "find_measure", "find_separating_density", "ftap_verdict",
             "project_prices"],
    "hedging": ["AttainabilityReport", "HedgeCertificate", "PolarConeReport", "PriceInterval",
                "attainability_set_check", "polar_cone_check", "price_interval", "superreplicate"],
    "lpsolve": ["EQ", "GE", "LE", "LinearProgram", "LpSolution", "enumerate_vertices", "solve"],
    "market": ["Generator", "Leg", "MarketModel", "NonMeasurableHoldings", "Strategy",
               "as_float_model", "build_market", "close_admissible_under_unions",
               "enumerate_generators", "validate", "wealth_process"],
    "probspace": ["FiniteSpace", "Filtration", "Partition", "RandomVariable", "ZeroMassBlock",
                  "conditional_expectation", "delayed_filtration", "is_sub_filtration", "refines"],
}

# Each exception with the module that raises it and imports it back.
ERRORS = {
    "InvalidModelError": platonic.ftap,
    "FtapInconsistencyError": platonic.ftap,
    "ProjectionError": platonic.ftap,
    "UnpricedMarketError": platonic.ftap,
    "FloatModeError": platonic.lpsolve,
    "DimensionGuardError": platonic.lpsolve,
}


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return proc.stdout


def test_import_alone_loads_no_submodule():
    assert _fresh("import sys, platonic; print(*[m for m in sys.modules if m.startswith('platonic.')])") == "\n"


def test_every_public_name_resolves_to_its_module_attribute():
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(platonic, name) is getattr(sys.modules[f"platonic.{module}"], name)


def test_star_import_and_dir_list_the_public_names():
    names = {n for names in PUBLIC.values() for n in names} | set(ERRORS)
    assert set(platonic.__all__) == names
    assert names <= set(dir(platonic))
    namespace: dict = {}
    exec("from platonic import *", namespace)
    assert names <= set(namespace)


def test_a_lookup_sees_a_replaced_module_attribute(monkeypatch):
    """A wrapper set on the submodule, as the benchmark's tracer sets one,
    is what the package name returns."""
    monkeypatch.setattr(platonic.ftap, "ftap_verdict", len)
    assert platonic.ftap_verdict is len


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        platonic.no_such_name
    assert not hasattr(platonic, "split_product_label")


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_each_exception_is_one_class(name):
    cls = getattr(platonic.errors, name)
    assert getattr(ERRORS[name], name) is getattr(platonic, name) is cls
    assert cls.__module__ == "platonic.errors"


def test_hedging_re_exports_the_arbitrage_refusal():
    """``ftap._measure_or_refuse`` raises the refusal for every pricing
    function, yet ``hedging`` keeps the name: code that prices with
    ``hedging`` catches it from there (``from platonic.hedging import
    UnpricedMarketError``)."""
    assert platonic.hedging.UnpricedMarketError is platonic.errors.UnpricedMarketError
