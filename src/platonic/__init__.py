"""Finite-scenario laboratory for markets whose prices carry more information
than traders can use: arbitrage detection, (super)martingale measure search,
superhedging by exact LP duality, and Bayesian-uncertainty scenario builders.

The public names below are loaded on first use (PEP 562), so ``import
platonic`` imports no submodule, and a command line that only validates a
scenario never compiles the solvers. Each lookup reads the submodule's
attribute, so a name and ``platonic.<module>.<name>`` are the same object.
"""
import importlib

_EXPORTS = {
    name: module
    for module, names in {
        "bayes": (
            "BayesSetup", "NoiseSpec", "ObservationSpec", "OptionGridSpec",
            "build_mixture_market", "build_product_market", "build_uncertain_price",
            "embed_semistatic", "free_lunch_sweep", "free_lunch_truncation", "posterior",
            "posterior_process", "semistatic_direct_price",
        ),
        "errors": (
            "DimensionGuardError", "FloatModeError", "FtapInconsistencyError",
            "InvalidModelError", "ProjectionError", "UnpricedMarketError",
        ),
        "ftap": (
            "ArbitrageCertificate", "FtapVerdict", "MeasureCertificate", "SeparatingDensity",
            "find_arbitrage", "find_measure", "find_separating_density", "ftap_verdict",
            "project_prices",
        ),
        "hedging": (
            "AttainabilityReport", "HedgeCertificate", "PolarConeReport", "PriceInterval",
            "attainability_set_check", "polar_cone_check", "price_interval", "superreplicate",
        ),
        "lpsolve": ("EQ", "GE", "LE", "LinearProgram", "LpSolution", "enumerate_vertices", "solve"),
        "market": (
            "Generator", "Leg", "MarketModel", "NonMeasurableHoldings", "Strategy",
            "as_float_model", "build_market", "close_admissible_under_unions",
            "enumerate_generators", "validate", "wealth_process",
        ),
        "probspace": (
            "FiniteSpace", "Filtration", "Partition", "RandomVariable", "ZeroMassBlock",
            "conditional_expectation", "delayed_filtration", "is_sub_filtration", "refines",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
