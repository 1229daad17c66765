"""Finite-scenario laboratory for markets whose prices carry more information
than traders can use: arbitrage detection, (super)martingale measure search,
superhedging by exact LP duality, and Bayesian-uncertainty scenario builders.
"""

from .bayes import (
    BayesSetup,
    NoiseSpec,
    ObservationSpec,
    OptionGridSpec,
    build_mixture_market,
    build_product_market,
    build_uncertain_price,
    embed_semistatic,
    free_lunch_sweep,
    free_lunch_truncation,
    posterior,
    posterior_process,
    semistatic_direct_price,
)
from .ftap import (
    ArbitrageCertificate,
    FtapInconsistencyError,
    FtapVerdict,
    InvalidModelError,
    MeasureCertificate,
    SeparatingDensity,
    find_arbitrage,
    find_measure,
    find_separating_density,
    ftap_verdict,
    project_prices,
)
from .hedging import (
    AttainabilityReport,
    HedgeCertificate,
    PolarConeReport,
    PriceInterval,
    UnpricedMarketError,
    attainability_set_check,
    polar_cone_check,
    price_interval,
    superreplicate,
)
from .lpsolve import (
    EQ,
    GE,
    LE,
    DimensionGuardError,
    FloatModeError,
    LinearProgram,
    LpSolution,
    enumerate_vertices,
    solve,
)
from .market import (
    Generator,
    Leg,
    MarketModel,
    NonMeasurableHoldings,
    Strategy,
    as_float_model,
    build_market,
    close_admissible_under_unions,
    enumerate_generators,
    validate,
    wealth_process,
)
from .probspace import (
    FiniteSpace,
    Filtration,
    Partition,
    RandomVariable,
    ZeroMassBlock,
    conditional_expectation,
    delayed_filtration,
    is_sub_filtration,
    refines,
)

__version__ = "0.1.0"
