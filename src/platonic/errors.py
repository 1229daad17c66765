"""The exceptions that end a CLI command with a documented exit code.

They live apart from the solvers that raise them, so that the command line
can map them to exit codes without importing ``ftap``, ``hedging`` or
``lpsolve``. Each is also importable from the module that raises it.
:func:`unverified` is the one rule for what a failed check raises.
"""
from __future__ import annotations

from typing import Sequence


class InvalidModelError(ValueError):
    """The model fails validation; ``violations`` lists why."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("model fails validation: " + "; ".join(violations))
        self.violations = tuple(violations)


class FtapInconsistencyError(RuntimeError):
    """Neither an arbitrage nor a checked full-support measure came back."""

    def __init__(self, message: str, arbitrage, measure):
        super().__init__(message)
        self.arbitrage = arbitrage
        self.measure = measure


class ProjectionError(RuntimeError):
    """The projected process failed its (super)martingale postcondition."""


class UnpricedMarketError(RuntimeError):
    """Superreplication or a price projection requested in a market that
    admits arbitrage."""


class FloatModeError(RuntimeError):
    """The float backend could not certify its result; rerun in exact mode."""


class DimensionGuardError(ValueError):
    """Vertex enumeration requested beyond the supported problem size."""


def unverified(message: str, exact: bool) -> RuntimeError:
    """What a failed solver or certificate check raises: a ``RuntimeError``
    in exact arithmetic, where the check cannot fail without a bug, and a
    :class:`FloatModeError` in float, where lost precision is a refusal."""
    if exact:
        return RuntimeError(message)
    return FloatModeError(message + "; retry exact")
