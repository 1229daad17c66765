"""Shared number handling for the exact (big-rational) and float arithmetic modes.

Values are plain Python numbers throughout: ``Fraction``/``int`` in exact mode,
``float`` in float mode. Exact data gets zero tolerances, float data a small
positive tolerance (default 1e-9). Time stamps are always exact rationals.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Num = Union[int, Fraction, float]

DEFAULT_FLOAT_TOL = 1e-9
PROB_SUM_TOL = 1e-12


def is_exact(value: Num) -> bool:
    """True for ints and Fractions (bools excluded)."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def all_exact(values: Iterable[Num]) -> bool:
    return all(is_exact(v) for v in values)


def pick_tol(arithmetic: str, tol: Num | None = None) -> Num:
    """Comparison tolerance for data in ``arithmetic`` (``"exact"`` or
    ``"float"``): an explicit value wins, else 0 for exact data. A NaN,
    infinite or negative tolerance raises ``ValueError``."""
    if tol is not None:
        if not 0 <= tol < math.inf:
            raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
        return tol
    return 0 if arithmetic == "exact" else DEFAULT_FLOAT_TOL


def lp_mode_and_tol(arithmetic: str, tol: Num | None = None) -> tuple[str, Num]:
    """LP arithmetic and comparison tolerance for data in ``arithmetic``:
    ``"exact"`` when the data are exact and the tolerance is 0, ``"float"``
    otherwise."""
    eff = pick_tol(arithmetic, tol)
    return ("exact" if eff == 0 and arithmetic == "exact" else "float"), eff


def solver_tol(eff_tol: Num) -> float:
    """Float-backend tolerance for an effective tolerance (the default when it is 0)."""
    return float(eff_tol) if eff_tol else DEFAULT_FLOAT_TOL


def parse_number(raw: object) -> Fraction:
    """Exact parse of scenario numbers.

    Accepts ints, Fractions, ``"a/b"`` or decimal strings; floats are read
    through their shortest decimal representation, so ``0.1`` parses as 1/10.
    """
    if type(raw) is Fraction:  # immutable: equal time stamps stay one object
        return raw
    if isinstance(raw, bool):
        raise TypeError(f"booleans are not numbers: {raw!r}")
    if isinstance(raw, (int, Fraction)):
        return Fraction(raw)
    if isinstance(raw, float):
        return Fraction(repr(raw))
    if isinstance(raw, str):
        return Fraction(raw.strip())
    raise TypeError(f"cannot parse a number from {type(raw).__name__}: {raw!r}")


def format_number(value: Num) -> object:
    """JSON-friendly rendering: exact values as ``"a/b"`` strings, floats as-is."""
    if is_exact(value):
        f = Fraction(value)
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    return value
