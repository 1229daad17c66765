"""Dense Gaussian elimination used by the LP engine and the polyhedral checks.

Works over Fractions (exact, first-nonzero pivoting) and floats (largest
pivot, tolerance-aware). Problem sizes here are tiny, so clarity wins.
"""
from __future__ import annotations

from typing import Sequence

from .numeric import Num


def _pivot_row(rows: list[list[Num]], start: int, col: int, tol: Num) -> int:
    """Row index >= start with a usable pivot in ``col``; -1 if none."""
    if tol == 0:
        for i in range(start, len(rows)):
            if rows[i][col] != 0:
                return i
        return -1
    best, best_val = -1, tol
    for i in range(start, len(rows)):
        mag = abs(rows[i][col])
        if mag > best_val:
            best, best_val = i, mag
    return best


def rref(rows: list[list[Num]], tol: Num = 0) -> list[int]:
    """Reduce ``rows`` in place to reduced row echelon form; returns pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        i = _pivot_row(rows, r, c, tol)
        if i < 0:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot = rows[r][c]
        if pivot != 1:
            rows[r] = [v / pivot for v in rows[r]]
        for k in range(len(rows)):
            if k == r:
                continue
            factor = rows[k][c]
            if factor != 0:
                rk, rr = rows[k], rows[r]
                for j in range(c, ncols):
                    if rr[j] != 0:
                        rk[j] -= factor * rr[j]
                rk[c] = 0
        pivots.append(c)
        r += 1
    return pivots


def rank(matrix: Sequence[Sequence[Num]], tol: Num = 0) -> int:
    rows = [list(row) for row in matrix]
    return len(rref(rows, tol))


def _eliminate(matrix: Sequence[Sequence[Num]], rhs: Sequence[Num], tol: Num) -> tuple[list[Num] | None, int]:
    """Reduce ``[A | b]``: one solution of ``A x = b`` with free variables at
    zero (None if inconsistent) and the number of pivots in ``A``.

    A remaining row with ``|b| > tol`` would pivot in the last column, so
    inconsistency shows as that pivot."""
    n = len(matrix[0]) if matrix else 0
    rows = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = rref(rows, tol)
    if pivots and pivots[-1] == n:
        return None, len(pivots) - 1
    x: list[Num] = [0] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    return x, len(pivots)


def solve_unique(matrix: Sequence[Sequence[Num]], rhs: Sequence[Num], tol: Num = 0) -> list[Num] | None:
    """The solution of ``A x = b`` when it exists and is unique; None otherwise."""
    if not matrix:
        return [] if not rhs else None
    x, rank = _eliminate(matrix, rhs, tol)
    return x if x is not None and rank == len(x) else None


def column_span_solve(
    columns: Sequence[Sequence[Num]], target: Sequence[Num], tol: Num = 0
) -> list[Num] | None:
    """Coefficients expressing ``target`` in the span of ``columns``; None if outside."""
    n = len(target)
    if any(len(col) != n for col in columns):
        raise ValueError("columns and target must have equal length")
    matrix = [[col[i] for col in columns] for i in range(n)]
    return _eliminate(matrix, target, tol)[0]
