"""Gaussian elimination used by the LP engine and the polyhedral checks.

The dense routines work over Fractions (exact, first-nonzero pivoting) and
floats (largest pivot, tolerance-aware); problem sizes there are tiny, so
clarity wins. ``solve_sparse`` is the exact square solve behind the LP's
basis certificate, where most columns are unit vectors.
"""
from __future__ import annotations

import heapq
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


def solve_sparse(rows: Sequence[dict[int, Num]], rhs: Sequence[Num]) -> list[Num] | None:
    """The solution of the square system ``A x = b`` whose rows are given as
    ``{column: nonzero value}`` maps, exactly; None when ``A`` is singular.

    Elimination pivots on the shortest remaining row, in the column with the
    fewest remaining entries (Markowitz), so unit columns cost one step and
    the fill-in stays small. Only nonzero entries are ever touched."""
    n = len(rows)
    rows = [dict(row) for row in rows]
    rhs = list(rhs)
    holders: dict[int, set[int]] = {}  # column -> unpivoted rows with an entry there
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    queue = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(queue)
    done = [False] * n
    order: list[tuple[int, int]] = []
    while queue:
        length, i = heapq.heappop(queue)
        if done[i] or length != len(rows[i]):
            continue  # a stale entry: the row was pivoted or changed length
        prow = rows[i]
        if not prow:
            return None
        done[i] = True
        for j in prow:
            holders[j].discard(i)
        col = min(prow, key=lambda j: len(holders[j]))
        pivot = prow[col]
        for k in list(holders[col]):
            row = rows[k]
            factor = row[col] / pivot
            for j, v in prow.items():
                new = row.get(j, 0) - factor * v
                if new:
                    if j not in row:
                        holders[j].add(k)
                    row[j] = new
                elif j in row:
                    del row[j]
                    holders[j].discard(k)
            rhs[k] -= factor * rhs[i]
            heapq.heappush(queue, (len(row), k))
        order.append((i, col))
    if len(order) != n:
        return None
    x: list[Num] = [0] * n
    for i, col in reversed(order):
        row = rows[i]
        acc = rhs[i]
        for j, v in row.items():
            if j != col:
                acc -= v * x[j]
        x[col] = acc / row[col]
    return x
