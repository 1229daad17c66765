"""Gaussian elimination used by the LP engine and the polyhedral checks.

The dense routines work over Fractions (exact, first-nonzero pivoting) and
floats (largest pivot, tolerance-aware); problem sizes there are tiny, so
clarity wins. ``solve_sparse`` is the exact square solve behind the LP's
basis certificate, where most columns hold one entry. It is fraction-free:
it eliminates in Python ints, and Fractions are built only in back
substitution, so no entry update pays for a ``Fraction`` and its gcd.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction
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


def solve_sparse(
    rows: Sequence[dict[int, int | Fraction]], rhs: Sequence[int | Fraction]
) -> list[Fraction] | None:
    """The solution of the square system ``A x = b`` whose rows are given as
    ``{column: nonzero value}`` maps, exactly; None when ``A`` is singular.
    Takes ints and Fractions and returns Fractions.

    The LP's equations arrive as ints, its standard form's rows already
    scaled to integers; only a right-hand side that subtracts columns at a
    rational upper bound brings Fractions. Each equation is scaled by the
    lcm of its denominators (1 for ints), so elimination runs on Python
    ints. It pivots on the shortest remaining row, in the column with the
    fewest remaining entries (Markowitz), so a column of one entry costs one
    step and the fill-in stays small; only nonzero entries are ever
    touched. A row holding the pivot column is cross-multiplied,
    ``(p/g) row - (f/g) prow`` with ``g = gcd(p, f)`` for the pivot ``p`` and
    the row's entry ``f``, and then divided by the gcd of its entries and its
    right-hand side. Each step multiplies a row by a nonzero number, so the
    zero pattern, the pivot order and the singularity verdict are those of
    elimination in rationals. Back substitution builds the Fractions."""
    n = len(rows)
    eqs: list[dict[int, int]] = []
    b: list[int] = []
    for row, r in zip(rows, rhs):
        ratios = [v.as_integer_ratio() for v in row.values()]
        r_num, r_den = r.as_integer_ratio()
        scale = math.lcm(r_den, *[d for _, d in ratios])
        eqs.append(dict(zip(row, [q * (scale // d) for q, d in ratios])))
        b.append(r_num * (scale // r_den))
    holders: dict[int, set[int]] = {}  # column -> unpivoted rows with an entry there
    for i, row in enumerate(eqs):
        for j in row:
            holders.setdefault(j, set()).add(i)
    queue = [(len(row), i) for i, row in enumerate(eqs)]
    heapq.heapify(queue)
    done = [False] * n
    order: list[tuple[int, int]] = []
    while queue:
        length, i = heapq.heappop(queue)
        if done[i] or length != len(eqs[i]):
            continue  # a stale entry: the row was pivoted or changed length
        prow = eqs[i]
        if not prow:
            return None
        done[i] = True
        for j in prow:
            holders[j].discard(i)
        col = min(prow, key=lambda j: len(holders[j]))
        p, b_i = prow[col], b[i]
        for k in list(holders[col]):
            row = eqs[k]
            g = math.gcd(p, row[col])
            scale, factor = p // g, row[col] // g
            if scale < 0:
                scale, factor = -scale, -factor
            if scale != 1:
                for j, v in row.items():
                    row[j] = v * scale
            for j, v in prow.items():
                if j in row:
                    new = row[j] - factor * v
                    if new:
                        row[j] = new
                    else:
                        del row[j]
                        holders[j].discard(k)
                else:
                    row[j] = -factor * v
                    holders[j].add(k)
            b_k = b[k] * scale - factor * b_i
            content = math.gcd(b_k, *row.values())
            if content > 1:
                for j, v in row.items():
                    row[j] = v // content
                b_k //= content
            b[k] = b_k
            heapq.heappush(queue, (len(row), k))
        order.append((i, col))
    if len(order) != n:
        return None
    # x_j = num[j] / den[j] in lowest terms
    num, den = [0] * n, [1] * n
    for i, col in reversed(order):
        row = eqs[i]
        others = [j for j in row if j != col]
        d = math.lcm(*[den[j] for j in others])
        q = b[i] * d - sum([row[j] * num[j] * (d // den[j]) for j in others])
        d *= row[col]
        g = math.gcd(q, d)
        num[col], den[col] = q // g, d // g
    return [Fraction(q, d) for q, d in zip(num, den)]
