"""Gaussian elimination used by the LP engine and the polyhedral checks.

The dense routines work over Fractions (exact, first-nonzero pivoting) and
floats (largest pivot, tolerance-aware); problem sizes there are tiny, so
clarity wins. ``solve_sparse`` is the exact square solve behind the LP's
basis certificate, where most columns hold one entry. It is fraction-free:
it eliminates in Python ints, and Fractions are built only in the
substitutions, so no entry update pays for a ``Fraction`` and its gcd. Its
record of the elimination solves the transposed system as well, so one
factorization gives a basis both its primal and its dual solve (a revised
simplex's FTRAN and BTRAN). ``dots`` is every sparse dot product of the
certificates: in ints when exact, in order when float.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Mapping, Sequence

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


def dots(rows: Sequence[Mapping[int, Num]], x: Sequence[Num], exact: bool) -> list[Num]:
    """``sum_j row[j] * x[j]`` for each row, over the terms where ``x`` is
    nonzero: the one place where a sparse dot product takes its arithmetic,
    ``exact`` from the caller. Exact: one int sum per row, ``x`` over the
    lcm of its denominators once, each row over the lcm of its own, and one
    Fraction per row. Float: in row order, as ``sum`` adds from 0.0."""
    if not exact:
        return [sum([v * x[j] for j, v in row.items() if x[j]], 0.0) for row in rows]
    ratios = [v.as_integer_ratio() for v in x]
    x_den = math.lcm(*[d for _, d in ratios])
    ints = [q * (x_den // d) for q, d in ratios]
    out = []
    for row in rows:
        terms = [(v.as_integer_ratio(), ints[j]) for j, v in row.items() if ints[j]]
        den = math.lcm(*[d for (_, d), _ in terms])
        out.append(Fraction(sum([q * (den // d) * w for (q, d), w in terms]), den * x_den))
    return out


def _divided(b_num: int, b_den: int, terms, pivot: int, num: list[int], den: list[int]) -> tuple[int, int]:
    """One substitution step in ints: ``(b_num/b_den - sum of v num[j]/den[j]
    over terms (j, v)) / pivot`` in lowest terms, its denominator positive."""
    d = math.lcm(b_den, *[den[j] for j, _ in terms])
    q = b_num * (d // b_den) - sum([v * num[j] * (d // den[j]) for j, v in terms])
    d *= pivot
    g = math.gcd(q, d)
    if d < 0:
        g = -g
    return q // g, d // g


class SparseSolution:
    """The solution ``x`` of ``A x = b`` from :func:`solve_sparse`, and the
    record of its elimination, which solves ``A^T y = c`` as well.

    The elimination made ``U = M A`` with ``M = L_T .. L_1 S``: ``S`` holds
    each equation's start scale, and ``L_t`` is step t's row operation
    ``row_k <- (a row_k - f row_i) / g``. Row i of ``U`` holds its pivot
    column and only columns pivoted after it. So ``A^T y = c`` is ``U^T z =
    c``, a forward substitution in pivot order, and ``y = M^T z = S L_1^T ..
    L_T^T z``: the row operations transposed, in reverse order, in ints."""

    def __init__(self, x: list[Fraction], rows: list[dict[int, int]], order: list[tuple[int, int]],
                 scales: list[int], ops: list[tuple[int, int, int, int, int]]):
        self.x, self._rows, self._order, self._scales, self._ops = x, rows, order, scales, ops

    def transposed(self, c: Sequence[int | Fraction]) -> list[Fraction]:
        """The solution of ``A^T y = c``, exactly, as Fractions."""
        n = len(self._rows)
        num, den = [0] * n, [1] * n  # z, then M^T z without S, per row
        earlier: dict[int, list[tuple[int, int]]] = {}  # column -> (row, entry) of U so far
        for i, col in self._order:
            row = self._rows[i]
            num[i], den[i] = _divided(*c[col].as_integer_ratio(), earlier.get(col, []), row[col], num, den)
            for j, v in row.items():
                if j != col:
                    earlier.setdefault(j, []).append((i, v))
        for k, i, a, f, g in reversed(self._ops):
            if num[k]:  # w_i <- w_i - (f/g) w_k, then w_k <- (a/g) w_k
                num[i], den[i] = _divided(num[i] * g, den[i], [(k, f)], g, num, den)
                num[k], den[k] = _divided(a * num[k], den[k], [], g, num, den)
        return [Fraction(s * q, d) for s, q, d in zip(self._scales, num, den)]


def solve_sparse(
    rows: Sequence[dict[int, int | Fraction]], rhs: Sequence[int | Fraction]
) -> SparseSolution | None:
    """The solution of the square system ``A x = b`` whose rows are given as
    ``{column: nonzero value}`` maps, exactly, with the record of its
    elimination, which solves ``A^T y = c`` too; None when ``A`` is
    singular. Takes ints and Fractions and returns Fractions.

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
    scales: list[int] = []
    for row, r in zip(rows, rhs):
        ratios = [v.as_integer_ratio() for v in row.values()]
        r_num, r_den = r.as_integer_ratio()
        scale = math.lcm(r_den, *[d for _, d in ratios])
        eqs.append(dict(zip(row, [q * (scale // d) for q, d in ratios])))
        b.append(r_num * (scale // r_den))
        scales.append(scale)
    holders: dict[int, set[int]] = {}  # column -> unpivoted rows with an entry there
    for i, row in enumerate(eqs):
        for j in row:
            holders.setdefault(j, set()).add(i)
    queue = [(len(row), i) for i, row in enumerate(eqs)]
    heapq.heapify(queue)
    done = [False] * n
    order: list[tuple[int, int]] = []
    ops: list[tuple[int, int, int, int, int]] = []
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
            ops.append((k, i, scale, factor, content or 1))
            heapq.heappush(queue, (len(row), k))
        order.append((i, col))
    num, den = [0] * n, [1] * n  # x_j = num[j] / den[j], per column
    for i, col in reversed(order):
        row = eqs[i]
        num[col], den[col] = _divided(b[i], 1, [(j, v) for j, v in row.items() if j != col],
                                      row[col], num, den)
    x = [Fraction(q, d) for q, d in zip(num, den)]
    return SparseSolution(x, eqs, order, scales, ops)
