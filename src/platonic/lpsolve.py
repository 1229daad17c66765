"""Two-phase simplex with exact-rational and float backends, plus a
brute-force vertex enumerator for small polytopes.

A solve has three stages: the standard form, pivoting on a dense tableau
from a given basis, and the extraction and certification of the answer. Both
backends share them.

Start. Every row starts on a +1 slack when it has one after the row is
negated to make its right-hand side nonnegative; a ``>=`` row with
right-hand side 0 is negated too, so its slack starts basic. The other rows
(equations, and inequalities whose slack is -1 after the negation) get an
artificial, and phase 1 runs only while one is basic. Every row of the
arbitrage LP ``G lambda - g >= 0`` starts feasible this way.

Pricing. The entering column has the most negative reduced cost (Dantzig),
ties to the lowest index; the leaving row has the minimum ratio, ties to the
lowest basic index. Dantzig's rule can cycle on degenerate LPs (Beale's
example), so after as many degenerate pivots in a row as the tableau has
rows, Bland's first-negative rule takes over until the next nondegenerate
pivot. Each nondegenerate pivot strictly improves the objective, which takes
finitely many values at bases, and Bland's rule cannot cycle inside a
degenerate run: exact pivoting terminates.

Exact mode finds its basis in float and certifies it once, exactly. A float
simplex runs on a float copy of the exact standard form; its final basis B is
then checked in rationals by one sparse solve of ``B x_B = b`` and one of
``B^T y = c_B``: ``x_B >= 0``, every equation dropped as redundant holds at
``x``, and every non-artificial column has reduced cost ``c_j - y.A_j >= 0``.
Those checks prove the basis optimal, and ``y`` is its dual vector. When a
check fails, or the float stage refuses or ends elsewhere than at an optimum,
exact pivoting takes over: from the float basis when it is exactly feasible,
otherwise from the slack and artificial start. So every status exact mode
reports is proved in rationals: an optimum by the basis checks and a zero
duality gap with complementary slackness, infeasibility and unboundedness by
exact pivoting.

The float backend runs the same pivoting with tolerances. It reads its duals
off the final phase-2 cost row: each row's start column is a unit column of
cost 0, so its reduced cost is minus that row's dual, also for a row dropped
as redundant. It then certifies the result (feasibility, gap and
complementary slackness within its tolerance); when certification fails, or
the pivot budget runs out, it raises :class:`FloatModeError` instead of ever
returning a wrong status.

Determinism: ties are broken by lowest index, so identical inputs always
produce identical outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import _linalg
from .numeric import DEFAULT_FLOAT_TOL, Num

LE, EQ, GE = "<=", "==", ">="
_RELATIONS = (LE, EQ, GE)

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"

_PIVOT_TOL = 1e-10          # float-mode pivot threshold
_MAX_PIVOTS = 200_000       # float safety net; exact pivoting terminates

Bounds = tuple[Num | None, Num | None]


class FloatModeError(RuntimeError):
    """The float backend could not certify its result; rerun in exact mode."""


class DimensionGuardError(ValueError):
    """Vertex enumeration requested beyond the supported problem size."""


def _unreachable(message: str, mode: str) -> RuntimeError:
    """A state exact arithmetic never reaches: a solver bug in exact mode,
    lost precision (a refusal) in float mode."""
    if mode == "exact":
        return RuntimeError(message)
    return FloatModeError(message + "; retry exact")


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Num, ...]
    relation: str
    rhs: Num

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    objective: tuple[Num, ...]
    sense: str
    constraints: tuple[Constraint, ...]
    bounds: tuple[Bounds, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective", tuple(self.objective))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "bounds", tuple((lo, hi) for lo, hi in self.bounds))
        if self.sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")
        n = len(self.objective)
        if len(self.bounds) != n:
            raise ValueError("one bound pair per variable required")
        for con in self.constraints:
            if len(con.coeffs) != n:
                raise ValueError("constraint dimension mismatch")

    @staticmethod
    def build(
        objective: Sequence[Num],
        sense: str,
        constraints: Sequence[tuple[Sequence[Num], str, Num]],
        bounds: Sequence[Bounds] | None = None,
    ) -> "LinearProgram":
        n = len(objective)
        cons = tuple(Constraint(tuple(c), rel, rhs) for c, rel, rhs in constraints)
        if bounds is None:
            bounds = ((None, None),) * n
        return LinearProgram(tuple(objective), sense, cons, tuple(bounds))


@dataclass(frozen=True)
class LpSolution:
    """Solver verdict with certificates.

    ``duals`` has one entry per constraint (bound duals are folded into
    ``dual_objective``, which matches ``objective`` exactly in exact mode).
    """

    status: str
    x: tuple[Num, ...] | None
    duals: tuple[Num, ...] | None
    objective: Num | None
    dual_objective: Num | None


def _reduced_cost_row(c: list[Num], rows: list[list[Num]], basis: list[int]) -> list[Num]:
    """Cost row [reduced costs | -objective] for a tableau canonical w.r.t. basis."""
    cost = list(c) + [0]
    for i, bc in enumerate(basis):
        factor = cost[bc]
        if factor != 0:
            row = rows[i]
            for j, v in enumerate(row):
                if v != 0:
                    cost[j] -= factor * v
    return cost


def _do_pivot(rows: list[list[Num]], cost: list[Num], basis: list[int], r: int, c: int) -> None:
    prow = rows[r]
    pivot = prow[c]
    if pivot != 1:
        rows[r] = prow = [v / pivot for v in prow]
    nz = [(j, v) for j, v in enumerate(prow) if v != 0]
    for row in rows:
        if row is prow:
            continue
        factor = row[c]
        if factor != 0:
            for j, v in nz:
                row[j] -= factor * v
            row[c] = 0
    factor = cost[c]
    if factor != 0:
        for j, v in nz:
            cost[j] -= factor * v
        cost[c] = 0
    basis[r] = c


def _pivot_loop(
    rows: list[list[Num]],
    cost: list[Num],
    basis: list[int],
    n_enter: int,
    tol: Num,
) -> str:
    """Simplex on a feasible canonical tableau, where only the first
    ``n_enter`` columns may enter the basis; returns a status.

    The entering column has the most negative reduced cost (Dantzig), ties to
    the lowest index. After ``len(rows)`` degenerate pivots (ratio 0) in a
    row, Bland's first-negative rule takes over until the next nondegenerate
    pivot, so the loop cannot cycle."""
    columns = range(n_enter)
    degenerate = 0
    for _ in range(_MAX_PIVOTS):
        if degenerate < len(rows):
            enter = min(columns, key=cost.__getitem__, default=-1)
        else:
            enter = next((j for j in columns if cost[j] < -tol), -1)
        if enter < 0 or not cost[enter] < -tol:
            return OPTIMAL
        leave = -1
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > tol:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        degenerate = degenerate + 1 if best == 0 else 0
        _do_pivot(rows, cost, basis, leave, enter)
    if tol == 0:  # pragma: no cover - the Bland guard terminates
        raise RuntimeError("exact simplex exceeded the pivot budget")
    raise FloatModeError("simplex did not terminate within the pivot budget")


@dataclass
class _StandardForm:
    """``min cost.x`` s.t. ``A x = b``, ``x >= 0`` with ``b >= 0``, built from a
    :class:`LinearProgram` in one arithmetic.

    Finite lower bounds are shifted to zero, free variables split into two
    columns, upper bounds become rows after the constraints. The columns are
    the structural ones, a slack per inequality row, then an artificial per
    row whose slack cannot start basic (``n_real`` counts the columns before
    the artificials). ``start`` picks each row's +1 slack or artificial, a
    basis on which ``A`` is the identity."""

    rows: list[dict[int, Num]]  # A, nonzero entries only
    rhs: list[Num]              # b
    cost: list[Num]             # per column; 0 on slacks and artificials
    start: list[int]
    n_real: int
    art_rows: list[int]         # the row that created each artificial
    # the way back to the caller's LP
    col_map: list[tuple]
    signs: list[int]            # -1 where a row was negated (b < 0, or a ">=" row with b = 0)
    constraint: list[int | None]  # the LP constraint behind each row; None for bounds
    obj_shift: Num


def _standard_form(lp: LinearProgram, conv) -> _StandardForm | None:
    """The standard form of ``lp``; None when an empty box makes it infeasible."""
    c_min = [conv(v) for v in lp.objective]
    if lp.sense == "max":
        c_min = [-v for v in c_min]

    col_map: list[tuple] = []
    n_struct = 0
    bound_rows: list[tuple[dict[int, Num], Num]] = []
    for lo, hi in lp.bounds:
        if lo is None:
            col_map.append(("split", n_struct, n_struct + 1))
            cols = {n_struct: conv(1), n_struct + 1: conv(-1)}
            n_struct += 2
            shift = conv(0)
        else:
            shift = conv(lo)
            col_map.append(("plain", n_struct, shift))
            cols = {n_struct: conv(1)}
            n_struct += 1
        if hi is not None:
            hi_c = conv(hi)
            if lo is not None and hi_c < shift:
                return None
            bound_rows.append((cols, hi_c - shift))

    std_rows: list[tuple[dict[int, Num], str, Num, int | None]] = []
    for i, con in enumerate(lp.constraints):
        row: dict[int, Num] = {}
        shift_amount = conv(0)
        for j, v in enumerate(con.coeffs):
            if v == 0:
                continue
            v = conv(v)
            spec = col_map[j]
            row[spec[1]] = v
            if spec[0] == "plain":
                shift_amount += v * spec[2]
            else:
                row[spec[2]] = -v
        std_rows.append((row, con.relation, conv(con.rhs) - shift_amount, i))
    for cols, rhs in bound_rows:
        std_rows.append((cols, LE, rhs, None))

    cost = [conv(0)] * n_struct
    obj_shift = conv(0)
    for j, v in enumerate(c_min):
        spec = col_map[j]
        cost[spec[1]] += v
        if spec[0] == "plain":
            obj_shift += v * spec[2]
        else:
            cost[spec[2]] -= v

    # Slack columns, then artificials for the rows whose slack is not +1
    # once the row is negated to make its rhs nonnegative. A ">=" row with
    # rhs 0 is negated too, so that its slack starts basic.
    n_real = n_struct + sum(1 for _, rel, _, _ in std_rows if rel != EQ)
    rows: list[dict[int, Num]] = []
    rhs_out: list[Num] = []
    start: list[int] = []
    signs: list[int] = []
    art_rows: list[int] = []
    scol = n_struct
    for i, (row, rel, rhs, _con) in enumerate(std_rows):
        negate = rhs < 0 or (rhs == 0 and rel == GE)
        plus_slack = False
        if rel != EQ:
            row[scol] = conv(1) if rel == LE else conv(-1)
            plus_slack = (rel == LE) != negate
            if plus_slack:
                start.append(scol)
            scol += 1
        if negate:
            row = {j: -v for j, v in row.items()}
            rhs = -rhs
        if not plus_slack:
            acol = n_real + len(art_rows)
            row[acol] = conv(1)
            start.append(acol)
            art_rows.append(i)
        rows.append(row)
        rhs_out.append(rhs)
        signs.append(-1 if negate else 1)
    cost += [conv(0)] * (n_real + len(art_rows) - n_struct)
    return _StandardForm(
        rows, rhs_out, cost, start, n_real, art_rows, col_map, signs,
        [con for _, _, _, con in std_rows], obj_shift,
    )


@dataclass
class _Tableau:
    """Dense ``[A | b]`` rows canonical for ``basis`` (one basic column per
    row) and the phase-2 cost. ``kept`` lists the standard-form rows the
    tableau still represents: a redundant equation leaves with its row.
    ``reduced`` is the phase-2 cost row ``[c - y.A | -objective]``, set by
    :func:`_simplex` and kept canonical by its pivots."""

    rows: list[list[Num]]
    cost: list[Num]
    basis: list[int]
    kept: list[int]
    reduced: list[Num] | None = None


def _start_tableau(form: _StandardForm, conv) -> _Tableau:
    """The tableau of ``form`` on its slack and artificial basis, in ``conv``."""
    ncols = len(form.cost)
    rows = []
    for row, rhs in zip(form.rows, form.rhs):
        full = [conv(0)] * ncols + [conv(rhs)]
        for j, v in row.items():
            full[j] = conv(v)
        rows.append(full)
    return _Tableau(rows, [conv(v) for v in form.cost], list(form.start), list(range(len(rows))))


def _simplex(form: _StandardForm, tab: _Tableau, tol_piv: Num, tol_cert: Num, mode: str) -> str:
    """Two-phase simplex from the tableau's basis, in place; returns a
    status. Phase 1 runs while an artificial is basic."""
    n_real = form.n_real
    ncols = len(tab.cost)
    rows, basis = tab.rows, tab.basis
    if any(j >= n_real for j in basis):
        cost1 = _reduced_cost_row([0] * n_real + [1] * (ncols - n_real), rows, basis)
        status = _pivot_loop(rows, cost1, basis, ncols, tol_piv)
        if status != OPTIMAL:
            raise _unreachable("phase 1 cannot be unbounded", mode)
        if -cost1[-1] > tol_cert:
            return INFEASIBLE
        # Drive leftover artificials out of the basis. A row whose non-artificial
        # part vanished states "artificial = 0" only, i.e. the equation that
        # created this artificial is redundant: drop the tableau row and take
        # that creating equation out of the dual bookkeeping.
        drop: list[int] = []
        for i in range(len(rows)):
            if basis[i] >= n_real:
                pivot_col = -1
                for j in range(n_real):
                    if abs(rows[i][j]) > tol_piv:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _do_pivot(rows, cost1, basis, i, pivot_col)
                else:
                    drop.append(i)
        for i in reversed(drop):
            tab.kept.remove(form.art_rows[basis[i] - n_real])
            del rows[i], basis[i]
    tab.reduced = _reduced_cost_row(tab.cost, rows, basis)
    return _pivot_loop(rows, tab.reduced, basis, n_real, tol_piv)


def _basis_solve(form: _StandardForm, basis: list[int], kept: list[int], transpose: bool):
    """Exactly solve ``B x_B = b`` (or ``B^T y = c_B``) for the basis matrix
    ``B``: the kept rows of ``A`` restricted to the basic columns."""
    position = {col: k for k, col in enumerate(basis)}
    eqs: list[dict[int, Num]] = [{} for _ in kept]
    for i, r in enumerate(kept):
        for j, v in form.rows[r].items():
            k = position.get(j)
            if k is not None:
                if transpose:
                    eqs[k][i] = v
                else:
                    eqs[i][k] = v
    rhs = [form.cost[j] for j in basis] if transpose else [form.rhs[r] for r in kept]
    return _linalg.solve_sparse(eqs, rhs)


def _primal(form: _StandardForm, basis: list[int], kept: list[int]) -> list[Num] | None:
    """The basic solution x_B, exactly, when it is feasible: B nonsingular
    and free of artificials, x_B >= 0, and every dropped row holds at it."""
    if any(j >= form.n_real for j in basis):
        return None
    x_b = _basis_solve(form, basis, kept, transpose=False)
    if x_b is None or any(v < 0 for v in x_b):
        return None
    value = dict(zip(basis, x_b))
    kept_set = set(kept)
    for r, row in enumerate(form.rows):
        if r not in kept_set and sum(v * value.get(j, 0) for j, v in row.items()) != form.rhs[r]:
            return None
    return x_b


def _dual(form: _StandardForm, basis: list[int], kept: list[int]) -> list[Num] | None:
    """The basis duals y (B^T y = c_B) exactly, when every non-artificial
    column has reduced cost c_j - y.A_j >= 0; None otherwise."""
    y = _basis_solve(form, basis, kept, transpose=True)
    if y is None:
        return None
    reduced = form.cost[:form.n_real]
    for y_i, r in zip(y, kept):
        if y_i:
            for j, v in form.rows[r].items():
                if j < form.n_real:
                    reduced[j] -= y_i * v
    return y if all(d >= 0 for d in reduced) else None


def _canonical(form: _StandardForm, basis: list[int], kept: list[int]) -> _Tableau | None:
    """The exact tableau of ``basis`` (nonsingular on the kept rows), to pivot
    on from there; None when a dropped row is not implied by the kept ones."""
    tab = _start_tableau(form, Fraction)
    rows = tab.rows
    no_cost = [0] * (len(tab.cost) + 1)
    placed = list(tab.basis)
    free = list(kept)
    for col in basis:
        r = next(i for i in free if rows[i][col] != 0)
        _do_pivot(rows, no_cost, placed, r, col)
        free.remove(r)
    kept_set = set(kept)
    if any(any(rows[r]) for r in range(len(rows)) if r not in kept_set):
        return None
    return _Tableau([rows[r] for r in kept], tab.cost, [placed[r] for r in kept], list(kept))


def _exact_optimum(form: _StandardForm):
    """Status and, at an optimum, the certified (basis, kept, x_B, y).

    A float simplex picks the basis; one exact solve of its basis system
    certifies it. Exact pivoting takes over from that basis when the
    check finds it exactly feasible but not optimal, and from the slack and
    artificial start when the float stage refused, ended elsewhere than at
    an optimum, or left a basis that is not exactly feasible."""
    tab = _start_tableau(form, float)
    try:
        guided = _simplex(form, tab, _PIVOT_TOL, DEFAULT_FLOAT_TOL, "float") == OPTIMAL
    except FloatModeError:
        guided = False
    start = None
    if guided:
        x_b = _primal(form, tab.basis, tab.kept)
        if x_b is not None:
            y = _dual(form, tab.basis, tab.kept)
            if y is not None:
                return OPTIMAL, (tab.basis, tab.kept, x_b, y)
            start = _canonical(form, tab.basis, tab.kept)
    tab = start if start is not None else _start_tableau(form, Fraction)
    status = _simplex(form, tab, 0, 0, "exact")
    if status != OPTIMAL:
        return status, None
    x_b = _primal(form, tab.basis, tab.kept)
    y = _dual(form, tab.basis, tab.kept) if x_b is not None else None
    if y is None:  # pragma: no cover - exact pivoting ends on a certified basis
        raise RuntimeError("exact simplex ended on a basis that fails its check")
    return OPTIMAL, (tab.basis, tab.kept, x_b, y)


def solve(lp: LinearProgram, mode: str = "exact", tol: float = DEFAULT_FLOAT_TOL) -> LpSolution:
    """Solve ``lp``; see the module docstring for the guarantees per mode."""
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    exact = mode == "exact"
    form = _standard_form(lp, Fraction if exact else float)
    if form is None:
        return LpSolution(INFEASIBLE, None, None, None, None)
    if exact:
        status, optimum = _exact_optimum(form)
        if status != OPTIMAL:
            return LpSolution(status, None, None, None, None)
        basis, kept, x_b, y = optimum
        y_full = [Fraction(0)] * len(form.rows)
        for r, y_r in zip(kept, y):
            y_full[r] = y_r
        tol_cert: Num = 0
    else:
        tab = _start_tableau(form, float)
        status = _simplex(form, tab, _PIVOT_TOL, tol, mode)
        if status != OPTIMAL:
            return LpSolution(status, None, None, None, None)
        basis = tab.basis
        x_b = [row[-1] for row in tab.rows]
        # Row r's start column is the unit column e_r of cost 0, so its
        # final reduced cost is -y_r; dropped rows included. 0.0 - d is a
        # float, never -0.0, also where a pivot left an int 0.
        y_full = [0.0 - tab.reduced[j] for j in form.start]
        tol_cert = tol
    return _solution(lp, form, basis, x_b, y_full, tol_cert, mode)


def _solution(lp, form, basis, x_b, y_full, tol, mode) -> LpSolution:
    """The caller's x, duals and objectives from a basic solution and the
    duals of every standard-form row, certified."""
    conv = Fraction if mode == "exact" else float
    zero = conv(0)
    value = dict(zip(basis, x_b))
    x_user: list[Num] = []
    for spec in form.col_map:
        if spec[0] == "plain":
            x_user.append(value.get(spec[1], zero) + spec[2])
        else:
            x_user.append(value.get(spec[1], zero) - value.get(spec[2], zero))
    objective = sum(conv(cv) * xv for cv, xv in zip(lp.objective, x_user))

    duals_min = [zero] * len(lp.constraints)
    dual_obj_min = form.obj_shift
    for i, y_i in enumerate(y_full):
        dual_obj_min += y_i * form.rhs[i]
        if form.constraint[i] is not None:
            duals_min[form.constraint[i]] = y_i * form.signs[i]

    if lp.sense == "max":
        duals_user = tuple(-d for d in duals_min)
        dual_objective = -dual_obj_min
    else:
        duals_user = tuple(duals_min)
        dual_objective = dual_obj_min

    _certify(lp, x_user, duals_user, objective, dual_objective, tol, mode)
    return LpSolution(OPTIMAL, tuple(x_user), duals_user, objective, dual_objective)


def _certify(lp, x, duals, objective, dual_objective, tol, mode) -> None:
    """Feasibility, gap and complementary slackness; bug in exact, retry hint in float."""
    problems: list[str] = []
    scale = 1 + abs(objective)
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is not None and x[j] < lo - tol:
            problems.append(f"bound violation on variable {j}")
        if hi is not None and x[j] > hi + tol:
            problems.append(f"bound violation on variable {j}")
    for i, con in enumerate(lp.constraints):
        lhs = sum(c * v for c, v in zip(con.coeffs, x) if c != 0)
        gap = lhs - con.rhs
        if con.relation == LE and gap > tol:
            problems.append(f"constraint {i} violated")
        elif con.relation == GE and gap < -tol:
            problems.append(f"constraint {i} violated")
        elif con.relation == EQ and abs(gap) > tol:
            problems.append(f"constraint {i} violated")
        if con.relation != EQ and abs(duals[i]) > tol and abs(gap) > tol:
            problems.append(f"complementary slackness fails on constraint {i}")
    if abs(objective - dual_objective) > tol * scale:
        problems.append("duality gap")
    if problems:
        if mode == "exact":  # pragma: no cover - would be a solver bug
            raise RuntimeError("exact solve failed self-certification: " + "; ".join(problems))
        raise FloatModeError("; ".join(problems) + "; retry exact")


def enumerate_vertices(
    lp: LinearProgram,
    *,
    dim_guard: int = 12,
    combo_guard: int = 500_000,
) -> list[tuple[Fraction, ...]]:
    """All vertices of the constraint set of ``lp`` (objective ignored), exactly.

    Brute-force oracle for small instances: equality constraints are always
    active, every choice of additional active inequalities is solved and the
    candidate point is kept iff it satisfies everything. Intended for bounded
    polytopes; on unbounded sets it still returns all basic feasible points.
    """
    n = len(lp.objective)
    if n > dim_guard:
        raise DimensionGuardError(f"dimension {n} exceeds the guard {dim_guard}")
    eqs: list[tuple[list[Fraction], Fraction]] = []
    ineqs: list[tuple[list[Fraction], Fraction]] = []  # normalized to a.x <= b
    for con in lp.constraints:
        coeffs = [Fraction(v) for v in con.coeffs]
        rhs = Fraction(con.rhs)
        if con.relation == EQ:
            eqs.append((coeffs, rhs))
        elif con.relation == LE:
            ineqs.append((coeffs, rhs))
        else:
            ineqs.append(([-v for v in coeffs], -rhs))
    for j, (lo, hi) in enumerate(lp.bounds):
        unit = [Fraction(0)] * n
        if lo is not None:
            row = list(unit)
            row[j] = Fraction(-1)
            ineqs.append((row, -Fraction(lo)))
        if hi is not None:
            row = list(unit)
            row[j] = Fraction(1)
            ineqs.append((row, Fraction(hi)))

    base_rank = _linalg.rank([a for a, _ in eqs]) if eqs else 0
    need = n - base_rank
    if need < 0:  # pragma: no cover
        need = 0
    if need > len(ineqs):
        return []
    if math.comb(len(ineqs), need) > combo_guard:
        raise DimensionGuardError("too many active-set combinations to enumerate")

    vertices: set[tuple[Fraction, ...]] = set()
    eq_a = [a for a, _ in eqs]
    eq_b = [b for _, b in eqs]
    for combo in combinations(range(len(ineqs)), need):
        a = eq_a + [ineqs[i][0] for i in combo]
        b = eq_b + [ineqs[i][1] for i in combo]
        x = _linalg.solve_unique(a, b)
        if x is None:
            continue
        if all(sum(c * v for c, v in zip(row, x)) <= rhs for row, rhs in ineqs):
            vertices.add(tuple(x))
    return sorted(vertices)
