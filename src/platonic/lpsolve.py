"""Dense two-phase simplex with exact-rational and float backends, plus a
brute-force vertex enumerator for small polytopes.

The exact backend pivots on Fractions with Bland's anti-cycling rule, so every
reported status is a certificate: optimal solutions come with exact primal
feasibility, an exact dual vector and a zero duality gap, and complementary
slackness holds exactly. The float backend runs the same pivoting with
tolerances and re-certifies the result; when certification fails it raises
:class:`FloatModeError` instead of ever returning a wrong status.

Determinism: entering and leaving variables are chosen by lowest index, so
identical inputs always produce identical outputs.
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
_MAX_PIVOTS = 200_000       # safety net; Bland terminates long before this

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
    nz = [j for j, v in enumerate(prow) if v != 0]
    for row in rows:
        if row is prow:
            continue
        factor = row[c]
        if factor != 0:
            for j in nz:
                row[j] -= factor * prow[j]
            row[c] = 0
    factor = cost[c]
    if factor != 0:
        for j in nz:
            cost[j] -= factor * prow[j]
        cost[c] = 0
    basis[r] = c


def _pivot_loop(
    rows: list[list[Num]],
    cost: list[Num],
    basis: list[int],
    blocked: frozenset[int],
    tol: Num,
) -> str:
    """Bland's rule simplex on a feasible canonical tableau; returns a status."""
    ncols = len(cost) - 1
    for _ in range(_MAX_PIVOTS):
        enter = -1
        for j in range(ncols):
            if j not in blocked and cost[j] < -tol:
                enter = j
                break
        if enter < 0:
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
        _do_pivot(rows, cost, basis, leave, enter)
    if tol == 0:  # pragma: no cover - Bland's rule terminates
        raise RuntimeError("exact simplex exceeded the pivot budget")
    raise FloatModeError("simplex did not terminate within the pivot budget")


def solve(lp: LinearProgram, mode: str = "exact", tol: float = DEFAULT_FLOAT_TOL) -> LpSolution:
    """Solve ``lp``; see the module docstring for the guarantees per mode."""
    if mode == "exact":
        conv = Fraction
        tol_piv: Num = 0
        tol_cert: Num = 0
    elif mode == "float":
        conv = float
        tol_piv = _PIVOT_TOL
        tol_cert = tol
    else:
        raise ValueError("mode must be 'exact' or 'float'")

    nvars = len(lp.objective)
    maximize = lp.sense == "max"
    c_user = [conv(v) for v in lp.objective]
    c_min = [-v for v in c_user] if maximize else list(c_user)

    # Variable transform: shift finite lower bounds to zero, split free
    # variables into positive and negative parts, turn upper bounds into rows.
    col_map: list[tuple] = []
    n_struct = 0
    extra_rows: list[tuple[list[tuple[int, Num]], str, Num, tuple]] = []
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is None:
            col_map.append(("split", n_struct, n_struct + 1))
            cols = [(n_struct, conv(1)), (n_struct + 1, conv(-1))]
            n_struct += 2
            shift = conv(0)
        else:
            shift = conv(lo)
            col_map.append(("plain", n_struct, shift))
            cols = [(n_struct, conv(1))]
            n_struct += 1
        if hi is not None:
            hi_c = conv(hi)
            if lo is not None and hi_c < shift:
                return LpSolution(INFEASIBLE, None, None, None, None)
            extra_rows.append((cols, LE, hi_c - shift, ("bound", j)))

    def expand(coeffs: Sequence[Num]) -> tuple[list[Num], Num]:
        """Row coefficients over structural columns and the rhs shift it causes."""
        row = [conv(0)] * n_struct
        shift_amount = conv(0)
        for j, v in enumerate(coeffs):
            if v == 0:
                continue
            v = conv(v)
            spec = col_map[j]
            if spec[0] == "plain":
                row[spec[1]] += v
                shift_amount += v * spec[2]
            else:
                row[spec[1]] += v
                row[spec[2]] -= v
        return row, shift_amount

    std_rows: list[tuple[list[Num], str, Num, tuple]] = []
    for i, con in enumerate(lp.constraints):
        row, shift_amount = expand(con.coeffs)
        std_rows.append((row, con.relation, conv(con.rhs) - shift_amount, ("user", i)))
    for cols, rel, rhs, meta in extra_rows:
        row = [conv(0)] * n_struct
        for col, v in cols:
            row[col] = v
        std_rows.append((row, rel, rhs, meta))

    c_struct = [conv(0)] * n_struct
    obj_shift = conv(0)
    for j, v in enumerate(c_min):
        spec = col_map[j]
        if spec[0] == "plain":
            c_struct[spec[1]] += v
            obj_shift += v * spec[2]
        else:
            c_struct[spec[1]] += v
            c_struct[spec[2]] -= v

    # Equality standard form with slack columns, rhs made nonnegative.
    m = len(std_rows)
    n_slack = sum(1 for _, rel, _, _ in std_rows if rel != EQ)
    needs_art: list[bool] = []
    signs: list[int] = []
    slack_col_of: list[int | None] = []
    scol = n_struct
    for row, rel, rhs, _meta in std_rows:
        negate = rhs < 0
        signs.append(-1 if negate else 1)
        if rel == EQ:
            slack_col_of.append(None)
            needs_art.append(True)
        else:
            slack_col_of.append(scol)
            scol += 1
            plus_slack = (rel == LE) != negate
            needs_art.append(not plus_slack)
    n_art = sum(needs_art)
    ncols = n_struct + n_slack + n_art

    rows: list[list[Num]] = []
    basis: list[int] = []
    art_cols: list[int] = []
    art_home: dict[int, int] = {}  # artificial column -> row that created it
    acol = n_struct + n_slack
    for i, (row, rel, rhs, _meta) in enumerate(std_rows):
        full = list(row) + [conv(0)] * (n_slack + n_art) + [rhs]
        s = slack_col_of[i]
        if s is not None:
            full[s] = conv(1) if rel == LE else conv(-1)
        if signs[i] < 0:
            full = [-v for v in full]
        if needs_art[i]:
            full[acol] = conv(1)
            basis.append(acol)
            art_cols.append(acol)
            art_home[acol] = i
            acol += 1
        else:
            basis.append(s)  # slack enters with +1 after sign normalization
        rows.append(full)

    pristine = [row[:-1] for row in rows]  # pre-pivot equality system, for duals
    kept = list(range(m))
    blocked = frozenset(art_cols)

    if art_cols:
        c_phase1 = [conv(0)] * ncols
        for j in art_cols:
            c_phase1[j] = conv(1)
        cost1 = _reduced_cost_row(c_phase1, rows, basis)
        status = _pivot_loop(rows, cost1, basis, frozenset(), tol_piv)
        if status != OPTIMAL:
            raise _unreachable("phase 1 cannot be unbounded", mode)
        if -cost1[-1] > tol_cert:
            return LpSolution(INFEASIBLE, None, None, None, None)
        # Drive leftover artificials out of the basis. A row whose non-artificial
        # part vanished states "artificial = 0" only, i.e. the equation that
        # created this artificial is redundant: drop the tableau row and take
        # that creating equation out of the dual bookkeeping.
        drop: list[int] = []
        for i in range(m):
            if basis[i] in blocked:
                pivot_col = -1
                for j in range(n_struct + n_slack):
                    if abs(rows[i][j]) > tol_piv:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _do_pivot(rows, cost1, basis, i, pivot_col)
                else:
                    drop.append(i)
        if drop:
            for i in reversed(drop):
                kept.remove(art_home[basis[i]])
                del rows[i], basis[i]

    c_full = list(c_struct) + [conv(0)] * (n_slack + n_art)
    cost = _reduced_cost_row(c_full, rows, basis)
    status = _pivot_loop(rows, cost, basis, blocked, tol_piv)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, None, None)

    x_struct = [conv(0)] * ncols
    for i, bc in enumerate(basis):
        x_struct[bc] = rows[i][-1]
    x_user: list[Num] = []
    for spec in col_map:
        if spec[0] == "plain":
            x_user.append(x_struct[spec[1]] + spec[2])
        else:
            x_user.append(x_struct[spec[1]] - x_struct[spec[2]])
    objective = sum(cv * xv for cv, xv in zip(c_user, x_user))

    # Duals from the final basis: solve B^T y = c_B on the pristine rows.
    m_kept = len(rows)
    bt = [[pristine[kept[i]][basis[k]] for i in range(m_kept)] for k in range(m_kept)]
    c_b = [c_full[bc] for bc in basis]
    y = _linalg.solve_unique(bt, c_b, tol_piv) if m_kept else []
    if y is None:
        raise _unreachable("singular basis while extracting duals", mode)
    y_full = [conv(0)] * m
    for pos, row_idx in enumerate(kept):
        y_full[row_idx] = y[pos]

    duals_min = [conv(0)] * len(lp.constraints)
    dual_obj_min = obj_shift
    for i, (_row, _rel, rhs, meta) in enumerate(std_rows):
        y_i = y_full[i]
        rhs_post = rhs if signs[i] > 0 else -rhs
        dual_obj_min += y_i * rhs_post
        if meta[0] == "user":
            duals_min[meta[1]] = y_i * signs[i]

    if maximize:
        duals_user = tuple(-d for d in duals_min)
        dual_objective = -dual_obj_min
    else:
        duals_user = tuple(duals_min)
        dual_objective = dual_obj_min

    _certify(lp, x_user, duals_user, objective, dual_objective, tol_cert, mode)
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
