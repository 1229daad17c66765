"""Two-phase bounded-variable simplex with exact-rational and float
backends, plus a brute-force vertex enumerator for small polytopes.

A solve has three stages: the standard form, pivoting on a dense tableau
from a given basis, and the extraction and certification of the answer. Both
backends share them.

Bounds. Each caller column stays one column with bounds ``[0, u]``,
``[0, oo)`` or free, after a shift to its lower bound (or a mirror at its
upper bound when it has no lower one); no bound becomes a row and no free
column is split. A nonbasic column sits at either bound, a free one at 0,
and the last tableau column holds the values of the basic columns. A free
column may enter in either direction and never leaves again; the ratio test
stops a basic column at 0 or at its upper bound, and stops the entering one
at its own other bound, where it only flips (Dantzig's upper-bounding
technique, Econometrica 23, 1955). A column fixed at 0, with bounds
``(0, 0)`` after the shift, never enters, and its reduced cost may take
either sign at an optimum.

Start. A row starts on a column of its own: a column in no other row,
with entry +1 after the row's sign, whose value there, the row's
right-hand side, lies within its bounds. The candidates are the row's slack,
then its highest-index caller column that is in no other row and has entry
+-1 (a column of its own comes after the shared ones, as a slack does); the
row's sign makes its right-hand side nonnegative, and at right-hand side 0
it makes the first candidate's entry +1 (so a ``>=`` row with right-hand
side 0 is negated, and its slack starts basic). A row with no such column
gets an artificial, and phase 1 runs only while one is basic. A market's
superhedge rows ``x + G_c lambda >= b_c`` start on their slacks, and the
class rows of its arbitrage LP ``x + G_c lambda - g_c = 0``, with the price
``x`` fixed at 0, on their own gains ``0 <= g_c <= 1`` at 0, which sit
where the slacks do: in standard form the two LPs have the same rows,
start columns and row signs, and neither runs phase 1. The start tableau's
phase-2 cost row is built from the sparse rows of the standard form.

Pricing. The entering column improves the objective most per unit move
(Dantzig), ties to the lowest index; the step stops at the minimum ratio,
ties to the lowest index. Dantzig's rule can cycle on degenerate LPs
(Beale's example), so after as many degenerate steps in a row as the
problem would have rows with every upper bound a row, Bland's rule takes
over until the next nondegenerate step. Each nondegenerate step strictly
improves the objective, which takes finitely many values at bases, and
Bland's rule cannot cycle inside a degenerate run: exact pivoting
terminates.

Exact mode finds its basis in float and certifies it once, exactly. Its
standard form holds Python ints: each row and its right-hand side times the
lcm of their denominators, the cost times one lcm. A float simplex runs on
those ints divided back by their scale, which int true division rounds
correctly: on the float copy of the caller's numbers, bit for bit. Its final
basis B and the set U of columns at their upper bound are then checked on
the int rows by one fraction-free elimination of B in Python ints
(``_linalg.solve_sparse``). It solves ``B x_B = b - sum_{j in U} u_j A_j``,
and its record solves ``B^T y = c_B``: the same row operations, transposed
and replayed. Fractions appear only in the substitutions. The checks are
``x_B`` within its bounds, every equation dropped as redundant holding at
``x``, and every non-artificial column's reduced cost ``c_j - y.A_j`` >= 0
at its lower bound, <= 0 at its upper bound and 0 on a free nonbasic
column (a column fixed at 0 takes any), summed in ints over the common
denominator of ``y``. A positive row
scale scales that row's dual and no sign, so those checks prove the basis
optimal, and ``y`` unscaled once is its dual vector. When a check fails, or
the float stage refuses or ends elsewhere than at an optimum, exact
pivoting takes over from the start. So every status
exact mode reports is proved in rationals: an optimum by the basis checks
and a zero duality gap with complementary slackness (its row sums one int
sum each, ``_linalg.dots``), infeasibility and unboundedness by exact
pivoting.

The halves of a basis. A :class:`Basis` holds the exact ``x`` of a
feasible basis (the elimination above) and, on first use, its duals (the
record transposed); :func:`_certified` proves it optimal by adding the
sign check of the reduced costs. :func:`float_basis` returns the two
halves of the float stage's optimal basis without that check, for a
caller that checks its answer itself: the exact verdict (``ftap``), whose
measure or arbitrage is a certificate on its own, pays for the elimination
and the half it reads, and solves its LP with :func:`solve` only where its
check fails.

The float backend runs the same pivoting with tolerances. It reads its duals
off the final phase-2 cost row: row r's start column j is the unit column
e_r, so its reduced cost is ``d_j = c_j - y_r`` and ``y_r = c_j - d_j``
(``-d_j`` on a slack or artificial), also for a row dropped as redundant.
Both backends add ``sum_{j in U} u_j d_j`` to the dual objective, the bounds' share of it. The float backend
then certifies the result (feasibility, gap and complementary slackness
within its tolerance); when certification fails, or the pivot budget runs
out, it raises :class:`FloatModeError` instead of ever returning a wrong
status (``errors.unverified``: the same failures are bugs in exact mode).

Families. The standard form splits into the part that does not depend on
``b`` (column maps, bounds, costs, the rows in the LP's arithmetic, each
row's candidate start columns) and the row signs, scales, start columns and
right-hand sides. The first part is built once per arithmetic and kept on
the LP that owns the coefficient maps; every LP made from it by
:meth:`LinearProgram.with_rhs` is of its family and only computes the second
part, taking the family's rows where its signs, start columns and scales
agree: a start column may move with ``b`` alone, where a value leaves its
column's bounds. An LP built any other way is a family of its own.

Warm start (float mode only). A float LP is first solved from a basis
optimal at another right-hand side ``b'``, from one of two sources. The
first is a module-level slot, which holds the standard form and final
tableau of the last certified float optimum by reference. It serves the
next float LP when its standard form has the slot's rows, start columns
and row signs (and column count); its costs, bounds, column shifts and
``b`` may differ. Two float forms of one family with the same row signs
hold the very same row and start lists, and a tuple comparison takes an
item that is the same object as equal without reading it, so there the
test reads the signs alone, O(rows); the forms of two LPs on equal rows,
such as a market's verdict and its superhedges, are compared entry by
entry. Where the costs and bounds are the slot's, ``b'`` is the slot's
``b``. Where they differ, the tableau takes the LP's: every nonbasic
column at its lower bound, a free one at 0, and every basic value 0, the
values at ``b' = 0``, where the basis is primal feasible. Its reduced-cost
row is rebuilt, and primal pivots take the basis to the optimum of the LP
at ``b = 0``; a run longer than a quarter of the rows (plus two) gives up,
as a near basis is what makes the start pay: each such pivot runs on a
dense tableau, where a cold solve pivots on a sparse one.

The second source is the LP's own start, when the slot cannot serve an LP
with a nonzero right-hand side, or its answer fails, and the start holds
no artificial: every start column at 0 is feasible at ``b' = 0``, whatever
the row signs, and the simplex takes it to the optimum there. So a claim
asked after another market's LPs pivots from the hedge of the zero claim,
a sparse tableau, not from the cash hedge, whose price column in every
row fills the tableau in.

From either source the basic values then move from those at ``b'`` by
``B^-1 (b - b')``, read off the tableau into its last column: the start
columns held the identity, so they now hold ``B^-1``. Each move is one
C-level sum over its row's terms in a fixed order, and its round-off grows
with ``b - b'``, not with ``b``. Reduced costs do not depend on ``b``, so
the basis stays dual feasible, and a basic value outside its bounds is
repaired by bounded dual simplex pivots (Lemke, Naval Res. Logist. Q. 1,
1954), none when every value lies within its bounds up to ``_PIVOT_TOL``.
The repaired basis is optimal, and its answer goes through the same
extraction and certificate as a cold solve; after a change of costs or
bounds its duals are also checked against every reduced cost summed afresh
from the rows of the standard form (the gap alone holds for any duals
where ``b = 0``). The round-off of the pivots since the last cold start
reaches ``x_B`` through ``B^-1``: where the certificate refuses an answer,
one step of iterative refinement adds ``B^-1`` times the rows' residuals
beyond ``tol / 16``, summed afresh from the standard form, to ``x_B``, and
a second certificate decides. The refined values are the ones the next
LP's move starts from. The slot is emptied while a warm start works on its
tableau and takes the new optimum once its answer is certified, so it only
ever holds a certified optimum. It serves claim after claim on one
market, whose superhedge LPs are one family and differ in ``b = max(c) -
c`` only; the first claim after the verdict, whose LP has the verdict's
rows; and a verdict after the other mode's. When neither source serves
(a primal run gives up, no column may enter a row outside its bounds, the
pivot budget runs out or a check refuses), the slot is emptied and the LP
is solved from its start, the one place that reports infeasible,
unbounded or a refusal; its certified optimum then takes the slot. Exact
mode neither reads nor writes the slot.

Determinism: ties are broken by lowest index, so identical inputs always
produce identical outputs in exact mode. When a float LP has several optima,
its x and duals may depend on the previous float solves, through the slot,
and on the source of its warm start; its objective agrees within tol.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, combinations

from . import _linalg
from .errors import DimensionGuardError, FloatModeError, unverified
from .numeric import DEFAULT_FLOAT_TOL, Num

LE, EQ, GE = "<=", "==", ">="
_RELATIONS = (LE, EQ, GE)

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"

_PIVOT_TOL = 1e-10          # float-mode pivot threshold
_MAX_PIVOTS = 200_000       # float safety net; exact pivoting terminates
_VERTEX_DIM_GUARD = 12      # enumerate_vertices: most variables
_VERTEX_COMBO_GUARD = 500_000  # enumerate_vertices: most active sets tried

Bounds = tuple[Num | None, Num | None]


@dataclass(frozen=True)
class Constraint:
    """``sum_j coeffs[j] x_j  relation  rhs``. ``coeffs`` maps a column index
    to its nonzero coefficient, in ascending column order; a column absent
    from it has coefficient 0. The float sums of the certificate and the tie
    order of the basis solves follow that order."""

    coeffs: dict[int, Num]
    relation: str
    rhs: Num

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", {j: v for j, v in sorted(self.coeffs.items()) if v != 0})
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """An LP. ``_families`` holds the ``b``-free part of its standard form
    by arithmetic (see "Families" above), shared with every LP derived from
    it by :meth:`with_rhs`; it takes no part in equality or repr.
    :meth:`with_rhs` fills the ``__dict__`` of its new objects directly to
    skip checks already made, so this class and :class:`Constraint` keep a
    ``__dict__`` (no ``slots``) and it sets every field of both."""

    objective: tuple[Num, ...]
    sense: str
    constraints: tuple[Constraint, ...]
    bounds: tuple[Bounds, ...]
    _families: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
            if any(not 0 <= j < n for j in con.coeffs):
                raise ValueError("constraint dimension mismatch")

    @staticmethod
    def build(
        objective: Sequence[Num],
        sense: str,
        constraints: Sequence[tuple[Mapping[int, Num] | Sequence[Num], str, Num]],
        bounds: Sequence[Bounds] | None = None,
    ) -> "LinearProgram":
        """An LP from plain data. A constraint row is a map from column index
        to coefficient or a dense sequence with one entry per column."""
        n = len(objective)
        cons = tuple(Constraint(c if isinstance(c, Mapping) else dict(enumerate(c)), rel, rhs)
                     for c, rel, rhs in constraints)
        if bounds is None:
            bounds = ((None, None),) * n
        return LinearProgram(tuple(objective), sense, cons, tuple(bounds))

    def with_rhs(self, rhs: Sequence[Num]) -> "LinearProgram":
        """This LP with the right-hand sides ``rhs``, one per constraint in
        order. It shares this LP's objective, bounds, relations and
        coefficient maps, checked when this LP was made, so only the length
        of ``rhs`` is checked; and it shares the ``b``-free part of their
        standard form, built once for all LPs derived from this one (see
        :func:`_standard_form`). The shared maps are never changed."""
        if len(rhs) != len(self.constraints):
            raise ValueError("one right-hand side per constraint required")
        cons = []
        for con, b in zip(self.constraints, rhs):
            new = object.__new__(Constraint)
            new.__dict__.update(coeffs=con.coeffs, relation=con.relation, rhs=b)
            cons.append(new)
        lp = object.__new__(LinearProgram)
        lp.__dict__.update(objective=self.objective, sense=self.sense, constraints=tuple(cons),
                           bounds=self.bounds, _families=self._families)
        return lp


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


def _reduced_cost_row(c: list[Num], tab: "_Tableau", form: "_StandardForm | None" = None) -> list[Num]:
    """Cost row ``[reduced costs | -objective]`` of the tableau's basis, with
    the columns at their upper bound counted in the objective. Given the
    ``form`` whose start the tableau still is, row i is read only on the
    columns of ``form.rows[i]`` and its value, the only entries that may be
    nonzero; otherwise every entry is read."""
    cost = list(c) + [0]
    for j, s in enumerate(tab.state):
        if s < 0:
            cost[-1] -= c[j] * tab.upper[j]
    for i, bc in enumerate(tab.basis):
        factor = cost[bc]
        if factor != 0:
            row = tab.rows[i]
            for j in range(len(row)) if form is None else [*form.rows[i], -1]:
                v = row[j]
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


def _flip(tab: "_Tableau", cost: list[Num], j: int) -> None:
    """Move the nonbasic column ``j`` to its other bound; the basic values
    and the objective follow it."""
    step = tab.upper[j] if tab.state[j] > 0 else -tab.upper[j]
    tab.state[j] = -tab.state[j]
    if step:
        for row in tab.rows:
            a = row[j]
            if a != 0:
                row[-1] -= step * a
        cost[-1] -= step * cost[j]


def _exchange(tab: "_Tableau", cost: list[Num], r: int, enter: int, to_upper: bool) -> None:
    """Basis change: ``enter`` takes row ``r``, whose basic column leaves at
    its upper bound when ``to_upper``, else at 0.

    A column at its upper bound is measured from that bound while it is
    basic on one side of the pivot: the leaving column as ``x - u``, which
    leaves at 0, and an entering one from ``u``, which is added back to its
    row after the pivot. Both cost one entry, not a column."""
    rows, state = tab.rows, tab.state
    if to_upper:
        leave = tab.basis[r]
        rows[r][-1] -= tab.upper[leave]
        state[leave] = -1
    _do_pivot(rows, cost, tab.basis, r, enter)
    if state[enter] < 0:
        rows[r][-1] += tab.upper[enter]
        state[enter] = 1


def _pivot_loop(tab: "_Tableau", cost: list[Num], n_enter: int, tol: Num,
                budget: int = _MAX_PIVOTS) -> str:
    """Bounded-variable simplex on a feasible canonical tableau, where only
    the first ``n_enter`` columns may enter the basis; returns a status,
    and raises ``errors.unverified`` after ``budget`` steps.

    A nonbasic column at its lower bound may enter upward, one at its upper
    bound downward, a free one either way: whichever way its reduced cost
    improves the objective. The entering column has the largest improvement
    per unit (Dantzig), ties to the lowest index. The step ends at the first
    basic column to reach one of its bounds (free columns never do) or at the
    entering column's own other bound, where it only flips. Ties go to the
    lowest index of the column that stops the step, a column leaving at its
    upper bound just after the same column at its lower bound, so that
    Bland's rule reads as on the problem with every upper bound a row. After
    as many degenerate steps (length 0, flips included) in a row as that
    problem has rows, Bland's first-improving rule takes over until the next
    nondegenerate step, so the loop cannot cycle. A column fixed at 0 (upper
    bound 0), as the verdict's price, never enters: it could only flip."""
    rows, basis, upper, state = tab.rows, tab.basis, tab.upper, tab.state
    columns = [j for j in range(n_enter) if upper[j] != 0]
    patience = len(rows) + sum(u is not None for u in upper)
    degenerate = 0
    for _ in range(budget):
        # minus the improvement per unit move in the improving direction
        score = [d if s > 0 else -d if s < 0 else -abs(d) for d, s in zip(cost, state)]
        if degenerate < patience:
            enter = min(columns, key=score.__getitem__, default=-1)
        else:
            enter = next((j for j in columns if score[j] < -tol), -1)
        if enter < 0 or not score[enter] < -tol:
            return OPTIMAL
        up = cost[enter] < 0
        best = upper[enter]
        stop = 2 * enter + up  # the entering column stops itself at its other bound
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter] if up else -row[enter]
            b = basis[i]
            if a > tol:
                if not state[b]:
                    continue
                ratio = row[-1] / a
                key = 2 * b
            elif a < -tol and upper[b] is not None:
                ratio = (upper[b] - row[-1]) / -a
                key = 2 * b + 1
            else:
                continue
            if best is None or ratio < best or (ratio == best and key < stop):
                best, stop, leave = ratio, key, i
        if best is None:
            return UNBOUNDED
        degenerate = degenerate + 1 if best == 0 else 0
        if leave < 0:
            _flip(tab, cost, enter)
        else:
            _exchange(tab, cost, leave, enter, stop % 2 == 1)
    # exact pivoting (tol 0) terminates under the Bland guard
    raise unverified("simplex did not terminate within the pivot budget", tol == 0)


def _dual_loop(tab: "_Tableau", cost: list[Num], n_enter: int, tol: Num) -> bool:
    """Bounded dual simplex on a dual feasible canonical tableau, where only
    the first ``n_enter`` columns may enter the basis. True once every
    basic column but a free one lies within its bounds up to ``tol``; False
    when a row has no column to enter (the LP is infeasible) or the pivot
    budget runs out.

    The leaving row holds the basic column farthest outside its bounds,
    ties to the lowest row; that column leaves at the bound it broke. The
    entering column is a nonbasic one whose move, in the direction its
    bound allows (either way when free), pushes the leaving value towards
    that bound; the smallest ``|d_j / a_rj|`` keeps every reduced cost's
    sign, ties to the lowest index. After as many degenerate steps (``d_j``
    = 0) in a row as :func:`_pivot_loop` waits, the leaving column is the
    lowest-index one outside its bounds until the next nondegenerate step
    (Bland's rule on the dual). A column fixed at 0 never enters."""
    rows, basis, upper, state = tab.rows, tab.basis, tab.upper, tab.state
    patience = len(rows) + sum(u is not None for u in upper)
    degenerate = 0
    for _ in range(_MAX_PIVOTS):
        # (how far outside, basic column, row, leaves at its upper bound)
        out = []
        for i, row in enumerate(rows):
            b, v = basis[i], row[-1]
            if not state[b]:
                continue
            if v < -tol:
                out.append((-v, b, i, False))
            elif upper[b] is not None and v > upper[b] + tol:
                out.append((v - upper[b], b, i, True))
        if not out:
            return True
        if degenerate < patience:
            _, leave, r, to_upper = max(out, key=operator.itemgetter(0))
        else:
            _, leave, r, to_upper = min(out, key=operator.itemgetter(1))
        row = rows[r]
        enter, best = -1, None
        for j in range(n_enter):
            # a move up of column j pushes the leaving value towards its bound when a > 0
            a = row[j] if to_upper else -row[j]
            s = state[j]
            if j == leave or not (a > tol if s > 0 else a < -tol if s < 0 else abs(a) > tol) or upper[j] == 0:
                continue
            ratio = abs(cost[j] / a)
            if best is None or ratio < best:
                best, enter = ratio, j
        if enter < 0:
            return False
        degenerate = degenerate + 1 if best == 0 else 0
        _exchange(tab, cost, r, enter, to_upper)
    return False


@dataclass
class _StandardForm:
    """``min cost.x`` s.t. ``A x = b`` with ``b >= 0`` and a bound pair per
    column, built from a :class:`LinearProgram` in one arithmetic.

    Caller column ``j`` is column ``j`` here, ``x_j = shift + sign * x'_j``:
    a finite lower bound is shifted to 0 (``sign`` 1, ``x'`` in ``[0, u]`` or
    ``[0, oo)``), a column bounded only above is mirrored at its bound
    (``sign`` -1, ``x'`` in ``[0, oo)``), and a free column stays free. Rows
    are the caller's constraints, in order. After the caller's columns come
    a slack per inequality row, then an artificial per row that has no
    column of its own to start on (``n_real`` counts the columns before the
    artificials). ``start`` picks each row's start column (see "Start" in
    the module docstring), a basis on which ``A`` is the identity. In exact
    mode ``A``, ``b`` and ``cost`` are Python ints: row ``r`` (its slack and
    artificial entries included) and its right-hand side times
    ``scales[r]``, the lcm of their denominators, and ``cost`` and
    ``obj_shift`` times ``cost_scale``. So every column keeps the caller's
    units. Float mode holds floats, and every scale is 1. ``family`` holds
    the part that does not depend on ``b``; the lists here may be the
    family's own and are never changed."""

    rows: list[dict[int, Num]]  # A, nonzero entries only
    rhs: list[Num]              # b
    cost: list[Num]             # per column; 0 on slacks and artificials
    upper: list[Num | None]     # per column; None when unbounded above
    free: list[bool]            # per column; True when unbounded below
    start: list[int]
    n_real: int
    art_rows: list[int]         # the row that created each artificial
    # the way back to the caller's LP
    scales: list[int]           # per row, positive
    cost_scale: int             # positive
    col_map: list[tuple[int, Num]]  # (sign, shift) per caller column
    signs: list[int]            # -1 where a row was negated (b < 0, or b = 0 and a -1 first unit column)
    obj_shift: Num              # in units of cost_scale
    family: "_Family | None"


@dataclass
class _Family:
    """The part of the standard form that does not depend on ``b``, shared
    by the LPs derived from one LP (:meth:`LinearProgram.with_rhs`), in one
    arithmetic. Per row: the lcm of its denominators (1 in float), the
    (coefficient, shift) pairs that move its right-hand side, its unit
    columns, and its mirrored entries (in exact mode its columns and their
    integer ratios), from which a row is built at any sign and scale. A
    row's unit columns are the columns it may start on, as (column, sign of
    its entry, upper bound): its slack (an inequality's first), then its
    last caller column that is in no other row and has entry +-1.
    ``first`` is the family's first standard form, without its family."""

    col_map: list[tuple[int, Num]]
    upper: list[Num | None]
    free: list[bool]
    cost: list[Num]
    cost_scale: int
    obj_shift: Num
    n_real: int
    dens: list[int]
    shifts: list[Sequence[tuple[Num, Num]]]
    units: list[list[tuple[int, int, Num | None]]]
    base: list
    first: _StandardForm | None = None


def _integers(values: Sequence[Num], sign: int) -> tuple[int, list[int]]:
    """The lcm of the denominators of the exact ``values``, and the values
    times ``sign`` and that lcm, as ints."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*[d for _, d in ratios])
    m = sign * scale
    return scale, [q * (m // d) for q, d in ratios]


def _new_family(lp: LinearProgram, conv) -> _Family | None:
    """The family of ``lp`` in ``conv``; None when an empty box makes every
    LP of the family infeasible. A row's entries are the caller's map
    itself, or in exact mode its keys and integer ratios, with the sign of
    a mirrored column folded in."""
    exact = conv is Fraction
    boxes = {}  # each distinct bound pair once
    for lo, hi in dict.fromkeys(lp.bounds):
        if lo is None and hi is not None:  # mirrored at its upper bound
            sign, shift, u = -1, conv(hi), None
        elif exact and not lo:  # a zero shift costs no arithmetic, here or in _solution
            sign, shift, u = 1, 0, None if hi is None else conv(hi)
        else:
            sign, shift = 1, conv(0 if lo is None else lo)
            u = None if hi is None else conv(hi) - shift
        if u is not None and u < 0:
            return None
        boxes[lo, hi] = (sign, shift), u
    col_map: list[tuple[int, Num]] = [boxes[pair][0] for pair in lp.bounds]
    upper: list[Num | None] = [boxes[pair][1] for pair in lp.bounds]
    free = [lo is None and hi is None for lo, hi in lp.bounds]
    mirrored = {j for j, (sign, _) in enumerate(col_map) if sign < 0}
    shifted = {j for j, (_, shift) in enumerate(col_map) if shift}

    flip = -1 if lp.sense == "max" else 1
    if exact:
        cost_scale, cost = _integers(lp.objective, flip)
    else:
        cost_scale, cost = 1, [float(v) * flip for v in lp.objective]
    obj_shift = sum((v * shift for v, (_, shift) in zip(cost, col_map) if shift), conv(0))
    cost = [v * sign for v, (sign, _) in zip(cost, col_map)]

    rows_of = Counter(chain.from_iterable(con.coeffs for con in lp.constraints))
    base: list = []
    dens: list[int] = []
    shifts: list[Sequence[tuple[Num, Num]]] = []
    units: list[list[tuple[int, int, Num | None]]] = []
    scol = len(col_map)
    for con in lp.constraints:
        coeffs = con.coeffs
        if exact:
            ratios = [v.as_integer_ratio() for v in coeffs.values()]
            if mirrored:
                ratios = [(-q, d) if j in mirrored else (q, d) for j, (q, d) in zip(coeffs, ratios)]
            dens.append(math.lcm(*[d for _, d in ratios]))
            base.append((coeffs.keys(), ratios))
        else:
            dens.append(1)
            base.append({j: -v if j in mirrored else v for j, v in coeffs.items()} if mirrored else coeffs)
        shifts.append([(conv(v), col_map[j][1]) for j, v in coeffs.items() if j in shifted] if shifted else ())
        unit = []
        if con.relation != EQ:
            unit.append((scol, 1 if con.relation == LE else -1, None))
        for j, v in reversed(coeffs.items()):
            if rows_of[j] == 1 and (v == 1 or v == -1):
                unit.append((j, 1 if (v > 0) == (col_map[j][0] > 0) else -1, upper[j]))
                break
        units.append(unit)
        scol += con.relation != EQ
    return _Family(col_map, upper, free, cost, cost_scale, obj_shift, scol, dens, shifts, units, base)


def _standard_form(lp: LinearProgram, conv) -> _StandardForm | None:
    """The standard form of ``lp``; None when an empty box makes it infeasible.

    Two steps, on one path for every LP: the ``b``-free part, the family of
    ``lp`` (see "Families" in the module docstring), built once per
    arithmetic; then each row's right-hand side, sign, scale and start
    column (see "Start"). A row is built from the family's entries at its
    sign and scale, except that a later form takes each row of the family's
    first form whose scale agrees, when all signs and start columns do (so
    do the artificials)."""
    families = lp._families
    if conv not in families:
        families[conv] = _new_family(lp, conv)
    family = families[conv]
    if family is None:
        return None
    exact = conv is Fraction
    n_cols, n_real = len(family.col_map), family.n_real
    rhs_out: list[Num] = []
    signs: list[int] = []
    scales: list[int] = []
    start: list[int] = []
    art_rows: list[int] = []
    for r, (con, terms, den, unit) in enumerate(zip(lp.constraints, family.shifts, family.dens, family.units)):
        rhs = con.rhs if exact else float(con.rhs)
        for v, shift in terms:
            rhs = conv(rhs) - v * shift
        m = -1 if rhs < 0 or (rhs == 0 and unit and unit[0][1] < 0) else 1
        for j, e, u in unit:  # at rhs 0 the value 0 lies within [0, u]
            if e == m and (u is None or not rhs or m * rhs <= u):
                start.append(j)
                break
        else:
            start.append(n_real + len(art_rows))
            art_rows.append(r)
        if exact:
            q, d = rhs.as_integer_ratio()
            scale = math.lcm(den, d)
            rhs = q * (m * scale // d)
        else:
            scale, rhs = 1, rhs * m
        rhs_out.append(rhs)
        signs.append(m)
        scales.append(scale)

    first = family.first
    same = first is not None and first.signs == signs and first.start == start
    if same and first.scales == scales:
        return _StandardForm(first.rows, rhs_out, first.cost, first.upper, first.free, first.start,
                             n_real, first.art_rows, scales, family.cost_scale,
                             family.col_map, signs, family.obj_shift, family)
    rows: list[dict[int, Num]] = []
    for r, (con, unit, m, scale, col) in enumerate(zip(lp.constraints, family.units, signs, scales, start)):
        if same and scale == first.scales[r]:
            rows.append(first.rows[r])
            continue
        if exact:
            keys, ratios = family.base[r]
            factor = m * scale
            row = dict(zip(keys, [q * (factor // d) for q, d in ratios]))
        else:
            row = {j: float(v) * m for j, v in family.base[r].items()}
        if con.relation != EQ:
            slack, e, _ = unit[0]
            row[slack] = e * m * scale
        if col >= n_real:
            row[col] = scale
        rows.append(row)
    extra = n_real + len(art_rows) - n_cols
    form = _StandardForm(
        rows, rhs_out, family.cost + [0] * extra, family.upper + [None] * extra,
        family.free + [False] * extra, start, n_real, art_rows, scales, family.cost_scale,
        family.col_map, signs, family.obj_shift, None,
    )
    if first is None:
        family.first = form
    return replace(form, family=family)


@dataclass
class _Tableau:
    """Dense ``[A | x_B]`` rows canonical for ``basis`` (one basic column per
    row) and the phase-2 cost. ``state`` is 1 for a column at its lower
    bound or basic, -1 for one at its upper bound and 0 for a free column;
    ``upper`` holds the bounds in the tableau's arithmetic. The last entry
    of a row is the value of its basic column. ``kept`` lists the
    standard-form rows the tableau still represents: a redundant equation
    leaves with its row. ``reduced`` is the phase-2 cost row ``[c - y.A |
    -objective]``, set by :func:`_simplex` and kept canonical by its steps."""

    rows: list[list[Num]]
    cost: list[Num]
    basis: list[int]
    kept: list[int]
    upper: list[Num | None]
    state: list[int]
    reduced: list[Num] | None = None

    def at_upper(self) -> list[int]:
        return [j for j, s in enumerate(self.state) if s < 0]


def _start_tableau(form: _StandardForm, conv) -> _Tableau:
    """The tableau of ``form`` on its start basis, every other column at 0,
    in ``conv``, with each entry, right-hand side and cost divided back by
    its scale. Int true division is correctly rounded:
    a float tableau holds ``float()`` of the caller's numbers, bit for bit."""
    unscale = Fraction if conv is Fraction else operator.truediv
    ncols = len(form.cost)
    rows = []
    for row, rhs, scale in zip(form.rows, form.rhs, form.scales):
        full = [conv(0)] * ncols + [unscale(rhs, scale)]
        for j, v in row.items():
            full[j] = unscale(v, scale)
        rows.append(full)
    return _Tableau(
        rows, [unscale(v, form.cost_scale) for v in form.cost], list(form.start),
        list(range(len(rows))), [None if u is None else conv(u) for u in form.upper],
        [0 if f else 1 for f in form.free],
    )


def _simplex(form: _StandardForm, tab: _Tableau, tol_piv: Num, tol_cert: Num, mode: str) -> str:
    """Two-phase simplex from the start tableau of ``form``, in place;
    returns a status. Phase 1 runs while an artificial is basic."""
    n_real = form.n_real
    ncols = len(tab.cost)
    rows, basis = tab.rows, tab.basis
    phase_1 = any(j >= n_real for j in basis)
    if phase_1:
        cost1 = _reduced_cost_row([0] * n_real + [1] * (ncols - n_real), tab, form)
        status = _pivot_loop(tab, cost1, ncols, tol_piv)
        if status != OPTIMAL:
            raise unverified("phase 1 cannot be unbounded", mode == "exact")
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
                    _exchange(tab, cost1, i, pivot_col, False)
                else:
                    drop.append(i)
        for i in reversed(drop):
            tab.kept.remove(form.art_rows[basis[i] - n_real])
            del rows[i], basis[i]
    tab.reduced = _reduced_cost_row(tab.cost, tab, None if phase_1 else form)
    return _pivot_loop(tab, tab.reduced, n_real, tol_piv)


def _primal(form: _StandardForm, basis: list[int], kept: list[int],
            at_upper: list[int]) -> _linalg.SparseSolution | None:
    """The solve of ``B x_B = b - sum of u_j A_j over the columns at their
    upper bound``, exactly, for the basis matrix ``B``: the kept rows of
    ``A`` restricted to the basic columns. None unless x_B is feasible: B
    nonsingular and free of artificials, x_B within its bounds, and every
    dropped row holding at it. The solve's record also gives the duals."""
    if any(j >= form.n_real for j in basis):
        return None
    position = {col: k for k, col in enumerate(basis)}
    value = {j: form.upper[j] for j in at_upper}
    eqs = [{position[j]: v for j, v in form.rows[r].items() if j in position} for r in kept]
    rhs = [form.rhs[r] - sum(v * value[j] for j, v in form.rows[r].items() if j in value)
           for r in kept]
    solved = _linalg.solve_sparse(eqs, rhs)
    if solved is None or any(
        not form.free[j] and (v < 0 or (form.upper[j] is not None and v > form.upper[j]))
        for j, v in zip(basis, solved.x)
    ):
        return None
    value.update(zip(basis, solved.x))
    kept_set = set(kept)
    for r, row in enumerate(form.rows):
        if r not in kept_set and sum(v * value.get(j, 0) for j, v in row.items()) != form.rhs[r]:
            return None
    return solved


def _dual(form: _StandardForm, y: list[Fraction], at_upper: list[int]) -> Fraction | None:
    """``sum u_j d_j`` over the columns at their upper bound, when every
    non-artificial reduced cost ``d_j = c_j - y.A_j`` of the row duals
    ``y`` has its sign: >= 0 at the lower bound, <= 0 at the upper bound, 0
    on a free column, any on a column fixed at 0; None otherwise. The
    reduced costs are summed in ints, as ``den * d_j`` over the common
    denominator ``den`` of y."""
    den = math.lcm(*[y_r.denominator for y_r in y])
    reduced = [den * c for c in form.cost[:form.n_real]]
    for y_r, row in zip(y, form.rows):
        if y_r:
            q = y_r.numerator * (den // y_r.denominator)
            for j, v in row.items():
                if j < form.n_real:
                    reduced[j] -= q * v
    up = set(at_upper)
    if any(((d < 0 and j not in up) or (d > 0 and (j in up or form.free[j]))) and form.upper[j] != 0
           for j, d in enumerate(reduced)):
        return None
    return Fraction(sum(form.upper[j] * reduced[j] for j in at_upper), den)


class Basis:
    """A basis of the exact standard form of an LP whose basic solution is
    feasible, and its two halves from one elimination of the basis matrix
    (:func:`_primal`): ``x``, the caller's point of the basis, exactly, and
    :meth:`duals`, the caller's dual per constraint, from the elimination's
    record transposed (BTRAN) on first use. Nothing here proves the basis
    optimal; :func:`_certified` adds the sign check of its reduced costs."""

    def __init__(self, lp: LinearProgram, form: _StandardForm, tab: _Tableau,
                 at_upper: list[int], solved: _linalg.SparseSolution):
        self.lp, self.form, self.at_upper = lp, form, at_upper
        self._basis, self._kept, self._solved, self._y = tab.basis, tab.kept, solved, None
        self.x = _caller_x(form, tab.basis, solved.x, at_upper, True)

    def y(self) -> list[Fraction]:
        """The dual of every standard-form row: ``B^T y = c_B`` on the kept
        rows, 0 on a row dropped as redundant."""
        if self._y is None:
            self._y = [Fraction(0)] * len(self.form.rows)
            for r, y_r in zip(self._kept, self._solved.transposed([self.form.cost[j] for j in self._basis])):
                self._y[r] = y_r
        return self._y

    def duals(self) -> tuple[Fraction, ...]:
        """The caller's dual of each constraint."""
        return _caller_duals(self.lp, self.form, self.y(), True)


def _basis(lp: LinearProgram, form: _StandardForm, tab: _Tableau) -> Basis | None:
    """The tableau's basis with its exact halves; None unless :func:`_primal`
    finds its basic solution feasible."""
    at_upper = tab.at_upper()
    solved = _primal(form, tab.basis, tab.kept, at_upper)
    return None if solved is None else Basis(lp, form, tab, at_upper, solved)


def _certified(lp: LinearProgram, form: _StandardForm, tab: _Tableau) -> tuple[Basis, Fraction] | None:
    """The tableau's basis and ``sum u_j d_j`` over its columns at their
    upper bound, when the exact checks prove it optimal; None otherwise."""
    basis = _basis(lp, form, tab)
    bound_value = None if basis is None else _dual(form, basis.y(), basis.at_upper)
    return None if bound_value is None else (basis, bound_value)


def _float_stage(form: _StandardForm) -> _Tableau | None:
    """The float simplex from the start of ``form``, exact or float: its
    tableau at an optimum; None when it refuses or ends elsewhere."""
    tab = _start_tableau(form, float)
    try:
        return tab if _simplex(form, tab, _PIVOT_TOL, DEFAULT_FLOAT_TOL, "float") == OPTIMAL else None
    except FloatModeError:
        return None


def float_basis(lp: LinearProgram) -> Basis | None:
    """The optimal basis of the float simplex on the exact standard form of
    ``lp``, with its exact halves (:class:`Basis`); None when the float stage
    refuses or ends elsewhere than at an optimum, or the basis holds an
    artificial, is singular, or has a basic value outside its bounds. Its
    optimality is not proved: a caller that checks the answer itself, as the
    verdict does, pays for no more, and one whose check fails solves ``lp``
    with :func:`solve`."""
    form = _standard_form(lp, Fraction)
    tab = None if form is None else _float_stage(form)
    return None if tab is None else _basis(lp, form, tab)


def _exact_optimum(lp: LinearProgram, form: _StandardForm):
    """Status and, at an optimum, the certified basis of :func:`_certified`.

    A float simplex picks the basis and the columns at their upper bound;
    one exact solve of its basis system certifies them. Otherwise exact
    pivoting runs from the start: when the float stage refused, ended
    elsewhere than at an optimum, or left a basis that fails a check."""
    tab = _float_stage(form)
    optimum = None if tab is None else _certified(lp, form, tab)
    if optimum is not None:
        return OPTIMAL, optimum
    tab = _start_tableau(form, Fraction)
    status = _simplex(form, tab, 0, 0, "exact")
    if status != OPTIMAL:
        return status, None
    optimum = _certified(lp, form, tab)
    if optimum is None:  # pragma: no cover - exact pivoting ends on a certified basis
        raise RuntimeError("exact simplex ended on a basis that fails its check")
    return OPTIMAL, optimum


def solve(lp: LinearProgram, mode: str = "exact", tol: float = DEFAULT_FLOAT_TOL) -> LpSolution:
    """Solve ``lp``; see the module docstring for the guarantees per mode."""
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    exact = mode == "exact"
    form = _standard_form(lp, Fraction if exact else float)
    if form is None:
        return LpSolution(INFEASIBLE, None, None, None, None)
    if not exact:
        return (_warm_float_solve(lp, form, tol, _slot_start(form))
                or _warm_float_solve(lp, form, tol, _own_start(form))
                or _cold_float_solve(lp, form, tol))
    status, optimum = _exact_optimum(lp, form)
    if status != OPTIMAL:
        return LpSolution(status, None, None, None, None)
    basis, bound_value = optimum
    return _solution(lp, form, basis.x, basis.y(), bound_value, 0, mode)


# The standard form and final tableau of the last certified float optimum,
# held by reference (see "Warm start" in the module docstring). Emptied
# while a warm start works on its tableau and before a float LP's own start
# tableau is built, so that it holds a certified optimum only and two
# tableaus are never alive at once.
_last_optimum: tuple[_StandardForm, _Tableau] | None = None


def _slot_start(form: _StandardForm) -> tuple[_Tableau, list, bool] | None:
    """The tableau of :data:`_last_optimum`, taken out of the slot, when
    ``form`` has its standard form's rows, start columns and row signs,
    with the ``b'`` of its basic values and whether the costs or bounds
    crossed: then primal pivots first carry its basis to the optimum of
    ``form`` at ``b' = 0``. None otherwise, or when those pivots give up."""
    global _last_optimum
    if _last_optimum is None:
        return None
    last, tab = _last_optimum
    if (last.rows, last.start, last.signs, last.n_real, len(last.cost)) != (
            form.rows, form.start, form.signs, form.n_real, len(form.cost)):
        return None
    _last_optimum = None
    if (last.cost, last.upper, last.free) == (form.cost, form.upper, form.free):
        return tab, last.rhs, False
    # Every nonbasic column at its lower bound (a free one at 0) and b = 0
    # make every basic value 0: a feasible basis of the form at b = 0,
    # which primal pivots take to its optimum under the form's costs.
    tab.cost, tab.upper = list(form.cost), list(form.upper)
    tab.state = [0 if f else 1 for f in form.free]
    for row in tab.rows:
        row[-1] = 0.0
    tab.reduced = _reduced_cost_row(tab.cost, tab)
    budget = 2 + len(tab.rows) // 4  # a near basis is what pays (see "Warm start")
    try:
        if _pivot_loop(tab, tab.reduced, form.n_real, _PIVOT_TOL, budget) != OPTIMAL:
            return None
    except FloatModeError:
        return None
    return tab, [0] * len(form.rhs), True


def _own_start(form: _StandardForm) -> tuple[_Tableau, list, bool] | None:
    """The start tableau of ``form`` at ``b' = 0``, where a start with no
    artificial is feasible, carried to its optimum there by the simplex,
    when ``form`` has a nonzero right-hand side and starts on no
    artificial; None otherwise, or when the simplex ends elsewhere."""
    global _last_optimum
    if form.art_rows or not any(form.rhs):
        return None
    _last_optimum = None
    tab = _float_stage(replace(form, rhs=[0.0] * len(form.rhs)))
    return None if tab is None else (tab, [0] * len(form.rhs), False)


def _warm_float_solve(lp: LinearProgram, form: _StandardForm, tol: float,
                      start: tuple[_Tableau, list, bool] | None) -> LpSolution | None:
    """The answer on the basis of ``start`` (:func:`_slot_start` or
    :func:`_own_start`), its basic values moved from ``b'`` to the LP's
    ``b`` and repaired by dual pivots, when it is certified; None when there
    is no start or the repair or the certificate fails. The certified
    tableau takes the slot of :data:`_last_optimum`."""
    global _last_optimum
    if start is None:
        return None
    tab, old, crossed = start
    # The objective entry of tab.reduced goes stale; no answer reads it.
    _move_values(tab, zip(form.start, map(operator.sub, form.rhs, old)))
    if not _dual_loop(tab, tab.reduced, form.n_real, _PIVOT_TOL):
        return None
    if crossed and not _reduced_costs_hold(form, tab, tol):
        return None
    try:
        answer = _float_answer(lp, form, tab, tol)
    except FloatModeError:
        # a refused answer gets one refinement of x_B and a second certificate
        _refine(form, tab, tol)
        try:
            answer = _float_answer(lp, form, tab, tol)
        except FloatModeError:
            return None
    _last_optimum = form, tab
    return answer


def _move_values(tab: _Tableau, terms) -> None:
    """``x_B += B^-1 r`` for ``terms``, the pairs (start column of row i,
    ``r_i``): the start columns held the identity, so they now hold
    ``B^-1``. Each row's sum runs over the nonzero ``r_i`` in order, in C."""
    columns, weights = [], []
    for j, r in terms:
        if r:
            columns.append(j)
            weights.append(r)
    for row in tab.rows:
        row[-1] += sum(map(operator.mul, map(row.__getitem__, columns), weights))


def _refine(form: _StandardForm, tab: _Tableau, tol: float) -> None:
    """One step of iterative refinement of the basic values: ``B^-1``
    times the residuals ``b_r - A_r x`` of the kept rows, summed afresh
    over the standard form, is added to ``x_B``. It undoes the round-off
    that the pivots since the last cold start left in ``x_B``; the basis
    and the reduced costs stay as they are. A residual within ``tol / 16``
    passes the certificate as it is and is left out, so the step reads a
    few columns of ``B^-1``, not all of them."""
    x = [0.0] * len(tab.state)
    for j in tab.at_upper():
        x[j] = tab.upper[j]
    for j, row in zip(tab.basis, tab.rows):
        x[j] = row[-1]
    terms = []
    for r in tab.kept:
        row = form.rows[r]
        residual = form.rhs[r] - sum(map(operator.mul, row.values(), map(x.__getitem__, row)))
        if abs(residual) > tol / 16:
            terms.append((form.start[r], residual))
    _move_values(tab, terms)


def _reduced_costs_hold(form: _StandardForm, tab: _Tableau, tol: float) -> bool:
    """Whether the tableau's duals ``y_r = c_j - d_j`` on the start columns
    keep every reduced cost ``c_j - y.A_j``, summed afresh over the rows of
    ``form``, on its side within ``tol`` times ``1 + |c_j| + sum |y_r
    a_rj|``: >= 0 at the lower bound, <= 0 at the upper bound, 0 on a free
    column, any on a column fixed at 0. The certificate of an answer checks
    its gap, which holds for any ``y`` where ``b = 0``; this is the check of
    ``y`` itself."""
    cost = tab.cost
    reduced = list(cost)
    size = [1 + abs(c) for c in cost]
    for j, row in zip(form.start, form.rows):
        y_r = cost[j] - tab.reduced[j]
        if y_r:
            for col, v in row.items():
                term = y_r * v
                reduced[col] -= term
                size[col] += abs(term)
    return not any(
        (d < -tol * z if s > 0 else d > tol * z if s < 0 else abs(d) > tol * z) and tab.upper[j] != 0
        for j, (d, z, s) in enumerate(zip(reduced[:form.n_real], size, tab.state))
    )


def _cold_float_solve(lp: LinearProgram, form: _StandardForm, tol: float) -> LpSolution:
    """Float pivoting from the start; a certified optimum's tableau takes
    the slot of :data:`_last_optimum`."""
    global _last_optimum
    _last_optimum = None
    tab = _start_tableau(form, float)
    status = _simplex(form, tab, _PIVOT_TOL, tol, "float")
    if status != OPTIMAL:
        return LpSolution(status, None, None, None, None)
    answer = _float_answer(lp, form, tab, tol)
    _last_optimum = form, tab
    return answer


def _float_answer(lp: LinearProgram, form: _StandardForm, tab: _Tableau, tol: float) -> LpSolution:
    """The certified answer of an optimal float tableau."""
    at_upper = tab.at_upper()
    # Row r's start column j is the unit column e_r, so its final reduced
    # cost is d_j = c_j - y_r; dropped rows included. 0.0 + c_j - d_j is a
    # float, never -0.0, also where c_j is -0.0 or a pivot left an int 0.
    y_full = [0.0 + tab.cost[j] - tab.reduced[j] for j in form.start]
    bound_value = sum(tab.upper[j] * tab.reduced[j] for j in at_upper)
    x_user = _caller_x(form, tab.basis, [row[-1] for row in tab.rows], at_upper, False)
    return _solution(lp, form, x_user, y_full, bound_value, tol, "float")


def _caller_x(form: _StandardForm, basis: list[int], x_b: Sequence[Num], at_upper: list[int],
              exact: bool) -> tuple[Num, ...]:
    """The caller's x of a basic solution: the basic values ``x_b``, each
    column of ``at_upper`` at its upper bound and every other at 0, shifted
    and mirrored back."""
    zero = Fraction(0) if exact else 0.0
    value = {j: form.upper[j] for j in at_upper}
    value.update(zip(basis, x_b))
    x_user = [value.get(j, zero) for j in range(len(form.col_map))]
    # exact mode skips a zero shift; float adds it too, as 0 + -0.0 is 0.0
    return tuple(shift - v if sign < 0 else shift + v if shift or not exact else v
                 for (sign, shift), v in zip(form.col_map, x_user))


def _caller_duals(lp: LinearProgram, form: _StandardForm, y_full: Sequence[Num],
                  exact: bool) -> tuple[Num, ...]:
    """The caller's dual of each constraint from the duals of the
    standard-form rows. Row r is sign_r * scale_r times the caller's row,
    and the cost flip * cost_scale times the caller's objective (flip -1 for
    "max"): the caller's dual of row r is flip * sign_r * scale_r * y_r /
    cost_scale."""
    flip = -1 if lp.sense == "max" else 1
    if exact:
        return tuple(Fraction(y.numerator * flip * sign * scale, y.denominator * form.cost_scale)
                     for y, sign, scale in zip(y_full, form.signs, form.scales))
    # every scale is 1; + 0.0 makes the zero dual of a negated row 0.0, not -0.0
    return tuple(y * (flip * sign) + 0.0 for y, sign in zip(y_full, form.signs))


def _solution(lp, form, x_user, y_full, bound_value, tol, mode) -> LpSolution:
    """The caller's answer from its x, the duals of every standard-form row
    and ``sum u_j d_j`` over the columns at their upper bound (both of the
    form as scaled), certified."""
    exact = mode == "exact"
    objective = _linalg.dots([dict(enumerate(lp.objective))], x_user, exact)[0]
    # min cost.x' over the bounds has the dual value y.b + sum u_j d_j at upper
    dual_obj_min = _linalg.dots([{0: 1, 1: 1, **dict(enumerate(form.rhs, 2))}],
                                [form.obj_shift, bound_value, *y_full], exact)[0]
    dual_objective = dual_obj_min / ((-1 if lp.sense == "max" else 1) * form.cost_scale)
    duals_user = _caller_duals(lp, form, y_full, exact)
    _certify(lp, x_user, duals_user, objective, dual_objective, tol, mode)
    return LpSolution(OPTIMAL, x_user, duals_user, objective, dual_objective)


def _certify(lp, x, duals, objective, dual_objective, tol, mode) -> None:
    """Feasibility, gap and complementary slackness; a failure raises
    ``errors.unverified``.

    Each constraint is summed by ``_linalg.dots`` over its entries where
    ``x`` is nonzero: in exact mode as one int sum, in float mode in column
    order, where skipping only zero terms keeps the dense sum."""
    problems: list[str] = []
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is not None and x[j] < lo - tol:
            problems.append(f"bound violation on variable {j}")
        if hi is not None and x[j] > hi + tol:
            problems.append(f"bound violation on variable {j}")
    sums = _linalg.dots([con.coeffs for con in lp.constraints], x, mode == "exact")
    for i, (con, lhs) in enumerate(zip(lp.constraints, sums)):
        gap = lhs - con.rhs
        above, below = gap > tol, gap < -tol
        if (above and con.relation != GE) or (below and con.relation != LE):
            problems.append(f"constraint {i} violated")
        if con.relation != EQ and (above or below) and (duals[i] > tol or duals[i] < -tol):
            problems.append(f"complementary slackness fails on constraint {i}")
    gap, bound = objective - dual_objective, tol * (1 + abs(objective))
    if gap > bound or gap < -bound:
        problems.append("duality gap")
    if problems:
        raise unverified("solve failed self-certification: " + "; ".join(problems), mode == "exact")


def enumerate_vertices(lp: LinearProgram) -> list[tuple[Fraction, ...]]:
    """All vertices of the constraint set of ``lp`` (objective ignored), exactly.

    Brute-force oracle for small instances: equality constraints are always
    active, every choice of additional active inequalities is solved and the
    candidate point is kept iff it satisfies everything. Intended for bounded
    polytopes; on unbounded sets it still returns all basic feasible points.
    """
    n = len(lp.objective)
    if n > _VERTEX_DIM_GUARD:
        raise DimensionGuardError(f"dimension {n} exceeds the guard {_VERTEX_DIM_GUARD}")
    eqs: list[tuple[list[Fraction], Fraction]] = []
    ineqs: list[tuple[list[Fraction], Fraction]] = []  # normalized to a.x <= b
    for con in lp.constraints:
        coeffs = [Fraction(0)] * n
        for j, v in con.coeffs.items():
            coeffs[j] = Fraction(v)
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
    if math.comb(len(ineqs), need) > _VERTEX_COMBO_GUARD:
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
