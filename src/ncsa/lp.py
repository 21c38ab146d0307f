"""A small dense two-phase simplex for the degree-design LP.

`linprog` solves

    maximize c.w   subject to   A w <= b,   sum(w) = 1,   w >= 0

with one slack per inequality.  Phase 1 starts from the slack basis, with
an artificial variable in place of the slack in every row with b < 0 and
one for the equality row, and minimizes the artificials' sum; a positive
minimum means the program is infeasible.  Phase 2 maximizes c.w from the
feasible basis it leaves.

The tableau is condensed: one row per basic variable and one column per
nonbasic one, so a pivot updates about len(b) x len(c) entries, not the
identity block of the slacks as well.  Each phase enters the column of most
negative reduced cost (Dantzig's rule) and leaves the row of least ratio,
ties going to the lowest variable index.  After `DEGENERATE_RUN` pivots in
a row that leave the vertex where it was, both choices follow Bland's rule
(lowest eligible index; Bland, Math. Oper. Res. 1977) until a pivot moves
the vertex again, which rules out cycling.

A solve can start from an earlier optimum (`start`) of a program with the
same objective and at most as many rows, such as the last round of a
cutting-plane loop (Kelley, J. SIAM 1960), which appends rows, or the
same grid at another load, which changes the coefficients.  The tableau is
rebuilt at the start's basis, each row past the start's with its slack
basic: only the binding rows and the equality row are solved for the basic
weights.  A primal feasible basis goes straight to the primal pass.
Otherwise negative reduced costs are raised to zero (cost shifting), which
makes the basis dual feasible, and dual-simplex pivots (Lemke, Naval Res.
Logist. Q. 1954) take it to primal feasibility: the row of most negative
right-hand side leaves, and the least ratio of reduced cost to the row's
entry enters, ties going to the lowest variable index.  After
`DEGENERATE_RUN` pivots in a row that leave the objective where it was,
the leaving row is the negative one of lowest variable index, as in
Bland's rule.  Shifted costs are then priced back to the true ones, and a
primal pass finishes.  A singular basis is not used, and a warm solve that
fails is repeated cold, so a failure always reports the cold solve's
message.  `MAX_PIVOTS` bounds the pivots of each attempt, so it ends any
cycle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# One solve attempt takes at most this many pivots: both phases, or a warm
# start's dual and primal pivots.
MAX_PIVOTS = 5000
# Bland's rule takes over after this many degenerate pivots in a row.
DEGENERATE_RUN = 10
# Tableau entries, reduced costs and ratios within this of zero count as zero.
TOL = 1e-10


@dataclass(frozen=True)
class LPResult:
    success: bool
    message: str
    x: np.ndarray | None = None
    # every pivot of the call, a failed warm attempt's as well
    pivots: int = 0
    # the optimal basis and the program's objective and size, for a later warm start
    _optimum: _Optimum | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class _Optimum:
    c: np.ndarray
    rows: int
    basis: np.ndarray
    nonbasic: np.ndarray

    def rebase(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> _Tableau | None:
        """The tableau of (c, a, b) at this optimum's basis, each row past
        the start's with its slack basic; None when `c` differs, the program
        has fewer rows than the start's, or the basis is singular for `a`.

        Row i of the tableau is row i of the program, the equality row
        last: its slack, or one of the basic weights where the slack is
        nonbasic.  The nonbasic weights come before the nonbasic slacks."""
        m, n = a.shape
        if m < self.rows or not np.array_equal(c, self.c):
            return None
        weights = self.basis[self.basis < n]
        slack = self.nonbasic >= n
        free, binding = self.nonbasic[~slack], self.nonbasic[slack] - n
        k = len(weights)
        # Every row of the program over the basic weights, then the
        # tableau's columns: the free weights, the binding rows' slacks and
        # the right-hand side.  The basic weights follow from the binding
        # rows and the equality row alone; every other row's slack is
        # basic, and is what its row leaves.
        program = np.zeros((m + 1, n + k))
        program[:m, :n] = a.take(np.concatenate((weights, free)), axis=1)
        program[:m, -1] = b
        program[m, :n] = 1.0
        program[m, -1] = 1.0
        program[binding, np.arange(n, n + k - 1)] = 1.0
        system = np.append(binding, m)
        square = program.take(system, axis=0)
        try:
            solved = np.linalg.solve(square[:, :k], square[:, k:])
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(solved).all():
            return None
        tab = np.empty((m + 2, n))
        np.matmul(program[:, :k], solved, out=tab[:-1])
        np.subtract(program[:, k:], tab[:-1], out=tab[:-1])
        tab[system] = solved
        tab[-1] = c[weights] @ solved
        tab[-1, :len(free)] -= c[free]
        basis = np.arange(n, n + m + 1)
        basis[system] = weights
        return _Tableau(tab, basis, np.concatenate((free, binding + n)))


def linprog(c, A_ub, b_ub, start: LPResult | None = None) -> LPResult:
    """Maximize c.w over w >= 0 with sum(w) = 1 and A_ub w <= b_ub.

    When `start` is an optimum of a program with the same `c` and at most
    as many rows, the solve starts from its basis (see the module
    docstring); any other `start` is ignored and the solve is cold.  A
    failed result names its cause in `message`, the cold solve's:
    "infeasible" with the sum that phase 1 could not drive to zero, or the
    pivot limit.
    """
    c = np.array(c, dtype=float)
    a = np.array(A_ub, dtype=float)
    b = np.array(b_ub, dtype=float)
    m, n = a.shape
    prior = start._optimum if start is not None else None
    lp = prior.rebase(c, a, b) if prior is not None else None
    spent = 0
    if lp is not None:
        try:
            lp.warm(_costs(c, n + m))
            return _optimal(c, a, lp, lp.pivots)
        except _Stop:
            spent = lp.pivots
    lp = _phase_one(a, b)
    try:
        lp.run()
        unmet = -lp.tab[-1, -1]
        if unmet > TOL:
            return LPResult(False, f"infeasible: phase 1 leaves {unmet:.3g} unmet "
                                   f"after {lp.pivots} pivots", pivots=spent + lp.pivots)
        _phase_two(lp, c, n + m)
        lp.run()
    except _Stop as stop:
        return LPResult(False, str(stop), pivots=spent + lp.pivots)
    return _optimal(c, a, lp, spent + lp.pivots)


def _optimal(c: np.ndarray, a: np.ndarray, lp: _Tableau, pivots: int) -> LPResult:
    m, n = a.shape
    point = np.zeros(n + m)
    point[lp.basis] = lp.tab[:-1, -1]
    return LPResult(True, f"optimal after {pivots} pivots", point[:n], pivots,
                    _Optimum(c, m, lp.basis, lp.nonbasic))


def _costs(c: np.ndarray, variables: int) -> np.ndarray:
    """The cost of each of the first `variables` variables when minimizing
    -c.w: -c on the weights, zero on the slacks."""
    cost = np.zeros(variables)
    cost[:len(c)] = -c
    return cost


def _phase_one(a: np.ndarray, b: np.ndarray) -> _Tableau:
    """The starting tableau, whose cost row is the artificials' sum."""
    m, n = a.shape
    neg = np.flatnonzero(b < 0)
    sign = np.ones(m)
    sign[neg] = -1.0
    # Variables: weights 0..n-1, slacks n..n+m-1, artificials from n+m on.
    # Rows with b < 0 are negated, and their slacks start nonbasic next to
    # the weights, entering with -1.
    nonbasic = np.append(np.arange(n), n + neg)
    art = np.append(neg, m)
    tab = np.zeros((m + 2, len(nonbasic) + 1))  # the equality row, then the cost row
    tab[:m, :n] = a * sign[:, None]
    tab[neg, n + np.arange(len(neg))] = -1.0
    tab[m, :n] = 1.0
    tab[:m, -1] = b * sign
    tab[m, -1] = 1.0
    tab[-1] = -tab[art].sum(axis=0)
    basis = np.append(n + np.arange(m), 0)
    basis[art] = n + m + np.arange(len(art))
    return _Tableau(tab, basis, nonbasic)


def _phase_two(lp: _Tableau, c: np.ndarray, artificial: int) -> None:
    """Drop phase 1's artificials, the variables from `artificial` on, and
    price the basis at -c."""
    # An artificial still basic sits at zero.  Every inequality has its
    # own slack, so the rows have full rank and its row has a nonzero
    # entry outside the artificials' columns: pivot it out there.
    for r in np.flatnonzero(lp.basis >= artificial):
        lp.pivot(r, int(np.where(lp.nonbasic < artificial, np.abs(lp.tab[r, :-1]), 0.0).argmax()))
    cols = np.append(lp.nonbasic < artificial, True)
    lp.tab, lp.nonbasic = lp.tab[:, cols], lp.nonbasic[cols[:-1]]
    lp.price(_costs(c, artificial))


class _Stop(Exception):
    """A phase ended without an optimum; the message says why."""


class _Tableau:
    """Condensed tableau: basic variable i = tab[i, -1] - tab[i, :-1] . nonbasic.

    The last row holds the reduced costs and minus the objective.
    """

    def __init__(self, tab: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray):
        self.tab = tab
        self.basis = basis
        self.nonbasic = nonbasic
        self.pivots = 0

    def pivot(self, r: int, s: int) -> None:
        """Exchange basic row r with nonbasic column s."""
        if self.pivots >= MAX_PIVOTS:
            raise _Stop(f"pivot limit of {MAX_PIVOTS} reached")
        tab = self.tab
        p = tab[r, s]
        column = tab[:, s].copy()
        column[r] = 0.0
        tab[r] /= p
        tab -= column[:, None] * tab[r]
        tab[:, s] = -column / p
        tab[r, s] = 1.0 / p
        self.basis[r], self.nonbasic[s] = self.nonbasic[s], self.basis[r]
        self.pivots += 1

    def price(self, cost: np.ndarray) -> None:
        """Write the cost row for the variable costs `cost`."""
        self.tab[-1, :-1] = cost[self.nonbasic] - cost[self.basis] @ self.tab[:-1, :-1]
        self.tab[-1, -1] = -cost[self.basis] @ self.tab[:-1, -1]

    def warm(self, cost: np.ndarray) -> None:
        """Pivot from a rebuilt basis to the optimum of the costs `cost`,
        which the cost row holds: by the primal pass alone when the basis is
        primal feasible, else by cost shifting, the dual simplex and the
        primal pass on the true costs."""
        if self.tab[:-1, -1].min() < -TOL:
            reduced = self.tab[-1, :-1]
            shifted = reduced < -TOL
            reduced[shifted] = 0.0
            self.restore()
            if shifted.any():
                self.price(cost)
        self.run()

    def run(self) -> None:
        """Pivot until no reduced cost is negative."""
        tab, degenerate = self.tab, 0
        while True:
            reduced = tab[-1, :-1]
            if degenerate >= DEGENERATE_RUN:
                candidates = (reduced < -TOL).nonzero()[0]
                if not len(candidates):
                    return
                s = candidates[self.nonbasic[candidates].argmin()]
            else:
                s = int(reduced.argmin())
                if reduced[s] >= -TOL:
                    return
            column = tab[:-1, s]
            eligible = (column > TOL).nonzero()[0]
            if not len(eligible):
                raise _Stop(f"unbounded along variable {self.nonbasic[s]}")
            ratios = tab[eligible, -1] / column[eligible]
            least = ratios.min()
            ties = eligible[ratios <= least + TOL]
            degenerate = degenerate + 1 if least <= TOL else 0
            self.pivot(ties[self.basis[ties].argmin()], s)

    def restore(self) -> None:
        """Dual simplex: pivot until no basic variable is negative, keeping
        every reduced cost nonnegative."""
        tab, degenerate = self.tab, 0
        while True:
            values = tab[:-1, -1]
            if degenerate >= DEGENERATE_RUN:
                negative = (values < -TOL).nonzero()[0]
                if not len(negative):
                    return
                r = negative[self.basis[negative].argmin()]
            else:
                r = int(values.argmin())
                if values[r] >= -TOL:
                    return
            row = tab[r, :-1]
            eligible = (row < -TOL).nonzero()[0]
            if not len(eligible):
                raise _Stop(f"infeasible: no pivot makes variable {self.basis[r]} nonnegative "
                            f"after {self.pivots} pivots")
            ratios = tab[-1, eligible] / -row[eligible]
            least = ratios.min()
            ties = eligible[ratios <= least + TOL]
            degenerate = degenerate + 1 if least <= TOL else 0
            self.pivot(r, ties[self.nonbasic[ties].argmin()])
