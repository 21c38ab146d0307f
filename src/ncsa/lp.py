"""A small dense simplex for the degree-design LP.

`linprog` solves

    maximize c.w   subject to   A w <= b,   sum(w) = 1,   w >= 0

with one slack per inequality, by one path: it rebuilds the tableau at a
basis and pivots from there.  The basis is an earlier optimum (`start`)
of a program with the same objective and at most as many rows, such as
the last round of a cutting-plane loop (Kelley, J. SIAM 1960) or the same
grid at another load.  Without one, or when it is singular for the new
rows or the solve from it fails, it is the slack basis: every row's slack
basic, the first weight carrying sum(w) = 1.  Rows past the basis's own keep their slacks basic, so only
the binding rows and the equality row are solved for the basic weights.

Negative reduced costs are raised to zero (cost shifting), which makes
the basis dual feasible; for the design LP, whose first weight costs the
most, the slack basis is dual feasible already.  Dual-simplex pivots
(Lemke, Naval Res. Logist. Q. 1954) then take it to primal feasibility:
the row of most negative right-hand side leaves, and the least ratio of
reduced cost to the row's entry enters.  A negative row with no entry to
enter proves the program infeasible.  Shifted costs are priced back to
the true ones, and a primal pass finishes: the column of most negative
reduced cost enters (Dantzig's rule), the row of least ratio leaves.
From the slack basis this is the cost-shifting dual phase 1 (Koberstein
and Suhl, Comput. Optim. Appl. 2007).  Ties go to the lowest variable
index, and after `DEGENERATE_RUN` pivots in a row that leave the
objective where it was, both passes choose as Bland's rule does (Bland,
Math. Oper. Res. 1977) until a pivot moves it again, which rules out
cycling.  `MAX_PIVOTS` bounds the pivots of each solve.

The tableau is condensed: one row per basic variable and one column per
nonbasic one, so a pivot updates about len(b) x len(c) entries.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# One solve from a basis takes at most this many pivots, dual and primal.
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
    # every pivot of the call, a failed solve from `start`'s as well
    pivots: int = 0
    # the optimal basis and the program's objective and size, a later `start`
    _optimum: _Optimum | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class _Optimum:
    """A basis to solve from: an optimum, or the slack basis, whose `rows` is 0."""

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
    as many rows, the solve first starts from its basis; otherwise, or when
    that try fails, it starts from the slack basis (see the module
    docstring).  A failed result names its cause in `message`, the slack
    basis try's: the pivot limit, or "infeasible" with the variable that no
    pivot can make nonnegative.  As in `ncsa.optimize`, weight j is the
    degree-(j+1) weight and row i of `A_ub` a grid row.
    """
    c = np.array(c, dtype=float)
    a = np.array(A_ub, dtype=float)
    b = np.array(b_ub, dtype=float)
    m, n = a.shape
    cost = np.append(-c, np.zeros(m))  # minimizing -c.w; the slacks cost nothing
    spent = 0
    slack_basis = _Optimum(c, 0, np.array([0]), np.arange(1, n))
    for prior in (start._optimum if start is not None else None, slack_basis):
        lp = prior.rebase(c, a, b) if prior is not None else None
        if lp is None:
            continue
        try:
            lp.warm(cost)
        except _Stop as stop:
            spent, failure = spent + lp.pivots, str(stop)
            continue
        spent += lp.pivots
        point = np.zeros(n + m)
        point[lp.basis] = lp.tab[:-1, -1]
        return LPResult(True, f"optimal after {spent} pivots", point[:n], spent,
                        _Optimum(c, m, lp.basis, lp.nonbasic))
    return LPResult(False, failure, pivots=spent)


class _Stop(Exception):
    """A solve ended without an optimum; the message says why."""


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
                # n + m variables, m + 1 basic: n - 1 nonbasic columns and b, one per weight
                v, weights = self.basis[r], tab.shape[1]
                unmet = (f"the constraints force the degree-{v + 1} weight below zero" if v < weights
                         else f"grid row {v - weights} cannot be met with the others")
                raise _Stop(f"infeasible: {unmet} (found after {self.pivots} pivots)")
            ratios = tab[-1, eligible] / -row[eligible]
            least = ratios.min()
            ties = eligible[ratios <= least + TOL]
            degenerate = degenerate + 1 if least <= TOL else 0
            self.pivot(r, ties[self.nonbasic[ties].argmin()])
