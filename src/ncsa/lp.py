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

A solve can start from an earlier optimum (`start`) when its program
extends that one by appended rows, as a cutting-plane loop's does (Kelley,
J. SIAM 1960).  Each new row is written in the optimum's nonbasic
variables with its slack basic.  Adding rows leaves the optimal basis dual
feasible, so dual-simplex pivots (Lemke, Naval Res. Logist. Q. 1954) take
it back to primal feasibility: the row of most negative right-hand side
leaves, and the least ratio of reduced cost to the row's entry enters,
ties going to the lowest variable index.  A row that no pivot can meet
makes the program infeasible.  A primal pass then confirms the optimum.
The dual pivots follow no anti-cycling rule.  `MAX_PIVOTS` bounds the
pivots of each call, cold or warm, so it ends any cycle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# One call takes at most this many pivots: both phases, or a warm start's
# dual and primal pivots.
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
    pivots: int = 0
    # the optimal tableau and the program it solves, for a later warm start
    _optimum: _Optimum | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class _Optimum:
    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lp: _Tableau

    def extended_by(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> bool:
        """Whether (c, a, b) is this program with rows appended."""
        m = len(self.b)
        return (np.array_equal(c, self.c) and np.array_equal(a[:m], self.a)
                and np.array_equal(b[:m], self.b))

    def extend(self, a: np.ndarray, b: np.ndarray) -> _Tableau:
        """A tableau of the optimal basis with the rows of `a` past this
        program's appended, each in the nonbasic variables, its slack basic."""
        old, (m, n) = self.lp, self.a.shape
        weight_rows = np.flatnonzero(old.basis < n)
        weight_cols = np.flatnonzero(old.nonbasic < n)
        rows = np.zeros((len(b) - m, old.tab.shape[1]))
        rows[:, weight_cols] = a[m:, old.nonbasic[weight_cols]]
        rows[:, -1] = b[m:]
        rows -= a[m:, old.basis[weight_rows]] @ old.tab[weight_rows]
        tab = np.concatenate([old.tab[:-1], rows, old.tab[-1:]])
        return _Tableau(tab, np.append(old.basis, n + np.arange(m, len(b))), old.nonbasic.copy())


def linprog(c, A_ub, b_ub, start: LPResult | None = None) -> LPResult:
    """Maximize c.w over w >= 0 with sum(w) = 1 and A_ub w <= b_ub.

    When `start` is an optimum of this program without its last rows, the
    solve starts from its basis by dual simplex; any other `start` is
    ignored and the solve is cold.  A failed result names its cause in
    `message`: "infeasible" with the sum that phase 1 could not drive to
    zero or the row the dual simplex could not meet, or the pivot limit.
    """
    c = np.array(c, dtype=float)
    a = np.array(A_ub, dtype=float)
    b = np.array(b_ub, dtype=float)
    m, n = a.shape
    prior = start._optimum if start is not None else None
    warm = prior is not None and prior.extended_by(c, a, b)
    lp = prior.extend(a, b) if warm else _phase_one(a, b)
    try:
        if warm:
            lp.restore()
        else:
            lp.run()
            unmet = -lp.tab[-1, -1]
            if unmet > TOL:
                return LPResult(False, f"infeasible: phase 1 leaves {unmet:.3g} unmet "
                                       f"after {lp.pivots} pivots", pivots=lp.pivots)
            _phase_two(lp, c, n + m)
        lp.run()
    except _Stop as stop:
        return LPResult(False, str(stop), pivots=lp.pivots)

    point = np.zeros(n + m)
    point[lp.basis] = lp.tab[:-1, -1]
    return LPResult(True, f"optimal after {lp.pivots} pivots", point[:n], lp.pivots,
                    _Optimum(c, a, b, lp))


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
    cost = np.zeros(artificial)
    cost[:len(c)] = -c
    lp.tab[-1, :-1] = cost[lp.nonbasic] - cost[lp.basis] @ lp.tab[:-1, :-1]
    lp.tab[-1, -1] = -cost[lp.basis] @ lp.tab[:-1, -1]


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
        tab = self.tab
        while True:
            values = tab[:-1, -1]
            r = int(values.argmin())
            if values[r] >= -TOL:
                return
            row = tab[r, :-1]
            eligible = (row < -TOL).nonzero()[0]
            if not len(eligible):
                raise _Stop(f"infeasible: no pivot makes variable {self.basis[r]} nonnegative "
                            f"after {self.pivots} pivots")
            ratios = tab[-1, eligible] / -row[eligible]
            ties = eligible[ratios <= ratios.min() + TOL]
            self.pivot(r, ties[self.nonbasic[ties].argmin()])
