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
the vertex again, which rules out cycling.  `MAX_PIVOTS` bounds the work
in any case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Both phases together take at most this many pivots.
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


def linprog(c, A_ub, b_ub) -> LPResult:
    """Maximize c.w over w >= 0 with sum(w) = 1 and A_ub w <= b_ub.

    A failed result names its cause in `message`: "infeasible" with the
    sum that phase 1 could not drive to zero, or the pivot limit.
    """
    a = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
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
    lp = _Tableau(tab, basis, nonbasic)
    try:
        lp.run()
        unmet = -lp.tab[-1, -1]
        if unmet > TOL:
            return LPResult(False, f"infeasible: phase 1 leaves {unmet:.3g} unmet "
                                   f"after {lp.pivots} pivots", pivots=lp.pivots)
        # An artificial still basic sits at zero.  Every inequality has its
        # own slack, so the rows have full rank and its row has a nonzero
        # entry outside the artificials' columns: pivot it out there.
        for r in np.flatnonzero(lp.basis >= n + m):
            lp.pivot(r, int(np.where(lp.nonbasic < n + m, np.abs(lp.tab[r, :-1]), 0.0).argmax()))
        cols = np.append(lp.nonbasic < n + m, True)
        lp.tab, lp.nonbasic = lp.tab[:, cols], lp.nonbasic[cols[:-1]]
        cost = np.zeros(n + m)
        cost[:n] = -np.asarray(c, dtype=float)
        lp.tab[-1, :-1] = cost[lp.nonbasic] - cost[lp.basis] @ lp.tab[:-1, :-1]
        lp.tab[-1, -1] = -cost[lp.basis] @ lp.tab[:-1, -1]
        lp.run()
    except _Stop as stop:
        return LPResult(False, str(stop), pivots=lp.pivots)

    point = np.zeros(n + m)
    point[lp.basis] = lp.tab[:-1, -1]
    return LPResult(True, f"optimal after {lp.pivots} pivots", point[:n], lp.pivots)


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
