"""Repetition-degree optimization as a linear program.

The goal is the largest user/slot ratio R whose edge recursion clears
x(1+eps) everywhere on (0, eta], for a pinned offered load lam.  In node
form that constraint is nonlinear in the distribution because R and the
mean degree move together.  Substituting edge weights w_i = i*L_i / mean
(L being the node distribution) linearizes everything:

    L'(y)/mean = sum_i w_i y^(i-1)       sum_i w_i = 1
    1/mean     = sum_i w_i / i           R = lam * sum_i w_i / i

so the program is: maximize sum_i w_i/i over w >= 0, sum w_i = 1, subject
to sum_i w_i (1 - P(x_j))^(i-1) <= 1 - x_j (1+eps) on a uniform grid
x_j = j*eta/grid.  The node distribution is recovered by normalizing
w_i/i.  The open left endpoint contributes no row: P(0) >= e^(-lam) > 0,
so the x -> 0 limit of the constraint holds strictly for every w.

The program is small (max_degree weights, one equality, a row per grid
point), so `ncsa.lp.linprog`, a dense simplex in numpy, solves it from the
slack basis or from an earlier optimum.  Its point is an optimal vertex up
to rounding, with no feasibility tolerance, and an infeasible status names
the degree weight or grid row that no pivot can make nonnegative.

Grid feasibility is necessary but not sufficient for the continuum, so a
solution is re-verified a posteriori on a 10x finer grid, and a local
optimality certificate (no feasible pairwise weight transfer improves the
objective) is checked so the result does not rest on trusting the solver.
Each point the fine grid flags becomes a row appended to the program, and
the grown program is warm-started from the last optimum.  A sweep starts
each load's first round from the last load's first-round optimum: the
grid, the objective and the right-hand side are the same, and only the
coefficients move with the load.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .evolution import InvariantError, PoissonMixture, edge_fraction, node_fraction, rate_upper_bound
from .frames import DegreeDistribution
from .lp import LPResult, linprog
from .pnc import PncModel

# The a-posteriori check runs on a grid this many times finer than the LP's.
VERIFY_FACTOR = 10
# A fine-grid point counts as violated only below its requirement by more than this.
VERIFY_SLACK = 1e-9
# At most this many LP solves; each adds the fine-grid points the last one violated.
REFINE_ROUNDS = 8
# The certificate moves this much edge weight between two degrees ...
CERT_DELTA = 1e-6
# ... and counts a moved solution feasible within this slack of each bound.
CERT_SLACK = 1e-12


@dataclass(frozen=True)
class OptimizationResult:
    lam: float
    eps: float
    eta: float
    max_degree: int
    grid_points: int
    feasible: bool
    status: str
    rate: float | None = None
    dist: DegreeDistribution | None = None
    rate_star: float | None = None
    violations: tuple[tuple[float, float, float], ...] = ()
    certificate_ok: bool | None = None
    # LP solves and simplex pivots over all refinement rounds
    lp_solves: int = 0
    lp_pivots: int = 0
    # the first round's LP result, a start for the same design at another load
    _first_round: LPResult | None = field(default=None, repr=False, compare=False)


# `optimize`'s design keywords and their defaults, which `sweep` and the
# CLI take from here as well
DESIGN_DEFAULTS = {"eps": 1e-3, "eta": 0.99, "max_degree": 30, "grid_points": 100}


def _check_design(eps: float, eta: float, max_degree: int, grid_points: int) -> None:
    """Raise ValueError unless `optimize`'s design keywords are valid."""
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a positive finite number, got {eps!r}")
    if max_degree < 1 or grid_points < 1:
        raise ValueError("max_degree and grid_points must be positive")


def optimize(
    lam: float,
    model: PncModel,
    eps: float = DESIGN_DEFAULTS["eps"],
    eta: float = DESIGN_DEFAULTS["eta"],
    max_degree: int = DESIGN_DEFAULTS["max_degree"],
    grid_points: int = DESIGN_DEFAULTS["grid_points"],
    *,
    start: LPResult | None = None,
) -> OptimizationResult:
    """Maximize the design rate at offered load `lam`.

    Returns an infeasible result (rather than raising) when no distribution
    on degrees 1..max_degree satisfies the grid constraints; that happens
    for loads the receiver model simply cannot carry at the target coverage.

    The grid LP guarantees nothing between its constraint points, so the
    solution is re-verified on a `VERIFY_FACTOR` times finer grid; any point
    it flags is appended as a constraint and the LP warm-started from the
    last optimum, up to `REFINE_ROUNDS` solves in all.  Violations still
    present after the last round are reported in the result instead of
    being hidden.  `start`, the `_first_round` of the same design at
    another load, warm-starts the first round.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"offered load must be a positive finite number, got {lam!r}")
    _check_design(eps, eta, max_degree, grid_points)

    mix = PoissonMixture(lam, model)
    degrees = np.arange(1, max_degree + 1)
    xs = eta * np.arange(1, grid_points + 1) / grid_points
    fine = eta * np.arange(1, VERIFY_FACTOR * grid_points + 1) / (VERIFY_FACTOR * grid_points)
    fine_resolve = np.asarray(mix(fine))
    need = fine * (1.0 + eps)
    # the fine points equal to a design grid point are constrained already
    # (matched by searchsorted: np.isin and np.unique import numpy.ma)
    at = np.minimum(np.searchsorted(fine, xs), len(fine) - 1)
    constrained = np.zeros(len(fine), bool)
    constrained[at[fine[at] == xs]] = True

    base = dict(
        lam=lam, eps=eps, eta=eta, max_degree=max_degree, grid_points=grid_points,
    )
    cuts, cut_resolve = xs, np.asarray(mix(xs))
    rows, bound = np.empty((0, max_degree)), np.empty(0)
    res, first, solves, pivots = start, None, 0, 0
    for _ in range(REFINE_ROUNDS):
        rows = np.concatenate([rows, (1.0 - cut_resolve)[:, None] ** (degrees - 1)[None, :]])
        bound = np.concatenate([bound, 1.0 - cuts * (1.0 + eps)])
        res = linprog(1.0 / degrees, rows, bound, res)
        first = res if first is None else first
        solves, pivots = solves + 1, pivots + res.pivots
        if not res.success:
            return OptimizationResult(feasible=False, status=res.message,
                                      lp_solves=solves, lp_pivots=pivots, _first_round=first, **base)

        omega = np.clip(res.x, 0.0, None)
        omega = omega / omega.sum()
        dist = DegreeDistribution.from_edge_weights(omega)
        curve = edge_fraction(dist, fine_resolve)
        bad = curve < need - VERIFY_SLACK
        if not np.any(bad):
            break
        fresh = bad & ~constrained
        if not np.any(fresh):
            break  # flagged points already constrained; report them below
        constrained |= fresh
        # the mixture is elementwise: this is mix(cuts), bit for bit
        cuts, cut_resolve = fine[fresh], fine_resolve[fresh]

    rate = float(lam * np.sum(omega / degrees))
    rate_star = rate * node_fraction(dist, float(mix(eta)))
    violations = tuple(
        (float(x), float(f), float(r)) for x, f, r in zip(fine[bad], curve[bad], need[bad])
    )

    return OptimizationResult(
        feasible=True,
        status=res.message,
        rate=rate,
        dist=dist,
        rate_star=float(rate_star),
        violations=violations,
        certificate_ok=_certificate_holds(omega, rows, bound, degrees),
        lp_solves=solves,
        lp_pivots=pivots,
        _first_round=first,
        **base,
    )


def _certificate_holds(omega: np.ndarray, rows: np.ndarray, bound: np.ndarray, degrees: np.ndarray) -> bool:
    """Local optimality check independent of the solver.

    Moving `CERT_DELTA` of edge weight from degree j to degree i < j raises
    the objective by CERT_DELTA*(1/i - 1/j); the solution is certified when
    every such transfer that would improve the objective breaks feasibility.
    All improving transfers out of one degree j are tested as one matrix,
    a column per target degree.
    """
    values = rows @ omega
    inv = 1.0 / degrees
    limit = (bound + CERT_SLACK)[:, None]
    for j in np.flatnonzero(omega >= CERT_DELTA).tolist():
        better = inv > inv[j]
        shifted = values[:, None] + CERT_DELTA * (rows[:, better] - rows[:, [j]])
        if (shifted <= limit).all(axis=0).any():
            return False
    return True


@dataclass(frozen=True)
class SweepPoint:
    lam: float
    feasible: bool
    rate: float | None
    rate_star: float | None
    upper_bound: float
    error: str | None = None
    result: OptimizationResult | None = None


def sweep(lams: Sequence[float], model: PncModel, **design) -> list[SweepPoint]:
    """Optimize across a load grid; per-point failures are recorded, not raised.

    `design` holds `optimize`'s keywords (eps, eta, max_degree, grid_points);
    those it leaves out take `DESIGN_DEFAULTS`.  A bad design raises
    ValueError before any load is solved.  Each load's first LP round starts
    from the last first round that reached an optimum.
    """
    design = {**DESIGN_DEFAULTS, **design}
    _check_design(**design)
    points, start = [], None
    for lam in lams:
        try:
            upper = rate_upper_bound(lam, model)
            res = optimize(lam, model, **design, start=start)
        except (ValueError, InvariantError) as exc:  # a bad point must not kill the sweep
            points.append(SweepPoint(lam=lam, feasible=False, rate=None, rate_star=None,
                                     upper_bound=float("nan"), error=str(exc)))
            continue
        if res._first_round.success:
            start = res._first_round
        points.append(
            SweepPoint(
                lam=lam,
                feasible=res.feasible,
                rate=res.rate,
                rate_star=res.rate_star,
                upper_bound=upper,
                error=None if res.feasible else res.status,
                result=res,
            )
        )
    return points
