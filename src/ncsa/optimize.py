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

Grid feasibility is necessary but not sufficient for the continuum, so a
solution is re-verified a posteriori on a 10x finer grid, and a local
optimality certificate (no feasible pairwise weight transfer improves the
objective) is checked so the result does not rest on trusting the solver.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .evolution import InvariantError, PoissonMixture, rate_upper_bound
from .frames import DegreeDistribution
from .pnc import PncModel


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


def optimize(
    lam: float,
    model: PncModel,
    eps: float = 1e-3,
    eta: float = 0.99,
    max_degree: int = 30,
    grid_points: int = 100,
    tail_tol: float = 1e-12,
    verify_factor: int = 10,
    verify_slack: float = 1e-9,
    refine_rounds: int = 8,
    certify: bool = True,
) -> OptimizationResult:
    """Maximize the design rate at offered load `lam`.

    Returns an infeasible result (rather than raising) when no distribution
    on degrees 1..max_degree satisfies the grid constraints; that happens
    for loads the receiver model simply cannot carry at the target coverage.

    The grid LP guarantees nothing between its constraint points, so the
    solution is re-verified on a `verify_factor` times finer grid; any point
    it flags is added as a constraint and the LP re-solved, up to
    `refine_rounds` times.  Violations still present after the last round
    are reported in the result instead of being hidden.
    """
    if lam <= 0:
        raise ValueError("offered load must be positive")
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_degree < 1 or grid_points < 1:
        raise ValueError("max_degree and grid_points must be positive")

    mix = PoissonMixture(lam, model, tail_tol)
    degrees = np.arange(1, max_degree + 1)
    xs = eta * np.arange(1, grid_points + 1) / grid_points
    fine = eta * np.arange(1, verify_factor * grid_points + 1) / (verify_factor * grid_points)
    fine_resolve = np.asarray(mix(fine))
    need = fine * (1.0 + eps)

    base = dict(
        lam=lam, eps=eps, eta=eta, max_degree=max_degree, grid_points=grid_points,
    )
    for _ in range(max(1, refine_rounds)):
        shrink = 1.0 - np.asarray(mix(xs))  # 1 - P(x_j)
        rows = shrink[:, None] ** (degrees - 1)[None, :]
        bound = 1.0 - xs * (1.0 + eps)
        res = linprog(
            c=-1.0 / degrees,
            A_ub=rows,
            b_ub=bound,
            A_eq=np.ones((1, max_degree)),
            b_eq=np.ones(1),
            bounds=(0, None),
            method="highs",
        )
        if not res.success:
            return OptimizationResult(feasible=False, status=res.message, **base)

        omega = np.clip(res.x, 0.0, None)
        omega = omega / omega.sum()
        dist = DegreeDistribution.from_edge_weights(omega)
        curve = 1.0 - dist.node_deriv(1.0 - fine_resolve) / dist.mean()
        bad = curve < need - verify_slack
        if not np.any(bad):
            break
        cuts = fine[bad]
        grown = np.unique(np.concatenate([xs, cuts]))
        if len(grown) == len(xs):
            break  # flagged points already constrained; report them below
        xs = grown

    rate = float(lam * np.sum(omega / degrees))
    rate_star = rate * (1.0 - dist.node_poly(1.0 - float(mix(eta))))
    violations = tuple(
        (float(x), float(f), float(r)) for x, f, r in zip(fine[bad], curve[bad], need[bad])
    )

    certificate_ok = None
    if certify:
        certificate_ok = _certificate_holds(omega, rows, bound, degrees)

    return OptimizationResult(
        feasible=True,
        status=res.message,
        rate=rate,
        dist=dist,
        rate_star=float(rate_star),
        violations=violations,
        certificate_ok=certificate_ok,
        **base,
    )


def _certificate_holds(
    omega: np.ndarray,
    rows: np.ndarray,
    bound: np.ndarray,
    degrees: np.ndarray,
    delta: float = 1e-6,
    slack: float = 1e-12,
) -> bool:
    """Local optimality check independent of the solver.

    Moving `delta` of edge weight from degree j to degree i < j raises the
    objective by delta*(1/i - 1/j); the solution is certified when every
    such transfer that would improve the objective breaks feasibility.
    """
    values = rows @ omega
    inv = 1.0 / degrees
    n = len(omega)
    for j in range(n):
        if omega[j] < delta:
            continue
        for i in range(n):
            if inv[i] <= inv[j]:
                continue  # not an improvement
            shifted = values + delta * (rows[:, i] - rows[:, j])
            if np.all(shifted <= bound + slack):
                return False
    return True


def achievable_rate(result: OptimizationResult, model: PncModel) -> float:
    """Packets per slot actually recovered at the optimum: the design rate
    discounted by the packets still missing at coverage eta."""
    if not result.feasible or result.dist is None or result.rate is None:
        raise ValueError("no feasible optimum to evaluate")
    mix = PoissonMixture(result.lam, model)
    return result.rate * (1.0 - result.dist.node_poly(1.0 - float(mix(result.eta))))


@dataclass(frozen=True)
class SweepPoint:
    lam: float
    feasible: bool
    rate: float | None
    rate_star: float | None
    upper_bound: float
    error: str | None = None
    result: OptimizationResult | None = None


def sweep(
    lams: Sequence[float],
    model: PncModel,
    eps: float = 1e-3,
    eta: float = 0.99,
    max_degree: int = 30,
    grid_points: int = 100,
) -> list[SweepPoint]:
    """Optimize across a load grid; per-point failures are recorded, not raised."""
    points = []
    for lam in lams:
        try:
            upper = rate_upper_bound(lam, model)
            res = optimize(lam, model, eps=eps, eta=eta, max_degree=max_degree, grid_points=grid_points)
        except (ValueError, InvariantError) as exc:  # a bad point must not kill the sweep
            points.append(SweepPoint(lam=lam, feasible=False, rate=None, rate_star=None,
                                     upper_bound=float("nan"), error=str(exc)))
            continue
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
