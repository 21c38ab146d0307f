"""Asymptotic recursion for the per-packet recovery probability.

In the large-frame limit the collision size of a random slot is Poisson
with mean equal to the offered load (user/slot ratio times mean repetition
degree).  Mixed over that law, the per-collision-size solvability
polynomials give one polynomial per load, P_lam (`PoissonMixture`), whose
coefficients are the Poisson-weighted sums of theirs; `evolve`,
`resolve_prob` and `ncsa.optimize` evaluate it.  The edge recursion in
`evolve` tracks the probability that a repetition of a random packet is
resolved after each decoding iteration, and stops at its fixed point.

`rate_upper_bound` is the capacity-style ceiling: no decoder can recover
more packets per slot than the mean number of independent combinations a
slot delivers.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .frames import DegreeDistribution
from .pnc import PncModel

# Poisson tail mass left out of every collision-size mixture.
TAIL_TOL = 1e-12
# `evolve` stops once successive edge values agree this closely.
STALL_TOL = 1e-12
# The largest load whose e^-load is a normal float.  Above it the first
# Poisson weight is subnormal or 0, and the weights built from it are wrong.
MAX_LOAD = -math.log(sys.float_info.min)


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input.  Raised
    explicitly so that the check also runs under ``python -O``."""


def poisson_weights(lam: float, min_terms: int = 0) -> np.ndarray:
    """Poisson(lam) pmf values w_0..w_L, untruncated and unnormalized.

    L is the smallest index with tail mass at most `TAIL_TOL` (and at least
    `min_terms`); the returned weights sum to 1 - tail, deliberately left
    as-is so truncation error stays visible to callers.  A load above
    `MAX_LOAD` raises ValueError.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"offered load must be a positive finite number, got {lam!r}")
    weights = [float(np.exp(-lam))]
    if weights[0] < sys.float_info.min:
        raise ValueError(f"offered load must be at most {MAX_LOAD!r}, got {lam!r}")
    cum = weights[0]
    k = 0
    while (1.0 - cum > TAIL_TOL or k < min_terms) and cum < 1.0:
        k += 1
        weights.append(weights[-1] * lam / k)
        cum += weights[-1]
    return np.asarray(weights)


class PoissonMixture:
    """P_lam(x) = sum_k w_k Gamma_k(x) for one (load, model) pair as one
    polynomial: coeffs[j] = sum_k w_k c_kj, the Poisson weights w_k times the
    coefficients c_kj of `gamma_poly(k)` (0 from the cap on), summed by
    `math.fsum` into the correctly rounded sum of the float products.  A call
    evaluates it by Horner's rule, for a scalar or an ndarray alike."""

    def __init__(self, lam: float, model: PncModel):
        self.lam = lam
        weights = poisson_weights(lam, min_terms=model.max_decodable - 1).tolist()
        terms: list[list[float]] = [[] for _ in range(model.max_decodable)]
        for k, w in enumerate(weights[:model.max_decodable]):
            for j, c in enumerate(model.gamma_poly(k).coeffs):
                terms[j].append(w * c)
        self.coeffs = tuple(math.fsum(products) for products in terms if products)

    def __call__(self, x):
        value = 0.0
        for a in reversed(self.coeffs):
            value = value * x + a
        if not np.all((np.asarray(value) >= -1e-9) & (np.asarray(value) <= 1.0 + 1e-9)):
            raise InvariantError(f"mixture left [0,1]: {value!r}")
        return value


def resolve_prob(x, lam: float, model: PncModel):
    """Probability that a slot resolves a given member packet, the rest of
    the population being known independently with probability x (a scalar
    or an ndarray): `PoissonMixture`'s polynomial P_lam at x."""
    return PoissonMixture(lam, model)(x)


def edge_fraction(dist: DegreeDistribution, resolved):
    """Chance that a repetition's packet is known through one of its user's
    other repetitions, each resolved with probability `resolved`:
    1 - Λ'(1 - resolved)/Λ'(1).  One step of the edge recursion."""
    return 1.0 - dist.node_deriv(1.0 - resolved) / dist.mean()


def node_fraction(dist: DegreeDistribution, resolved):
    """Chance that a packet is known through at least one of its
    repetitions, each resolved with probability `resolved`: 1 - Λ(1 - resolved)."""
    return 1.0 - dist.node_poly(1.0 - resolved)


@dataclass(frozen=True)
class EvolutionResult:
    lam: float
    trajectory: tuple[float, ...]
    z_star: float
    iterations: int
    converged: bool


def evolve(
    dist: DegreeDistribution,
    lam: float,
    iters: int,
    model: PncModel,
) -> EvolutionResult:
    """Run the edge recursion for `iters` decoder iterations.

    The trajectory holds the per-repetition probabilities z_1..z_(iters-1);
    the headline number is z_star, the fraction of packets recovered after
    the final iteration.  The recursion stops early once successive values
    agree within `STALL_TOL`: the last trajectory value is then its fixed
    point.  A stall near - but not at - the fixed point is not an error;
    `converged` says whether the tolerance was met.
    """
    if iters < 1:
        raise ValueError("need at least one iteration")
    mix = PoissonMixture(lam, model)
    trajectory: list[float] = []
    z = 0.0
    converged = False
    for _ in range(iters - 1):
        z_next = float(edge_fraction(dist, mix(z)))
        if not -1e-9 <= z_next <= 1.0 + 1e-9:
            raise InvariantError(f"edge value left [0,1]: {z_next!r}")
        trajectory.append(z_next)
        converged = abs(z_next - z) < STALL_TOL
        z = z_next
        if converged:
            break
    return EvolutionResult(
        lam=lam,
        trajectory=tuple(trajectory),
        z_star=float(node_fraction(dist, float(mix(z)))),
        iterations=len(trajectory),
        converged=converged,
    )


def rate_upper_bound(lam: float, model: PncModel) -> float:
    """Mean decoded combinations per slot: the ceiling on packets per slot.

    Averages each collision size's mean rank under the Poisson(lam)
    collision law; for the stock model the mean ranks are exact counts.
    """
    weights = poisson_weights(lam, min_terms=model.max_decodable)
    dmax = min(len(weights) - 1, model.max_decodable)
    return sum(float(weights[d]) * model.expected_rank(d) for d in range(1, dmax + 1))
