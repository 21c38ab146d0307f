import math

import numpy as np
import pytest

from ncsa.evolution import evolve, rate_upper_bound, resolve_prob
from ncsa.frames import DegreeDistribution
from ncsa.gf2 import BitMatrix
from ncsa.optimize import optimize, sweep
from ncsa.pnc import PncModel, WeightedMatrixFamily


MODEL = PncModel.example(10)


def test_edge_node_weight_round_trip():
    dist = DegreeDistribution({1: 0.1, 2: 0.5, 5: 0.4})
    edge = dist.edge_weights()
    back = DegreeDistribution.from_edge_weights(edge)
    for d in range(1, 6):
        assert back.prob(d) == pytest.approx(dist.prob(d), abs=1e-12)


def test_reference_point_load_one():
    res = optimize(1.0, MODEL)
    assert res.feasible
    assert res.rate == pytest.approx(0.5031744048846979, abs=1e-9)
    assert res.rate_star == pytest.approx(0.5031538379518979, abs=1e-9)
    assert res.violations == ()
    assert res.certificate_ok is True
    assert res.rate_star <= rate_upper_bound(1.0, MODEL) + 1e-9
    assert res.rate_star <= res.rate + 1e-12
    total = sum(res.dist.prob(d) for d in range(1, res.max_degree + 1))
    assert total == pytest.approx(1.0, abs=1e-9)
    # nearly all node mass sits on repetition degree 2 at this load
    assert res.dist.prob(2) > 0.9


def test_rate_star_discounts_the_packets_missing_at_eta():
    # packets per slot actually recovered: the design rate times the node
    # fraction at coverage eta
    res = optimize(1.0, MODEL)
    missing = res.dist.node_poly(1.0 - float(resolve_prob(res.eta, 1.0, MODEL)))
    assert res.rate * (1.0 - missing) == pytest.approx(res.rate_star, abs=1e-12)


def test_full_coverage_is_infeasible():
    res = optimize(1.0, MODEL, eta=1.0)
    assert not res.feasible
    assert res.rate is None and res.dist is None and res.rate_star is None


def test_tighter_margin_never_raises_the_rate():
    # larger eps only shrinks the feasible region: rates fall, and once a
    # margin is infeasible every larger one is too
    rates = []
    seen_infeasible = False
    for eps in (1e-3, 5e-3, 1e-2, 5e-2):
        res = optimize(2.0, MODEL, eps=eps)
        if res.feasible:
            assert not seen_infeasible
            rates.append(res.rate)
        else:
            seen_infeasible = True
    assert len(rates) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


def test_optimum_actually_decodes_past_eta():
    for lam in (0.5, 1.0, 3.0):
        res = optimize(lam, MODEL)
        assert res.feasible
        x = evolve(res.dist, lam, 10**5 + 1, model=MODEL).trajectory[-1]
        assert x >= res.eta - 1e-6


def test_degenerate_single_equation_model():
    fam = {1: WeightedMatrixFamily(1, ((BitMatrix.from_rows([[1]]), 1.0),))}
    model = PncModel(max_decodable=1, families=fam)
    # resolve probability is flat: only empty slots help, so x -> e^{-lam}
    assert resolve_prob(0.7, 1.0, model) == pytest.approx(math.exp(-1.0), abs=1e-12)
    res = optimize(1.0, model)
    assert res.feasible
    assert res.rate < 0.2  # far below the multi-equation model's 0.5
    assert res.rate_star <= rate_upper_bound(1.0, model) + 1e-9


def test_high_load_needs_more_degrees():
    cramped = optimize(10.0, MODEL, max_degree=30)
    assert not cramped.feasible
    roomy = optimize(10.0, MODEL, max_degree=60)
    assert roomy.feasible
    assert roomy.rate == pytest.approx(0.7195, abs=5e-3)


def test_sweep_records_per_point_errors():
    points = sweep([0.5, -1.0, 1.0], MODEL)
    assert len(points) == 3
    assert points[0].feasible and points[2].feasible
    bad = points[1]
    assert not bad.feasible
    assert bad.error
    assert math.isnan(bad.upper_bound)
    assert points[0].rate_star <= points[0].upper_bound + 1e-9


def test_sweep_lets_programming_errors_through():
    # only bad input and failed invariants become per-point errors
    with pytest.raises(AttributeError):
        sweep([1.0], None)


def test_sweep_heavy_load_reports_the_lp_status():
    # the stock cap-12 mean ranks are exact, so the heaviest default load
    # reaches the LP and reports why it is infeasible
    (point,) = sweep([10.0], PncModel.example(12))
    assert not point.feasible
    assert math.isfinite(point.upper_bound)
    assert point.upper_bound == pytest.approx(1.579893045223459, abs=1e-12)
    assert point.error == point.result.status
    assert "infeasible" in point.error


def test_validation():
    for lam in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive finite"):
            optimize(lam, MODEL)
    with pytest.raises(ValueError):
        optimize(1.0, MODEL, eta=0.0)
    with pytest.raises(ValueError):
        optimize(1.0, MODEL, eta=1.2)
    with pytest.raises(ValueError):
        optimize(1.0, MODEL, eps=0.0)


def test_verification_grid_is_finer_than_design_grid():
    # a coarse design grid must still produce a solution that survives the
    # 10x verification sweep; violations are reported, not hidden
    res = optimize(1.0, MODEL, grid_points=25)
    assert res.feasible
    assert res.violations == ()
    assert res.certificate_ok is True
