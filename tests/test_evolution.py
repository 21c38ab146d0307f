import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import ncsa
from ncsa.evolution import (
    PoissonMixture,
    evolve,
    poisson_weights,
    rate_upper_bound,
    resolve_prob,
)
from ncsa.frames import DegreeDistribution
from ncsa.gf2 import BitMatrix
from ncsa.pnc import PncModel, WeightedMatrixFamily


def test_poisson_weights_match_scipy():
    for lam in (0.3, 1.0, 2.5, 7.0):
        w = poisson_weights(lam, min_terms=5)
        ks = np.arange(len(w))
        np.testing.assert_allclose(w, scipy.stats.poisson.pmf(ks, lam), rtol=1e-12)
        assert w.sum() >= 1.0 - 1e-12


def test_poisson_weights_anchors():
    assert poisson_weights(1.0)[0] == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert poisson_weights(2.0)[2] == pytest.approx(2.0 * math.exp(-2.0), abs=1e-15)


def test_poisson_weights_min_terms_and_validation():
    assert len(poisson_weights(0.1, min_terms=40)) >= 40
    with pytest.raises(ValueError):
        poisson_weights(0.0)
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive finite"):
            poisson_weights(bad)


def test_poisson_weights_reject_loads_whose_first_weight_underflows():
    # e^-lam is subnormal from about 708.4 and 0 from about 745; the weights
    # built from it were wrong, and the loop never ended once it was 0
    assert len(poisson_weights(700.0)) == 895
    assert len(poisson_weights(708.3964185322641)) > 895
    for lam in (708.3964185322642, 709.0, 740.0, 800.0, 1e6):
        with pytest.raises(ValueError, match="at most 708.3964185322641"):
            poisson_weights(lam)


# --- resolve probability -----------------------------------------------------


def test_resolve_prob_at_zero_anchor():
    model = PncModel.example(3)
    # collision sizes 0,1,2 contribute at x=0: w0*1 + w1*(2/3) + w2*(1/10)
    w = scipy.stats.poisson.pmf([0, 1, 2], 1.0)
    expected = w[0] + w[1] * 2.0 / 3.0 + w[2] * 0.1
    assert resolve_prob(0.0, 1.0, model) == pytest.approx(expected, abs=1e-15)
    assert resolve_prob(0.0, 1.0, model) == pytest.approx(0.6315263740109759, abs=1e-15)


def test_resolve_prob_at_one_is_poisson_cdf():
    model = PncModel.example(10)
    for lam in (0.5, 1.5, 4.0):
        assert resolve_prob(1.0, lam, model) == pytest.approx(
            scipy.stats.poisson.cdf(9, lam), abs=1e-12
        )


def test_resolve_prob_monotone_and_bounded():
    model = PncModel.example(6)
    xs = np.linspace(0.0, 1.0, 101)
    vals = np.array([resolve_prob(float(x), 2.0, model) for x in xs])
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(vals >= math.exp(-2.0) - 1e-12)  # empty-slot floor
    assert np.all(vals <= 1.0 + 1e-12)


# the unit roundoff of a float
UNIT = Fraction(1, 2**53)


def exact_polyval(coeffs, points):
    """sum_j coeffs[j] p**j for each float point p, the coefficients being
    rationals, in exact arithmetic: Horner's rule on integers over the
    coefficients' common denominator and the point's power of two."""
    den = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in reversed(coeffs)]
    values = []
    for point in points:
        p, q = float(point).as_integer_ratio()
        acc, scale = 0, 1
        for n in nums:
            acc = acc * p + n * scale
            scale *= q
        values.append(Fraction(acc, den * scale // q))
    return values


def reference_mixture(lam, model, points):
    """The exact value of sum_k w_k Gamma_k(p) at each point p, summed per k
    from the float Poisson weights w_k and the float coefficients of each
    `gamma_poly(k)`, with no rounding."""
    weights = poisson_weights(lam, min_terms=model.max_decodable - 1)
    mixed = [Fraction(0)] * model.max_decodable
    for k, w in enumerate(weights[:model.max_decodable]):
        for j, c in enumerate(model.gamma_poly(k).coeffs):
            mixed[j] += Fraction(float(w)) * Fraction(c)
    return exact_polyval(mixed, points)


def assert_mixture_within_rounding(mix, model, x, value):
    """`value`, the mixture's output at the points `x`, lies within the
    rounding error bound of the exact `reference_mixture` at every point.

    Each coefficient a_j is the correctly rounded sum of the rounded
    products w_k c_kj, so it is off by at most u |a_j| + u sum_k |w_k c_kj|;
    Horner's rule of degree n adds at most gamma_2n sum_j |a_j| |p|^j
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 5.1).
    """
    weights = [Fraction(float(w)) for w in poisson_weights(mix.lam, min_terms=model.max_decodable - 1)]
    polys = [model.gamma_poly(k).coeffs for k in range(model.max_decodable)]
    roundings = 2 * (len(mix.coeffs) - 1)
    horner = roundings * UNIT / (1 - roundings * UNIT)  # gamma_2n
    products = [
        sum(abs(w * Fraction(c[j])) for w, c in zip(weights, polys) if j < len(c)) for j in range(len(mix.coeffs))
    ]
    bound = [(horner + UNIT) * abs(Fraction(a)) + UNIT * p for a, p in zip(mix.coeffs, products)]
    points = np.ravel(x).tolist()
    want = reference_mixture(mix.lam, model, points)
    slack = exact_polyval(bound, [abs(p) for p in points])
    for p, got, exact, allowed in zip(points, np.ravel(value).tolist(), want, slack):
        assert abs(Fraction(got) - exact) <= allowed, (mix.lam, p, got)


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    st.floats(0.01, 12.0),
    st.integers(2, 12),
)
def test_mixture_is_within_rounding_of_the_exact_sum(points, lam, cap):
    model = PncModel.example(cap)
    mix = PoissonMixture(lam, model)
    grid = np.array(points)
    values = mix(grid)
    assert_mixture_within_rounding(mix, model, grid, values)
    for x, value in zip(points[:3], values):
        assert mix(x) == value  # a scalar takes the grid's operations


def test_resolve_prob_vectorizes():
    model = PncModel.example(5)
    xs = np.array([0.0, 0.25, 0.5, 1.0])
    vec = resolve_prob(xs, 1.3, model)
    scalars = [resolve_prob(float(x), 1.3, model) for x in xs]
    np.testing.assert_allclose(vec, scalars, rtol=0, atol=1e-15)


# --- fixed-count evolution ---------------------------------------------------


def test_single_round_anchor():
    dist = DegreeDistribution({1: 1.0})
    model = PncModel.example(3)
    res = evolve(dist, 1.0, 1, model=model)
    assert res.z_star == pytest.approx(0.6315263740109759, abs=1e-15)
    assert res.trajectory == ()


def test_degree_one_round_one_equals_resolve_prob_at_zero():
    # with all-singleton users the first round decodes exactly the packets
    # whose slot resolves with no help, so z*_1 = P(0)
    model = PncModel.example(5)
    dist = DegreeDistribution({1: 1.0})
    for lam in (0.5, 1.0, 2.0):
        res = evolve(dist, lam, 1, model=model)
        assert res.z_star == pytest.approx(resolve_prob(0.0, lam, model), abs=1e-14)


def test_trajectory_nondecreasing():
    model = PncModel.example(8)
    for dist, lam in [
        (DegreeDistribution({3: 1.0}), 1.5),
        (DegreeDistribution({2: 0.5, 4: 0.5}), 1.0),
        (DegreeDistribution({1: 0.2, 2: 0.3, 3: 0.5}), 2.5),
    ]:
        res = evolve(dist, lam, 60, model=model)
        zs = res.trajectory
        assert zs and all(b >= a - 1e-12 for a, b in zip(zs, zs[1:]))
        assert 0.0 <= res.z_star <= 1.0


def test_deep_run_converges_near_one():
    dist = DegreeDistribution({3: 1.0})
    model = PncModel.example(10)
    res = evolve(dist, 1.5, 100, model=model)
    assert res.z_star == pytest.approx(1.0, abs=1e-12)
    assert res.converged


def test_evolve_agrees_with_fixed_point():
    # where the recursion stops, one more edge step moves it by less than
    # the stall tolerance, and z_star is the node fraction at that point
    model = PncModel.example(10)
    for dist, lam in [
        (DegreeDistribution({3: 1.0}), 1.5),
        (DegreeDistribution({2: 0.6, 5: 0.4}), 2.0),
    ]:
        deep = evolve(dist, lam, 3000, model=model)
        assert deep.converged
        x = deep.trajectory[-1]
        resolved = float(resolve_prob(x, lam, model))
        step = 1.0 - dist.node_deriv(1.0 - resolved) / dist.mean()
        assert step == pytest.approx(x, abs=2e-12)
        assert deep.z_star == pytest.approx(1.0 - dist.node_poly(1.0 - resolved), abs=2e-12)


def test_fixed_point_stable_under_more_iterations():
    model = PncModel.example(6)
    dist = DegreeDistribution({2: 0.5, 3: 0.5})
    a = evolve(dist, 1.2, 10**4, model=model)
    b = evolve(dist, 1.2, 10**5, model=model)
    assert a.trajectory[-1] == pytest.approx(b.trajectory[-1], abs=1e-9)
    assert a.z_star == pytest.approx(b.z_star, abs=1e-9)


def test_evolve_validation():
    model = PncModel.example(3)
    dist = DegreeDistribution({2: 1.0})
    with pytest.raises(ValueError):
        evolve(dist, 0.0, 5, model=model)
    with pytest.raises(ValueError):
        evolve(dist, math.inf, 5, model=model)
    with pytest.raises(ValueError):
        evolve(dist, 1.0, 0, model=model)


def test_mixture_range_check_survives_optimize_flag():
    script = (
        "import sys\n"
        "from ncsa.evolution import InvariantError, PoissonMixture\n"
        "from ncsa.pnc import PncModel\n"
        "assert False, 'asserts must be stripped'\n"
        "mix = PoissonMixture(1.0, PncModel.example(3))\n"
        "mix.coeffs = (2.0,)  # the constant polynomial 2\n"
        "try:\n"
        "    mix(0.5)\n"
        "except InvariantError as exc:\n"
        "    print('raised', sys.flags.optimize, exc)\n"
    )
    src = str(Path(ncsa.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised 1 mixture left [0,1]")


# --- capacity bound ----------------------------------------------------------


def test_upper_bound_small_load_is_nearly_linear():
    u = rate_upper_bound(0.01, PncModel.example(10))
    assert 0.0099 <= u <= 0.01
    assert u == pytest.approx(0.009983316820985737, abs=1e-15)


def test_upper_bound_reference_values():
    model = PncModel.example(10)
    assert rate_upper_bound(1.0, model) == pytest.approx(0.8284512734272599, abs=1e-12)
    assert rate_upper_bound(1.5, model) == pytest.approx(1.1213417914632025, abs=1e-12)


def test_upper_bound_custom_model():
    # cap 1, only the trivial singleton equation: U = lam * P[exactly 1 user]
    fam = {1: WeightedMatrixFamily(1, ((BitMatrix.from_rows([[1]]), 1.0),))}
    model = PncModel(max_decodable=1, families=fam)
    for lam in (0.5, 1.0, 2.0):
        assert rate_upper_bound(lam, model) == pytest.approx(
            lam * math.exp(-lam), rel=1e-12
        )


def test_upper_bound_validation():
    model = PncModel.example(3)
    with pytest.raises(ValueError):
        rate_upper_bound(0.0, model)
