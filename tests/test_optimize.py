import math
import types
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linprog as highs_linprog

import ncsa.optimize as optimize_module
from ncsa import lp
from ncsa.evolution import PoissonMixture, evolve, rate_upper_bound, resolve_prob
from ncsa.frames import DegreeDistribution
from ncsa.gf2 import BitMatrix
from ncsa.lp import linprog
from ncsa.optimize import CERT_DELTA, CERT_SLACK, _certificate_holds, optimize, sweep
from ncsa.pnc import PncModel, WeightedMatrixFamily
from test_evolution import assert_mixture_within_rounding

MODEL = PncModel.example(10)
SWEEP_LOADS = [0.25 * i for i in range(1, 41)]


def reference_linprog(c, a, b):
    """The design LP through scipy's HiGHS, the solver `optimize` used
    before `ncsa.lp`: maximize c.w, a w <= b, sum(w) = 1, w >= 0."""
    return highs_linprog(-c, A_ub=a, b_ub=b, A_eq=np.ones((1, len(c))), b_eq=[1.0],
                         bounds=(0, None), method="highs")


def capture_lps(run):
    """`run()`'s result and every LP `optimize` solved meanwhile, as
    (c, A, b, start, result): `start` is the result the solve was offered
    as a warm start, None for a cold solve."""
    lps = []
    solve = optimize_module.linprog

    def recording(c, a, b, start=None):
        result = solve(c, a, b, start)
        lps.append((np.array(c), np.array(a), np.array(b), start, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize_module, "linprog", recording)
        return run(), lps


@pytest.fixture(scope="module")
def sweeps():
    """The default load grid swept at caps 10, 12 and 20, once for all tests."""
    return {cap: capture_lps(lambda: sweep(SWEEP_LOADS, PncModel.example(cap))) for cap in (10, 12, 20)}


def test_import_binds_the_optimize_module():
    # the package must not shadow its submodule with the function `optimize`
    assert isinstance(optimize_module, types.ModuleType)
    assert optimize_module.optimize is optimize
    assert optimize_module.linprog is linprog


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
    res, lps = capture_lps(lambda: optimize(1.0, MODEL, eta=1.0))
    assert not res.feasible
    assert res.rate is None and res.dist is None and res.rate_star is None
    assert "infeasible" in res.status
    # the last row asks for 1 - P(1)^(i-1) coverage of 1.001: b < 0, so
    # its slack starts negative, the dual simplex reaches no feasible
    # basis, and both solvers give up
    ((c, a, b, start, _),) = lps
    assert start is None
    assert b[-1] < 0
    assert reference_linprog(c, a, b).status == 2  # HiGHS: infeasible


def test_infeasible_design_names_the_blocking_variable():
    # the dual simplex stops at a basic variable that no pivot can make
    # nonnegative; the status names it as the design knows it
    res = optimize(1.0, MODEL, eta=1.0)
    assert res.status == "infeasible: the constraints force the degree-3 weight below zero (found after 3 pivots)"
    assert res.lp_pivots == 3
    # a row whose slack starts negative with no entry to raise it
    res = linprog([1.0, 1.0], [[1.0, 1.0]], [-1.0])
    assert res.message == "infeasible: grid row 0 cannot be met with the others (found after 0 pivots)"


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
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            optimize(1.0, MODEL, eps=eps)


def test_verification_grid_is_finer_than_design_grid():
    # a coarse design grid must still produce a solution that survives the
    # 10x verification sweep; violations are reported, not hidden
    res = optimize(1.0, MODEL, grid_points=25)
    assert res.feasible
    assert res.violations == ()
    assert res.certificate_ok is True


def _normalised(x):
    omega = np.clip(x, 0.0, None)
    return omega / omega.sum()


@pytest.mark.parametrize("cap", (12, 20))
def test_simplex_matches_highs_on_the_sweep_lps(sweeps, cap):
    # HiGHS stops within its 1e-7 primal feasibility tolerance, and its
    # points break grid rows by up to 9e-8, which moves the objective by up
    # to 1.6e-7 relative; the simplex returns the vertex itself.  So the
    # objectives agree to 1e-6, and only the simplex meets the rows to 1e-9.
    _, lps = sweeps[cap]
    assert len(lps) >= 40
    for c, a, b, _, _ in lps:
        degrees = np.arange(1, len(c) + 1)
        ours, ref = linprog(c, a, b), reference_linprog(c, a, b)
        assert ours.success == ref.success, ours.message
        if not ours.success:
            assert ref.status == 2 and "infeasible" in ours.message
            continue
        assert c @ ours.x == pytest.approx(c @ ref.x, rel=1e-6)
        assert np.max(a @ ours.x - b) <= 1e-9
        assert abs(ours.x.sum() - 1.0) <= 1e-12
        assert ours.x.min() >= -1e-12
        assert _certificate_holds(_normalised(ours.x), a, b, degrees) == \
            _certificate_holds(_normalised(ref.x), a, b, degrees)


@pytest.mark.parametrize("cap", (10, 12, 20))
def test_sweep_designs_pass_the_fine_grid(sweeps, cap):
    # criterion 9's check at the default cap and the larger ones
    points, _ = sweeps[cap]
    assert [p.lam for p in points if not p.feasible] == [10.0]
    for p in points:
        if p.feasible:
            assert p.result.violations == (), f"lam={p.lam}"
            assert p.result.certificate_ok is True
            assert p.rate_star <= p.upper_bound + 1e-9


def _vertex(a, b, x):
    """The support of x and the rows it meets with equality."""
    return tuple(np.flatnonzero(x > 1e-9)), tuple(np.flatnonzero(b - a @ x < 1e-9))


def _first_rounds(lps):
    """Each load's first LP of a sweep with the load: the only one with the
    design grid's 100 rows alone."""
    return [(lam, lp) for lam, lp in zip(SWEEP_LOADS, (lp for lp in lps if len(lp[2]) == 100), strict=True)]


def _refinements(lps):
    """Each refinement round of a sweep with the LP before it, which is the
    round it starts from, and the load both belong to.  A load's first round
    starts from an earlier load's first round instead (or cold)."""
    loads = iter(SWEEP_LOADS)
    for before, lp in zip([None, *lps], lps):
        if len(lp[2]) == 100:
            lam = next(loads)
        else:
            yield lam, before, lp


@pytest.mark.parametrize("cap", (10, 12, 20))
def test_warm_refinements_reach_the_cold_vertex(sweeps, cap):
    # Every refinement round appends rows to the last round's program and
    # starts from its optimum.  It must end at the vertex where a cold solve
    # of the same rows ends.  The points agree to 1e-10, not to rounding:
    # at cap 20 the vertex's binding system has a condition number up to
    # 2.5e6, and the cold point lies up to 1.9e-11 from the exact vertex,
    # the warm one up to 5.9e-11.  The objective, which the sweep
    # publishes, agrees to 1e-13.
    points, lps = sweeps[cap]
    refined = list(_refinements(lps))
    assert len(refined) >= 20
    warm_pivots = cold_pivots = 0
    for _, (_, before_a, before_b, _, before), (c, a, b, start, warm) in refined:
        assert start is before
        assert len(b) > len(before_b)
        assert np.array_equal(a[:len(before_a)], before_a) and np.array_equal(b[:len(before_b)], before_b)
        assert warm.success, warm.message
        assert warm.message == f"optimal after {warm.pivots} pivots"
        cold = linprog(c, a, b)
        assert cold.success, cold.message
        assert _vertex(a, b, warm.x) == _vertex(a, b, cold.x)
        np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-10)
        assert c @ warm.x == pytest.approx(c @ cold.x, rel=1e-13)
        warm_pivots, cold_pivots = warm_pivots + warm.pivots, cold_pivots + cold.pivots
    assert 5 * warm_pivots < cold_pivots
    # the designs' telemetry adds up to the solves and pivots made
    designs = [p.result for p in points if p.result is not None]
    assert sum(r.lp_solves for r in designs) == len(lps)
    assert sum(r.lp_pivots for r in designs) == sum(lp[4].pivots for lp in lps)


@pytest.mark.parametrize("cap", (10, 12, 20))
def test_warm_first_rounds_reach_the_cold_vertex(sweeps, cap):
    # Each load's first round starts from the last load's first-round
    # optimum: the same grid, objective and right-hand side with every
    # coefficient moved.  It must end at a cold solve's vertex, with the
    # objective to 1e-13, and the infeasible load must fail as a cold solve
    # does, with the same message.
    _, lps = sweeps[cap]
    firsts = _first_rounds(lps)
    warm_pivots = cold_pivots = 0
    start = None
    for lam, (c, a, b, given, warm) in firsts:
        assert given is start, lam
        cold = linprog(c, a, b)
        assert warm.success == cold.success, lam
        if not warm.success:
            assert warm.message == cold.message and "infeasible" in warm.message
            continue
        start = warm
        assert _vertex(a, b, warm.x) == _vertex(a, b, cold.x), lam
        assert c @ warm.x == pytest.approx(c @ cold.x, rel=1e-13)
        warm_pivots, cold_pivots = warm_pivots + warm.pivots, cold_pivots + cold.pivots
    assert [lam for lam, lp in firsts if not lp[4].success] == [10.0]
    assert 3 * warm_pivots <= cold_pivots


@pytest.mark.parametrize("cap", (10, 12, 20))
def test_warm_starts_reach_the_cold_vertex_under_blands_rule(monkeypatch, cap):
    # with Bland's rule from the first pivot of every phase, the dual pivots
    # from arbitrary bases included, each warm solve still ends at the
    # vertex of a cold solve with the default rules
    with monkeypatch.context() as mp:
        mp.setattr(lp, "DEGENERATE_RUN", 0)
        points, lps = capture_lps(lambda: sweep(SWEEP_LOADS, PncModel.example(cap)))
    assert [p.lam for p in points if not p.feasible] == [10.0]
    warm = [(c, a, b, res) for c, a, b, start, res in lps if start is not None and res.success]
    assert len(warm) == len(lps) - 2  # all but the first load's first round and the infeasible load
    for c, a, b, res in warm:
        cold = linprog(c, a, b)
        assert _vertex(a, b, res.x) == _vertex(a, b, cold.x)
        assert c @ res.x == pytest.approx(c @ cold.x, rel=1e-12)


def test_sweep_equals_standalone_designs():
    # a sweep's warm first rounds change no design: each point is its load's
    # standalone `optimize`, the infeasible load's error text included
    model = PncModel.example(12)
    points = sweep([3.0, 1.0, 3.0, 10.0, 2.0], model)
    for p in points:
        alone = optimize(p.lam, model)
        assert p.feasible == alone.feasible, p.lam
        if not alone.feasible:
            assert p.error == alone.status and "infeasible" in p.error
            continue
        assert p.error is None
        assert p.rate == pytest.approx(alone.rate, rel=1e-12)
        assert p.rate_star == pytest.approx(alone.rate_star, rel=1e-12)
    assert [p.feasible for p in points] == [True, True, True, False, True]
    # every load after the first starts warm
    assert all(p.result.lp_pivots < optimize(p.lam, model).lp_pivots for p in points[1:3])


def test_refinement_rows_are_the_mixture_at_the_cuts(sweeps):
    # a round's new rows come from the fine grid's mixture values; they must
    # equal (1 - mix(cuts))^(d - 1) with the mixture evaluated at the cuts
    _, lps = sweeps[12]
    model = PncModel.example(12)
    degrees = np.arange(1, 31)
    fine = 0.99 * np.arange(1, 1001) / 1000
    cut_at = dict(zip(1.0 - fine * 1.001, fine))  # a cut's point from its bound
    assert len(cut_at) == len(fine)
    refined = list(_refinements(lps))
    assert refined
    for lam, (_, _, before_b, _, _), (_, a, b, _, _) in refined:
        cuts = np.array([cut_at[v] for v in b[len(before_b):]])
        want = (1.0 - np.asarray(PoissonMixture(lam, model)(cuts)))[:, None] ** (degrees - 1)[None, :]
        assert a[len(before_b):].tobytes() == want.tobytes(), lam


def reference_certificate_holds(omega, rows, bound, degrees):
    """`_certificate_holds` as it was before it tested a degree's transfers
    as one matrix: one transfer (j -> i) at a time."""
    values = rows @ omega
    inv = 1.0 / degrees
    n = len(omega)
    for j in range(n):
        if omega[j] < CERT_DELTA:
            continue
        for i in range(n):
            if inv[i] <= inv[j]:
                continue  # not an improvement
            shifted = values + CERT_DELTA * (rows[:, i] - rows[:, j])
            if np.all(shifted <= bound + CERT_SLACK):
                return False
    return True


@pytest.fixture(scope="module")
def recorded_sweeps():
    """The default load grid swept at caps 10 and 12, with every mixture
    evaluation as (mixture, x, value) and every certificate check's arguments."""
    runs = {}
    check = optimize_module._certificate_holds
    for cap in (10, 12):
        mixtures, certificates = [], []

        class Recording(PoissonMixture):
            def __call__(self, x):
                value = super().__call__(x)
                mixtures.append((self, x, value))
                return value

        def recording_check(*args):
            certificates.append(args)
            return check(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize_module, "PoissonMixture", Recording)
            mp.setattr(optimize_module, "_certificate_holds", recording_check)
            points = sweep(SWEEP_LOADS, PncModel.example(cap))
        runs[cap] = points, mixtures, certificates
    return runs


@pytest.mark.parametrize("cap", (10, 12))
def test_sweep_mixtures_are_within_rounding_of_the_exact_sum(recorded_sweeps, cap):
    _, mixtures, _ = recorded_sweeps[cap]
    model = PncModel.example(cap)
    for mix, x, value in mixtures:
        assert_mixture_within_rounding(mix, model, x, value)
    # every load evaluated its fine grid and its first design grid
    for size in (1000, 100):
        assert {mix.lam for mix, x, _ in mixtures if np.size(x) == size} == set(SWEEP_LOADS)


@pytest.mark.parametrize("cap", (10, 12))
def test_certificate_equals_the_pairwise_loop(recorded_sweeps, cap):
    points, _, certificates = recorded_sweeps[cap]
    assert len(certificates) == sum(p.feasible for p in points)
    outcomes = set()
    for omega, rows, bound, degrees in certificates:
        assert _certificate_holds(omega, rows, bound, degrees) is True
        assert reference_certificate_holds(omega, rows, bound, degrees) is True
        # weight pushed to one degree: to the top one it leaves slack that a
        # transfer back down can use, so the certificate fails there
        for d in (0, len(omega) // 2, len(omega) - 1):
            moved = 0.9 * omega
            moved[d] += 0.1
            got = _certificate_holds(moved, rows, bound, degrees)
            assert got is reference_certificate_holds(moved, rows, bound, degrees), (d, omega)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_simplex_matches_highs_on_small_random_lps():
    # rows with b < 0 start with a negative slack, which the dual simplex
    # must raise, and a sum(w) >= 1 row that duplicates the equality leaves
    # a degenerate vertex
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(300):
        m, n = rng.integers(1, 5), rng.integers(2, 5)
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.integers(-2, 3, size=m).astype(float)
        if rng.random() < 0.5:
            a[-1], b[-1] = -1.0, -1.0
        c = rng.integers(-3, 4, size=n).astype(float)
        ours, ref = linprog(c, a, b), reference_linprog(c, a, b)
        assert ours.success == (ref.status == 0), (a, b, c, ours.message)
        outcomes.add(ours.success)
        if ours.success:
            assert c @ ours.x == pytest.approx(-ref.fun, abs=1e-9)
            assert np.max(a @ ours.x - b) <= 1e-9 and abs(ours.x.sum() - 1.0) <= 1e-12
    assert outcomes == {True, False}


def test_warm_start_matches_highs_on_small_random_lps():
    # rows appended after an optimum, some of which leave no feasible
    # point, must give HiGHS's answer for the grown program
    rng = np.random.default_rng(11)
    outcomes, warm = set(), 0
    for _ in range(300):
        m, n = rng.integers(1, 5), rng.integers(2, 5)
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.integers(-2, 3, size=m).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
        first = linprog(c, a, b)
        k = rng.integers(1, 4)
        more_a = rng.integers(-2, 3, size=(k, n)).astype(float)
        more_b = rng.integers(-2, 3, size=k).astype(float)
        a, b = np.concatenate([a, more_a]), np.concatenate([b, more_b])
        ours, ref = linprog(c, a, b, first), reference_linprog(c, a, b)
        warm += first.success
        assert ours.success == (ref.status == 0), (a, b, c, ours.message)
        outcomes.add((first.success, ours.success))
        if ours.success:
            assert c @ ours.x == pytest.approx(-ref.fun, abs=1e-9)
            assert np.max(a @ ours.x - b) <= 1e-9 and abs(ours.x.sum() - 1.0) <= 1e-12
            assert ours.x.min() >= -1e-12
        else:
            assert "infeasible" in ours.message
    assert warm >= 100
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_warm_start_needs_the_earlier_rows():
    # a start with another objective or more rows than the new program is
    # ignored
    a, b, c = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.75, 0.75]), np.array([1.0, 2.0])
    first = linprog(c, a, b)
    assert first.success and first.x.tolist() == [0.25, 0.75]
    for other in ((-c, a, b), (c, a[:1], b[:1])):
        warm, cold = linprog(*other, first), linprog(*other)
        assert (warm.x.tolist(), warm.pivots) == (cold.x.tolist(), cold.pivots) and cold.pivots > 0
    # one with the same objective and as many rows is used, whatever the
    # rows hold: here its basis needs one primal pivot
    warm, cold = linprog(c, a[::-1], b[::-1], first), linprog(c, a[::-1], b[::-1])
    assert warm.x.tolist() == cold.x.tolist() and 0 < warm.pivots < cold.pivots
    # appending no row returns the same optimum without a pivot
    again = linprog(c, a, b, first)
    assert again.pivots == 0 and again.x.tolist() == first.x.tolist()
    # a cut that moves the optimum takes a dual pivot
    cut = linprog(c, np.vstack([a, [[-1.0, 1.0]]]), np.append(b, 0.0), first)
    assert cut.success and cut.pivots >= 1
    np.testing.assert_allclose(cut.x, [0.5, 0.5], atol=1e-15)


def test_warm_restart_matches_highs_on_small_random_lps(monkeypatch):
    # A start's basis rebuilt for a program of its shape with new rows is
    # primal feasible (the primal pass alone), dual feasible only (the dual
    # simplex), or neither (cost shifting, then both), or singular (a solve
    # from the slack basis).  Each must give HiGHS's answer, and an
    # infeasible program the message of a solve without a start.
    entries = []
    rebase = lp._Optimum.rebase

    def recording(self, c, a, b):
        tab = rebase(self, c, a, b)
        if self.rows == 0:  # the slack basis, not a prior optimum
            return tab
        if tab is None:
            entries.append("singular")
        elif tab.tab[:-1, -1].min() >= -lp.TOL:
            entries.append("primal")
        else:
            entries.append("shifted" if tab.tab[-1, :-1].min() < -lp.TOL else "dual")
        return tab

    monkeypatch.setattr(lp._Optimum, "rebase", recording)
    rng = np.random.default_rng(17)
    outcomes = Counter()
    while sum(outcomes.values()) < 300:
        m, n = rng.integers(1, 6), rng.integers(2, 5)
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.integers(-1, 3, size=m).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
        first = linprog(c, a, b)
        if not first.success:
            continue
        # a new right-hand side keeps the reduced costs, new rows move them
        b = rng.integers(-2, 3, size=m).astype(float)
        if rng.random() < 0.75:
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
        ours, ref, cold = linprog(c, a, b, first), reference_linprog(c, a, b), linprog(c, a, b)
        assert ours.success == (ref.status == 0), (a, b, c, ours.message)
        outcomes[ours.success] += 1
        if ours.success:
            assert c @ ours.x == pytest.approx(-ref.fun, abs=1e-9)
            assert np.max(a @ ours.x - b) <= 1e-9 and abs(ours.x.sum() - 1.0) <= 1e-12
            assert ours.x.min() >= -1e-12
        else:
            assert ours.message == cold.message and "infeasible" in ours.message
    assert min(outcomes.values()) >= 10, outcomes
    counts = Counter(entries)
    assert min(counts[e] for e in ("primal", "dual", "shifted", "singular")) >= 10, counts


def test_pivot_cap_stops_a_warm_start(monkeypatch):
    a, b, c = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.75, 0.75]), np.array([1.0, 2.0])
    first = linprog(c, a, b)
    grown = np.vstack([a, [[-1.0, 1.0]]]), np.append(b, 0.0)
    monkeypatch.setattr(lp, "MAX_PIVOTS", 0)
    res = linprog(c, *grown, first)
    assert not res.success
    assert res.message == "pivot limit of 0 reached"
    assert res.x is None and res.pivots == 0
    monkeypatch.setattr(lp, "MAX_PIVOTS", 1)
    assert linprog(c, *grown, first).success


# Beale's cycling example (Beale, Naval Res. Logist. Q. 1955) behind a
# zero-cost first weight that takes up the slack of sum(w) = 1; x3 <= 1 is
# halved so that the optimum (x1, x3) = (1/50, 1/2) fits into the sum.
BEALE_C = np.array([0.0, 0.75, -150.0, 0.02, -6.0])
BEALE_A = np.array([[0.0, 0.25, -60.0, -0.04, 9.0], [0.0, 0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 0.0, 1.0, 0.0]])
BEALE_B = np.array([0.0, 0.0, 0.5])


def test_degenerate_lp_reaches_its_optimum():
    res = linprog(BEALE_C, BEALE_A, BEALE_B)
    assert res.success, res.message
    np.testing.assert_allclose(res.x, [0.48, 0.02, 0.0, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(res.x, reference_linprog(BEALE_C, BEALE_A, BEALE_B).x, atol=1e-9)


def test_pivot_cap_stops_a_cycling_lp(monkeypatch):
    # with Bland's rule switched off, Dantzig's rule cycles on Beale's example
    monkeypatch.setattr(lp, "DEGENERATE_RUN", 10**9)
    monkeypatch.setattr(lp, "MAX_PIVOTS", 100)
    res = linprog(BEALE_C, BEALE_A, BEALE_B)
    assert not res.success
    assert res.message == "pivot limit of 100 reached"
    assert res.x is None and res.pivots == 100
