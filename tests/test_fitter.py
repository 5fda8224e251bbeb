import math
import random

import numpy as np
import pytest

from vdmfit import fitter, models
from vdmfit.datasets import DatasetKind, ObservationSeries
from vdmfit.fitter import (
    InsufficientDataError,
    fit,
    initial_guesses,
)
from vdmfit.models import MODEL_IDS, DomainError, evaluate, spec
from vdmfit.simulate import NoiseKind, NoiseSpec, generate

from oracles import exact_series, grid_search_2d, grid_search_3d, sum_squared_error


def _series(points):
    return ObservationSeries("p", "v", DatasetKind.NVD, tuple(points))


@pytest.fixture
def launched(monkeypatch):
    """The start of every damped-loop run that ``fit`` makes, in order."""
    starts = []
    run = fitter._levenberg_marquardt

    def counted(trial, jacobian, x0, lo, hi):
        starts.append(tuple(x0))
        return run(trial, jacobian, x0, lo, hi)

    monkeypatch.setattr(fitter, "_levenberg_marquardt", counted)
    return starts


def test_multistart_validation():
    series = exact_series("AML", (0.004, 120.0, 1.0), 24)
    for model in ("AML", "RE", "LN"):
        with pytest.raises(ValueError, match="multistart must be >= 1"):
            fit(series, model, multistart=0)


def test_insufficient_data():
    series = _series([(1, 1.0), (2, 2.0), (3, 3.0)])
    with pytest.raises(InsufficientDataError):
        fit(series, "AML")  # needs 4 points


def test_exact_linear_fit():
    series = _series([(t, 2.0 * t + 3.0) for t in range(1, 11)])
    outcome = fit(series, "LN")
    a, b = outcome.params.values
    assert a == pytest.approx(2.0, abs=1e-9)
    assert b == pytest.approx(3.0, abs=1e-9)
    assert outcome.sse <= 1e-9
    assert outcome.converged


def test_re_recovery_against_grid_search_oracle():
    truth = (100.0, 0.05)
    series = exact_series("RE", truth, 60)
    outcome = fit(series, "RE")
    n_fit, lam_fit = outcome.params.values
    assert abs(n_fit - truth[0]) / truth[0] < 0.01
    assert abs(lam_fit - truth[1]) / truth[1] < 0.01

    t = np.array(series.months, dtype=float)
    y = np.array(series.counts, dtype=float)

    def sse(n, lam):
        r = y - n * -np.expm1(-lam * t)
        return float(r @ r)

    n_or, lam_or, sse_or = grid_search_2d(sse, lo=(50.0, 0.001), hi=(200.0, 0.2))
    assert abs(n_or - truth[0]) / truth[0] < 0.05
    assert abs(lam_or - truth[1]) / truth[1] < 0.05
    assert outcome.sse <= sse_or + 1e-12


def test_aml_recovery_against_grid_search_oracle():
    truth = (0.004, 120.0, 1.0)
    series = exact_series("AML", truth, 80)
    outcome = fit(series, "AML")
    for got, want in zip(outcome.params.values, truth):
        assert abs(got - want) / want < 0.02

    t = np.array(series.months, dtype=float)
    y = np.array(series.counts, dtype=float)

    def sse(a, b, c):
        r = y - b / (b * c * np.exp(-a * b * t) + 1.0)
        return float(r @ r)

    a_or, b_or, c_or, sse_or = grid_search_3d(
        sse, lo=(0.001, 80.0, 0.2), hi=(0.02, 200.0, 3.0)
    )
    assert abs(b_or - truth[1]) / truth[1] < 0.1
    assert outcome.sse <= sse_or + 1e-12


def test_initial_guesses_grid_shape_and_rule():
    series = _series([(t, min(40.0, 4.0 * t)) for t in range(1, 21)])
    # RE iterates on its rate alone, so a grid point is the rate alone:
    # the solved amplitude needs no start
    guesses = initial_guesses(series, "RE", 3)
    assert len(guesses) == 3
    assert {len(g) for g in guesses} == {1}
    rates = sorted(g[0] for g in guesses)
    assert rates[0] == pytest.approx(1e-3)
    assert rates[-1] == pytest.approx(1.0)

    assert len(initial_guesses(series, "AML", 2)) == 8
    guesses_aml = initial_guesses(series, "AML", 3)
    assert len(guesses_aml) == 27
    assert sorted({g[1] for g in guesses_aml}) == [40.0, 80.0, 120.0]


def test_initial_guesses_constant_series_linear_seed():
    # a linear family iterates on nothing: its one launch is the empty
    # point, and its fit is the least-squares seed itself
    series = _series([(t, 5.0) for t in range(1, 9)])
    assert initial_guesses(series, "LN", 3) == [()]
    a, b = fit(series, "LN").params.values
    assert a == pytest.approx(0.0, abs=1e-12)
    assert b == pytest.approx(5.0)


def test_final_fit_beats_every_raw_grid_point():
    series = exact_series("AML", (0.01, 60.0, 0.9), 50)
    outcome = fit(series, "AML")
    for guess in initial_guesses(series, "AML", 3):
        assert outcome.sse <= sum_squared_error(series, "AML", guess) + 1e-12


def test_fixed_point_refit(monkeypatch):
    series = exact_series("LP", (150.0, 0.08), 40)
    outcome = fit(series, "LP")
    # one launch, at the fitted rate
    monkeypatch.setattr(fitter, "initial_guesses", lambda *args: [outcome.params.values[1:]])
    refit = fit(series, "LP")
    for a, b in zip(outcome.params.values, refit.params.values):
        assert b == pytest.approx(a, abs=1e-9, rel=1e-9)


def test_multistart_order_independence(monkeypatch):
    series = exact_series("RE", (80.0, 0.07), 36)
    shuffled = initial_guesses(series, "RE", 3)
    random.Random(99).shuffle(shuffled)
    a = fit(series, "RE")
    monkeypatch.setattr(fitter, "initial_guesses", lambda *args: shuffled)
    b = fit(series, "RE")
    assert a.params == b.params
    assert a.sse == b.sse


def test_fit_params_stay_inside_domain():
    # decreasing-rate data pushes positive-domain parameters toward zero
    rng = random.Random(5)
    points = []
    total = 0.0
    for t in range(1, 31):
        total += rng.uniform(0.0, 1.5)
        points.append((t, round(total)))
    series = _series(points)
    for model in ("AML", "LP", "RE"):
        outcome = fit(series, model)
        assert all(v > 0.0 for v in outcome.params.values), model


def test_poisonous_start_cannot_freeze_best_selection(monkeypatch):
    # an overflowing first launch (NaN SSE) must lose to any finite-SSE launch
    truth = (0.01, 60.0, 0.9)
    series = exact_series("AML", truth, 30)
    poison = (1e300, 1e300, 1e300)
    assert math.isnan(sum_squared_error(series, "AML", poison))
    monkeypatch.setattr(fitter, "initial_guesses", lambda *args: [poison, (0.01, 50.0, 1.0)])
    outcome = fit(series, "AML")
    assert outcome.sse == pytest.approx(0.0, abs=1e-9)
    for got, want in zip(outcome.params.values, truth):
        assert got == pytest.approx(want, rel=1e-3)


def test_closed_form_fit_ignores_starts(launched):
    # a closed-form family makes one launch, the empty point, at any grid size
    series = _series([(t, t * t / 2.0 + t + (-1.0) ** t) for t in range(1, 11)])
    for model in ("AT", "LN", "RQ"):
        launched.clear()
        outcome = fit(series, model)
        assert launched == [()], model
        assert fit(series, model, multistart=1) == outcome, model
        assert outcome.converged and outcome.iterations_used == 0, model
        assert outcome.sse == sum_squared_error(series, model, outcome.params.values), model


def test_sum_squared_error_matches_definition():
    series = _series([(1, 3.0), (2, 5.0), (3, 7.0)])
    params = (2.0, 1.0)
    expected = sum((c - evaluate("LN", params, m)) ** 2 for m, c in series.points)
    assert sum_squared_error(series, "LN", params) == pytest.approx(expected)


def test_separable_fit_reaches_the_linear_limit_off_the_ridge():
    # the first 12 months of the README world are s-shaped: RE and LP fit
    # best at their linear limit, rate -> 0, amplitude * rate -> slope
    series = generate("AML", (0.004, 120.0, 1.0), 12, NoiseSpec(NoiseKind.MULTIPLICATIVE, 0.03, 7))
    t = np.array(series.months, dtype=float)
    y = np.array(series.counts, dtype=float)
    slope = (t @ y) / (t @ t)
    line_sse = float((y - slope * t) @ (y - slope * t))
    for model in ("RE", "LP"):
        outcome = fit(series, model)
        assert outcome.sse <= line_sse * (1.0 + 1e-9), model
        assert outcome.sse == sum_squared_error(series, model, outcome.params.values), model
    assert fit(series, "RE").converged


def test_each_grid_node_is_one_launch(launched):
    # the damped loop starts once from each grid node, in grid order, at
    # the node itself: the iterated parameters alone, inside the row's box
    series = generate("AML", (0.004, 120.0, 1.0), 24, NoiseSpec(NoiseKind.MULTIPLICATIVE, 0.03, 7))
    for model in MODEL_IDS:
        row = spec(model)
        box = row.domain[row.param_count - len(row.launch):]
        for grid in (1, 2, 3):
            launched.clear()
            fit(series, model, grid)
            assert launched == initial_guesses(series, model, grid), (model, grid)
            assert launched == sorted(set(launched)), (model, grid)
            for z0 in launched:
                assert all(lo <= v <= hi for v, (lo, hi) in zip(z0, box)), (model, z0)


def test_a_singular_system_raises_the_damping_until_the_launch_ends(monkeypatch):
    # two equal columns of 1e150: J'J is 3e300 in every entry, so adding
    # any damping up to 1e14 leaves it singular in floating point
    solves = []
    solve = np.linalg.solve

    def counted(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            solves.append("singular")
            raise

    monkeypatch.setattr(np.linalg, "solve", counted)
    r = np.array([1.0, -2.0, 3.0])
    x0 = (0.5, 0.5)
    sse, converged, iterations, state = fitter._levenberg_marquardt(
        lambda x: (r, float(r @ r), x),
        lambda x, state: np.full((3, 2), 1e150),
        x0, np.zeros(2), np.ones(2),
    )
    # 1e-3, 1e-2, ..., 1e14: one failed solve per damping, then no step
    assert solves == ["singular"] * 18
    assert (sse, converged, iterations) == (14.0, False, 1)
    assert tuple(state[2]) == x0


def test_a_trial_the_curve_rejects_is_a_step_the_launch_does_not_take(monkeypatch):
    # RE is evaluable past every rate; here it raises DomainError past 0.08,
    # as AML and LP do off their domain, and each such trial reads SSE inf
    rejected = []
    evaluate_curve = models.evaluate

    def bounded(model_id, params, t):
        if params[-1] > 0.08:
            rejected.append(params[-1])
            raise DomainError(f"rate {params[-1]} past 0.08")
        return evaluate_curve(model_id, params, t)

    monkeypatch.setattr(models, "evaluate", bounded)
    series = exact_series("RE", (100.0, 0.05), 24)
    outcome = fit(series, "RE")
    assert rejected  # the launch at rate 1.0, at least
    assert math.isfinite(outcome.sse)
    assert outcome.params.values == pytest.approx((100.0, 0.05), rel=1e-6)
