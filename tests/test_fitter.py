import math
import random

import numpy as np
import pytest

from vdmfit import fitter
from vdmfit.datasets import DatasetKind, ObservationSeries
from vdmfit.fitter import (
    FitOptions,
    InsufficientDataError,
    fit,
    initial_guesses,
    sum_squared_error,
)
from vdmfit.models import evaluate
from vdmfit.simulate import NoiseKind, NoiseSpec, exact_series, generate

from oracles import grid_search_2d, grid_search_3d


def _series(points):
    return ObservationSeries("p", "v", DatasetKind.NVD, tuple(points))


def test_fit_options_validation():
    with pytest.raises(ValueError):
        FitOptions(multistart_grid_size=0)


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
    # RE iterates on its rate alone; the solved amplitude is a placeholder
    guesses = initial_guesses(series, "RE", 3)
    assert len(guesses) == 3
    assert {g[0] for g in guesses} == {1.0}
    rates = sorted(g[1] for g in guesses)
    assert rates[0] == pytest.approx(1e-3)
    assert rates[-1] == pytest.approx(1.0)

    assert len(initial_guesses(series, "AML", 2)) == 8
    guesses_aml = initial_guesses(series, "AML", 3)
    assert len(guesses_aml) == 27
    assert sorted({g[1] for g in guesses_aml}) == [40.0, 80.0, 120.0]


def test_initial_guesses_constant_series_linear_seed():
    # a linear family has one launch, at placeholders; its fit is the
    # least-squares seed itself
    series = _series([(t, 5.0) for t in range(1, 9)])
    assert initial_guesses(series, "LN", 3) == [(1.0, 1.0)]
    a, b = fit(series, "LN").params.values
    assert a == pytest.approx(0.0, abs=1e-12)
    assert b == pytest.approx(5.0)


def test_final_fit_beats_every_raw_grid_point():
    series = exact_series("AML", (0.01, 60.0, 0.9), 50)
    outcome = fit(series, "AML")
    for guess in initial_guesses(series, "AML", 3):
        assert outcome.sse <= sum_squared_error(series, "AML", guess) + 1e-12


def test_fixed_point_refit():
    series = exact_series("LP", (150.0, 0.08), 40)
    outcome = fit(series, "LP")
    refit = fit(series, "LP", starts=[outcome.params.values])
    for a, b in zip(outcome.params.values, refit.params.values):
        assert b == pytest.approx(a, abs=1e-9, rel=1e-9)


def test_multistart_order_independence():
    series = exact_series("RE", (80.0, 0.07), 36)
    starts = initial_guesses(series, "RE", 3)
    shuffled = list(starts)
    random.Random(99).shuffle(shuffled)
    a = fit(series, "RE", starts=starts)
    b = fit(series, "RE", starts=shuffled)
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


def test_poisonous_start_cannot_freeze_best_selection():
    # an overflowing first start (NaN SSE) must lose to any finite-SSE start
    truth = (0.01, 60.0, 0.9)
    series = exact_series("AML", truth, 30)
    poison = (1e300, 1e300, 1e300)
    assert math.isnan(sum_squared_error(series, "AML", poison))
    outcome = fit(series, "AML", starts=[poison, (0.01, 50.0, 1.0)])
    assert outcome.sse == pytest.approx(0.0, abs=1e-9)
    for got, want in zip(outcome.params.values, truth):
        assert got == pytest.approx(want, rel=1e-3)


def test_closed_form_fit_ignores_starts():
    series = _series([(t, t * t / 2.0 + t + (-1.0) ** t) for t in range(1, 11)])
    for model in ("AT", "LN", "RQ"):
        outcome = fit(series, model)
        assert fit(series, model, starts=[(1e300, 1e300)]) == outcome, model
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


def test_separable_fit_launches_once_per_rate(monkeypatch):
    # a launch is a distinct clipped point of the iterated parameters:
    # starts that differ only in their solved amplitude are one launch
    launched = []
    run = fitter._levenberg_marquardt

    def counted(trial, jacobian, x0, lo, hi):
        launched.append(tuple(x0))
        return run(trial, jacobian, x0, lo, hi)

    monkeypatch.setattr(fitter, "_levenberg_marquardt", counted)
    series = exact_series("RE", (80.0, 0.07), 36)
    rates = (1e-3, 0.1, 1.0)
    one = fit(series, "RE", starts=[(50.0, k) for k in rates])
    launched.clear()
    many = fit(series, "RE", starts=[(a, k) for a in (1.0, 50.0, 1e4) for k in rates])
    assert one == many
    assert launched == [(k,) for k in rates]
    # AML iterates on all its parameters: starts that clip to the same
    # point (C at the floor of its box) are one launch
    launched.clear()
    fit(exact_series("AML", (0.01, 60.0, 0.9), 30), "AML",
        starts=[(0.01, 50.0, -1.0), (0.01, 50.0, 0.0), (0.01, 50.0, 1.0)])
    assert len(launched) == 2
