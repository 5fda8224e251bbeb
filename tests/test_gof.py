import math
import random
from fractions import Fraction

import pytest

from vdmfit.datasets import DatasetKind, ObservationSeries
from vdmfit.fitter import FitOutcome, InsufficientDataError, fit
from vdmfit.gof import (
    FitClass,
    InvalidExpectedError,
    chi_square_statistic,
    classify,
)
from vdmfit.gof import test_fit as run_gof_test
from vdmfit.models import ParamVector
from vdmfit.simulate import NoiseKind, NoiseSpec, generate

from oracles import chi2_survival_quadrature, exact_series


def _series(points):
    return ObservationSeries("p", "v", DatasetKind.NVD, tuple(points))


def test_chi_square_identity():
    assert chi_square_statistic([10.0, 20.0], [10.0, 20.0]) == 0.0


def test_chi_square_direct_substitution():
    assert chi_square_statistic([12.0, 18.0], [10.0, 20.0]) == pytest.approx(0.6)


def test_chi_square_against_exact_rational_summation():
    rng = random.Random(123)
    observed = [rng.randint(0, 400) for _ in range(50)]
    expected = [rng.randint(1, 400) for _ in range(50)]
    exact = sum(
        Fraction(o - e) ** 2 / Fraction(e) for o, e in zip(observed, expected)
    )
    got = chi_square_statistic([float(o) for o in observed], [float(e) for e in expected])
    assert got == pytest.approx(float(exact), abs=1e-12 * max(1.0, float(exact)))


def test_chi_square_invalid_expected():
    with pytest.raises(InvalidExpectedError):
        chi_square_statistic([1.0, 2.0], [1.0, 0.0])
    with pytest.raises(InvalidExpectedError):
        chi_square_statistic([1.0], [-2.0])
    with pytest.raises(ValueError):
        chi_square_statistic([1.0, 2.0], [1.0])


def test_p_value_of_zero_statistic():
    # an exact LN curve gives chi2 = 0, and test_fit reads p = 1 at every dof
    outcome = FitOutcome(ParamVector("LN", (2.0, 3.0)), 0.0, True, 0)
    for dof in range(1, 31):
        series = _series([(t, 2.0 * t + 3.0) for t in range(1, dof + 3)])
        result = run_gof_test(series, outcome)
        assert (result.chi_square, result.dof) == (0.0, dof)
        assert result.p_value == 1.0
        assert result.classification is FitClass.GOOD_FIT


def test_p_value_spot_against_live_quadrature():
    # 12 points around a flat curve at 10, three of them 10 off: chi2 = 30, dof = 10
    counts = [0.0] + [10.0] * 9 + [20.0, 20.0]
    series = _series(list(zip(range(1, 13), counts)))
    outcome = FitOutcome(ParamVector("LN", (0.0, 10.0)), 0.0, True, 0)
    result = run_gof_test(series, outcome)
    assert (result.chi_square, result.dof) == (30.0, 10)
    assert result.p_value == pytest.approx(chi2_survival_quadrature(30.0, 10), abs=1e-6)
    assert result.classification is FitClass.NOT_FIT


def test_classification_bands():
    assert classify(0.999991) is FitClass.GOOD_FIT
    assert classify(0.05) is FitClass.INCONCLUSIVE
    assert classify(0.04) is FitClass.NOT_FIT
    assert classify(0.0499999) is FitClass.NOT_FIT
    assert classify(0.5) is FitClass.INCONCLUSIVE
    assert classify(0.95) is FitClass.GOOD_FIT
    assert classify(0.0) is FitClass.NOT_FIT
    assert classify(1.0) is FitClass.GOOD_FIT
    with pytest.raises(ValueError):
        classify(1.5)


def test_exact_fit_is_good():
    series = _series([(t, 2.0 * t + 3.0) for t in range(1, 11)])
    outcome = fit(series, "LN")
    result = run_gof_test(series, outcome)
    assert result.chi_square == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0)
    assert result.classification is FitClass.GOOD_FIT
    assert result.valid
    assert result.dof == 8


def test_noisy_self_fit_mostly_good(subset=20):
    good = 0
    for seed in range(subset):
        series = generate(
            "RE", (100.0, 0.05), 60, NoiseSpec(NoiseKind.MULTIPLICATIVE, 0.02, seed)
        )
        result = run_gof_test(series, fit(series, "RE"))
        good += result.classification is FitClass.GOOD_FIT
    assert good >= math.ceil(0.95 * subset)


def test_linear_fit_of_s_shaped_data_is_rejected():
    series = exact_series("AML", (0.004, 120.0, 1.0), 60)
    result = run_gof_test(series, fit(series, "LN"))
    assert result.classification is FitClass.NOT_FIT
    assert result.p_value < 0.05


def test_reordering_points_does_not_change_result():
    pts = [(t, 2.0 * t + 1.0 + (t % 3)) for t in range(1, 13)]
    series = _series(pts)
    shuffled = list(pts)
    random.Random(4).shuffle(shuffled)
    series2 = _series(shuffled)
    outcome = fit(series, "LN")
    r1 = run_gof_test(series, outcome)
    r2 = run_gof_test(series2, outcome)
    assert r1 == r2


def test_nonpositive_expected_invalidates():
    series = _series([(t, float(t)) for t in range(1, 8)])
    bad = FitOutcome(ParamVector("LN", (1.0, -10.0)), 0.0, True, 0)
    result = run_gof_test(series, bad)
    assert not result.valid
    assert result.classification is FitClass.NOT_FIT
    assert result.p_value == 0.0
    assert math.isinf(result.chi_square)


def test_too_few_points_raises():
    series = _series([(1, 1.0), (2, 2.0)])
    outcome = FitOutcome(ParamVector("LN", (1.0, 0.0)), 0.0, True, 0)
    with pytest.raises(InsufficientDataError):
        run_gof_test(series, outcome)


def test_json_serialization():
    series = _series([(t, 2.0 * t) for t in range(1, 8)])
    result = run_gof_test(series, fit(series, "LN"))
    assert result.outcome.params.model_id == "LN"
    assert result.classification is FitClass.GOOD_FIT
    assert result.dof == 5
