"""Chi-square goodness-of-fit testing and the three-way classification.

The statistic is sum((O_i - E_i)^2 / E_i) over the monthly cumulative
observations, with expected values generated by the fitted curve. The
p-value (upper tail, dof = n_points - param_count) is read on three
bands: below 0.05 the model is rejected (NotFit), at or above 0.95 it
is accepted (GoodFit), anywhere between there is not enough evidence
either way (Inconclusive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import FitClass, models, stats
from .datasets import ObservationSeries
from .fitter import FitOutcome, InsufficientDataError, _series_arrays

__all__ = [
    "FitClass",
    "FitResult",
    "InvalidExpectedError",
    "chi_square_statistic",
    "classify",
    "test_fit",
]


class InvalidExpectedError(ValueError):
    """An expected count was non-positive, so the statistic is undefined."""


def chi_square_statistic(observed: Sequence[float], expected: Sequence[float]) -> float:
    o = np.asarray(observed, dtype=float)
    e = np.asarray(expected, dtype=float)
    if o.shape != e.shape or o.ndim != 1 or o.size == 0:
        raise ValueError("observed and expected must be equal-length non-empty vectors")
    if not np.all(np.isfinite(e)) or np.any(e <= 0.0):
        raise InvalidExpectedError("expected values must be finite and > 0")
    d = o - e
    return float(np.sum(d * d / e))


def classify(p: float) -> FitClass:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p-value must lie in [0, 1], got {p!r}")
    if p < 0.05:
        return FitClass.NOT_FIT
    if p < 0.95:
        return FitClass.INCONCLUSIVE
    return FitClass.GOOD_FIT


@dataclass(frozen=True)
class FitResult:
    outcome: FitOutcome  # the fit tested
    chi_square: float
    dof: int
    p_value: float
    classification: FitClass
    valid: bool


def test_fit(series: ObservationSeries, outcome: FitOutcome) -> FitResult:
    """Chi-square test of a fit outcome against its series.

    Expected counts come from evaluating the fitted curve at every
    observation month (points are kept in month order, so the test does
    not depend on input ordering). Non-positive expected counts make
    the statistic undefined: the result is flagged valid=False and
    classified NotFit.
    """
    params = outcome.params
    n = len(series.points)
    dof = n - len(params.values)
    if dof < 1:
        raise InsufficientDataError(f"need more than {len(params.values)} points, got {n}")
    t, observed = _series_arrays(series)
    try:
        expected = models.evaluate(params.model_id, params.values, t)
        chi2 = chi_square_statistic(observed, expected)
    except (InvalidExpectedError, models.DomainError):
        return FitResult(outcome, math.inf, dof, 0.0, FitClass.NOT_FIT, valid=False)
    p = stats.chi_square_survival(chi2, dof)
    return FitResult(outcome, chi2, dof, p, classify(p), valid=True)
