"""Rolling goodness-of-fit experiment and the stability/quality metrics.

A fit's classification is a three-state automaton (Fit, Inconclusive,
NotFit). Moving one observation month forward, each curve either keeps
its state (unchanged), moves one band (small jump) or swings between
accept and reject (big jump). Pooled over a group of curves:

    entropy  E_beta(t) = (s + beta*b) / (u + s + beta*b)
    quality  Q_omega(t) = (F + I/omega) / (F + I + NF)

with u/s/b the transition counts at step t and F/I/NF the state counts
at time t. Both lie in [0, 1]; beta weights big jumps as beta small
jumps, omega discounts inconclusive fits as 1/omega of a good fit.
Series summaries carry the grand median plus first-half / second-half
medians (a stable group shows a second-half median at or below the
first).

A curve's state at month m is the classification of its rolling fit
there; ``gof.test_fit`` already classifies an invalid test as NotFit,
and a month without a fit has no state. The aggregates take one
msr -> state mapping per curve, which the CLI reads from a track file.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import DEFAULT_MULTISTART, FitClass
from .datasets import ObservationSeries

if TYPE_CHECKING:
    from .gof import FitResult

__all__ = [
    "DEFAULT_START_MSR",
    "EmptyStepError",
    "MetricSeries",
    "TransitionKind",
    "aggregate_entropy",
    "aggregate_quality",
    "classify_transition",
    "entropy_at",
    "quality_at",
    "rolling_gof",
]

# observation starts at the sixth month after release
DEFAULT_START_MSR = 6


class TransitionKind(Enum):
    UNCHANGED = "unchanged"
    SMALL_JUMP = "small_jump"
    BIG_JUMP = "big_jump"


class EmptyStepError(ValueError):
    """No transitions (or no states) available at an observation step."""


def classify_transition(prev: FitClass, new: FitClass) -> TransitionKind:
    if prev is new:
        return TransitionKind.UNCHANGED
    if {prev, new} == {FitClass.GOOD_FIT, FitClass.NOT_FIT}:
        return TransitionKind.BIG_JUMP
    return TransitionKind.SMALL_JUMP


def entropy_at(transitions: Iterable[TransitionKind], beta: float = 1.0) -> float:
    """Instability of one observation step from its pooled transitions."""
    if not 1.0 <= beta < float("inf"):
        raise ValueError(f"beta must be finite and >= 1, got {beta!r}")
    u = s = b = 0
    for tr in transitions:
        if tr is TransitionKind.UNCHANGED:
            u += 1
        elif tr is TransitionKind.SMALL_JUMP:
            s += 1
        else:
            b += 1
    total = u + s + b
    if total == 0:
        raise EmptyStepError("no transitions at this step")
    weighted = s + beta * b
    return weighted / (u + weighted)


def quality_at(counts: Sequence[int], omega: float = 1.0) -> float:
    """Fit-success ratio from (n_fit, n_inconclusive, n_notfit) counts."""
    if not 1.0 <= omega < float("inf"):
        raise ValueError(f"omega must be finite and >= 1, got {omega!r}")
    n_fit, n_inconclusive, n_notfit = counts
    if min(n_fit, n_inconclusive, n_notfit) < 0:
        raise ValueError("counts must be non-negative")
    total = n_fit + n_inconclusive + n_notfit
    if total == 0:
        raise EmptyStepError("no states at this step")
    return (n_fit + n_inconclusive / omega) / total


@dataclass(frozen=True)
class MetricSeries:
    """One metric value per observation month plus median summaries.

    The half-period split is on the month axis: mid = (start+end)//2,
    first half covers [start, mid], second half (mid, end]. A series of
    one point has an empty second half, whose median is None.
    """

    points: tuple[tuple[int, float], ...]
    grand_median: float
    first_half_median: float
    second_half_median: float | None


def _series_with_medians(points: list[tuple[int, float]]) -> MetricSeries:
    import statistics  # here: it loads decimal and fractions, which only medians need

    if not points:
        raise EmptyStepError("no metric points")
    start, end = points[0][0], points[-1][0]
    mid = (start + end) // 2
    first = [v for m, v in points if m <= mid]
    second = [v for m, v in points if m > mid]
    return MetricSeries(
        tuple(points),
        grand_median=statistics.median([v for _, v in points]),
        first_half_median=statistics.median(first),  # never empty: start <= mid
        second_half_median=statistics.median(second) if second else None,
    )


StateMatrix = Mapping[str, Mapping[int, FitClass]]


def aggregate_entropy(per_curve_states: StateMatrix, beta: float = 1.0) -> MetricSeries:
    """Entropy per step between consecutive months of the group, pooling
    transitions across its curves; curves missing either end of a step
    are skipped there. A group of one month has no step."""
    cols = sorted({m for states in per_curve_states.values() for m in states})
    points = []
    for prev_m, cur_m in zip(cols, cols[1:]):
        transitions = [
            classify_transition(states[prev_m], states[cur_m])
            for states in per_curve_states.values()
            if prev_m in states and cur_m in states
        ]
        if transitions:
            points.append((cur_m, entropy_at(transitions, beta)))
    return _series_with_medians(points)


def aggregate_quality(per_curve_states: StateMatrix, omega: float = 1.0) -> MetricSeries:
    """Quality at every month of the group, pooling state counts across
    its curves."""
    points = []
    for m in sorted({m for states in per_curve_states.values() for m in states}):
        n = dict.fromkeys(FitClass, 0)  # quality_at's order: fit, inconclusive, not fit
        for states in per_curve_states.values():
            if m in states:
                n[states[m]] += 1
        points.append((m, quality_at(tuple(n.values()), omega)))
    return _series_with_medians(points)


def rolling_gof(
    series: ObservationSeries,
    model_id: str,
    start_msr: int = DEFAULT_START_MSR,
    multistart: int = DEFAULT_MULTISTART,
) -> list[tuple[int, FitResult | None]]:
    """Fit and test the model on every growing prefix of the series.

    Month m uses only the points with msr <= m, exactly as if the fit
    had been run back then. Each prefix is fit independently (no state
    is carried between months). Months whose prefix is too short to fit
    are reported as None; the list is empty only when the series ends
    before ``start_msr``.
    """
    # numpy loads with the first fit; each call reads the module's current binding
    from . import fitter, gof
    out: list[tuple[int, FitResult | None]] = []
    for m in range(start_msr, series.last_msr + 1):
        prefix = series.truncated(m)
        try:
            outcome = fitter.fit(prefix, model_id, multistart)
            result: FitResult | None = gof.test_fit(prefix, outcome)
        except fitter.InsufficientDataError:
            result = None
        out.append((m, result))
    return out
