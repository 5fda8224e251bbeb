"""Least-squares estimation of VDM parameters.

A family's row in :mod:`vdmfit.models` names the parameters the fitter
iterates on (its ``launch`` axes); the others are solved exactly. AT, LN
and RQ are linear in all their parameters: one least-squares solve on
their basis is the optimum. RE and LP are linear in their amplitude
(N, beta0) and are fit by variable projection (Golub & Pereyra 1973):
at every rate the amplitude is the exact least-squares coefficient on
the unit-amplitude curve, clipped to its box, and the iteration runs on
the rate alone with Kaufman's projected derivative. This removes the
N*lambda (beta0*beta1) ridge along which a two-parameter iteration
drifts on s-shaped or near-linear data; a rate at the floor of its box
means the linear limit, the best line through the origin. AML is
iterated on all three parameters.

The iteration is damped Gauss-Newton (Levenberg-Marquardt damping
schedule) on the analytic gradients, launched from a data-driven
multistart grid. Out-of-domain steps are projected back onto the
parameter box, so log arguments and the AML denominator stay valid
throughout. A launch stops after _MAX_ITERATIONS (200) iterations, or
is converged at the first iteration that lowers the SSE by at most
_RELATIVE_SSE_TOLERANCE (1e-9) of it. The best (lowest-SSE) launch
wins; exact ties break to the lexicographically smallest parameter
vector, which makes the result independent of launch order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import models
from .datasets import ObservationSeries
from .models import DomainError, ParamVector

__all__ = [
    "DEFAULT_OPTIONS",
    "FitOptions",
    "FitOutcome",
    "InsufficientDataError",
    "fit",
    "initial_guesses",
    "sum_squared_error",
]


class InsufficientDataError(ValueError):
    """Fewer observation points than param_count + 1."""


@dataclass(frozen=True)
class FitOptions:
    """The fit setting a run chooses: the multistart grid has
    ``multistart_grid_size`` nodes on each launch axis of AML, RE and LP
    (AT, LN and RQ are fit in closed form). The iteration limit and the
    SSE tolerance are the module's constants."""

    multistart_grid_size: int = 3

    def __post_init__(self):
        if self.multistart_grid_size < 1:
            raise ValueError("multistart_grid_size must be >= 1")


DEFAULT_OPTIONS = FitOptions()

_MAX_ITERATIONS = 200
_RELATIVE_SSE_TOLERANCE = 1e-9
_BOUND_EPS = 1e-12
_DAMPING_INIT = 1e-3
_DAMPING_FACTOR = 10.0
_DAMPING_MAX = 1e14
_DAMPING_MIN = 1e-12
_TINY_SSE = 1e-300


@dataclass(frozen=True)
class FitOutcome:
    params: ParamVector
    sse: float
    converged: bool
    iterations_used: int


def _series_arrays(series: ObservationSeries) -> tuple[np.ndarray, np.ndarray]:
    t = np.array(series.months, dtype=float)
    y = np.array(series.counts, dtype=float)
    return t, y


def _residuals(
    model_id: str, x: Sequence[float], t: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray | None, float]:
    """Residuals and SSE at x; (None, inf) when the curve is not evaluable
    there."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            r = y - models.evaluate(model_id, x, t)
            return r, float(r @ r)
    except DomainError:
        return None, float("inf")


def sum_squared_error(
    series: ObservationSeries, model_id: str, values: Sequence[float]
) -> float:
    """SSE of the model curve against the series, inf when the curve is
    not evaluable at these parameters."""
    return _residuals(model_id, values, *_series_arrays(series))[1]


def _domain_arrays(model_id: str) -> tuple[np.ndarray, np.ndarray]:
    box = models.default_domain(model_id)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    # open bounds: keep strictly inside by a hair
    lo = np.where(np.isfinite(lo), lo + _BOUND_EPS, lo)
    hi = np.where(np.isfinite(hi), hi - _BOUND_EPS, hi)
    return lo, hi


def initial_guesses(
    series: ObservationSeries, model_id: str, grid_size: int
) -> list[tuple[float, ...]]:
    """The launches ``fit`` makes: one point per node of the multistart
    grid over the family's ``launch`` axes, grid_size**len(launch) points.

    The asymptote axis (AML B) spans [max_count, 3*max_count]; the rate
    axis (AML A, RE lambda, LP beta1) spans [1e-3, 1] log-spaced; the
    level axis (AML C) spans [1e-2, 10] log-spaced. The parameters that
    ``fit`` solves exactly (RE N, LP beta0, all of AT, LN and RQ) hold
    the placeholder 1.0, so AT, LN and RQ get a single point.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    mspec = models.spec(model_id)
    _, y = _series_arrays(series)
    ymax = max(float(y.max(initial=0.0)), 1.0)
    grids = {
        "asym": np.linspace(ymax, 3.0 * ymax, grid_size),
        "rate": np.logspace(-3.0, 0.0, grid_size),
        "level": np.logspace(-2.0, 1.0, grid_size),
    }
    solved = (1.0,) * (mspec.param_count - len(mspec.launch))
    axes = [[float(v) for v in grids[name]] for name in mspec.launch]
    return [solved + combo for combo in itertools.product(*axes)]


def _levenberg_marquardt(
    trial: Callable[[np.ndarray], tuple],
    jacobian: Callable[[np.ndarray, tuple], np.ndarray],
    x0: Sequence[float],
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, float, bool, int, tuple]:
    """Damped Gauss-Newton from x0 inside the box [lo, hi].

    ``trial(x)`` is a tuple that starts with the residuals and the SSE at
    x (None and inf where the curve is not evaluable there);
    ``jacobian(x, trial(x))`` is the derivative of the curve with respect
    to x. Returns x, its SSE, whether the SSE test was met, the
    iterations used and the trial at x; a start whose SSE is not finite
    (inf or NaN) is returned unmoved.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    state = trial(x)
    r, sse = state[:2]
    if not math.isfinite(sse):
        # overflowing residuals give no usable step: the launch ends here
        return x, sse, False, 0, state
    damping = _DAMPING_INIT
    eye = np.eye(x.size)
    converged = sse == 0.0
    iterations = 0

    while not converged and iterations < _MAX_ITERATIONS:
        iterations += 1
        jac = jacobian(x, state)
        grad = jac.T @ r
        jtj = jac.T @ jac

        accepted = False
        while damping <= _DAMPING_MAX:
            try:
                step = np.linalg.solve(jtj + damping * eye, grad)
            except np.linalg.LinAlgError:
                damping *= _DAMPING_FACTOR
                continue
            candidate = np.clip(x + step, lo, hi)
            new_state = trial(candidate)
            sse_new = new_state[1]
            if np.isfinite(sse_new) and sse_new <= sse:
                accepted = True
                break
            damping *= _DAMPING_FACTOR
        if not accepted:
            break

        improvement = sse - sse_new
        x, state = candidate, new_state
        r = state[0]
        damping = max(damping / _DAMPING_FACTOR, _DAMPING_MIN)
        if improvement <= _RELATIVE_SSE_TOLERANCE * max(sse, _TINY_SSE):
            converged = True
        sse = sse_new

    return x, sse, converged, iterations, state


def _projected(
    model_id: str, k: float, t: np.ndarray, y: np.ndarray, lo: float, hi: float
) -> tuple:
    """Residuals and SSE at rate k of the unit-amplitude curve phi times
    its least-squares amplitude a, clipped to [lo, hi]; then phi and a.
    (None, inf, None, None) when the curve is not evaluable at k or the
    SSE is not finite."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            phi = models.evaluate(model_id, (1.0, k), t)
            a = float(np.clip((phi @ y) / (phi @ phi), lo, hi))
            # a * phi is bitwise the curve at (a, k), so this is the SSE
            # of the returned params
            r = y - a * phi
            sse = float(r @ r)
    except DomainError:
        sse = math.inf
    return (r, sse, phi, a) if math.isfinite(sse) else (None, math.inf, None, None)


def _separable_fit(
    model_id: str,
    t: np.ndarray,
    y: np.ndarray,
    k0: float,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, float, bool, int]:
    """Variable projection for a curve a*phi(k, t): the damped iteration
    runs on the rate k alone, and the amplitude a is solved at every k."""

    def trial(z):
        return _projected(model_id, float(z[0]), t, y, lo[0], hi[0])

    def jacobian(z, state):
        # column 1 of the gradient at (a, k) is a * dphi/dk; Kaufman's
        # derivative projects it off phi, the direction a already spans
        _, _, phi, a = state
        d = models.gradient(model_id, (a, z[0]), t)[:, 1]
        return (d - phi * ((phi @ d) / (phi @ phi)))[:, None]

    z, sse, converged, iterations, state = _levenberg_marquardt(
        trial, jacobian, [k0], lo[1:], hi[1:]
    )
    a = lo[0] if state[0] is None else state[3]
    return np.array([a, z[0]]), sse, converged, iterations


def fit(
    series: ObservationSeries,
    model_id: str,
    options: FitOptions | None = None,
    starts: Sequence[Sequence[float]] | None = None,
) -> FitOutcome:
    """Best multistart least-squares fit of ``model_id`` to the series.

    ``starts`` overrides the default multistart grid (useful for refits
    and tests). Only the parameters the family iterates on matter in a
    start: for AT, LN and RQ, fit in closed form, the starts are ignored
    and the outcome is converged after 0 iterations; for RE and LP each
    distinct rate is one launch, and the amplitude is solved at every
    rate. Raises InsufficientDataError when the series has fewer than
    param_count + 1 points; a fit that never reached the SSE tolerance
    is returned with converged=False rather than raised.
    """
    options = options or DEFAULT_OPTIONS
    mspec = models.spec(model_id)
    if len(series.points) < mspec.param_count + 1:
        raise InsufficientDataError(
            f"{model_id} needs at least {mspec.param_count + 1} points, "
            f"series has {len(series.points)}"
        )
    t, y = _series_arrays(series)
    if not mspec.launch:
        # linear in every parameter: the Jacobian at the one launch point
        # is the basis, and one least-squares solve is the optimum
        (x0,) = initial_guesses(series, model_id, 1)
        x, *_ = np.linalg.lstsq(models.gradient(model_id, x0, t), y, rcond=None)
        return FitOutcome(ParamVector(model_id, tuple(x)), _residuals(model_id, x, t, y)[1], True, 0)
    lo, hi = _domain_arrays(model_id)
    if starts is None:
        starts = initial_guesses(series, model_id, options.multistart_grid_size)
    if not starts:
        raise ValueError("no starting points")

    if len(mspec.launch) < mspec.param_count:
        # the amplitude of a start is solved, not searched: one launch per rate
        rates = sorted({float(np.clip(x0[1], lo[1], hi[1])) for x0 in starts})
        runs = (_separable_fit(model_id, t, y, k, lo, hi) for k in rates)
    else:
        def trial(x):
            return _residuals(model_id, x, t, y)

        def jacobian(x, _):
            return models.gradient(model_id, x, t)

        runs = (_levenberg_marquardt(trial, jacobian, x0, lo, hi)[:4] for x0 in starts)

    best = None
    best_key = None
    for x, sse, conv, iters in runs:
        # NaN compares false against everything and would freeze the
        # running best; rank it like +inf instead
        key = (sse if sse == sse else float("inf"), tuple(x))
        if best_key is None or key < best_key:
            best_key = key
            best = (x, sse, conv, iters)

    x, sse, conv, iters = best
    return FitOutcome(ParamVector(model_id, tuple(x)), sse, conv, iters)
