"""Least-squares estimation of VDM parameters.

Every family is fit by one path, variable projection (Golub & Pereyra
1973). A family's row in :mod:`vdmfit.models` names the parameters the
fitter iterates on, z (its trailing ``launch`` axes); the leading ones
are solved exactly at every z, by least squares on their basis (their
Jacobian columns at unit amplitude), clipped to their box. The damped
iteration runs on z alone, with Kaufman's (1975) projected derivative:
each iterated column of the Jacobian projected off the basis.

- AT, LN and RQ are linear in all their parameters: z is empty, so the
  one solve is the optimum, converged after 0 iterations.
- RE and LP solve their amplitude (N, beta0) and iterate on the rate.
  This removes the N*lambda (beta0*beta1) ridge along which a
  two-parameter iteration drifts on s-shaped or near-linear data; a
  rate at the floor of its box means the linear limit, the best line
  through the origin.
- AML solves nothing and is iterated on all three parameters.

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
    (AT, LN and RQ iterate on nothing). The iteration limit and the SSE
    tolerance are the module's constants."""

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


def sum_squared_error(
    series: ObservationSeries, model_id: str, values: Sequence[float]
) -> float:
    """SSE of the model curve against the series, inf when the curve is
    not evaluable at these parameters."""
    t, y = _series_arrays(series)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            r = y - models.evaluate(model_id, values, t)
            return float(r @ r)
    except DomainError:
        return math.inf


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
    """The default starts of ``fit``: one point per node of the
    multistart grid over the family's ``launch`` axes,
    grid_size**len(launch) points.

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
    (inf or NaN) is returned unmoved, and an empty x is converged at once.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    state = trial(x)
    r, sse = state[:2]
    if not math.isfinite(sse):
        # overflowing residuals give no usable step: the launch ends here
        return x, sse, False, 0, state
    damping = _DAMPING_INIT
    eye = np.eye(x.size)
    converged = sse == 0.0 or x.size == 0
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


def _projection(
    model_id: str, n_solved: int, t: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[Callable[[np.ndarray], tuple], Callable[[np.ndarray, tuple], np.ndarray]]:
    """``trial`` and ``jacobian`` of the damped loop on z, the parameters
    after the leading ``n_solved``.

    ``trial(z)`` is the residuals, the SSE, the full parameter vector with
    the solved parameters at their clipped least-squares values, and the
    basis, one row per solved parameter; (None, inf, the solved
    parameters at their floor, ()) when the curve is not evaluable at z
    or the SSE is not finite.
    """
    ones = np.ones(n_solved)

    def trial(z):
        x = np.concatenate((ones, z))
        basis = ()
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if n_solved:
                    basis = models.gradient(model_id, x, t)[:, :n_solved].T.copy()
                    if n_solved == 1:
                        (phi,) = basis
                        coef = (phi @ y) / (phi @ phi)
                    else:
                        coef = np.linalg.lstsq(basis.T, y, rcond=None)[0]
                    x[:n_solved] = np.clip(coef, lo[:n_solved], hi[:n_solved])
                # one amplitude times its basis is bitwise the curve
                curve = x[0] * basis[0] if n_solved == 1 else models.evaluate(model_id, x, t)
                r = y - curve
                sse = float(r @ r)
        except DomainError:
            sse = math.inf
        if not math.isfinite(sse):
            return None, math.inf, np.concatenate((lo[:n_solved], z)), ()
        return r, sse, x, basis

    def jacobian(z, state):
        _, _, x, basis = state
        jac = models.gradient(model_id, x, t)[:, n_solved:]
        if n_solved:
            # Kaufman: an iterating row solves one parameter, so each
            # column is projected off that one basis vector
            (phi,) = basis
            jac = np.stack([d - phi * ((phi @ d) / (phi @ phi)) for d in jac.T], axis=1)
        return jac

    return trial, jacobian


def fit(
    series: ObservationSeries,
    model_id: str,
    options: FitOptions | None = None,
    starts: Sequence[Sequence[float]] | None = None,
) -> FitOutcome:
    """Best multistart least-squares fit of ``model_id`` to the series.

    ``starts`` overrides the default multistart grid (useful for refits
    and tests). Only the parameters the family iterates on matter in a
    start: each distinct clipped z-part of the starts is one launch, and
    the solved parameters are solved at every z. So AT, LN and RQ make
    one launch whatever the starts, converged after 0 iterations. Raises
    ValueError when ``starts`` is empty, for every family, and
    InsufficientDataError when the series has fewer than param_count + 1
    points; a fit that never reached the SSE tolerance is returned with
    converged=False rather than raised.
    """
    options = options or DEFAULT_OPTIONS
    mspec = models.spec(model_id)
    if len(series.points) < mspec.param_count + 1:
        raise InsufficientDataError(
            f"{model_id} needs at least {mspec.param_count + 1} points, "
            f"series has {len(series.points)}"
        )
    if starts is None:
        starts = initial_guesses(series, model_id, options.multistart_grid_size)
    if not starts:
        raise ValueError("no starting points")
    t, y = _series_arrays(series)
    lo, hi = _domain_arrays(model_id)
    n = mspec.param_count - len(mspec.launch)
    trial, jacobian = _projection(model_id, n, t, y, lo, hi)
    launches = sorted({tuple(np.clip(np.asarray(x0, dtype=float)[n:], lo[n:], hi[n:]).tolist())
                       for x0 in starts})

    best = None
    for z0 in launches:
        _, sse, conv, iters, state = _levenberg_marquardt(trial, jacobian, z0, lo[n:], hi[n:])
        # a trial reports a non-finite SSE as inf, so keys always order
        key = (sse, tuple(state[2]))
        if best is None or key < best[0]:
            best = (key, conv, iters)

    (sse, x), conv, iters = best
    return FitOutcome(ParamVector(model_id, x), sse, conv, iters)
