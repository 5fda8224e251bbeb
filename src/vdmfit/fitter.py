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
schedule) on the analytic gradients. A launch is one node of a
data-driven multistart grid over z, which lies inside the box. Steps
out of the box are projected back onto it, so log arguments and the
AML denominator stay valid throughout. A launch stops after
_MAX_ITERATIONS (200) iterations, or is converged at the first
iteration that lowers the SSE by at most _RELATIVE_SSE_TOLERANCE (1e-9)
of it. The best (lowest-SSE) launch wins; exact ties break to the
lexicographically smallest parameter vector, and then to the first
launch in grid order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import DEFAULT_MULTISTART, models
from .datasets import ObservationSeries
from .models import DomainError, ParamVector

__all__ = [
    "DEFAULT_MULTISTART",
    "FitOutcome",
    "InsufficientDataError",
    "fit",
    "initial_guesses",
]


class InsufficientDataError(ValueError):
    """Fewer observation points than param_count + 1."""


_MAX_ITERATIONS = 200
_RELATIVE_SSE_TOLERANCE = 1e-9
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


def initial_guesses(
    series: ObservationSeries, model_id: str, multistart: int
) -> list[tuple[float, ...]]:
    """The launches of ``fit``: the nodes of the multistart grid over the
    family's ``launch`` axes, multistart**len(launch) points of the
    iterated parameters alone, in increasing (lexicographic) order.

    The asymptote axis (AML B) spans [ymax, 3*ymax], with ymax the
    largest count (at least 1); the rate axis (AML A, RE lambda, LP
    beta1) spans [1e-3, 1] log-spaced; the level axis (AML C) spans
    [1e-2, 10] log-spaced. The parameters that ``fit`` solves exactly
    need no start, so AT, LN and RQ get the one empty point ``()``.
    """
    if multistart < 1:
        raise ValueError("multistart must be >= 1")
    mspec = models.spec(model_id)
    _, y = _series_arrays(series)
    ymax = max(float(y.max(initial=0.0)), 1.0)
    grids = {
        "asym": np.linspace(ymax, 3.0 * ymax, multistart),
        "rate": np.logspace(-3.0, 0.0, multistart),
        "level": np.logspace(-2.0, 1.0, multistart),
    }
    axes = [[float(v) for v in grids[name]] for name in mspec.launch]
    return list(itertools.product(*axes))


def _levenberg_marquardt(
    trial: Callable[[np.ndarray], tuple],
    jacobian: Callable[[np.ndarray, tuple], np.ndarray],
    x0: Sequence[float],
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[float, bool, int, tuple]:
    """Damped Gauss-Newton from x0, a point of the box [lo, hi].

    ``trial(x)`` is a tuple that starts with the residuals and the SSE at
    x (None and inf where the curve is not evaluable there);
    ``jacobian(x, trial(x))`` is the derivative of the curve with respect
    to x. Returns the SSE at the final x, whether the SSE test was met,
    the iterations used and the trial at the final x; a start whose SSE
    is not finite (inf or NaN) is returned unmoved, and an empty x is
    converged at once.
    """
    x = np.asarray(x0, dtype=float)
    state = trial(x)
    r, sse = state[:2]
    if not math.isfinite(sse):
        # overflowing residuals give no usable step: the launch ends here
        return sse, False, 0, state
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
            candidate = np.minimum(np.maximum(x + step, lo), hi)
            new_state = trial(candidate)
            sse_new = new_state[1]  # inf where the curve is not evaluable
            if sse_new <= sse:
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

    return sse, converged, iterations, state


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
                if n_solved == 1:
                    # the basis of one amplitude is the curve at unit amplitude
                    (phi,) = basis = models.evaluate(model_id, x, t)[None]
                    x[0] = min(max((phi @ y) / (phi @ phi), lo[0]), hi[0])
                elif n_solved:
                    basis = models.gradient(model_id, x, t)[:, :n_solved].T.copy()
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
        jac = models.gradient(model_id, x, t)
        if not n_solved:
            return jac
        # Kaufman: the one rate column projected off the one basis vector
        (phi,) = basis
        (d,) = jac[:, 1:].T
        return (d - phi * ((phi @ d) / (phi @ phi))).reshape(-1, 1)

    return trial, jacobian


def fit(
    series: ObservationSeries,
    model_id: str,
    multistart: int = DEFAULT_MULTISTART,
) -> FitOutcome:
    """Best multistart least-squares fit of ``model_id`` to the series.

    ``multistart`` is the number of nodes on each launch axis of the
    grid (``initial_guesses`` raises ValueError below 1); each node is
    one launch, and the solved parameters are solved at every z. So AT,
    LN and RQ make one launch, converged after 0 iterations. Raises
    InsufficientDataError when the series has fewer than param_count + 1
    points; a fit that never reached the SSE tolerance is returned with
    converged=False rather than raised.
    """
    mspec = models.spec(model_id)
    if len(series.points) < mspec.param_count + 1:
        raise InsufficientDataError(
            f"{model_id} needs at least {mspec.param_count + 1} points, "
            f"series has {len(series.points)}"
        )
    launches = initial_guesses(series, model_id, multistart)
    t, y = _series_arrays(series)
    lo, hi = map(np.array, zip(*mspec.domain))  # the row's box, one bound per parameter
    n = mspec.param_count - len(mspec.launch)
    trial, jacobian = _projection(model_id, n, t, y, lo, hi)

    best = None
    for z0 in launches:
        sse, conv, iters, state = _levenberg_marquardt(trial, jacobian, z0, lo[n:], hi[n:])
        # a trial reports a non-finite SSE as inf, so keys always order
        key = (sse, tuple(state[2]))
        if best is None or key < best[0]:
            best = (key, conv, iters)

    (sse, x), conv, iters = best
    return FitOutcome(ParamVector(model_id, x), sse, conv, iters)
