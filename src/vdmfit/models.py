"""The six vulnerability discovery model (VDM) curve families.

Each family maps time-in-market t (months since release, t > 0) to an
expected cumulative vulnerability count:

    AML  B / (B*C*exp(-A*B*t) + 1)      Alhazmi-Malaiya Logistic (s-shape)
    AT   k*ln(t) + C                    Anderson Thermodynamic (k folds the
                                        original K/gamma ratio into a single
                                        identifiable coefficient)
    LN   A*t + B                        Linear
    LP   beta0*ln(1 + beta1*t)          Logistic Poisson (Musa-Okumoto)
    RE   N*(1 - exp(-lambda*t))         Rescorla Exponential
    RQ   A*t^2/2 + B*t                  Rescorla Quadratic

Everything here is a pure function of (model id, parameter values, t);
parameter sign constraints live in each row's ``domain`` and are enforced
by the fitter, not by ``evaluate``.

Each family is one row of the ``MODELS`` table: its parameter names, its
fitting box, its curve and Jacobian kernels and the multistart axes of
the parameters the fitter iterates on. Adding a family means adding one
row; ``evaluate``, ``gradient``, ``ParamVector`` and the fitter all read
the row.

``evaluate`` and ``gradient`` run thousands of times per fit, so they
check with few numpy calls and pass Python floats to the kernels (a
double product rounds alike in ``float`` and ``np.float64``). A Jacobian
is one C-contiguous array: BLAS rounds ``jac.T @ jac`` by its layout.

The fitter has one path for every row (variable projection): it solves
the parameters before the launch axes exactly and iterates on the rest.
AT, LN and RQ are linear in all their parameters, so their rows name no
launch axis and the one solve is the fit. RE and LP are linear in their
amplitude (N, beta0); their rows name only the rate axis. AML names an
axis for each parameter and solves none. A rate at the floor of its box
(1e-12) is the linear limit: as lambda (beta1) -> 0 both curves tend to
the line (N*lambda)*t ((beta0*beta1)*t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import MODEL_IDS

__all__ = [
    "MODEL_IDS",
    "MODELS",
    "DomainError",
    "ModelSpec",
    "ParamVector",
    "UnknownModelError",
    "evaluate",
    "gradient",
    "spec",
]


class UnknownModelError(ValueError):
    """Model id is not one of the six family ids."""


class DomainError(ValueError):
    """Evaluation requested outside the mathematical domain (t <= 0, or a
    parameter combination that makes a logarithm argument or the AML
    denominator non-positive)."""


@dataclass(frozen=True)
class ModelSpec:
    """Identity card of one curve family.

    ``curve`` and ``jacobian`` are unchecked kernels of (Python floats,
    t array), ``jacobian`` one C-contiguous (t.shape + (p,)) array: they
    raise DomainError for the parameter combinations a family cannot
    evaluate, but leave shape and finiteness checks to ``evaluate`` and
    ``gradient``. ``launch`` names one multistart axis ("rate", "asym"
    or "level", see ``fitter.initial_guesses``) for each of the trailing
    ``len(launch)`` parameters, the ones the fitter iterates on: each
    node of the grid over these axes, inside ``domain``, is one launch.
    The fitter solves every parameter before them exactly. It relies on the
    curve being those parameters times their Jacobian columns at unit
    amplitude, bit for bit for one amplitude, whose basis is the curve
    at unit amplitude (``curve((a, k), t) == a * curve((1, k), t)``), and
    on a row that iterates solving at most one parameter, and one rate.
    """

    id: str
    param_names: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]  # per-parameter (lower, upper) fitting box
    launch: tuple[str, ...]
    curve: Callable[[Sequence[float], np.ndarray], np.ndarray]
    jacobian: Callable[[Sequence[float], np.ndarray], np.ndarray]

    @property
    def param_count(self) -> int:
        return len(self.param_names)


def _columns(*cols: np.ndarray) -> np.ndarray:
    jac = np.empty(np.shape(cols[0]) + (len(cols),))
    for j, col in enumerate(cols):
        jac[..., j] = col
    return jac


def _aml_terms(p: Sequence[float], t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(-A*B*t), B*C*exp(-A*B*t) and the denominator B*C*exp(-A*B*t)+1."""
    a, b, c = p
    e = np.exp(-a * b * t)
    bce = b * c * e
    denom = bce + 1.0
    if np.count_nonzero(denom <= 0.0):
        raise DomainError(f"AML denominator B*C*exp(-A*B*t)+1 <= 0 for params {list(p)}")
    return e, bce, denom


def _aml_jacobian(p: Sequence[float], t: np.ndarray) -> np.ndarray:
    a, b, c = p
    e, bce, denom = _aml_terms(p, t)
    d2 = denom * denom
    jac = np.empty(t.shape + (3,))
    np.divide(b * b * b * c * t * e, d2, out=jac[..., 0])
    np.divide(denom - bce * (1.0 - a * b * t), d2, out=jac[..., 1])
    np.divide(-b * b * e, d2, out=jac[..., 2])
    return jac


def _lp_arg(p: Sequence[float], t: np.ndarray) -> np.ndarray:
    arg = 1.0 + p[1] * t
    if np.count_nonzero(arg <= 0.0):
        raise DomainError(f"LP log argument 1+beta1*t <= 0 for params {list(p)}")
    return arg


def _lp_jacobian(p: Sequence[float], t: np.ndarray) -> np.ndarray:
    arg = _lp_arg(p, t)
    return _columns(np.log(arg), p[0] * t / arg)


_POS = (1e-12, math.inf)
_FREE = (-math.inf, math.inf)

# AML, LP and RE parameters are strictly positive (asymptote/rate
# readings only make sense there), so their box starts a hair above 0;
# AT, LN and RQ are unconstrained
MODELS = {
    s.id: s
    for s in (
        ModelSpec("AML", ("A", "B", "C"), (_POS, _POS, _POS), ("rate", "asym", "level"),
                  curve=lambda p, t: p[1] / _aml_terms(p, t)[2],
                  jacobian=_aml_jacobian),
        ModelSpec("AT", ("k", "C"), (_FREE, _FREE), (),
                  curve=lambda p, t: p[0] * np.log(t) + p[1],
                  jacobian=lambda p, t: _columns(np.log(t), 1.0)),
        ModelSpec("LN", ("A", "B"), (_FREE, _FREE), (),
                  curve=lambda p, t: p[0] * t + p[1],
                  jacobian=lambda p, t: _columns(t, 1.0)),
        ModelSpec("LP", ("beta0", "beta1"), (_POS, _POS), ("rate",),
                  curve=lambda p, t: p[0] * np.log(_lp_arg(p, t)),
                  jacobian=_lp_jacobian),
        ModelSpec("RE", ("N", "lambda"), (_POS, _POS), ("rate",),
                  curve=lambda p, t: p[0] * -np.expm1(-p[1] * t),
                  jacobian=lambda p, t: _columns(-np.expm1(-p[1] * t),
                                                 p[0] * t * np.exp(-p[1] * t))),
        ModelSpec("RQ", ("A", "B"), (_FREE, _FREE), (),
                  curve=lambda p, t: p[0] * t * t / 2.0 + p[1] * t,
                  jacobian=lambda p, t: _columns(t * t / 2.0, t)),
    )
}

if tuple(MODELS) != MODEL_IDS:
    raise ImportError(f"MODELS rows {tuple(MODELS)} differ from vdmfit.MODEL_IDS {MODEL_IDS}")


def spec(model_id: str) -> ModelSpec:
    try:
        return MODELS[model_id]
    except KeyError:
        raise UnknownModelError(f"unknown model id {model_id!r}; expected one of {MODEL_IDS}") from None


@dataclass(frozen=True)
class ParamVector:
    """A model id plus one finite value per parameter, in declared order."""

    model_id: str
    values: tuple[float, ...]

    def __post_init__(self):
        s = spec(self.model_id)
        values = tuple(float(v) for v in self.values)
        if len(values) != s.param_count:
            raise ValueError(
                f"{self.model_id} takes {s.param_count} parameters {s.param_names}, got {len(values)}"
            )
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite parameter values {values}")
        object.__setattr__(self, "values", values)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(spec(self.model_id).param_names, self.values))


Number = Union[float, np.ndarray]


def _checked(
    model_id: str, params: Sequence[float], t: Number
) -> tuple[ModelSpec, list[float], np.ndarray, bool]:
    s = spec(model_id)
    p = np.asarray(params, dtype=float)
    if p.shape != (s.param_count,):
        raise ValueError(
            f"{model_id} takes {s.param_count} parameters {s.param_names}, got shape {p.shape}"
        )
    values = p.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite parameter values {values}")
    tt = np.asarray(t, dtype=float)
    # argmin and argmax pick the first NaN, which fails; an empty t passes
    if tt.size and not (tt.item(tt.argmin()) > 0.0 and tt.item(tt.argmax()) < math.inf):
        raise DomainError(f"t must be finite and > 0, got {t!r}")
    return s, values, tt, tt.ndim == 0


def evaluate(model_id: str, params: Sequence[float], t: Number) -> Number:
    """Expected cumulative count of ``model_id`` at time(s) t.

    Accepts a scalar or array t; scalar in, float out. Pure and
    deterministic: identical inputs give bitwise-identical outputs.
    """
    s, p, tt, scalar = _checked(model_id, params, t)
    out = s.curve(p, tt)
    return float(out) if scalar else out


def gradient(model_id: str, params: Sequence[float], t: Number) -> np.ndarray:
    """Partial derivatives of the curve with respect to each parameter.

    Returns shape (param_count,) for scalar t, (len(t), param_count) for
    array t, in ``param_names`` order.
    """
    s, p, tt, _ = _checked(model_id, params, t)
    return s.jacobian(p, tt)
