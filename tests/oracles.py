"""Independent oracles for the test suite.

The oracles deliberately avoid the code paths under test: tail
probabilities come from adaptive quadrature of the density (mpmath),
curve values from arbitrary-precision re-evaluation of the formulas,
and parameter estimates from plain grid search. Run this file directly
to regenerate the frozen oracle tables in tests/data/.

Three test helpers live here too, though they are not independent
judges: ``exact_series`` builds data and ``sum_squared_error``
recomputes an SSE, both through ``models.evaluate``, and
``link_bugs_to_nvd`` reads the NVD.Nbug row of the corpus index.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import mpmath as mp
import numpy as np

from vdmfit import models
from vdmfit.datasets import Corpus, DatasetKind, ObservationSeries
from vdmfit.fitter import _series_arrays
from vdmfit.models import DomainError

DATA_DIR = Path(__file__).parent / "data"

CHI2_ORACLE_FILE = DATA_DIR / "chi2_pvalue_oracle.json"

# grid pinned by the acceptance criteria: dof 1..30, 50 chi2 points
# log-spaced in [1e-3, 100]
CHI2_DOFS = tuple(range(1, 31))
CHI2_GRID = tuple(float(x) for x in np.logspace(-3, 2, 50))


def chi2_survival_quadrature(chi2: float, dof: int, dps: int = 30) -> float:
    """Upper-tail chi-square probability via adaptive quadrature of the
    density x^(k/2-1) e^(-x/2) / (2^(k/2) Gamma(k/2)) on [chi2, inf)."""
    with mp.workdps(dps):
        k = mp.mpf(dof)
        norm = mp.power(2, k / 2) * mp.gamma(k / 2)

        def density(u):
            return mp.power(u, k / 2 - 1) * mp.exp(-u / 2) / norm

        return float(mp.quad(density, [mp.mpf(chi2), mp.inf]))


def lower_gamma_quadrature(s: float, x: float, dps: int = 40) -> float:
    """Regularized lower incomplete gamma by adaptive quadrature.

    Substituting t = x * v**(1/s) turns the integrand into the smooth
    (x**s / s) * exp(-x * v**(1/s)) on [0, 1], so the quadrature stays
    accurate for shapes below 1 where t**(s-1) is singular at zero.
    """
    with mp.workdps(dps):
        ss = mp.mpf(s)
        xx = mp.mpf(x)

        def integrand(v):
            return mp.exp(-xx * mp.power(v, 1 / ss))

        raw = mp.power(xx, ss) / ss * mp.quad(integrand, [0, 1])
        return float(raw / mp.gamma(ss))


def aml_value_highprec(a: float, b: float, c: float, t: float, dps: int = 50) -> float:
    """Arbitrary-precision re-evaluation of B/(B*C*exp(-A*B*t)+1)."""
    with mp.workdps(dps):
        aa, bb, cc, tt = (mp.mpf(repr(v)) for v in (a, b, c, t))
        return float(bb / (bb * cc * mp.exp(-aa * bb * tt) + 1))


def central_difference_gradient(f, params: list[float], rel_step: float = 1e-6):
    """Central finite differences with step rel_step * |param|."""
    grads = []
    for j, pj in enumerate(params):
        h = rel_step * abs(pj)
        if h == 0.0:
            h = rel_step
        hi = list(params)
        lo = list(params)
        hi[j] = pj + h
        lo[j] = pj - h
        grads.append((f(hi) - f(lo)) / (2.0 * h))
    return grads


def grid_search_2d(sse, lo: tuple[float, float], hi: tuple[float, float],
                   points: int = 25, refinements: int = 2):
    """Exhaustive 2-d grid search, re-gridded around the best cell
    ``refinements`` times. ``sse(p0, p1)`` maps parameter pairs to SSE."""
    lo = list(lo)
    hi = list(hi)
    best = None
    for _ in range(refinements + 1):
        axis0 = np.linspace(lo[0], hi[0], points)
        axis1 = np.linspace(lo[1], hi[1], points)
        best = None
        for p0 in axis0:
            for p1 in axis1:
                val = sse(p0, p1)
                if best is None or val < best[0]:
                    best = (val, p0, p1)
        step0 = (hi[0] - lo[0]) / (points - 1)
        step1 = (hi[1] - lo[1]) / (points - 1)
        lo = [best[1] - step0, best[2] - step1]
        hi = [best[1] + step0, best[2] + step1]
    return best[1], best[2], best[0]


def grid_search_3d(sse, lo, hi, points: int = 12, refinements: int = 2):
    """Same idea in three dimensions."""
    lo = list(lo)
    hi = list(hi)
    best = None
    for _ in range(refinements + 1):
        axes = [np.linspace(lo[d], hi[d], points) for d in range(3)]
        best = None
        for p0 in axes[0]:
            for p1 in axes[1]:
                for p2 in axes[2]:
                    val = sse(p0, p1, p2)
                    if best is None or val < best[0]:
                        best = (val, p0, p1, p2)
        steps = [(hi[d] - lo[d]) / (points - 1) for d in range(3)]
        lo = [best[1 + d] - steps[d] for d in range(3)]
        hi = [best[1 + d] + steps[d] for d in range(3)]
    return best[1], best[2], best[3], best[0]


def exact_series(model_id: str, params: Sequence[float], horizon_months: int) -> ObservationSeries:
    """Unrounded curve values for months 1..horizon (oracle-grade data
    for fitter checks; counts are exact floats, not integers)."""
    points = tuple(
        (m, float(models.evaluate(model_id, params, float(m))))
        for m in range(1, horizon_months + 1)
    )
    return ObservationSeries("synthetic", model_id, DatasetKind.NVD, points)


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


def link_bugs_to_nvd(corpus: Corpus) -> frozenset[tuple[str, str]]:
    """(bug_id, nvd_id) edges under the two linking rules: the bug is
    listed in the nvd entry's references, or some advisory references
    both the bug and the nvd entry. These are the NVD.Nbug row of the
    corpus index."""
    linked = corpus._index.counted[DatasetKind.NVD_NBUG]
    return frozenset((bug, nvd) for nvd, bugs in linked.items() for bug in bugs)


def regenerate_chi2_oracle() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    entries = []
    for dof in CHI2_DOFS:
        for chi2 in CHI2_GRID:
            entries.append(
                {"dof": dof, "chi2": chi2, "p": chi2_survival_quadrature(chi2, dof)}
            )
    CHI2_ORACLE_FILE.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {CHI2_ORACLE_FILE} ({len(entries)} entries)")


def load_chi2_oracle() -> list[dict]:
    return json.loads(CHI2_ORACLE_FILE.read_text())


if __name__ == "__main__":
    regenerate_chi2_oracle()
