"""Cross-checks against scipy's reference implementations.

The package itself never imports scipy; these tests confirm that the
hand-rolled kernels agree with an independent, widely used
implementation on the same conventions (tie correction, continuity
correction, statistic orientation).
"""

import numpy as np
import pytest
import scipy.special
import scipy.stats
from scipy.optimize import curve_fit

from vdmfit.fitter import fit
from vdmfit.simulate import NoiseKind, NoiseSpec, generate
from vdmfit.stats import (
    chi_square_survival,
    kruskal_wallis,
    mann_whitney_u,
)


def test_incomplete_gamma_matches_scipy():
    for k in (1, 2, 7, 30, 80):
        for x in (0.002, 0.2, 2.0, 10.0, 60.0, 400.0):
            assert chi_square_survival(x, k) == pytest.approx(
                scipy.special.gammaincc(k / 2.0, x / 2.0), abs=1e-13
            )


def test_chi_square_survival_matches_scipy():
    for dof in range(1, 31):
        for x in np.logspace(-3, 2, 23):
            assert chi_square_survival(float(x), dof) == pytest.approx(
                scipy.stats.chi2.sf(x, dof), abs=1e-12
            )


def test_mann_whitney_matches_scipy_asymptotic():
    rng = np.random.default_rng(3)
    a = list(rng.normal(0.0, 1.0, 20))
    b = list(rng.normal(0.4, 1.0, 20))
    for alt_mine, alt_scipy in (
        ("less", "less"),
        ("greater", "greater"),
        ("two_sided", "two-sided"),
    ):
        mine = mann_whitney_u(a, b, alternative=alt_mine)
        ref = scipy.stats.mannwhitneyu(a, b, alternative=alt_scipy, method="asymptotic")
        assert mine.statistic == pytest.approx(float(ref.statistic))
        assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-12)


def test_mann_whitney_matches_scipy_with_ties():
    a = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0, 9.0, 1.0, 5.0, 5.0, 2.0, 7.0]
    b = [2.0, 3.0, 3.0, 4.0, 5.0, 6.0, 1.0, 1.0, 8.0, 2.0, 2.0, 9.0, 9.0]
    mine = mann_whitney_u(a, b, alternative="greater")
    ref = scipy.stats.mannwhitneyu(a, b, alternative="greater", method="asymptotic")
    assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-12)


def test_mann_whitney_matches_scipy_asymptotic_out_to_the_far_tails():
    # sizes past the exact limit, values rounded so that ties are common,
    # shifts up to far-tail p-values; each one-sided tail is read on its own side
    rng = np.random.default_rng(22)
    for _ in range(300):
        n_a, n_b = rng.integers(13, 81, size=2)
        scale = rng.choice([1.0, 4.0, 100.0])
        a = np.round(rng.normal(0.0, 1.0, n_a) * scale) / scale
        b = np.round(rng.normal(rng.uniform(-4.0, 4.0), 1.0, n_b) * scale) / scale
        for alt_mine, alt_scipy in (
            ("less", "less"),
            ("greater", "greater"),
            ("two_sided", "two-sided"),
        ):
            ref = float(scipy.stats.mannwhitneyu(
                a, b, alternative=alt_scipy, method="asymptotic").pvalue)
            if ref >= 1e-300:
                mine = mann_whitney_u(a, b, alt_mine).p_value
                assert mine == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_mann_whitney_exact_matches_scipy():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [6.0, 7.0, 8.0, 9.0]
    mine = mann_whitney_u(a, b, alternative="less")
    ref = scipy.stats.mannwhitneyu(a, b, alternative="less", method="exact")
    assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-15)


def test_kruskal_wallis_matches_scipy():
    groups = (
        [1.0, 2.0, 2.0, 3.0],
        [2.0, 3.0, 3.0, 4.0, 4.0],
        [3.0, 5.0, 5.0, 6.0],
    )
    mine = kruskal_wallis(groups)
    ref = scipy.stats.kruskal(*groups)
    assert mine.statistic == pytest.approx(float(ref.statistic))
    assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-12)


def test_fit_matches_curve_fit_minimum():
    cases = (
        ("RE", (100.0, 0.05), lambda t, n, lam: n * (1.0 - np.exp(-lam * t)), (60.0, 0.01)),
        ("LP", (150.0, 0.05), lambda t, b0, b1: b0 * np.log(1.0 + b1 * t), (100.0, 0.1)),
        # linear families, fit in closed form
        ("AT", (30.0, 5.0), lambda t, k, c: k * np.log(t) + c, (1.0, 1.0)),
        ("LN", (2.5, 4.0), lambda t, a, b: a * t + b, (1.0, 1.0)),
        ("RQ", (0.08, 1.5), lambda t, a, b: a * t * t / 2.0 + b * t, (1.0, 1.0)),
    )
    for model_id, truth, curve, p0 in cases:
        series = generate(
            model_id, truth, 60, NoiseSpec(NoiseKind.MULTIPLICATIVE, 0.02, 7)
        )
        t = np.array(series.months, dtype=float)
        y = np.array(series.counts, dtype=float)
        mine = fit(series, model_id)
        popt, _ = curve_fit(curve, t, y, p0=p0, maxfev=10000)
        residual = y - curve(t, *popt)
        assert mine.params.values == pytest.approx(tuple(popt), rel=1e-5), model_id
        assert mine.sse <= float(residual @ residual) + 1e-9, model_id
