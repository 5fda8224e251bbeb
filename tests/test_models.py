import math
import random

import numpy as np
import pytest

from vdmfit.datasets import DatasetKind, ObservationSeries
from vdmfit.fitter import initial_guesses
from vdmfit.models import (
    MODEL_IDS,
    MODELS,
    DomainError,
    ParamVector,
    UnknownModelError,
    default_domain,
    evaluate,
    gradient,
    param_count,
)

from oracles import aml_value_highprec, central_difference_gradient


def test_registry_is_exhaustive_and_consistent():
    assert set(MODELS) == set(MODEL_IDS) == {"AML", "AT", "LN", "LP", "RE", "RQ"}
    assert param_count("AML") == 3
    for mid in ("AT", "LN", "LP", "RE", "RQ"):
        assert param_count(mid) == 2
    t = np.arange(1.0, 9.0)
    series = ObservationSeries("p", "1", DatasetKind.NVD, tuple((int(m), 2.0 * m) for m in t))
    for mid, spec in MODELS.items():
        assert spec.id == mid
        assert len(spec.param_names) == spec.param_count
        assert len(spec.domain) == spec.param_count
        assert spec.jacobian(np.full(spec.param_count, 0.5), t).shape == (t.size, spec.param_count)
        assert len(spec.launch) <= spec.param_count
        assert set(spec.launch) <= {"rate", "asym", "level"}
        n_solved = spec.param_count - len(spec.launch)
        if spec.launch:
            # the projected Jacobian projects off one solved basis vector
            assert n_solved <= 1
        # the rule the fitter relies on: the curve is the Jacobian columns
        # of the solved parameters at unit amplitude times their values,
        # bit for bit for one amplitude
        cases = (((3.7, -0.4), 0.05), ((1e12, 2.0), 1e-12)) if n_solved else ()
        for amplitudes, rate in cases:
            a = np.array(amplitudes[:n_solved])
            z = np.full(len(spec.launch), rate)
            basis = spec.jacobian(np.concatenate((np.ones(n_solved), z)), t)[:, :n_solved]
            curve = spec.curve(np.concatenate((a, z)), t)
            if n_solved == 1:
                assert np.array_equal(curve, a[0] * basis[:, 0]), mid
            else:
                np.testing.assert_allclose(curve, basis @ a, rtol=1e-12, err_msg=mid)
        for grid_size in (1, 2, 3):
            assert len(initial_guesses(series, mid, grid_size)) == grid_size ** len(spec.launch)
    with pytest.raises(UnknownModelError):
        param_count("XX")


def test_param_vector_validation():
    pv = ParamVector("LN", (2, 3))
    assert pv.values == (2.0, 3.0)
    assert pv.as_dict() == {"A": 2.0, "B": 3.0}
    with pytest.raises(ValueError):
        ParamVector("LN", (1.0,))
    with pytest.raises(ValueError):
        ParamVector("RE", (math.nan, 0.1))


def test_linear_direct_substitution():
    assert evaluate("LN", (2.0, 3.0), 5.0) == 13.0


def test_identity_cases():
    # exponential model starts at zero
    assert evaluate("RE", (100.0, 0.05), 1e-12) == pytest.approx(0.0, abs=1e-9)
    # log model passes through C at t=1 exactly, for any slope
    for k in (0.37, 5.0, -2.5):
        assert evaluate("AT", (k, 7.0), 1.0) == 7.0


def test_aml_matches_high_precision_reevaluation():
    a, b, c = 0.01, 50.0, 0.8
    for t in range(1, 61):
        expected = aml_value_highprec(a, b, c, float(t))
        assert evaluate("AML", (a, b, c), float(t)) == pytest.approx(expected, rel=1e-12)


def test_vectorized_evaluation_matches_scalar():
    t = np.arange(1.0, 25.0)
    for mid, params in [
        ("AML", (0.01, 50.0, 0.8)),
        ("AT", (3.0, 5.0)),
        ("LN", (2.0, 3.0)),
        ("LP", (80.0, 0.1)),
        ("RE", (100.0, 0.05)),
        ("RQ", (0.05, 2.0)),
    ]:
        vec = evaluate(mid, params, t)
        assert vec.shape == t.shape
        for i, ti in enumerate(t):
            assert vec[i] == evaluate(mid, params, float(ti))


def test_evaluate_is_pure():
    for mid, params in [("AML", (0.004, 120.0, 1.0)), ("LP", (80.0, 0.1))]:
        first = evaluate(mid, params, 17.0)
        assert all(evaluate(mid, params, 17.0) == first for _ in range(5))


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate("LN", (1.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        evaluate("AT", (1.0, 1.0), -3.0)
    # B*C*exp(-A*B*t)+1 <= 0 with a negative C
    with pytest.raises(DomainError):
        evaluate("AML", (0.001, 1.0, -2.0), 1.0)
    with pytest.raises(DomainError):
        evaluate("LP", (10.0, -0.5), 3.0)
    with pytest.raises(DomainError):
        gradient("LP", (10.0, -0.5), 3.0)


def test_trivial_gradients():
    assert gradient("LN", (4.0, 1.0), 9.0) == pytest.approx([9.0, 1.0])
    assert gradient("RQ", (1.0, 1.0), 2.0) == pytest.approx([2.0, 2.0])


def _draw_params(rng, mid):
    if mid == "AML":
        b = rng.uniform(20.0, 200.0)
        c = rng.uniform(0.1, 2.0)
        return (rng.uniform(0.01, 0.08) / b, b, c)
    if mid == "AT":
        return (rng.uniform(1.0, 30.0), rng.uniform(0.5, 20.0))
    if mid == "LN":
        return (rng.uniform(0.1, 5.0), rng.uniform(0.5, 30.0))
    if mid == "LP":
        return (rng.uniform(20.0, 300.0), rng.uniform(0.005, 0.5))
    if mid == "RE":
        return (rng.uniform(20.0, 300.0), rng.uniform(0.005, 0.08))
    return (rng.uniform(0.01, 0.2), rng.uniform(0.5, 5.0))


def _draw_t(rng):
    # ln(t) vanishes at t=1, so hit the endpoint exactly or stay off it
    return 1.0 if rng.random() < 0.05 else rng.uniform(1.5, 120.0)


def assert_gradient_matches_fd(mid, params, t, rel_tol=1e-6):
    analytic = gradient(mid, params, t)
    fd = central_difference_gradient(
        lambda p: evaluate(mid, p, t), list(params)
    )
    for an, num in zip(analytic, fd):
        if abs(an) < 1e-9 and abs(num) < 1e-9:
            continue
        assert abs(num - an) / max(abs(an), abs(num)) < rel_tol, (mid, params, t)


def test_gradient_matches_finite_differences_randomized_sweep():
    rng = random.Random(20120417)
    for _ in range(40):
        for mid in MODEL_IDS:
            params = _draw_params(rng, mid)
            assert_gradient_matches_fd(mid, params, _draw_t(rng))


def test_aml_spec_point_gradient():
    assert_gradient_matches_fd("AML", (0.01, 50.0, 0.8), 10.0)


def test_gradient_array_t_matches_per_point():
    t = np.array([1.0, 3.0, 10.0, 60.0])
    jac = gradient("RE", (100.0, 0.05), t)
    assert jac.shape == (4, 2)
    for i, ti in enumerate(t):
        assert jac[i] == pytest.approx(gradient("RE", (100.0, 0.05), float(ti)))


def test_aml_strictly_increasing_and_bounded():
    params = (0.004, 120.0, 1.0)
    # strict increase on the part of the curve double precision can resolve
    values = evaluate("AML", params, np.arange(1.0, 61.0))
    assert np.all(np.diff(values) > 0)
    assert np.all(values < 120.0)
    # far out the curve saturates onto the asymptote
    assert np.all(evaluate("AML", params, np.arange(1.0, 1001.0)) <= 120.0)
    assert evaluate("AML", params, 1e6) == pytest.approx(120.0, abs=1e-6 * 120.0)


def test_re_strictly_increasing_and_bounded():
    params = (100.0, 0.05)
    values = evaluate("RE", params, np.arange(1.0, 241.0))
    assert np.all(np.diff(values) > 0)
    assert np.all(values < 100.0)
    assert evaluate("RE", params, 1e6) == pytest.approx(100.0, abs=1e-6 * 100.0)


def test_default_domains():
    inf = math.inf
    assert default_domain("AML") == (((0.0, inf),) * 3)
    assert default_domain("LP") == (((0.0, inf),) * 2)
    assert default_domain("RE") == (((0.0, inf),) * 2)
    for mid in ("AT", "LN", "RQ"):
        assert default_domain(mid) == (((-inf, inf),) * 2)
