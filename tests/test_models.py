import math

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
    evaluate,
    gradient,
    spec,
)

from oracles import aml_value_highprec, central_difference_gradient


def test_registry_is_exhaustive_and_consistent():
    assert set(MODELS) == set(MODEL_IDS) == {"AML", "AT", "LN", "LP", "RE", "RQ"}
    assert spec("AML").param_count == 3
    for mid in ("AT", "LN", "LP", "RE", "RQ"):
        assert spec(mid).param_count == 2
    t = np.arange(1.0, 9.0)
    series = ObservationSeries("p", "1", DatasetKind.NVD, tuple((int(m), 2.0 * m) for m in t))
    for mid, row in MODELS.items():
        assert row.id == mid
        assert len(row.param_names) == row.param_count
        assert len(row.domain) == row.param_count
        assert row.jacobian(np.full(row.param_count, 0.5), t).shape == (t.size, row.param_count)
        assert len(row.launch) <= row.param_count
        assert set(row.launch) <= {"rate", "asym", "level"}
        n_solved = row.param_count - len(row.launch)
        if row.launch:
            # the projected Jacobian is one iterated column projected off
            # one solved basis vector
            assert n_solved <= 1
            assert n_solved == 0 or len(row.launch) == 1
        # the rule the fitter relies on: the curve is the Jacobian columns
        # of the solved parameters at unit amplitude times their values,
        # bit for bit for one amplitude, whose basis is the curve at unit
        # amplitude
        cases = (((3.7, -0.4), 0.05), ((1e12, 2.0), 1e-12)) if n_solved else ()
        for amplitudes, rate in cases:
            a = np.array(amplitudes[:n_solved])
            z = np.full(len(row.launch), rate)
            basis = row.jacobian(np.concatenate((np.ones(n_solved), z)), t)[:, :n_solved]
            curve = row.curve(np.concatenate((a, z)), t)
            if n_solved == 1:
                assert np.array_equal(curve, a[0] * basis[:, 0]), mid
                unit = row.curve(np.concatenate((np.ones(1), z)), t)
                assert np.array_equal(unit, basis[:, 0]), mid
            else:
                np.testing.assert_allclose(curve, basis @ a, rtol=1e-12, err_msg=mid)
        for grid_size in (1, 2, 3):
            assert len(initial_guesses(series, mid, grid_size)) == grid_size ** len(row.launch)
    with pytest.raises(UnknownModelError):
        spec("XX")


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


# the draws of criterion 05's 1,000 gradient checks in test_acceptance.py
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


def test_fitting_domains():
    inf = math.inf
    assert spec("AML").domain == (((1e-12, inf),) * 3)
    assert spec("LP").domain == (((1e-12, inf),) * 2)
    assert spec("RE").domain == (((1e-12, inf),) * 2)
    for mid in ("AT", "LN", "RQ"):
        assert spec(mid).domain == (((-inf, inf),) * 2)


_VALID_PARAMS = {
    "AML": (0.01, 50.0, 0.8),
    "AT": (3.0, 5.0),
    "LN": (2.0, 3.0),
    "LP": (80.0, 0.1),
    "RE": (100.0, 0.05),
    "RQ": (0.05, 2.0),
}


@pytest.mark.parametrize("kernel", [evaluate, gradient])
@pytest.mark.parametrize("mid", MODEL_IDS)
def test_non_finite_or_non_positive_t_is_a_domain_error(kernel, mid):
    params = _VALID_PARAMS[mid]
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            kernel(mid, params, bad)
        for t in ([bad, 1.0, 2.0], [1.0, bad, 2.0], [1.0, 2.0, bad], [-1.0, bad, 2.0]):
            with pytest.raises(DomainError):
                kernel(mid, params, np.array(t))
    with pytest.raises(DomainError):
        kernel(mid, params, np.array([1.0, 0.0, 3.0]))
    # an empty t is no error: it evaluates to an empty result
    empty = kernel(mid, params, np.array([]))
    assert empty.shape == ((0,) if kernel is evaluate else (0, spec(mid).param_count))


@pytest.mark.parametrize("kernel", [evaluate, gradient])
@pytest.mark.parametrize("mid", MODEL_IDS)
def test_bad_params_are_a_value_error(kernel, mid):
    params = _VALID_PARAMS[mid]
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite parameter values") as exc:
            kernel(mid, params[:-1] + (bad,), np.array([1.0, 2.0]))
        assert type(exc.value) is ValueError
    for wrong in (params[:-1], params + (1.0,)):
        with pytest.raises(ValueError, match=f"{mid} takes") as exc:
            kernel(mid, wrong, 2.0)
        assert type(exc.value) is ValueError


@pytest.mark.parametrize("kernel", [evaluate, gradient])
def test_aml_denominator_at_one_month_is_a_domain_error(kernel):
    # B*C*exp(-A*B*t)+1 is -0.21 at t=1 and positive at t=3 and t=5
    params = (0.5, 1.0, -2.0)
    kernel("AML", params, np.array([3.0, 5.0]))
    with pytest.raises(DomainError, match="AML denominator"):
        kernel("AML", params, np.array([3.0, 1.0, 5.0]))


def test_gradient_is_a_c_contiguous_float64_matrix():
    # the fitter's jac.T @ r and jac.T @ jac go through BLAS, which picks
    # its kernel, and so its rounding, by memory layout
    t = np.arange(1.0, 13.0)
    for mid, params in _VALID_PARAMS.items():
        jac = gradient(mid, params, t)
        assert jac.shape == (t.size, spec(mid).param_count), mid
        assert jac.dtype == np.float64 and jac.flags.c_contiguous, mid
        point = gradient(mid, params, 4.0)
        assert point.shape == (spec(mid).param_count,), mid
        assert point.dtype == np.float64, mid
        np.testing.assert_allclose(point, jac[3], rtol=1e-14, err_msg=mid)
