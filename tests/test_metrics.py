import itertools
import math
import random

import pytest

from vdmfit.fitter import fit
from vdmfit.gof import FitClass
from vdmfit.gof import test_fit as run_gof_test
from vdmfit.metrics import (
    EmptyStepError,
    TransitionKind,
    aggregate_entropy,
    aggregate_quality,
    classify_transition,
    entropy_at,
    quality_at,
    rolling_gof,
)
from vdmfit.simulate import NoiseKind, NoiseSpec, generate

from oracles import exact_series

F, I, NF = FitClass.GOOD_FIT, FitClass.INCONCLUSIVE, FitClass.NOT_FIT
U, S, B = TransitionKind.UNCHANGED, TransitionKind.SMALL_JUMP, TransitionKind.BIG_JUMP


def test_transition_classification():
    for state in (F, I, NF):
        assert classify_transition(state, state) is U
    assert classify_transition(F, NF) is B
    assert classify_transition(NF, F) is B
    assert classify_transition(I, NF) is S
    assert classify_transition(NF, I) is S
    assert classify_transition(F, I) is S
    assert classify_transition(I, F) is S


def test_entropy_extremes():
    assert entropy_at([U, U, U], beta=2.0) == 0.0
    assert entropy_at([S, B, S], beta=1.0) == 1.0
    assert entropy_at([B], beta=7.0) == 1.0
    # beta * b overflows to inf: the step reads its limit, not inf / inf
    assert entropy_at([B, B], beta=1e308) == 1.0
    assert entropy_at([U, B, B], beta=1e308) == 1.0


def test_entropy_direct_substitution():
    transitions = [U, U, U, U, S, B]
    assert entropy_at(transitions, beta=1.0) == pytest.approx(2.0 / 6.0)
    # beta reweighs the big jump
    assert entropy_at(transitions, beta=2.0) == pytest.approx(3.0 / 7.0)


def test_entropy_empty_and_bad_beta():
    with pytest.raises(EmptyStepError):
        entropy_at([], beta=1.0)
    for beta in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="beta must be finite and >= 1"):
            entropy_at([U], beta=beta)


def test_entropy_monotone_in_beta():
    rng = random.Random(42)
    for _ in range(300):
        u = rng.randint(0, 6)
        s = rng.randint(0, 6)
        b = rng.randint(0, 6)
        if u + s + b == 0:
            continue
        multiset = [U] * u + [S] * s + [B] * b
        b1, b2 = sorted((1.0 + 9.0 * rng.random(), 1.0 + 9.0 * rng.random()))
        e1, e2 = entropy_at(multiset, b1), entropy_at(multiset, b2)
        assert 0.0 <= e1 <= 1.0 and 0.0 <= e2 <= 1.0
        assert e2 >= e1 - 1e-15
        if b > 0 and u > 0 and b2 > b1:
            assert e2 > e1


def test_quality_extremes_and_substitution():
    assert quality_at((5, 0, 0), omega=3.0) == 1.0
    assert quality_at((0, 0, 7), omega=3.0) == 0.0
    assert quality_at((2, 1, 1), omega=2.0) == pytest.approx(0.625)
    assert quality_at((1, 1, 1), omega=1.0) == pytest.approx(2.0 / 3.0)


def test_quality_monotone_in_omega_and_identity():
    rng = random.Random(17)
    for _ in range(300):
        counts = (rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, 8))
        if sum(counts) == 0:
            continue
        w1, w2 = sorted((1.0 + 9.0 * rng.random(), 1.0 + 9.0 * rng.random()))
        q1, q2 = quality_at(counts, w1), quality_at(counts, w2)
        assert 0.0 <= q2 <= q1 <= 1.0 or abs(q1 - q2) < 1e-15
        if counts[1] > 0 and w2 > w1:
            assert q2 < q1
        assert quality_at(counts, 1.0) == pytest.approx(
            (counts[0] + counts[1]) / sum(counts)
        )


def test_quality_errors():
    with pytest.raises(EmptyStepError):
        quality_at((0, 0, 0), omega=1.0)
    with pytest.raises(ValueError):
        quality_at((1, -1, 0), omega=1.0)
    for omega in (0.9, math.nan, math.inf):
        with pytest.raises(ValueError, match="omega must be finite and >= 1"):
            quality_at((1, 1, 1), omega=omega)


def test_median_conventions():
    # four curves, quality F/4 per month: 0.25, 1.0, 0.0, 0.75, then 1.0
    good = {1: 1, 2: 4, 3: 0, 4: 3, 5: 4}
    states = {f"c{i}": {m: F if i < n else NF for m, n in good.items()} for i in range(4)}
    even = aggregate_quality({c: {m: sts[m] for m in range(1, 5)} for c, sts in states.items()})
    # an even count takes the mean of the two central values
    assert even.grand_median == (0.25 + 0.75) / 2
    assert even.first_half_median == (0.25 + 1.0) / 2
    assert even.second_half_median == (0.0 + 0.75) / 2
    # an odd count takes the middle value
    odd = aggregate_quality(states)
    assert odd.grand_median == 0.75
    assert odd.first_half_median == 0.25


def test_aggregate_entropy_single_stable_curve():
    states = {"c1": {1: F, 2: F, 3: F, 4: F}}
    series = aggregate_entropy(states, beta=1.0)
    assert series.points == ((2, 0.0), (3, 0.0), (4, 0.0))
    assert series.grand_median == 0.0
    assert series.first_half_median == 0.0
    assert series.second_half_median == 0.0


def test_aggregate_entropy_simultaneous_big_jumps():
    states = {
        "c1": {1: F, 2: F, 3: NF, 4: NF},
        "c2": {1: F, 2: F, 3: NF, 4: NF},
    }
    series = aggregate_entropy(states, beta=1.0)
    assert [v for _, v in series.points] == [0.0, 1.0, 0.0]


def test_a_one_month_group_has_one_quality_point_and_no_entropy_step():
    states = {"c1": {6: F}, "c2": {6: I}, "c3": {6: NF}}
    quality = aggregate_quality(states, omega=2.0)
    assert quality.points == ((6, 0.5),)
    assert quality.grand_median == quality.first_half_median == 0.5
    assert quality.second_half_median is None
    with pytest.raises(EmptyStepError, match="no metric points"):
        aggregate_entropy(states)
    # a state is a FitClass, never its value
    with pytest.raises(KeyError):
        aggregate_quality({"c1": {6: "GoodFit"}})


def brute_force_entropy(states_by_curve, beta):
    columns = sorted({m for sts in states_by_curve.values() for m in sts})
    out = []
    for prev, cur in zip(columns, columns[1:]):
        u = s = b = 0
        for sts in states_by_curve.values():
            if prev not in sts or cur not in sts:
                continue
            pair = (sts[prev], sts[cur])
            if pair[0] is pair[1]:
                u += 1
            elif {*pair} == {F, NF}:
                b += 1
            else:
                s += 1
        if u + s + b:
            out.append((cur, (s + beta * b) / (u + s + beta * b)))
    return out


def brute_force_quality(states_by_curve, omega):
    columns = sorted({m for sts in states_by_curve.values() for m in sts})
    out = []
    for m in columns:
        col = [sts[m] for sts in states_by_curve.values() if m in sts]
        if not col:
            continue
        f = sum(1 for s in col if s is F)
        i = sum(1 for s in col if s is I)
        nf = sum(1 for s in col if s is NF)
        out.append((m, (f + i / omega) / (f + i + nf)))
    return out


def _random_matrix(rng, n_curves=5, n_cols=10, missing=0.15):
    states = {}
    for c in range(n_curves):
        row = {}
        for m in range(6, 6 + n_cols):
            if rng.random() > missing:
                row[m] = rng.choice((F, I, NF))
        if len(row) >= 2:
            states[f"curve{c}"] = row
    return states


def test_aggregate_matches_brute_force_on_random_matrices():
    rng = random.Random(314)
    full = random.Random(7)
    # 40 random matrices with gaps, then 4 curves with a state at each of 12
    # months, where every step pools all 4
    fully_present = {f"c{i}": {m: full.choice((F, I, NF)) for m in range(1, 13)} for i in range(4)}
    for states in itertools.chain((_random_matrix(rng) for _ in range(40)), [fully_present]):
        if not states:
            continue
        beta = 1.0 + 3.0 * rng.random()
        omega = 1.0 + 3.0 * rng.random()
        entropy = aggregate_entropy(states, beta)
        assert list(entropy.points) == [
            (m, pytest.approx(v)) for m, v in brute_force_entropy(states, beta)
        ]
        quality = aggregate_quality(states, omega)
        assert list(quality.points) == [
            (m, pytest.approx(v)) for m, v in brute_force_quality(states, omega)
        ]
    assert [m for m, _ in entropy.points] == list(range(2, 13))


def test_half_medians_on_constant_series():
    states = {"c": {m: F for m in range(6, 21)}}
    series = aggregate_quality(states, omega=2.0)
    assert series.grand_median == series.first_half_median == series.second_half_median == 1.0


def test_rolling_gof_below_start_is_empty():
    series = exact_series("LN", (2.0, 3.0), 5)
    assert rolling_gof(series, "LN") == []


def test_rolling_gof_too_short_to_fit_is_none_each_month():
    # AML has three parameters, so a prefix of three points cannot be fit
    series = exact_series("AML", (0.004, 120.0, 1.0), 3)
    assert rolling_gof(series, "AML", start_msr=1) == [(1, None), (2, None), (3, None)]


def test_rolling_gof_exact_linear_all_good():
    series = exact_series("LN", (2.0, 3.0), 24)
    results = rolling_gof(series, "LN")
    assert [m for m, _ in results] == list(range(6, 25))
    for m, res in results:
        assert res is not None
        assert res.classification is FitClass.GOOD_FIT
        assert res.dof == m - 2


def test_rolling_gof_matches_independent_prefix_refits():
    series = generate(
        "RE", (90.0, 0.06), 24, NoiseSpec(NoiseKind.MULTIPLICATIVE, 0.05, seed=8)
    )
    rolled = rolling_gof(series, "RE", multistart=2)
    for m, res in rolled:
        prefix = series.truncated(m)
        independent = run_gof_test(prefix, fit(prefix, "RE", 2))
        assert res is not None
        assert independent.classification is res.classification
        assert independent.p_value == pytest.approx(res.p_value)


def test_states_from_results_maps_invalid_to_notfit():
    # a curve's states are read back from its track rows: an invalid test
    # is NotFit whatever its classification, a month without a result has
    # no state
    from vdmfit.cli import _result_row, _track_state
    from vdmfit.fitter import FitOutcome
    from vdmfit.gof import FitResult
    from vdmfit.models import ParamVector

    def states(series, results):
        rows = [
            {k: str(v) for k, v in (_result_row(series, "LN", res) | {"msr": m}).items()}
            for m, res in results
        ]
        parsed = [_track_state(row) for row in rows]
        return {msr: state for _, msr, state in parsed if state is not None}

    series = exact_series("LN", (2.0, 3.0), 8)
    assert set(states(series, rolling_gof(series, "LN")).values()) == {FitClass.GOOD_FIT}
    fake = FitResult(
        FitOutcome(ParamVector("LN", (1.0, -5.0)), 0.0, True, 0), float("inf"), 4, 0.0,
        FitClass.GOOD_FIT, valid=False,
    )
    assert states(series, [(6, fake), (7, None)]) == {6: FitClass.NOT_FIT}
