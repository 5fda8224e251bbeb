import math
import random

import numpy as np
import pytest

from vdmfit.stats import (
    average_ranks,
    bonferroni,
    chi_square_survival,
    kruskal_wallis,
    mann_whitney_u,
)

from oracles import lower_gamma_quadrature


def test_chi_square_dof_one_is_erfc():
    # Q(1/2, x/2) = erfc(sqrt(x/2)), on both sides of the series threshold x = 3
    for x in (0.5, 2.0, 2.9, 3.0, 4.0, 10.0, 50.0):
        assert chi_square_survival(x, 1) == pytest.approx(
            math.erfc(math.sqrt(x / 2.0)), abs=1e-12
        )


def test_chi_square_survival_against_quadrature():
    # half-integer and integer shapes s = dof/2, below and above x/2 = s + 1
    for dof, x in [(1, 2.0), (10, 10.0), (2, 0.4), (7, 24.0), (30, 12.0),
                   (3, 5.5), (80, 60.0), (80, 82.0), (79, 120.0), (80, 150.0),
                   (10, 30.0)]:
        assert chi_square_survival(x, dof) == pytest.approx(
            1.0 - lower_gamma_quadrature(dof / 2.0, x / 2.0), abs=1e-10
        )


def test_chi_square_survival_domain_errors():
    for chi2, dof in [(-0.1, 3), (math.nan, 3), (1.0, 0), (1.0, 2.5)]:
        with pytest.raises(ValueError):
            chi_square_survival(chi2, dof)


def test_chi_square_survival_monotone_and_vanishing():
    for dof in (1, 2, 6, 20):
        xs = np.linspace(0.0, 100.0 * dof, 300)
        vals = [chi_square_survival(float(x), dof) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0
        assert vals[-1] == pytest.approx(0.0, abs=1e-10)


def test_chi_square_survival_spot_values():
    assert chi_square_survival(3.841, 1) == pytest.approx(0.05, abs=1e-3)
    for dof in range(1, 31):
        assert chi_square_survival(0.0, dof) == 1.0
    assert chi_square_survival(math.inf, 3) == 0.0


def test_p_value_strictly_decreasing():
    for dof in (1, 4, 10, 30):
        xs = [0.01 * 1.5 ** k for k in range(30)]
        ps = [chi_square_survival(x, dof) for x in xs]
        assert all(b <= a for a, b in zip(ps, ps[1:]))
        # strictly decreasing wherever double precision can resolve the tail
        resolvable = [
            (a, b)
            for (a, b) in zip(ps, ps[1:])
            if 1e-14 < b and a < 1.0 - 1e-14
        ]
        assert resolvable
        assert all(b < a for a, b in resolvable)


def test_average_ranks_with_ties():
    assert average_ranks([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]


def test_rank_sum_invariant():
    # the ranks of n values sum to n(n+1)/2 however they tie: one value,
    # all tied, all distinct, the longest list, then 1,000 seeded lists
    rng = random.Random(2012)
    cases = [[0], [3] * 40, list(range(-5, 6)), [rng.randint(-5, 5) for _ in range(40)]]
    cases += [[rng.randint(-5, 5) for _ in range(rng.randint(1, 40))] for _ in range(1000)]
    for values in cases:
        n = len(values)
        assert sum(average_ranks([float(v) for v in values])) == pytest.approx(
            n * (n + 1) / 2
        ), values


def test_mwu_exact_separated_case():
    res = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], alternative="less")
    assert res.statistic == 0.0
    assert res.p_value == pytest.approx(1.0 / 20.0)
    assert "exact" in res.method


def test_mwu_identical_samples_symmetry():
    a = [1.0, 2.0, 3.0, 4.0]
    res = mann_whitney_u(a, list(a), alternative="two_sided")
    assert res.statistic == pytest.approx(len(a) * len(a) / 2.0)
    assert res.p_value >= 0.99


def test_mwu_accepts_numpy_arrays():
    res = mann_whitney_u(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]), alternative="less")
    assert res.p_value == pytest.approx(0.05)
    with pytest.raises(ValueError):
        mann_whitney_u(np.array([]), np.array([1.0]))


def test_mwu_u_sum_invariant():
    rng = random.Random(7)
    for _ in range(20):
        n_a = rng.randint(1, 15)
        n_b = rng.randint(1, 15)
        a = [rng.gauss(0, 1) for _ in range(n_a)]
        b = [rng.gauss(0.5, 1) for _ in range(n_b)]
        u_a = mann_whitney_u(a, b).statistic
        u_b = mann_whitney_u(b, a).statistic
        assert u_a + u_b == pytest.approx(n_a * n_b)


def test_mwu_exact_agrees_with_approximation_direction():
    # clearly separated larger samples: one-sided p should be tiny
    a = list(range(1, 16))
    b = list(range(20, 35))
    res = mann_whitney_u(a, b, alternative="less")
    assert res.p_value < 1e-4
    res_rev = mann_whitney_u(a, b, alternative="greater")
    assert res_rev.p_value > 0.999


def test_mwu_far_tails_stay_positive_and_mirror():
    # separated 60 vs 60: |z| is about 9.4, and 1 - Phi(9.4) cancels to 0 in doubles
    a = [float(v) for v in range(60)]
    b = [float(v) for v in range(100, 160)]
    p = mann_whitney_u(a, b, "less").p_value
    assert mann_whitney_u(b, a, "greater").p_value == p > 0.0
    assert mann_whitney_u(a, b, "two_sided").p_value == 2.0 * p
    assert mann_whitney_u(b, a, "two_sided").p_value == 2.0 * p


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mann_whitney_u([1.0], [2.0], "both"), "unknown alternative 'both'"),
        (lambda: mann_whitney_u([1.0], []), "both samples must be non-empty"),
        (lambda: kruskal_wallis([[1.0, 2.0]]), "need at least two groups"),
        (lambda: kruskal_wallis([[1.0], []]), "all groups must be non-empty"),
    ],
    ids=["alternative", "mwu-empty", "kw-one-group", "kw-empty-group"],
)
def test_rank_tests_reject_bad_input_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _mwu_monte_carlo(a, b, alternative, n_perm, seed):
    rng = np.random.default_rng(seed)
    pooled = np.array(list(a) + list(b), dtype=float)
    n_a = len(a)
    from vdmfit.stats import average_ranks as ar

    ranks = np.array(ar(list(pooled)))
    u_obs = ranks[:n_a].sum() - n_a * (n_a + 1) / 2.0
    count = 0
    batch = 200_000
    done = 0
    while done < n_perm:
        size = min(batch, n_perm - done)
        keys = rng.random((size, pooled.size))
        idx = np.argsort(keys, axis=1)[:, :n_a]
        u = ranks[idx].sum(axis=1) - n_a * (n_a + 1) / 2.0
        if alternative == "less":
            count += int((u <= u_obs + 1e-9).sum())
        else:
            count += int((u >= u_obs - 1e-9).sum())
        done += size
    return count / n_perm


def test_mwu_normal_approximation_close_to_monte_carlo():
    rng = np.random.default_rng(42)
    a = list(rng.normal(0.0, 1.0, 20))
    b = list(rng.normal(0.3, 1.0, 20))
    res = mann_whitney_u(a, b, alternative="less")
    mc = _mwu_monte_carlo(a, b, "less", 200_000, seed=1)
    assert res.p_value == pytest.approx(mc, abs=0.02)


def test_kruskal_wallis_trivial_identical_groups():
    res = kruskal_wallis([[4.0, 4.0], [4.0, 4.0], [4.0]])
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_kruskal_wallis_hand_computed():
    # ranks 1..6, rank sums 3, 7, 11 -> H = 32/7
    res = kruskal_wallis([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert res.statistic == pytest.approx(32.0 / 7.0)
    assert res.p_value == pytest.approx(math.exp(-(32.0 / 7.0) / 2.0), rel=1e-9)
    assert res.warnings  # groups smaller than 5 flagged


def test_kruskal_wallis_monotone_transform_invariance():
    rng = random.Random(3)
    groups = [[rng.uniform(0, 1) for _ in range(8)] for _ in range(3)]
    base = kruskal_wallis(groups).statistic
    transformed = [[math.exp(3.0 * v) for v in g] for g in groups]
    assert kruskal_wallis(transformed).statistic == pytest.approx(base)


def test_kruskal_wallis_close_to_monte_carlo():
    rng = np.random.default_rng(11)
    groups = [list(rng.normal(mu, 1.0, 10)) for mu in (0.0, 0.2, 0.6)]
    res = kruskal_wallis(groups)

    pooled = np.array([v for g in groups for v in g])
    sizes = [len(g) for g in groups]
    from vdmfit.stats import average_ranks as ar

    n = pooled.size
    h_obs = res.statistic
    n_perm = 200_000
    gen = np.random.default_rng(5)
    count = 0
    ranks = np.array(ar(list(pooled)))
    tie = 1.0  # distinct floats, no tie correction needed in the MC
    for start in range(0, n_perm, 100_000):
        size = min(100_000, n_perm - start)
        keys = gen.random((size, n))
        order = np.argsort(keys, axis=1)
        permuted = ranks[order]
        h = np.zeros(size)
        col = 0
        for gsize in sizes:
            r_sum = permuted[:, col : col + gsize].sum(axis=1)
            h += r_sum * r_sum / gsize
            col += gsize
        h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
        count += int((h >= h_obs - 1e-9).sum())
    mc = count / n_perm
    assert res.p_value == pytest.approx(mc, abs=0.02)


def test_bonferroni():
    assert bonferroni(0.05, 4) == pytest.approx(0.0125)
    assert bonferroni(0.05, 1) == 0.05
    assert bonferroni(0.01, 5) == pytest.approx(0.002)
    with pytest.raises(ValueError):
        bonferroni(0.0, 3)
    with pytest.raises(ValueError):
        bonferroni(0.05, 0)
