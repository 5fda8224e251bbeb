"""Self-contained statistical kernels.

The chi-square upper tail for whole-number degrees of freedom (backs
the fit p-values and Kruskal-Wallis), average ranks with tie handling,
Mann-Whitney U, Kruskal-Wallis and the Bonferroni correction. No
external stats dependency; everything is a pure function.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from typing import NamedTuple, Sequence

__all__ = [
    "TestResult",
    "average_ranks",
    "bonferroni",
    "chi_square_survival",
    "kruskal_wallis",
    "mann_whitney_u",
]

_MACHEP = 2.220446049250313e-16
_MAX_ITER = 2000

# Combined-size threshold under which the Mann-Whitney p is computed by
# exact enumeration (tie-free samples only).
MWU_EXACT_LIMIT = 12


def chi_square_survival(chi_square: float, dof: int) -> float:
    """Upper-tail probability Q(s, x) of the chi-square distribution, with
    s = dof/2 for a whole number ``dof`` >= 1 and x = chi_square/2.

    Below x < s + 1 it is 1 - P(s, x) from the power series. Above, it
    is the finite sum of Abramowitz & Stegun 26.4.4-26.4.5: x^a e^-x /
    Gamma(a+1) over a = 0, 1, ..., s - 1 for even dof, and over a = 1/2,
    3/2, ..., s - 1 on top of Q(1/2, x) = erfc(sqrt(x)) for odd dof.
    """
    if not chi_square >= 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {chi_square!r}")
    if not (dof >= 1 and float(dof).is_integer()):
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {dof!r}")
    s = dof / 2.0
    x = chi_square / 2.0
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if x < s + 1.0:
        # the power series for P(s, x), its prefactor x^s e^-x / Gamma(s)
        # taken in log space to dodge overflow
        ax = math.exp(s * math.log(x) - x - math.lgamma(s))
        r = s
        c = 1.0
        total = 1.0
        for _ in range(_MAX_ITER):
            r += 1.0
            c *= x / r
            total += c
            if c <= _MACHEP * total:
                break
        return 1.0 - total * ax / s
    # the terms grow with a here (x > a + 1), so they are added smallest first
    a, total = (0.5, math.erfc(math.sqrt(x))) if dof % 2 else (0.0, 0.0)
    log_x = math.log(x)
    while a < s:
        total += math.exp(a * log_x - x - math.lgamma(a + 1.0))
        a += 1.0
    return total


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j + 2) / 2.0  # positions i+1 .. j+1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


class TestResult(NamedTuple):
    statistic: float
    p_value: float
    method: str
    warnings: tuple[str, ...] = ()


def _tie_term(ranks: Sequence[float]) -> int:
    # tied values share one average rank, so each distinct rank is one tie group
    return sum(c * c * c - c for c in Counter(ranks).values())


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _mwu_exact(u_obs: float, n_a: int, n_b: int) -> tuple[float, float]:
    # tie-free: the pooled ranks are exactly 1..n, so U runs over every n_a of them
    offset = n_a * (n_a + 1) / 2.0
    us = [sum(pos) - offset for pos in combinations(range(1, n_a + n_b + 1), n_a)]
    count_le = sum(u <= u_obs + 1e-9 for u in us)
    count_ge = sum(u >= u_obs - 1e-9 for u in us)
    return count_le / len(us), count_ge / len(us)


def mann_whitney_u(
    a: Sequence[float], b: Sequence[float], alternative: str = "two_sided"
) -> TestResult:
    """Mann-Whitney U test of sample ``a`` against sample ``b``.

    ``alternative`` is one of greater / less / two_sided, read as a
    statement about ``a`` relative to ``b``. The reported statistic is
    U of the first sample. Exact enumeration when the combined size is
    at most MWU_EXACT_LIMIT and there are no ties, otherwise a normal
    approximation with tie correction and continuity correction. Each
    one-sided p is read from its own tail, so a far tail stays positive.
    """
    if alternative not in ("greater", "less", "two_sided"):
        raise ValueError(f"unknown alternative {alternative!r}")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    ranks = average_ranks([float(v) for v in a] + [float(v) for v in b])
    u_a = sum(ranks[:n_a]) - n_a * (n_a + 1) / 2.0
    ties = _tie_term(ranks)

    if n <= MWU_EXACT_LIMIT and not ties:
        tails = _mwu_exact(u_a, n_a, n_b)
        method = "exact enumeration"
    else:
        mu = n_a * n_b / 2.0
        sigma2 = (n_a * n_b / 12.0) * ((n + 1) - ties / (n * (n - 1)))
        if sigma2 <= 0.0:
            return TestResult(u_a, 1.0, "normal approximation (degenerate: all values tied)")
        sigma = math.sqrt(sigma2)
        tails = (_norm_cdf((u_a - mu + 0.5) / sigma), _norm_cdf((mu - u_a + 0.5) / sigma))
        method = "normal approximation, tie-corrected, continuity-corrected"
    p_less, p_greater = tails
    p = {"less": p_less, "greater": p_greater, "two_sided": min(1.0, 2.0 * min(tails))}
    return TestResult(u_a, p[alternative], method)


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> TestResult:
    """Kruskal-Wallis H test across two or more groups.

    H on pooled average ranks with tie correction; p from the
    chi-square upper tail with (#groups - 1) degrees of freedom. When
    every pooled value is tied the statistic carries no information and
    is defined as H = 0 (p = 1).
    """
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    if any(len(g) == 0 for g in groups):
        raise ValueError("all groups must be non-empty")
    sizes = [len(g) for g in groups]
    ranks = average_ranks([float(v) for g in groups for v in g])
    n = len(ranks)

    warnings = []
    if min(sizes) < 5:
        warnings.append(
            "group size below 5: chi-square approximation of the H distribution may be inaccurate"
        )

    h = 0.0
    start = 0
    for size in sizes:
        r_sum = sum(ranks[start : start + size])
        h += r_sum * r_sum / size
        start += size
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)

    correction = 1.0 - _tie_term(ranks) / (n ** 3 - n)
    if correction <= 0.0:
        return TestResult(0.0, 1.0, "rank sums (degenerate: all values tied)", tuple(warnings))
    h /= correction
    h = max(h, 0.0)
    p = chi_square_survival(h, len(groups) - 1)
    return TestResult(h, p, "rank sums, tie-corrected, chi-square approximation", tuple(warnings))


def bonferroni(alpha: float, n_tests: int) -> float:
    """Corrected per-test significance level alpha / n_tests."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if n_tests < 1:
        raise ValueError(f"n_tests must be >= 1, got {n_tests!r}")
    return alpha / n_tests
