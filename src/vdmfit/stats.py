"""Self-contained statistical kernels.

Regularized incomplete gamma (backs the chi-square p-values), average
ranks with tie handling, Mann-Whitney U, Kruskal-Wallis and the
Bonferroni correction. No external stats dependency; everything is a
pure function.
"""

from __future__ import annotations

import math
from itertools import combinations, groupby
from typing import NamedTuple, Sequence

__all__ = [
    "TestResult",
    "average_ranks",
    "bonferroni",
    "chi_square_survival",
    "kruskal_wallis",
    "mann_whitney_u",
    "regularized_lower_incomplete_gamma",
    "regularized_upper_incomplete_gamma",
]

_MACHEP = 2.220446049250313e-16
_MAX_ITER = 2000

# Combined-size threshold under which the Mann-Whitney p is computed by
# exact enumeration (tie-free samples only).
MWU_EXACT_LIMIT = 12


def _igam_prefactor(s: float, x: float) -> float:
    # x^s * exp(-x) / Gamma(s), computed in log space to dodge overflow
    return math.exp(s * math.log(x) - x - math.lgamma(s))


def _lower_series(s: float, x: float) -> float:
    # power series for P(s,x), effective for x < s+1
    ax = _igam_prefactor(s, x)
    if ax == 0.0:
        return 0.0
    r = s
    c = 1.0
    total = 1.0
    for _ in range(_MAX_ITER):
        r += 1.0
        c *= x / r
        total += c
        if c <= _MACHEP * total:
            break
    return total * ax / s


def _upper_continued_fraction(s: float, x: float) -> float:
    # Lentz-style continued fraction for Q(s,x), effective for x >= s+1
    ax = _igam_prefactor(s, x)
    if ax == 0.0:
        return 0.0
    big = 4.503599627370496e15
    biginv = 1.0 / big
    y = 1.0 - s
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(_MAX_ITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1 = pkm1, pk
        qkm2, qkm1 = qkm1, qk
        if abs(pk) > big:
            pkm2 *= biginv
            pkm1 *= biginv
            qkm2 *= biginv
            qkm1 *= biginv
        if t <= _MACHEP:
            break
    return ans * ax


def regularized_lower_incomplete_gamma(s: float, x: float) -> float:
    """P(s, x) = gamma(s, x) / Gamma(s), in [0, 1].

    Power series for x < s+1, continued fraction for the complement
    otherwise; absolute error well under 1e-10 on both branches.
    """
    if s <= 0.0 or not math.isfinite(s):
        raise ValueError(f"shape s must be finite and > 0, got {s!r}")
    if x < 0.0 or math.isnan(x):
        raise ValueError(f"x must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    if x < s + 1.0:
        return min(_lower_series(s, x), 1.0)
    return max(1.0 - _upper_continued_fraction(s, x), 0.0)


def regularized_upper_incomplete_gamma(s: float, x: float) -> float:
    """Q(s, x) = 1 - P(s, x), computed on whichever branch is stable."""
    if s <= 0.0 or not math.isfinite(s):
        raise ValueError(f"shape s must be finite and > 0, got {s!r}")
    if x < 0.0 or math.isnan(x):
        raise ValueError(f"x must be >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if x < s + 1.0:
        return max(1.0 - _lower_series(s, x), 0.0)
    return min(_upper_continued_fraction(s, x), 1.0)


def chi_square_survival(chi_square: float, dof: int) -> float:
    """Upper-tail probability of the chi-square distribution."""
    if chi_square < 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {chi_square!r}")
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof!r}")
    return regularized_upper_incomplete_gamma(dof / 2.0, chi_square / 2.0)


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

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "method": self.method,
            "warnings": list(self.warnings),
        }


def _tie_term(pooled_sorted: Sequence[float]) -> float:
    return sum(
        (lambda c: c * c * c - c)(len(list(g))) for _, g in groupby(pooled_sorted)
    )


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _mwu_exact(ranks_a_sum: float, n_a: int, n_b: int, alternative: str) -> float:
    # tie-free: pooled ranks are exactly 1..n, enumerate which positions
    # belong to the first sample
    n = n_a + n_b
    offset = n_a * (n_a + 1) / 2.0
    u_obs = ranks_a_sum - offset
    total = 0
    count_le = 0
    count_ge = 0
    for pos in combinations(range(1, n + 1), n_a):
        u = sum(pos) - offset
        total += 1
        if u <= u_obs + 1e-9:
            count_le += 1
        if u >= u_obs - 1e-9:
            count_ge += 1
    if alternative == "less":
        return count_le / total
    if alternative == "greater":
        return count_ge / total
    return min(1.0, 2.0 * min(count_le, count_ge) / total)


def mann_whitney_u(
    a: Sequence[float], b: Sequence[float], alternative: str = "two_sided"
) -> TestResult:
    """Mann-Whitney U test of sample ``a`` against sample ``b``.

    ``alternative`` is one of greater / less / two_sided, read as a
    statement about ``a`` relative to ``b``. The reported statistic is
    U of the first sample. Exact enumeration when the combined size is
    at most MWU_EXACT_LIMIT and there are no ties, otherwise a normal
    approximation with tie correction and continuity correction.
    """
    if alternative not in ("greater", "less", "two_sided"):
        raise ValueError(f"unknown alternative {alternative!r}")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    pooled = [float(v) for v in a] + [float(v) for v in b]
    ranks = average_ranks(pooled)
    r_a = sum(ranks[:n_a])
    u_a = r_a - n_a * (n_a + 1) / 2.0

    has_ties = len(set(pooled)) < n
    if n <= MWU_EXACT_LIMIT and not has_ties:
        p = _mwu_exact(r_a, n_a, n_b, alternative)
        return TestResult(u_a, p, "exact enumeration")

    mu = n_a * n_b / 2.0
    sigma2 = (n_a * n_b / 12.0) * ((n + 1) - _tie_term(sorted(pooled)) / (n * (n - 1)))
    if sigma2 <= 0.0:
        return TestResult(u_a, 1.0, "normal approximation (degenerate: all values tied)")
    sigma = math.sqrt(sigma2)
    if alternative == "less":
        z = (u_a - mu + 0.5) / sigma
        p = _norm_cdf(z)
    elif alternative == "greater":
        z = (u_a - mu - 0.5) / sigma
        p = 1.0 - _norm_cdf(z)
    else:
        z = max(abs(u_a - mu) - 0.5, 0.0) / sigma
        p = min(1.0, 2.0 * (1.0 - _norm_cdf(z)))
    return TestResult(u_a, p, "normal approximation, tie-corrected, continuity-corrected")


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
    pooled = [float(v) for g in groups for v in g]
    n = len(pooled)
    ranks = average_ranks(pooled)

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

    correction = 1.0 - _tie_term(sorted(pooled)) / (n ** 3 - n)
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
