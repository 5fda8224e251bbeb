"""Synthetic observation series from a ground-truth model.

The noise stream comes from a splitmix-style generator pinned down by
its constants so any implementation can reproduce it bit-for-bit:
64-bit state advances by the golden-gamma Weyl increment
0x9E3779B97F4A7C15 and each output is the MurmurHash3 64-bit finalizer
of the new state (xor-shift 33, * 0xFF51AFD7ED558CCD, xor-shift 33,
* 0xC4CEB9FE1A85EC53, xor-shift 33). Uniform doubles take the top 53
bits of an output word.

Noisy counts are rounded half-up and clamped to the running maximum so
every generated series is a valid cumulative count sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import NoiseKind, models
from .datasets import (
    DatasetKind,
    ObservationSeries,
    Release,
    SecurityRecord,
    RecordKind,
    msr_end,
)

__all__ = [
    "NoiseKind",
    "NoiseSpec",
    "SplitMix",
    "corpus_records_from_series",
    "generate",
]

_MASK64 = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15
_MIX1 = 0xFF51AFD7ED558CCD
_MIX2 = 0xC4CEB9FE1A85EC53


class SplitMix:
    """Deterministic 64-bit stream; see the module docstring for the
    exact update constants."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _WEYL) & _MASK64
        z = self._state
        z = ((z ^ (z >> 33)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 33)) * _MIX2) & _MASK64
        return z ^ (z >> 33)

    def uniform(self, low: float, high: float) -> float:
        u = (self.next_u64() >> 11) * 2.0 ** -53  # [0, 1)
        return low + (high - low) * u


@dataclass(frozen=True)
class NoiseSpec:
    kind: NoiseKind = NoiseKind.NONE
    magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.magnitude) and self.magnitude >= 0):
            raise ValueError("noise magnitude must be finite and >= 0")


def _round_half_up(v: float) -> int:
    return int(math.floor(v + 0.5))


def generate(
    model_id: str,
    params: Sequence[float],
    horizon_months: int,
    noise: NoiseSpec = NoiseSpec(),
    *,
    product: str = "synthetic",
    version: str | None = None,
    dataset_kind: DatasetKind = DatasetKind.NVD,
) -> ObservationSeries:
    """Integer cumulative counts for months 1..horizon.

    Month m gets round(curve(m) * (1 + eps_m)) for multiplicative noise
    or round(curve(m) + eps_m) for additive noise, eps_m seeded uniform
    in [-magnitude, +magnitude); counts are clamped non-negative and
    non-decreasing. Fully reproducible from the seed. A value that is not
    finite is a ValueError, with no numpy overflow warning before it.
    """
    if horizon_months < 1:
        raise ValueError("horizon must be >= 1")
    rng = SplitMix(noise.seed)
    points = []
    prev = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, horizon_months + 1):
            base = models.evaluate(model_id, params, float(m))
            if noise.kind is NoiseKind.MULTIPLICATIVE:
                value = base * (1.0 + rng.uniform(-noise.magnitude, noise.magnitude))
            elif noise.kind is NoiseKind.ADDITIVE_ROUNDED:
                value = base + rng.uniform(-noise.magnitude, noise.magnitude)
            else:
                value = base
            if not math.isfinite(value):
                raise ValueError(f"{model_id} value at month {m} is not finite: {value!r}")
            count = max(prev, 0, _round_half_up(value))
            points.append((m, float(count)))
            prev = count
    return ObservationSeries(
        product, version if version is not None else model_id, dataset_kind, tuple(points)
    )


def corpus_records_from_series(series: ObservationSeries, release: Release) -> list[SecurityRecord]:
    """Records whose NVD dataset reproduces the series counts exactly.

    Each month's increment becomes that many nvd entries published on
    the month's end date. Every nvd entry references one bug (same
    date), and each (nvd, bug) pair is clustered by one advisory, so all
    five dataset kinds are populated.
    """
    records: list[SecurityRecord] = []
    tag = f"{release.product}-{release.version}"
    prev = 0
    serial = 0
    for m, count in series.points:
        day = msr_end(release.release_date, m)
        for _ in range(int(count) - prev):
            serial += 1
            nvd_id = f"NVD-{tag}-{serial:05d}"
            bug_id = f"BUG-{tag}-{serial:05d}"
            adv_id = f"ADV-{tag}-{serial:05d}"
            records.append(SecurityRecord(bug_id, RecordKind.BUG, day))
            records.append(
                SecurityRecord(adv_id, RecordKind.ADVISORY, day, refs=frozenset({nvd_id, bug_id}))
            )
            records.append(
                SecurityRecord(
                    nvd_id,
                    RecordKind.NVD,
                    day,
                    affects=frozenset({release.version}),
                    refs=frozenset({bug_id, adv_id}),
                )
            )
        prev = int(count)
    return records
