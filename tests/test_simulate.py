import math

import pytest

from vdmfit.datasets import (
    Corpus,
    DatasetKind,
    Release,
    build_series,
    msr_end,
    select_dataset,
)
from vdmfit.models import evaluate
from vdmfit.simulate import (
    NoiseKind,
    NoiseSpec,
    SplitMix,
    corpus_records_from_series,
    generate,
)
from datetime import date

from oracles import exact_series


def test_splitmix_is_reproducible_and_seed_sensitive():
    a = [SplitMix(42).next_u64() for _ in range(5)]
    b = [SplitMix(42).next_u64() for _ in range(5)]
    c = [SplitMix(43).next_u64() for _ in range(5)]
    assert a == b
    assert a != c
    assert all(0 <= v < 2 ** 64 for v in a)


def test_splitmix_uniform_range():
    rng = SplitMix(7)
    values = [rng.uniform(-0.5, 0.5) for _ in range(1000)]
    assert all(-0.5 <= v < 0.5 for v in values)
    assert abs(sum(values) / len(values)) < 0.05


def test_linear_counts_without_noise():
    series = generate("LN", (1.0, 0.0), 5)
    assert series.points == ((1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 5.0))


def test_zero_magnitude_equals_rounded_curve():
    for kind in NoiseKind:
        series = generate("RE", (100.0, 0.05), 30, NoiseSpec(kind, 0.0, seed=5))
        for m, count in series.points:
            assert count == round(evaluate("RE", (100.0, 0.05), float(m)))


def test_fixed_seed_bytewise_identical():
    spec = NoiseSpec(NoiseKind.MULTIPLICATIVE, 0.05, seed=42)
    one = generate("RE", (100.0, 0.05), 60, spec)
    two = generate("RE", (100.0, 0.05), 60, spec)
    assert one == two


def test_different_seeds_differ():
    a = generate("RE", (100.0, 0.05), 12, NoiseSpec(NoiseKind.MULTIPLICATIVE, 0.05, 1))
    b = generate("RE", (100.0, 0.05), 12, NoiseSpec(NoiseKind.MULTIPLICATIVE, 0.05, 2))
    assert a.points != b.points


def test_generated_series_is_valid_cumulative():
    spec = NoiseSpec(NoiseKind.MULTIPLICATIVE, 0.3, seed=9)
    series = generate("RQ", (0.05, 1.0), 48, spec)
    counts = series.counts
    assert counts[0] >= 0
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert all(c == int(c) for c in counts)
    assert series.months == tuple(range(1, 49))


def test_additive_noise_kind():
    spec = NoiseSpec(NoiseKind.ADDITIVE_ROUNDED, 3.0, seed=4)
    series = generate("LN", (2.0, 5.0), 40, spec)
    for m, count in series.points:
        assert abs(count - (2.0 * m + 5.0)) <= 4.0


def test_exact_series_keeps_float_values():
    series = exact_series("RE", (100.0, 0.05), 10)
    for m, count in series.points:
        assert count == evaluate("RE", (100.0, 0.05), float(m))


def test_corpus_round_trips_all_dataset_kinds():
    release = Release("synthetic", "RE", date(2005, 1, 1))
    series = generate("RE", (60.0, 0.08), 24, version="RE")
    corpus = Corpus(corpus_records_from_series(series, release))
    as_of = msr_end(release.release_date, series.last_msr)
    for kind in DatasetKind:
        vulns = select_dataset(corpus, kind, release)
        rebuilt = build_series(vulns, release, as_of, kind)
        assert rebuilt.counts == series.counts, kind


def test_noise_magnitude_validation():
    for magnitude in (-0.1, math.nan, math.inf):
        for kind in NoiseKind:
            with pytest.raises(ValueError, match="finite and >= 0"):
                NoiseSpec(kind, magnitude, 0)
    with pytest.raises(ValueError):
        generate("LN", (1.0, 0.0), 0)
