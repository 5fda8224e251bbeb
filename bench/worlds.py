"""Seeded input worlds for the benchmark workloads.

Every world is built with ``vdmfit.simulate.generate`` (ground-truth
curves with seeded noise) and ``vdmfit.simulate.corpus_records_from_series``
(one nvd entry, one bug and one advisory per counted vulnerability), then
thinned: each nvd entry gets a *link role* that removes some of its
references, so that the five dataset kinds of one release count different
things.

The benchmark seed draws the calendar placement of the world and which
entries of a month carry which role. How many entries of each role a month
has is fixed by the workload design, so every seed asks the program for the
same fitting work, and the spread between seeds measures the machine rather
than the draw. The builder derives every dataset series itself, from the
roles, so that the program's series and fits can be checked against an
oracle that does not use ``vdmfit.datasets``.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path

from vdmfit import simulate
from vdmfit.datasets import (
    Corpus,
    DatasetKind,
    RecordKind,
    Release,
    export_corpus,
    export_releases,
    msr_end,
)
from vdmfit.models import MODEL_IDS

KINDS = tuple(k.value for k in DatasetKind)
PRODUCT = "synthetic"

# Link roles of one nvd entry: (nvd refs its bug, nvd refs its advisory,
# the advisory exists, the advisory refs the nvd entry, the advisory refs
# the bug). The bug record always exists.
_ROLES = {
    "full": (True, True, True, True, True),
    "no_direct_bug": (False, True, True, True, True),
    "no_advisory": (True, False, False, False, False),
    "advisory_without_bug": (True, True, True, True, False),
    "bare": (False, False, False, False, False),
    "orphan_advisory": (False, False, True, False, True),
}
# The i-th entry of a release has role _PATTERN[i % 12]. Per 12 entries
# NVD counts 12, NVD.Bug 6, NVD.Advice 8, NVD.Nbug 9 and Advice.Nbug 7, and
# the order makes the five kinds part ways within the first few entries.
_PATTERN = (
    "full", "no_direct_bug", "no_advisory", "bare", "no_direct_bug",
    "advisory_without_bug", "full", "orphan_advisory", "no_direct_bug",
    "full", "bare", "full",
)
# role -> dataset kinds whose selector counts the entry
_COUNTED_BY = {
    "full": {"NVD", "NVD.Bug", "NVD.Advice", "NVD.Nbug", "Advice.Nbug"},
    "no_direct_bug": {"NVD", "NVD.Advice", "NVD.Nbug", "Advice.Nbug"},
    "no_advisory": {"NVD", "NVD.Bug", "NVD.Nbug"},
    "advisory_without_bug": {"NVD", "NVD.Bug", "NVD.Advice", "NVD.Nbug"},
    "bare": {"NVD"},
    "orphan_advisory": {"NVD"},
}


@dataclass(frozen=True)
class Shape:
    """One release: its ground-truth curve, horizon and linking."""

    version: str
    model: str
    params: tuple[float, ...]
    horizon: int
    noise_seed: int
    thinned: bool = True
    include_unlinked: bool = False


@dataclass(frozen=True)
class Design:
    """What a workload runs, before the seed places it."""

    name: str
    shapes: tuple[Shape, ...]
    commands: tuple[str, ...]
    fit_models: tuple[str, ...]
    track_models: tuple[str, ...]
    multistart: int
    # first month `track` scores
    start_msr: int = 6
    noise: float = 0.03


# the README session
_SESSION = ("fit", "track", "entropy", "quality", "compare")


def _corpus_shapes(n_releases: int, scale: float, horizon: int) -> tuple[Shape, ...]:
    # ground truths that end near `scale` entries at `horizon` months
    h = float(horizon)
    curves = (
        ("AML", (6.0 / (h * scale), 1.05 * scale, math.exp(3.0) / scale)),
        ("RE", (1.2 * scale, 1.8 / h)),
        ("LP", (scale / 2.6, 12.4 / h)),
        ("LN", (scale / h, 5.0)),
        ("AT", (scale / math.log(h), 1.0)),
        ("RQ", (1.8 * scale / (h * h), 0.1 * scale / h)),
    )
    shapes = []
    for i in range(n_releases):
        model, params = curves[i % len(curves)]
        shapes.append(
            Shape(
                version=f"{i + 1}.0",
                model=model,
                params=params,
                horizon=horizon + i % 7,
                noise_seed=101 + i,
                include_unlinked=i % 10 == 3,
            )
        )
    return tuple(shapes)


def design(workload: str, size: str = "full") -> Design:
    """The fixed design of a workload. ``size`` is ``full``, or ``tiny``
    for the smoke test."""
    tiny = size == "tiny"
    if workload == "track_shared":
        # The README world (AML 0.004,120,1, 3% noise, seed 7) with every
        # entry fully linked, so its five dataset series are identical.
        # The horizon is shortened from 48 months to fit the run budget.
        return Design(
            workload,
            (Shape("AML", "AML", (0.004, 120.0, 1.0), 12, noise_seed=7,
                   thinned=False),),
            _SESSION,
            MODEL_IDS,
            MODEL_IDS,
            multistart=1 if tiny else 2,
            start_msr=11,
        )
    if workload == "track_distinct":
        horizon = 12
        shapes = (
            Shape("aml", "AML", (0.004, 120.0, 1.0), horizon, noise_seed=11),
            Shape("re", "RE", (150.0, 0.05), horizon, noise_seed=12),
            Shape("lp", "LP", (60.0, 0.3), horizon, noise_seed=13),
            Shape("ln", "LN", (9.0, 5.0), horizon, noise_seed=14),
        )
        return Design(
            workload,
            shapes[:2] if tiny else shapes,
            _SESSION,
            MODEL_IDS,
            MODEL_IDS,
            multistart=1 if tiny else 2,
            start_msr=11,
        )
    if workload == "corpus_fit":
        return Design(
            workload,
            _corpus_shapes(4, 40.0, 12) if tiny else _corpus_shapes(12, 800.0, 60),
            ("import", "fit"),
            ("AT", "LN", "RQ"),
            (),
            multistart=3,
        )
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class World:
    design: Design
    corpus_path: Path
    releases_path: Path
    as_of: date
    n_records: int
    digest: str
    # (product, version, dataset) -> cumulative counts for MSR 1..horizon,
    # derived from the roles, without vdmfit.datasets
    expected_series: dict[tuple[str, str, str], tuple[float, ...]]

    @property
    def duplicate_series_share(self) -> float:
        """1 - distinct series / series built."""
        built = list(self.expected_series.values())
        return 1.0 - len(set(built)) / len(built)

    def attempted_fits(self) -> int:
        """Rows fits.csv must hold: one per release, kind and model."""
        return len(self.expected_series) * len(self.design.fit_models)

    def attempted_track(self) -> int:
        """Rows track.csv must hold: one per release, kind, model and month
        from the design's start_msr on."""
        start = self.design.start_msr
        months = sum(max(0, len(c) - start + 1) for c in self.expected_series.values())
        return months * len(self.design.track_models)


def _roles(counts: list[int], rng: random.Random) -> dict[int, str]:
    """serial -> role. Month m holds serials counts[m-1]+1 .. counts[m];
    their roles are the pattern's for those positions, shuffled among the
    month's serials."""
    roles: dict[int, str] = {}
    prev = 0
    for count in counts:
        month_roles = [_PATTERN[i % len(_PATTERN)] for i in range(prev, count)]
        rng.shuffle(month_roles)
        for offset, role in enumerate(month_roles):
            roles[prev + 1 + offset] = role
        prev = count
    return roles


def _thin(records, roles: dict[int, str]):
    out = []
    for rec in records:
        _, rest = rec.id.split("-", 1)
        nvd_bug, nvd_adv, adv_exists, adv_nvd, adv_bug = _ROLES[roles[int(rest.rsplit("-", 1)[1])]]
        nvd_id, bug_id, adv_id = f"NVD-{rest}", f"BUG-{rest}", f"ADV-{rest}"
        if rec.kind is RecordKind.NVD:
            refs = {bug_id} if nvd_bug else set()
            out.append(replace(rec, refs=frozenset(refs | ({adv_id} if nvd_adv else set()))))
        elif rec.kind is RecordKind.ADVISORY:
            if adv_exists:
                refs = {nvd_id} if adv_nvd else set()
                out.append(replace(rec, refs=frozenset(refs | ({bug_id} if adv_bug else set()))))
        else:
            out.append(rec)
    return out


def _expected_counts(counts: list[int], roles: dict[int, str] | None) -> dict[str, list[int]]:
    """Cumulative count per dataset kind and month, from the roles alone."""
    if roles is None:
        return {kind: list(counts) for kind in KINDS}
    totals = dict.fromkeys(KINDS, 0)
    out: dict[str, list[int]] = {kind: [] for kind in KINDS}
    prev = 0
    for count in counts:
        for serial in range(prev + 1, count + 1):
            for kind in _COUNTED_BY[roles[serial]]:
                totals[kind] += 1
        for kind in KINDS:
            out[kind].append(totals[kind])
        prev = count
    return out


def build(workload: str, seed: int, out_dir: Path, size: str = "full") -> World:
    """Write corpus.ndjson and releases.json for one seeded world into
    ``out_dir`` and return its description."""
    spec = design(workload, size)
    rng = random.Random(f"{workload}/{seed}")
    end_month = (2006 + rng.randrange(8)) * 12 + rng.randrange(12)

    records = []
    releases = []
    placed = []  # (shape, release, base counts, roles)
    for shape in spec.shapes:
        start = end_month - shape.horizon
        release = Release(
            PRODUCT,
            shape.version,
            date(start // 12, start % 12 + 1, 1 + rng.randrange(28)),
            include_unlinked_advisory_bugs=shape.include_unlinked,
        )
        noise = simulate.NoiseSpec(simulate.NoiseKind.MULTIPLICATIVE, spec.noise, shape.noise_seed)
        series = simulate.generate(
            shape.model, shape.params, shape.horizon, noise,
            product=PRODUCT, version=shape.version,
        )
        counts = [int(c) for c in series.counts]
        full = simulate.corpus_records_from_series(series, release)
        roles = _roles(counts, rng) if shape.thinned else None
        records.extend(_thin(full, roles) if roles else full)
        releases.append(release)
        placed.append((shape, release, counts, roles))

    as_of = msr_end(releases[0].release_date, spec.shapes[0].horizon)

    # Advice.Nbug of an include_unlinked release also counts the bug of
    # every orphan advisory in the corpus, dated by the bug
    orphan_dates = []
    for _, release, counts, roles in placed:
        prev = 0
        for m, count in enumerate(counts, start=1):
            orphans = sum(1 for s in range(prev + 1, count + 1)
                          if roles and roles[s] == "orphan_advisory")
            orphan_dates.extend([msr_end(release.release_date, m)] * orphans)
            prev = count
    orphan_dates.sort()

    expected: dict[tuple[str, str, str], tuple[float, ...]] = {}
    for shape, release, counts, roles in placed:
        for kind, cum in _expected_counts(counts, roles).items():
            if kind == "Advice.Nbug" and release.include_unlinked_advisory_bugs:
                cum = [
                    c + bisect_right(orphan_dates, msr_end(release.release_date, m))
                    for m, c in enumerate(cum, start=1)
                ]
            expected[(PRODUCT, shape.version, kind)] = tuple(float(c) for c in cum)

    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = out_dir / "corpus.ndjson"
    releases_path = out_dir / "releases.json"
    corpus = Corpus(records)
    if corpus.dropped_refs:
        raise RuntimeError(f"{workload}: world has dangling references")
    export_corpus(corpus, corpus_path)
    export_releases(releases, releases_path)
    digest = hashlib.sha256(corpus_path.read_bytes() + releases_path.read_bytes()).hexdigest()
    return World(spec, corpus_path, releases_path, as_of, len(corpus), digest[:16], expected)
