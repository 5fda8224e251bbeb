"""Normalized vulnerability-record corpus and monthly observation series.

A corpus is a set of records of three kinds (third-party nvd entries,
vendor bug reports, vendor security advisories) with outgoing
references. Five dataset selectors turn a corpus into "what counts as a
vulnerability of release X" under five different definitions, and
``build_series`` buckets the selected publication dates onto the
months-since-release (MSR) timeline: MSR m ends at the last day of the
m-th calendar month after the release month, so a September release has
its first observation point on 31 October.

The selectors read one index per corpus, built in a single pass over
the records the first time a selector uses that corpus, and cached on
it: the nvd entries affecting each version, and what one nvd entry
contributes to each kind. NVD counts the entry,
NVD.Bug and NVD.Advice count it when it refs a bug or an advisory,
NVD.Nbug counts the bugs linked to it by either rule, and Advice.Nbug
the bugs of every advisory that refs it. A release may opt into the
bugs of advisories that ref no nvd entry as well. After that build, a
``select_dataset`` call costs about the size of the release's nvd list
plus its output, not the size of the corpus.
"""

from __future__ import annotations

import calendar
import json
import logging
import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import asdict, dataclass, replace
from datetime import date
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

log = logging.getLogger(__name__)

__all__ = [
    "Corpus",
    "DatasetKind",
    "DuplicateIdError",
    "EmptyWindowError",
    "ObservationSeries",
    "ParseError",
    "RecordKind",
    "Release",
    "SecurityRecord",
    "build_series",
    "export_corpus",
    "export_releases",
    "import_corpus",
    "import_releases",
    "iso_date",
    "msr_end",
    "select_dataset",
]


class ParseError(ValueError):
    pass


class DuplicateIdError(ValueError):
    pass


class EmptyWindowError(ValueError):
    pass


class RecordKind(Enum):
    NVD = "nvd"
    BUG = "bug"
    ADVISORY = "advisory"


class DatasetKind(Enum):
    NVD = "NVD"
    NVD_BUG = "NVD.Bug"
    NVD_ADVICE = "NVD.Advice"
    NVD_NBUG = "NVD.Nbug"
    ADVICE_NBUG = "Advice.Nbug"


@dataclass(frozen=True)
class SecurityRecord:
    """One normalized vulnerability-source entry with cross-references."""

    id: str
    kind: RecordKind
    published: date
    affects: frozenset[str] = frozenset()
    refs: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Release:
    product: str
    version: str
    release_date: date
    # opt-in corpus-specific rule: count bugs from advisories that carry
    # no nvd links at all (the Firefox 1.0 situation)
    include_unlinked_advisory_bugs: bool = False


@dataclass(frozen=True)
class ObservationSeries:
    """Cumulative counts per MSR for one (release, dataset) pair.

    Points are normalized to msr order at construction; msr values must
    be positive and distinct, counts non-negative and non-decreasing.
    Counts are floats so synthetic oracle curves can carry exact values;
    corpus-derived series are integer-valued.
    """

    product: str
    version: str
    dataset_kind: DatasetKind
    points: tuple[tuple[int, float], ...]

    def __post_init__(self):
        pts = tuple(sorted((int(m), float(c)) for m, c in self.points))
        if not pts:
            raise ValueError("series needs at least one point")
        months = [m for m, _ in pts]
        if months[0] < 1:
            raise ValueError(f"msr must be >= 1, got {months[0]}")
        if len(set(months)) != len(months):
            raise ValueError("duplicate msr values")
        counts = [c for _, c in pts]
        if not all(math.isfinite(c) for c in counts):
            raise ValueError("counts must be finite")
        if counts[0] < 0:
            raise ValueError("counts must be non-negative")
        for prev, cur in zip(counts, counts[1:]):
            if cur < prev:
                raise ValueError("cumulative counts must be non-decreasing")
        object.__setattr__(self, "points", pts)

    @property
    def months(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.points)

    @property
    def counts(self) -> tuple[float, ...]:
        return tuple(c for _, c in self.points)

    @property
    def last_msr(self) -> int:
        return self.points[-1][0]

    def truncated(self, max_msr: int) -> "ObservationSeries":
        """The prefix of points with msr <= max_msr."""
        return replace(self, points=tuple(p for p in self.points if p[0] <= max_msr))

    def key(self) -> tuple[str, str, str]:
        return (self.product, self.version, self.dataset_kind.value)


class Corpus:
    """Immutable record store with unique ids; dangling refs are dropped
    (and counted) at construction."""

    def __init__(self, records: Iterable[SecurityRecord]):
        store: dict[str, SecurityRecord] = {}
        for rec in records:
            if rec.id in store:
                raise DuplicateIdError(f"duplicate record id {rec.id!r}")
            store[rec.id] = rec
        # one pass finds the records with a dangling ref; only they are replaced
        ids = store.keys()
        dropped: list[tuple[str, str]] = []
        for rec in [rec for rec in store.values() if not ids >= rec.refs]:
            dangling = rec.refs - ids
            dropped.extend((rec.id, ref) for ref in sorted(dangling))
            store[rec.id] = replace(rec, refs=rec.refs - dangling)
        self._records = store
        self.dropped_refs: tuple[tuple[str, str], ...] = tuple(dropped)
        for rid, ref in dropped:
            log.warning("record %s: dropping dangling reference %s", rid, ref)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SecurityRecord]:
        return iter(self._records.values())

    @cached_property
    def _index(self) -> "_CorpusIndex":
        # built by the first selector call rather than here, so a corpus
        # that is never selected from never pays for it
        return _index_corpus(self)


class _CorpusIndex(NamedTuple):
    """What one nvd entry contributes to each dataset kind, gathered in
    one pass over a corpus."""

    nvds_by_version: dict[str, list[str]]  # version -> nvd ids, in corpus order
    counted: dict[DatasetKind, dict[str, Sequence[str]]]  # kind -> nvd id -> ids it counts
    orphan_bugs: list[str]  # bugs of advisories that ref no nvd entry


def _index_corpus(corpus: Corpus) -> _CorpusIndex:
    # plain dict and local lookups: this loop visits every record and ref
    records = corpus._records
    nvd_kind, bug_kind, advisory_kind = RecordKind.NVD, RecordKind.BUG, RecordKind.ADVISORY
    nvds_by_version: dict[str, list[str]] = defaultdict(list)
    itself, with_bug, with_advisory = {}, {}, {}  # nvd id -> (nvd id,)
    linked_bugs, advisory_bugs = defaultdict(list), defaultdict(list)  # nvd id -> bug ids
    orphan_bugs: list[str] = []
    for rec in corpus:
        rid = rec.id
        if rec.kind is nvd_kind:
            # one tuple for the three kinds that count the entry itself
            itself[rid] = own = (rid,)
            for version in rec.affects:
                nvds_by_version[version].append(rid)
            for ref in rec.refs:
                ref_kind = records[ref].kind
                if ref_kind is bug_kind:
                    with_bug[rid] = own
                    linked_bugs[rid].append(ref)
                elif ref_kind is advisory_kind:
                    with_advisory[rid] = own
        elif rec.kind is advisory_kind:
            bugs = [r for r in rec.refs if records[r].kind is bug_kind]
            nvds = [r for r in rec.refs if records[r].kind is nvd_kind]
            if not nvds:
                orphan_bugs.extend(bugs)
            for nvd in nvds:
                linked_bugs[nvd].extend(bugs)
                advisory_bugs[nvd].extend(bugs)
    counted = {
        DatasetKind.NVD: itself,
        DatasetKind.NVD_BUG: with_bug,
        DatasetKind.NVD_ADVICE: with_advisory,
        DatasetKind.NVD_NBUG: dict(linked_bugs),
        DatasetKind.ADVICE_NBUG: dict(advisory_bugs),
    }
    return _CorpusIndex(dict(nvds_by_version), counted, orphan_bugs)


def select_dataset(
    corpus: Corpus, kind: DatasetKind, release: Release
) -> dict[str, date]:
    """Vulnerability ids with attributed publish dates for one release
    under one dataset definition: what the release's nvd entries
    contribute to ``kind``, each id dated by its own record.

    NVD / NVD.Bug / NVD.Advice count nvd entries; NVD.Nbug and
    Advice.Nbug count vendor bug reports.
    """
    if not isinstance(kind, DatasetKind):
        raise ValueError(f"unknown dataset kind {kind!r}")
    index, records = corpus._index, corpus._records
    counted = index.counted[kind]
    vulns = {
        i: records[i].published
        for nvd in index.nvds_by_version.get(release.version, ())
        for i in counted.get(nvd, ())
    }
    if kind is DatasetKind.ADVICE_NBUG and release.include_unlinked_advisory_bugs:
        vulns.update((b, records[b].published) for b in index.orphan_bugs)
    return vulns


def msr_end(release_date: date, msr: int) -> date:
    """Last day of MSR number ``msr``: the end of the calendar month
    ``msr`` months after the release month."""
    if msr < 1:
        raise ValueError(f"msr must be >= 1, got {msr}")
    total = release_date.year * 12 + (release_date.month - 1) + msr
    year, month0 = divmod(total, 12)
    if year > date.max.year:
        raise ValueError(f"MSR {msr} of a release dated {release_date} ends after {date.max}")
    return date(year, month0 + 1, calendar.monthrange(year, month0 + 1)[1])


def build_series(
    vulns: Mapping[str, date],
    release: Release,
    as_of: date,
    dataset_kind: DatasetKind,
) -> ObservationSeries:
    """Cumulative counts at every complete month end up to ``as_of``."""
    start = release.release_date
    # the last complete month is as_of's own, unless as_of is not the last day of it
    last = (as_of.year - start.year) * 12 + as_of.month - start.month
    if as_of.day < calendar.monthrange(as_of.year, as_of.month)[1]:
        last -= 1
    if last < 1:
        end = msr_end(start, 1) if start < date.max.replace(day=1) else f"after {date.max}"
        raise EmptyWindowError(
            f"as_of {as_of} precedes the end of MSR 1 ({end}) for "
            f"{release.product} {release.version}"
        )
    dates = sorted(vulns.values())
    points = tuple((m, float(bisect_right(dates, msr_end(start, m)))) for m in range(1, last + 1))
    return ObservationSeries(release.product, release.version, dataset_kind, points)


def iso_date(text: str) -> date:
    """``text`` as a date, strictly YYYY-MM-DD (3.11 also reads 20090131
    and 2009-W05-6)."""
    day = date.fromisoformat(text)
    if day.isoformat() != text:
        raise ValueError(f"not a date YYYY-MM-DD: {text!r}")
    return day


_JSON_TYPE_NAMES = {str: "a string", list: "an array of strings", bool: "true or false"}
_RECORD_KINDS = {kind.value: kind for kind in RecordKind}
_EMPTY: frozenset[str] = frozenset()  # one for all: most records lack affects or refs


def _json_field(obj: dict, key: str, kind: type, default: object = None) -> object:
    """``obj[key]`` (``default`` when given and the key is absent), which
    must be a ``kind``: a str, a bool, or a list of strings."""
    value = obj[key] if default is None else obj.get(key, default)
    if isinstance(value, kind):
        for item in value if kind is list else ():
            if not isinstance(item, str):
                break
        else:
            return value
    raise TypeError(f"{key} must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")


def _record_from_json(obj: object, dates: dict[str, date]) -> SecurityRecord:
    if not isinstance(obj, dict):
        raise ValueError("a record must be a JSON object")
    rid = obj["id"]
    try:
        kind = _RECORD_KINDS[obj["kind"]]
    except (KeyError, TypeError):  # absent or no kind: raises KeyError, or RecordKind's error
        kind = RecordKind(obj["kind"])
    try:
        published = dates[obj["published"]]
    except (KeyError, TypeError):  # a new text; absent or no str raises KeyError or iso_date's
        published = dates[obj["published"]] = iso_date(obj["published"])
    affects = frozenset(_json_field(obj, "affects", list, [])) or _EMPTY
    refs = frozenset(_json_field(obj, "refs", list, [])) or _EMPTY
    if not isinstance(rid, str) or not rid:
        raise ValueError("record id must be a non-empty string")
    return SecurityRecord(rid, kind, published, affects, refs)


def import_corpus(path: Union[str, Path]) -> Corpus:
    """Read a newline-delimited JSON corpus file.

    One record per line: {"id", "kind", "published", "affects", "refs"},
    where ``affects`` and ``refs`` (optional) are arrays of strings.
    Raises ParseError with the offending line number, DuplicateIdError
    on repeated ids; dangling refs are dropped with a warning.
    """
    records = []
    dates: dict[str, date] = {}  # each published text iso_date accepted, and its date
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(_record_from_json(json.loads(line), dates))
                except KeyError as exc:
                    raise ParseError(f"{path}: line {lineno}: missing key {exc}") from exc
                except (TypeError, ValueError) as exc:  # bad JSON as well
                    raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        except UnicodeDecodeError as exc:  # decoded a block at a time, so no line to name
            raise ParseError(f"{path}: {exc}") from None
    return Corpus(records)


def export_corpus(corpus: Corpus, path: Union[str, Path]) -> None:
    """Write the corpus back out as newline-delimited JSON (sorted by id),
    each line as ``json.dumps(record, sort_keys=True)`` writes it."""
    # spelled out: json.dumps builds an encoder per call, dearer than the line
    def strings(values: frozenset[str]) -> str:
        return ", ".join(map(_json_string, sorted(values)))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            f'{{"affects": [{strings(rec.affects)}], "id": {_json_string(rec.id)}, '
            f'"kind": "{rec.kind.value}", "published": "{rec.published}", '
            f'"refs": [{strings(rec.refs)}]}}\n'
            for rec in sorted(corpus, key=lambda r: r.id)
        )


def import_releases(path: Union[str, Path]) -> list[Release]:
    """Read a JSON array of releases: ``product`` and ``version`` are
    strings, ``include_unlinked_advisory_bugs`` (optional) is a boolean.
    Raises ParseError naming the release index, DuplicateIdError on a
    repeated (product, version)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # bad JSON, or a byte that is not UTF-8
            raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, list):
        raise ParseError(f"{path}: expected a JSON array of releases")
    releases = []
    for i, obj in enumerate(raw):
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: release #{i}: a release must be a JSON object")
        try:
            releases.append(
                Release(
                    product=_json_field(obj, "product", str),
                    version=_json_field(obj, "version", str),
                    release_date=iso_date(obj["release_date"]),
                    include_unlinked_advisory_bugs=_json_field(
                        obj, "include_unlinked_advisory_bugs", bool, False
                    ),
                )
            )
        except KeyError as exc:
            raise ParseError(f"{path}: release #{i}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: release #{i}: {exc}") from exc
    seen = set()
    for r in releases:
        key = (r.product, r.version)
        if key in seen:
            raise DuplicateIdError(f"{path}: duplicate release {key}")
        seen.add(key)
    return releases


def export_releases(releases: Sequence[Release], path: Union[str, Path]) -> None:
    payload = [asdict(r) | {"release_date": r.release_date.isoformat()} for r in releases]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
