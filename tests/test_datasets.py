import calendar
import json
import random
import re
from datetime import date, timedelta

import pytest

from vdmfit.datasets import (
    Corpus,
    DatasetKind,
    DuplicateIdError,
    EmptyWindowError,
    ObservationSeries,
    ParseError,
    RecordKind,
    Release,
    SecurityRecord,
    build_series,
    export_corpus,
    import_corpus,
    import_releases,
    msr_end,
    select_dataset,
)

from oracles import link_bugs_to_nvd

VERSIONS = ("1.0", "2.0", "3.6")


def _rec(rid, kind, published="2006-03-10", affects=(), refs=()):
    return SecurityRecord(
        rid, kind, date.fromisoformat(published), frozenset(affects), frozenset(refs)
    )


def random_corpus(rng, n_nvd=15, n_bug=20, n_adv=8):
    """Random but internally consistent corpus over the VERSIONS pool."""
    base = date(2005, 6, 1)
    records = []
    bugs = [f"B{i}" for i in range(n_bug)]
    nvds = [f"N{i}" for i in range(n_nvd)]
    advs = [f"A{i}" for i in range(n_adv)]
    for b in bugs:
        records.append(
            SecurityRecord(b, RecordKind.BUG, base + timedelta(days=rng.randrange(1200)))
        )
    for n in nvds:
        affects = frozenset(v for v in VERSIONS if rng.random() < 0.5)
        refs = set(rng.sample(bugs, rng.randrange(0, 3)))
        if rng.random() < 0.4:
            refs |= set(rng.sample(advs, rng.randrange(0, 2)))
        records.append(
            SecurityRecord(
                n, RecordKind.NVD, base + timedelta(days=rng.randrange(1200)), affects, frozenset(refs)
            )
        )
    for a in advs:
        refs = set(rng.sample(bugs, rng.randrange(0, 4))) | set(
            rng.sample(nvds, rng.randrange(0, 3))
        )
        records.append(
            SecurityRecord(a, RecordKind.ADVISORY, base + timedelta(days=rng.randrange(1200)), refs=frozenset(refs))
        )
    return Corpus(records)


# --- linking -----------------------------------------------------------------


def test_link_rule_1_nvd_references_bug():
    corpus = Corpus(
        [
            _rec("B1", RecordKind.BUG),
            _rec("N1", RecordKind.NVD, refs={"B1"}),
        ]
    )
    assert link_bugs_to_nvd(corpus) == {("B1", "N1")}


def test_link_rule_2_advisory_clusters_bug_and_nvd():
    corpus = Corpus(
        [
            _rec("B2", RecordKind.BUG),
            _rec("N2", RecordKind.NVD),
            _rec("A1", RecordKind.ADVISORY, refs={"B2", "N2"}),
        ]
    )
    assert link_bugs_to_nvd(corpus) == {("B2", "N2")}


def brute_force_links(corpus):
    """Independent re-statement: try every (bug, nvd) pair against both
    rules, enumerating all advisories for rule 2."""
    edges = set()
    records = list(corpus)
    for bug in records:
        if bug.kind is not RecordKind.BUG:
            continue
        for nvd in records:
            if nvd.kind is not RecordKind.NVD:
                continue
            if bug.id in nvd.refs:
                edges.add((bug.id, nvd.id))
            for adv in records:
                if adv.kind is not RecordKind.ADVISORY:
                    continue
                if bug.id in adv.refs and nvd.id in adv.refs:
                    edges.add((bug.id, nvd.id))
    return edges


def test_linking_matches_triple_enumeration_on_random_corpora():
    rng = random.Random(2012)
    for _ in range(25):
        corpus = random_corpus(rng, n_nvd=8, n_bug=8, n_adv=4)
        assert set(link_bugs_to_nvd(corpus)) == brute_force_links(corpus)


# --- dataset selectors -------------------------------------------------------


def selector_oracle(corpus, kind, release):
    """The five definitions restated as direct set comprehensions."""
    records = list(corpus)
    x = release.version
    nvd = {r.id: r.published for r in records if r.kind is RecordKind.NVD and x in r.affects}
    by_id = {r.id: r for r in records}
    if kind is DatasetKind.NVD:
        return nvd
    if kind is DatasetKind.NVD_BUG:
        return {
            i: d
            for i, d in nvd.items()
            if any(by_id[ref].kind is RecordKind.BUG for ref in by_id[i].refs)
        }
    if kind is DatasetKind.NVD_ADVICE:
        return {
            i: d
            for i, d in nvd.items()
            if any(by_id[ref].kind is RecordKind.ADVISORY for ref in by_id[i].refs)
        }
    if kind is DatasetKind.NVD_NBUG:
        return {
            b: by_id[b].published
            for (b, n) in brute_force_links(corpus)
            if n in nvd
        }
    out = {}
    for adv in records:
        if adv.kind is not RecordKind.ADVISORY:
            continue
        adv_nvds = {r for r in adv.refs if by_id[r].kind is RecordKind.NVD}
        linked = bool(adv_nvds & nvd.keys())
        orphan = release.include_unlinked_advisory_bugs and not adv_nvds
        if linked or orphan:
            for r in adv.refs:
                if by_id[r].kind is RecordKind.BUG:
                    out[r] = by_id[r].published
    return out


def test_selectors_match_oracle_on_random_corpora():
    # every kind for every release on one Corpus, so all calls after the
    # first read the index the first one built
    rng = random.Random(7)
    for i in range(40):
        records = list(random_corpus(rng))
        # BX is linked to NX by both rules; the GHOST refs dangle
        records += [
            _rec("BX", RecordKind.BUG),
            _rec("NX", RecordKind.NVD, affects={VERSIONS[0]}, refs={"BX", "GHOST-1"}),
            _rec("AX", RecordKind.ADVISORY, refs={"BX", "NX", "GHOST-2"}),
        ]
        corpus = Corpus(records)
        assert corpus.dropped_refs == (("NX", "GHOST-1"), ("AX", "GHOST-2"))
        assert ("BX", "NX") in link_bugs_to_nvd(corpus)
        releases = [
            Release("ff", version, date(2005, 1, 1), flag)
            for version in VERSIONS + ("9.9",)  # no record affects 9.9
            for flag in (False, True)
        ]
        for release in rng.sample(releases, len(releases)):
            for kind in DatasetKind:
                assert select_dataset(corpus, kind, release) == selector_oracle(
                    corpus, kind, release
                ), (i, kind, release)
        assert set(link_bugs_to_nvd(corpus)) == brute_force_links(corpus)
        assert select_dataset(corpus, DatasetKind.NVD, releases[-1]) == {}


def test_selectors_never_rescan_the_corpus(monkeypatch):
    iterations = []
    records_of = Corpus.__iter__

    def counting_iter(self):
        iterations.append(1)
        return records_of(self)

    monkeypatch.setattr(Corpus, "__iter__", counting_iter)
    corpus = random_corpus(random.Random(5))
    assert not iterations  # the index is not built at construction
    release = Release("ff", VERSIONS[0], date(2005, 1, 1))
    select_dataset(corpus, DatasetKind.NVD, release)
    assert len(iterations) == 1  # the one pass that builds the index
    for version in VERSIONS + ("9.9",):
        for flag in (False, True):
            for kind in DatasetKind:
                select_dataset(corpus, kind, Release("ff", version, date(2005, 1, 1), flag))
    link_bugs_to_nvd(corpus)
    assert len(iterations) == 1


def test_every_nvd_with_bug_ref_degenerates_to_equality():
    corpus = Corpus(
        [_rec(f"B{i}", RecordKind.BUG) for i in range(4)]
        + [
            _rec(f"N{i}", RecordKind.NVD, affects={"1.0"}, refs={f"B{i}"})
            for i in range(4)
        ]
    )
    release = Release("ff", "1.0", date(2005, 1, 1))
    assert len(select_dataset(corpus, DatasetKind.NVD_BUG, release)) == len(
        select_dataset(corpus, DatasetKind.NVD, release)
    )


def test_subset_invariants_on_random_corpora():
    rng = random.Random(99)
    for _ in range(20):
        corpus = random_corpus(rng)
        release = Release("ff", rng.choice(VERSIONS), date(2005, 1, 1))
        n = select_dataset(corpus, DatasetKind.NVD, release)
        assert set(select_dataset(corpus, DatasetKind.NVD_BUG, release)) <= set(n)
        assert set(select_dataset(corpus, DatasetKind.NVD_ADVICE, release)) <= set(n)


def test_multiplier_relation_with_distinct_bugs_per_nvd():
    # when every selected nvd entry references its own bugs, counting the
    # bugs can only multiply the nvd-with-bug count
    rng = random.Random(8)
    for _ in range(20):
        records = []
        serial = 0
        for i in range(rng.randint(2, 10)):
            bug_ids = []
            for _ in range(rng.randint(1, 3)):
                serial += 1
                bug_ids.append(f"B{serial}")
                records.append(_rec(bug_ids[-1], RecordKind.BUG))
            records.append(
                _rec(f"N{i}", RecordKind.NVD, affects={"1.0"}, refs=set(bug_ids))
            )
        corpus = Corpus(records)
        release = Release("ff", "1.0", date(2005, 1, 1))
        nvd_bug = select_dataset(corpus, DatasetKind.NVD_BUG, release)
        nvd_nbug = select_dataset(corpus, DatasetKind.NVD_NBUG, release)
        assert len(nvd_nbug) >= len(nvd_bug)


def test_unlinked_advisory_flag():
    corpus = Corpus(
        [
            _rec("B1", RecordKind.BUG),
            _rec("A1", RecordKind.ADVISORY, refs={"B1"}),  # no nvd link at all
        ]
    )
    strict = Release("ff", "1.0", date(2004, 11, 9))
    lenient = Release("ff", "1.0", date(2004, 11, 9), include_unlinked_advisory_bugs=True)
    assert select_dataset(corpus, DatasetKind.ADVICE_NBUG, strict) == {}
    assert set(select_dataset(corpus, DatasetKind.ADVICE_NBUG, lenient)) == {"B1"}
    # a kind's name is not a kind: the table lookup must not accept it
    with pytest.raises(ValueError, match="unknown dataset kind 'NVD'"):
        select_dataset(corpus, "NVD", lenient)


def browser_vulnerability_space_corpus():
    """6 advisories clustering 10 nvd entries and 14 bugs for one version,
    so the three counting perspectives disagree (6 vs 10 vs 14)."""
    advisory_refs = {
        "A1": ({"N1", "N2"}, {"B1", "B2", "B3"}),
        "A2": ({"N3"}, {"B4", "B5"}),
        "A3": ({"N4", "N5"}, {"B6", "B7"}),
        "A4": ({"N6"}, {"B8", "B9", "B10"}),
        "A5": ({"N7", "N8"}, {"B11", "B12"}),
        "A6": ({"N9", "N10"}, {"B13", "B14"}),
    }
    records = [_rec(f"B{i}", RecordKind.BUG) for i in range(1, 15)]
    records += [
        _rec(f"N{i}", RecordKind.NVD, affects={"1.0"}) for i in range(1, 11)
    ]
    records += [
        _rec(a, RecordKind.ADVISORY, refs=nvds | bugs)
        for a, (nvds, bugs) in advisory_refs.items()
    ]
    return Corpus(records), Release("ff", "1.0", date(2004, 11, 9))


def counting_perspective_sizes(corpus, release):
    """(advisory, nvd, bug) counts of the same vulnerability space."""
    nvd_count = len(select_dataset(corpus, DatasetKind.NVD, release))
    bug_count = len(select_dataset(corpus, DatasetKind.ADVICE_NBUG, release))
    selected = set(select_dataset(corpus, DatasetKind.NVD, release))
    advisory_count = sum(
        1 for r in corpus if r.kind is RecordKind.ADVISORY and r.refs & selected
    )
    return advisory_count, nvd_count, bug_count


def test_counting_perspectives_disagree_6_10_14():
    corpus, release = browser_vulnerability_space_corpus()
    assert counting_perspective_sizes(corpus, release) == (6, 10, 14)


# --- MSR timeline ------------------------------------------------------------


def test_msr_anchor_september_release():
    # a September 1997 release has its first month end on 31 October 1997
    assert msr_end(date(1997, 9, 1), 1) == date(1997, 10, 31)
    assert msr_end(date(1997, 9, 30), 1) == date(1997, 10, 31)
    assert msr_end(date(1997, 9, 15), 6) == date(1998, 3, 31)


def test_month_end_handles_leap_years():
    assert msr_end(date(2004, 1, 10), 1) == date(2004, 2, 29)
    assert msr_end(date(1900, 1, 10), 1) == date(1900, 2, 28)


def test_single_early_vulnerability_counts_from_month_one():
    release = Release("ff", "1.0", date(2005, 3, 20))
    vulns = {"N1": date(2005, 3, 30)}  # ten days after release
    series = build_series(vulns, release, date(2006, 3, 31), DatasetKind.NVD)
    assert series.counts == tuple([1.0] * len(series.counts))
    assert series.months[0] == 1


def test_empty_window():
    release = Release("ff", "1.0", date(2005, 3, 20))
    with pytest.raises(EmptyWindowError):
        build_series({}, release, date(2005, 4, 29), DatasetKind.NVD)
    # as_of exactly on the first month end gives a one-point series
    series = build_series({}, release, date(2005, 4, 30), DatasetKind.NVD)
    assert series.points == ((1, 0.0),)


def test_build_series_brute_force_date_bucketing():
    rng = random.Random(31)
    release = Release("x", "1.0", date(2006, 7, 14))
    vulns = {
        f"V{i}": date(2006, 7, 1) + timedelta(days=rng.randrange(0, 900))
        for i in range(500)
    }
    as_of = date(2009, 1, 31)
    series = build_series(vulns, release, as_of, DatasetKind.NVD)
    for m, count in series.points:
        end = msr_end(release.release_date, m)
        expected = sum(1 for d in vulns.values() if d <= end)
        assert count == expected
    assert series.months == tuple(range(1, len(series.points) + 1))
    assert msr_end(release.release_date, series.last_msr + 1) > as_of


def test_build_series_counts_the_complete_months_up_to_any_date():
    release = Release("ff", "1.0", date(2005, 3, 20))
    for day in range(760):
        as_of = date(2005, 3, 1) + timedelta(days=day)
        complete = [m for m in range(1, 26) if msr_end(release.release_date, m) <= as_of]
        if not complete:
            with pytest.raises(EmptyWindowError):
                build_series({}, release, as_of, DatasetKind.NVD)
        else:
            assert build_series({}, release, as_of, DatasetKind.NVD).months == tuple(complete)
    # up to the last date, whose next month end is not a date
    release = Release("ff", "1.0", date(9998, 11, 15))
    series = build_series({"N1": date.max}, release, date.max, DatasetKind.NVD)
    assert series.points == tuple((m, float(m == 13)) for m in range(1, 14))


def test_build_series_shift_equivariance():
    # every (shift, day offset) pair: 0-60 months, 0-27 days into February 2005
    def months_shifted(d, k):
        total = d.year * 12 + (d.month - 1) + k
        year, month0 = divmod(total, 12)
        day = min(d.day, calendar.monthrange(year, month0 + 1)[1])
        return date(year, month0 + 1, day)

    vuln_offsets = [10, 95, 200, 400]
    for day_offset in range(28):
        base_release = date(2005, 2, 1) + timedelta(days=day_offset)
        release_a = Release("p", "v", base_release)
        vulns_a = {f"V{i}": base_release + timedelta(days=o) for i, o in enumerate(vuln_offsets)}
        series_a = build_series(vulns_a, release_a, msr_end(base_release, 24), DatasetKind.NVD)
        assert len(series_a.points) == 24
        for shift_months in range(61):
            shifted = months_shifted(base_release, shift_months)
            release_b = Release("p", "v", shifted)
            vulns_b = {k: months_shifted(d, shift_months) for k, d in vulns_a.items()}
            series_b = build_series(vulns_b, release_b, msr_end(shifted, 24), DatasetKind.NVD)
            assert series_b.points == series_a.points, (shift_months, day_offset)


def test_observation_series_validation():
    with pytest.raises(ValueError):
        ObservationSeries("p", "v", DatasetKind.NVD, ())
    with pytest.raises(ValueError):
        ObservationSeries("p", "v", DatasetKind.NVD, ((1, float("nan")),))
    with pytest.raises(ValueError):
        ObservationSeries("p", "v", DatasetKind.NVD, ((1, float("inf")),))
    with pytest.raises(ValueError):
        ObservationSeries("p", "v", DatasetKind.NVD, ((0, 1.0),))
    with pytest.raises(ValueError):
        ObservationSeries("p", "v", DatasetKind.NVD, ((1, 2.0), (2, 1.0)))
    with pytest.raises(ValueError):
        ObservationSeries("p", "v", DatasetKind.NVD, ((1, 1.0), (1, 1.0)))
    series = ObservationSeries("p", "v", DatasetKind.NVD, ((2, 3.0), (1, 1.0)))
    assert series.points == ((1, 1.0), (2, 3.0))
    assert series.truncated(1).points == ((1, 1.0),)


# --- corpus I/O --------------------------------------------------------------


def _write(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: ObservationSeries("p", "v", DatasetKind.NVD, ((1, -1.0),)),
         ValueError, "counts must be non-negative"),
        (lambda tmp: msr_end(date(2005, 1, 1), 0), ValueError, "msr must be >= 1, got 0"),
        (lambda tmp: msr_end(date(9990, 1, 1), 120), ValueError,
         "MSR 120 of a release dated 9990-01-01 ends after 9999-12-31"),
        (lambda tmp: import_corpus(_write(
            tmp / "c.ndjson", '{"id": "", "kind": "bug", "published": "2005-01-01"}\n')),
         ParseError, "line 1: record id must be a non-empty string"),
        (lambda tmp: import_corpus(_write(
            tmp / "c.ndjson", '{"id": "X", "published": "2005-01-01"}\n')),
         ParseError, "line 1: missing key 'kind'"),
        (lambda tmp: import_corpus(_write(tmp / "c.ndjson", '["X", "bug", "2005-01-01"]\n')),
         ParseError, "line 1: a record must be a JSON object"),
        (lambda tmp: import_releases(_write(tmp / "r.json", '{"product": "p"}')),
         ParseError, "expected a JSON array of releases"),
        (lambda tmp: import_releases(_write(tmp / "r.json", '[{"product": "p", "version": "1"}]')),
         ParseError, "release #0: missing key 'release_date'"),
        (lambda tmp: import_releases(_write(tmp / "r.json", '[["p", "1", "2005-01-01"]]')),
         ParseError, "release #0: a release must be a JSON object"),
    ],
    ids=["negative-count", "msr-zero", "msr-past-the-last-date", "empty-id", "missing-kind",
         "record-array", "releases-object", "release-without-date", "release-array"],
)
def test_each_bad_input_raises_its_error_by_name(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)


def test_import_empty_file(tmp_path):
    path = tmp_path / "corpus.ndjson"
    for text in ("", "\n \t\n\n"):  # blank and whitespace-only lines are skipped
        path.write_text(text)
        assert len(import_corpus(path)) == 0


def test_import_duplicate_id(tmp_path):
    path = tmp_path / "corpus.ndjson"
    rec = {"id": "X", "kind": "bug", "published": "2005-01-01", "affects": [], "refs": []}
    path.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(DuplicateIdError, match="X"):
        import_corpus(path)


def test_import_parse_error_names_line(tmp_path):
    path = tmp_path / "corpus.ndjson"
    good = {"id": "X", "kind": "bug", "published": "2005-01-01"}
    path.write_text(json.dumps(good) + "\n{not json\n")
    with pytest.raises(ParseError, match="line 2"):
        import_corpus(path)
    path.write_text(json.dumps(good) + "\n" + json.dumps({"id": "Y", "kind": "nope", "published": "2005-01-01"}) + "\n")
    with pytest.raises(ParseError, match="line 2: 'nope' is not a valid RecordKind"):
        import_corpus(path)
    # Python 3.11's fromisoformat reads the compact and week forms too;
    # 3.10 rejects them with its own message
    for published in ("20041109", "2004-W45-2"):
        path.write_text(json.dumps(good) + "\n" + json.dumps(good | {"id": "Y", "published": published}) + "\n")
        with pytest.raises(ParseError, match=f"line 2: .*{published}"):
            import_corpus(path)


def test_import_rejects_mistyped_affects_and_refs(tmp_path):
    # a string is iterable: "1.0" read as a list would count for versions
    # ".", "0" and "1", and "BUG-7" would become five dangling refs
    path = tmp_path / "corpus.ndjson"
    good = {"id": "X", "kind": "bug", "published": "2005-01-01"}
    for key, value in [("affects", "1.0"), ("affects", ["1.0", 1]), ("refs", "BUG-7"),
                       ("refs", {"BUG-7": 1}), ("refs", None)]:
        bad = {"id": "Y", "kind": "nvd", "published": "2005-01-01", key: value}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ParseError, match=f"line 2: {key} must be an array of strings"):
            import_corpus(path)


def test_releases_reject_mistyped_fields(tmp_path):
    good = {"product": "ff", "version": "1.0", "release_date": "2004-11-09"}
    path = tmp_path / "releases.json"
    for key, value, expected in [
        ("version", 1.0, "a string"),
        ("product", 7, "a string"),
        ("include_unlinked_advisory_bugs", "false", "true or false"),
        ("include_unlinked_advisory_bugs", 0, "true or false"),
    ]:
        path.write_text(json.dumps([good, good | {"version": "2.0", key: value}]))
        with pytest.raises(ParseError, match=f"release #1: {key} must be {expected}"):
            import_releases(path)
    for release_date in ("20041109", "2004-W45-2"):
        path.write_text(json.dumps([good, good | {"version": "2.0", "release_date": release_date}]))
        with pytest.raises(ParseError, match=f"release #1: .*{release_date}"):
            import_releases(path)


def test_dangling_refs_dropped_with_warning(tmp_path, caplog):
    corpus = Corpus(
        [_rec("N1", RecordKind.NVD, refs={"GHOST"}), _rec("B1", RecordKind.BUG)]
    )
    assert {r.id: r for r in corpus}["N1"].refs == frozenset()
    assert corpus.dropped_refs == (("N1", "GHOST"),)


def test_round_trip_of_large_random_corpus(tmp_path):
    rng = random.Random(1000)
    corpus = random_corpus(rng, n_nvd=400, n_bug=400, n_adv=200)
    path = tmp_path / "corpus.ndjson"
    export_corpus(corpus, path)
    back = import_corpus(path)
    assert len(back) == len(corpus)
    back_by_id = {r.id: r for r in back}
    for rec in corpus:
        assert back_by_id[rec.id] == rec


def test_releases_round_trip_with_optional_fields(tmp_path):
    from vdmfit.datasets import export_releases, import_releases

    releases = [
        Release("ff", "1.0", date(2004, 11, 9), True),
        Release("chrome", "4.0", date(2010, 1, 25)),
    ]
    path = tmp_path / "releases.json"
    export_releases(releases, path)
    assert import_releases(path) == releases


def test_duplicate_release_rejected(tmp_path):
    from vdmfit.datasets import export_releases, import_releases

    releases = [
        Release("ff", "1.0", date(2004, 11, 9)),
        Release("ff", "1.0", date(2005, 1, 1)),
    ]
    path = tmp_path / "releases.json"
    export_releases(releases, path)
    with pytest.raises(DuplicateIdError):
        import_releases(path)
