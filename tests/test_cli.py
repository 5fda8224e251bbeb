import ast
import concurrent.futures
import csv
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from vdmfit.cli import build_parser, main
from vdmfit.datasets import DatasetKind
from vdmfit.simulate import NoiseKind, NoiseSpec, generate


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_json(path):
    return json.loads(Path(path).read_text())


def read_header(path):
    with open(path) as fh:
        return dict(line[2:].rstrip("\n").split(": ", 1) for line in fh if line.startswith("# "))


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A small synthetic corpus world emitted by the simulate command."""
    root = tmp_path_factory.mktemp("world")
    code = run_cli(
        "simulate",
        "--model", "RE",
        "--params", "60,0.08",
        "--horizon", "24",
        "--noise", "multiplicative",
        "--magnitude", "0.02",
        "--seed", "11",
        "--out", root,
        "--emit-corpus",
    )
    assert code == 0
    manifest = read_json(root / "manifest.json")
    return {
        "corpus": root / "corpus.ndjson",
        "releases": root / "releases.json",
        "as_of": manifest["as_of"],
        "root": root,
    }


def test_simulate_writes_series_and_corpus(world):
    rows = read_csv(world["root"] / "series.csv")
    assert len(rows) == 24
    assert rows[0]["dataset"] == "NVD"
    assert int(rows[-1]["msr"]) == 24
    assert (world["root"] / "corpus.ndjson").exists()
    assert (world["root"] / "releases.json").exists()


def test_simulate_series_csv_header_columns_and_counts(world):
    lines = (world["root"] / "series.csv").read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    assert lines[: len(meta)] == meta == sorted(meta)
    assert {"# model: RE", "# params: 60.0;0.08", "# noise: multiplicative",
            "# magnitude: 0.02", "# seed: 11"} <= set(meta)
    assert lines[len(meta)] == "product,version,dataset,msr,cumulative"
    rows = list(csv.reader(lines[len(meta) + 1 :]))
    series = generate("RE", (60.0, 0.08), 24, NoiseSpec(NoiseKind.MULTIPLICATIVE, 0.02, 11))
    assert rows == [
        ["synthetic", "RE", "NVD", str(m), str(int(c))] for m, c in series.points
    ]


def test_import_summary(world, tmp_path):
    code = run_cli("import", "--corpus", world["corpus"], "--out", tmp_path)
    assert code == 0
    summary = read_json(tmp_path / "import_summary.json")
    assert summary["records"] > 0
    assert summary["by_kind"]["nvd"] == summary["by_kind"]["bug"]
    assert summary["dropped_dangling_refs"] == []
    assert "releases" not in summary
    assert (tmp_path / "corpus.normalized.ndjson").exists()
    assert run_cli("import", "--corpus", world["corpus"], "--releases", world["releases"],
                   "--out", tmp_path) == 0
    assert read_json(tmp_path / "import_summary.json")["releases"] == 1


def test_fit_command_rows_and_summary(world, tmp_path):
    code = run_cli(
        "fit",
        "--corpus", world["corpus"],
        "--releases", world["releases"],
        "--as-of", world["as_of"],
        "--datasets", "NVD",
        "--out", tmp_path,
    )
    assert code == 0
    rows = read_csv(tmp_path / "fits.csv")
    assert len(rows) == 6  # one release, one dataset, six models
    assert {r["model"] for r in rows} == {"AML", "AT", "LN", "LP", "RE", "RQ"}
    summary = read_json(tmp_path / "fit_summary.json")
    counts = summary["classification_counts_by_model"]
    recount = {m: 0 for m in counts}
    for row in rows:
        if row["status"] == "ok":
            recount[row["model"]] += 1
    for model, by_class in counts.items():
        total = sum(v for k, v in by_class.items() if k != "errors")
        assert total == recount[model]
    assert summary["meta"]["dof_convention"] == "n_points_minus_param_count"


def test_load_stage_timing_is_logged_and_not_written(world, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="vdmfit")
    code = run_cli(
        "fit",
        "--corpus", world["corpus"],
        "--releases", world["releases"],
        "--as-of", world["as_of"],
        "--datasets", "NVD,NVD.Bug",
        "--out", tmp_path,
    )
    assert code == 0
    records = sum(1 for line in Path(world["corpus"]).read_text().splitlines() if line)
    timing = re.compile(
        rf"{records} records loaded in \d+\.\d{{3}} s; "
        r"2 series built and 0 skipped in \d+\.\d{3} s$"
    )
    assert [m for m in caplog.messages if timing.match(m)], caplog.messages
    for path in tmp_path.iterdir():
        assert "loaded in" not in path.read_text(), path


@pytest.mark.parametrize("command", ["fit", "track"])
def test_fit_stage_timing_is_logged_and_not_written(world, tmp_path, caplog, command):
    caplog.set_level(logging.INFO, logger="vdmfit")
    code = run_cli(
        command,
        "--corpus", world["corpus"],
        "--releases", world["releases"],
        "--as-of", world["as_of"],
        "--datasets", "NVD,NVD.Bug",
        "--models", "LN,RQ",
        "--out", tmp_path,
    )
    assert code == 0
    # both kinds of a simulated world count alike, so 4 curves share 2 fits
    assert "4 curves, 2 distinct fits" in caplog.messages
    timing = re.compile(r"2 distinct fits in \d+\.\d{3} s$")
    assert [m for m in caplog.messages if timing.match(m)], caplog.messages
    for path in tmp_path.iterdir():
        assert "fits in" not in path.read_text(), path


def test_exact_linear_world_every_row_good(tmp_path):
    sim = tmp_path / "sim"
    run_cli(
        "simulate",
        "--model", "LN",
        "--params", "3,0",
        "--horizon", "18",
        "--out", sim,
        "--emit-corpus",
    )
    as_of = read_json(sim / "manifest.json")["as_of"]
    out = tmp_path / "fits"
    run_cli(
        "fit",
        "--corpus", sim / "corpus.ndjson",
        "--releases", sim / "releases.json",
        "--as-of", as_of,
        "--models", "LN",
        "--out", out,
    )
    rows = read_csv(out / "fits.csv")
    assert len(rows) == 5  # five dataset kinds
    for row in rows:
        assert row["classification"] == "GoodFit"
        assert float(row["p_value"]) == pytest.approx(1.0)


def test_track_and_metric_commands(world, tmp_path):
    out = tmp_path / "track"
    code = run_cli(
        "track",
        "--corpus", world["corpus"],
        "--releases", world["releases"],
        "--as-of", world["as_of"],
        "--datasets", "NVD,NVD.Bug",
        "--models", "LN,RE",
        "--out", out,
    )
    assert code == 0
    rows = read_csv(out / "track.csv")
    assert {r["msr"] for r in rows} == {str(m) for m in range(6, 25)}
    assert {r["model"] for r in rows} == {"LN", "RE"}

    code = run_cli(
        "entropy",
        "--track", out / "track.csv",
        "--beta", "1,2",
        "--out", out,
    )
    assert code == 0
    for beta in ("1", "2"):
        erows = read_csv(out / f"entropy_beta{beta}.csv")
        assert {r["group"] for r in erows} == {"NVD", "NVD.Bug"}
        for r in erows:
            assert 0.0 <= float(r["value"]) <= 1.0
    summary = read_json(out / "entropy_summary.json")
    assert set(summary["medians_by_beta"]) == {"1", "2"}

    code = run_cli(
        "quality",
        "--track", out / "track.csv",
        "--omega", "1,2",
        "--out", out,
    )
    assert code == 0
    qrows = read_csv(out / "quality_omega2.csv")
    assert {r["group"] for r in qrows} == {"LN", "RE"}
    summary = read_json(out / "quality_summary.json")
    assert summary["group_by"] == "model"


def test_metric_metadata_comes_from_the_track_file(world, tmp_path):
    out = tmp_path / "m"
    assert run_cli(
        "track",
        "--corpus", world["corpus"],
        "--releases", world["releases"],
        "--as-of", world["as_of"],
        "--datasets", "NVD,NVD.Bug",
        "--models", "LN",
        "--start-msr", "11",
        "--out", out,
    ) == 0
    track_hash = read_header(out / "track.csv")["config_hash"]
    for metric in ("entropy", "quality"):
        assert run_cli(metric, "--track", out / "track.csv", "--out", out) == 0
        meta = read_json(out / f"{metric}_summary.json")["meta"]
        assert meta["start_msr"] == 11
        assert meta["as_of"] == world["as_of"]
        assert meta["config_hash"] == track_hash
    with open(out / "entropy_beta1.csv") as fh:
        header = [line for line in fh if line.startswith("#")]
    assert "# start_msr: 11\n" in header
    assert f"# as_of: {world['as_of']}\n" in header
    assert f"# config_hash: {track_hash}\n" in header
    # compare reads the metric file's header the same way
    assert run_cli("compare", "--series", out / "entropy_beta1.csv", "--out", out) == 0
    meta = read_json(out / "compare.json")["meta"]
    assert meta["start_msr"] == 11
    assert meta["as_of"] == world["as_of"]
    assert meta["config_hash"] == track_hash
    # a track of other models pools into metric files with another hash
    other = tmp_path / "other"
    assert run_cli(
        "track",
        "--corpus", world["corpus"],
        "--releases", world["releases"],
        "--as-of", world["as_of"],
        "--datasets", "NVD,NVD.Bug",
        "--models", "LN,RQ",
        "--start-msr", "11",
        "--out", other,
    ) == 0
    assert run_cli("entropy", "--track", other / "track.csv", "--out", other) == 0
    other_hash = read_header(other / "entropy_beta1.csv")["config_hash"]
    assert other_hash == read_header(other / "track.csv")["config_hash"] != track_hash
    # a track saved with CRLF line ends, by a Windows editor, say, gives
    # the same metadata and no \r in any output
    crlf = tmp_path / "crlf"
    crlf.mkdir()
    (crlf / "track.csv").write_bytes((out / "track.csv").read_bytes().replace(b"\n", b"\r\n"))
    assert run_cli("entropy", "--track", crlf / "track.csv", "--out", crlf) == 0
    assert run_cli("compare", "--series", crlf / "entropy_beta1.csv", "--out", crlf) == 0
    for summary in ("entropy_summary.json", "compare.json"):
        meta = read_json(crlf / summary)["meta"]
        assert (meta["start_msr"], meta["as_of"], meta["config_hash"]) == (
            11, world["as_of"], track_hash
        )
    assert [p.name for p in crlf.iterdir() if b"\r" in p.read_bytes()] == ["track.csv"]


@pytest.mark.parametrize("workers", [1, 2])
def test_fits_are_the_last_month_of_the_track(world, tmp_path, workers):
    shared = ("--corpus", world["corpus"], "--releases", world["releases"],
              "--as-of", world["as_of"], "--datasets", "NVD,NVD.Bug", "--workers", workers)
    assert run_cli("fit", *shared, "--out", tmp_path) == 0
    assert run_cli("track", *shared, "--start-msr", "22", "--out", tmp_path) == 0
    columns = ("classification", "p_value", "chi2", "valid", "converged", "sse")
    fits = read_csv(tmp_path / "fits.csv")
    last = {
        (r["version"], r["dataset"], r["model"]): r
        for r in read_csv(tmp_path / "track.csv")
        if r["msr"] == "24"
    }
    assert len(fits) == len(last) == 12
    for row in fits:
        assert row["status"] == "ok"
        tracked = last[(row["version"], row["dataset"], row["model"])]
        assert [row[c] for c in columns] == [tracked[c] for c in columns]


def _counting_rolling_gof(monkeypatch, fail_model=None, error=ValueError):
    """Replace cli.rolling_gof with a wrapper that records the model of
    every call and raises ``error`` for ``fail_model``; returns the record."""
    import vdmfit.cli as cli

    rolling_gof = cli.rolling_gof
    calls = []

    def counting(series, model_id, *args, **kwargs):
        calls.append(model_id)
        if model_id == fail_model:
            raise error(f"no {model_id} today")
        return rolling_gof(series, model_id, *args, **kwargs)

    monkeypatch.setattr(cli, "rolling_gof", counting)
    return calls


def test_failed_track_curve_keeps_its_months_as_error_rows(world, tmp_path, monkeypatch, caplog):
    shared = ("--corpus", world["corpus"], "--releases", world["releases"],
              "--as-of", world["as_of"], "--datasets", "NVD,NVD.Bug")
    assert run_cli("track", *shared, "--models", "LN", "--out", tmp_path / "ln") == 0
    calls = _counting_rolling_gof(monkeypatch, fail_model="RE")
    out = tmp_path / "failed"
    assert run_cli("track", *shared, "--models", "LN,RE", "--out", out) == 0
    # the two kinds count alike: one failed RE job, one warning per curve
    assert sorted(calls) == ["LN", "RE"]
    version = read_json(world["releases"])[0]["version"]
    assert sorted(m for m in caplog.messages if m.startswith("fit failed for ")) == [
        f"fit failed for synthetic {version} {kind} RE: no RE today" for kind in ("NVD", "NVD.Bug")
    ]

    rows = read_csv(out / "track.csv")
    re_rows = [r for r in rows if r["model"] == "RE"]
    assert sorted((r["dataset"], int(r["msr"])) for r in re_rows) == sorted(
        (d, m) for d in ("NVD", "NVD.Bug") for m in range(6, 25)
    )
    assert all(r["status"] == "error" and r["sse"] == r["converged"] == "" for r in re_rows)
    ln_rows = [r for r in rows if r["model"] == "LN"]
    assert ln_rows == read_csv(tmp_path / "ln" / "track.csv")
    assert all(r["converged"] in ("True", "False") and float(r["sse"]) >= 0 for r in ln_rows)

    def values(path):
        return [(r["group"], r["msr"], r["value"]) for r in read_csv(path)]

    # error months are absent: entropy and quality pool the LN curves only
    assert run_cli("entropy", "--track", tmp_path / "ln" / "track.csv", "--out", tmp_path / "e_ln") == 0
    assert run_cli("entropy", "--track", out / "track.csv", "--out", tmp_path / "e_file") == 0
    for name in ("entropy_beta1.csv", "entropy_beta2.csv"):
        expected = values(tmp_path / "e_ln" / name)
        assert expected
        assert values(tmp_path / "e_file" / name) == expected
    assert run_cli("quality", "--track", out / "track.csv", "--out", tmp_path / "q") == 0
    assert {r["group"] for r in read_csv(tmp_path / "q" / "quality_omega1.csv")} == {"LN"}


def test_a_singular_system_fails_only_its_curve(world, tmp_path, monkeypatch, caplog):
    # numpy's LinAlgError from one curve's fit fails that curve alone
    from numpy.linalg import LinAlgError

    _counting_rolling_gof(monkeypatch, fail_model="RE", error=LinAlgError)
    out = tmp_path / "failed"
    assert run_cli("track", "--corpus", world["corpus"], "--releases", world["releases"],
                   "--as-of", world["as_of"], "--datasets", "NVD", "--models", "LN,RE",
                   "--out", out) == 0
    version = read_json(world["releases"])[0]["version"]
    assert [m for m in caplog.messages if m.startswith("fit failed for ")] == [
        f"fit failed for synthetic {version} NVD RE: no RE today"
    ]
    rows = read_csv(out / "track.csv")
    assert [int(r["msr"]) for r in rows if r["model"] == "RE"] == list(range(6, 25))
    assert {r["status"] for r in rows if r["model"] == "RE"} == {"error"}
    assert {r["status"] for r in rows if r["model"] == "LN"} == {"ok"}


def test_equal_curves_are_fitted_once(world, tmp_path, monkeypatch, caplog):
    # a simulated world links every entry, so its five kinds count alike
    caplog.set_level(logging.INFO, logger="vdmfit")
    shared = ("--corpus", world["corpus"], "--releases", world["releases"],
              "--as-of", world["as_of"], "--models", "LN,RE")
    assert run_cli("track", *shared, "--datasets", "NVD", "--out", tmp_path / "nvd") == 0
    calls = _counting_rolling_gof(monkeypatch)
    assert run_cli("track", *shared, "--out", tmp_path / "all") == 0
    assert sorted(calls) == ["LN", "RE"]
    assert "10 curves, 2 distinct fits" in caplog.messages

    def without_dataset(rows):
        return [{k: v for k, v in r.items() if k != "dataset"} for r in rows]

    nvd = read_csv(tmp_path / "nvd" / "track.csv")
    rows = read_csv(tmp_path / "all" / "track.csv")
    kinds = [k.value for k in DatasetKind]
    assert {r["dataset"] for r in rows} == set(kinds)
    for kind in kinds:
        assert without_dataset(r for r in rows if r["dataset"] == kind) == without_dataset(nvd)


def test_quality_all_good_world_is_one(tmp_path):
    sim = tmp_path / "sim"
    run_cli("simulate", "--model", "LN", "--params", "2,1", "--horizon", "15",
            "--out", sim, "--emit-corpus")
    as_of = read_json(sim / "manifest.json")["as_of"]
    out = tmp_path / "m"
    assert run_cli(
        "track",
        "--corpus", sim / "corpus.ndjson",
        "--releases", sim / "releases.json",
        "--as-of", as_of,
        "--models", "LN",
        "--datasets", "NVD",
        "--out", out,
    ) == 0
    assert run_cli("quality", "--track", out / "track.csv", "--omega", "2", "--out", out) == 0
    rows = read_csv(out / "quality_omega2.csv")
    assert rows
    assert all(float(r["value"]) == 1.0 for r in rows)

    assert run_cli("entropy", "--track", out / "track.csv", "--beta", "1", "--out", out) == 0
    erows = read_csv(out / "entropy_beta1.csv")
    assert erows
    assert all(float(r["value"]) == 0.0 for r in erows)


def test_entropy_from_hand_built_state_file(tmp_path):
    # two curves, three observation steps, states chosen so the pooled
    # transition counts are (u,s,b) = (2,0,0) then (0,1,1); a third curve
    # has only month 6, an invalid test, so it adds no transition
    track = tmp_path / "track.csv"
    with open(track, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["product", "version", "dataset", "model", "msr",
             "status", "classification", "p_value", "chi2", "valid"]
        )
        states = {
            ("c1",): ["GoodFit", "GoodFit", "NotFit"],        # unchanged, big jump
            ("c2",): ["Inconclusive", "Inconclusive", "NotFit"],  # unchanged, small jump
        }
        for (curve,), seq in states.items():
            for msr, cls in zip((6, 7, 8), seq):
                writer.writerow(["p", curve, "NVD", "LN", msr, "ok", cls, "0.5", "1.0", "True"])
        writer.writerow(["p", "c3", "NVD", "LN", 6, "ok", "GoodFit", "0.5", "1.0", "False"])
    out = tmp_path / "out"
    code = run_cli("entropy", "--track", track, "--beta", "1,2", "--out", out)
    assert code == 0
    by_beta = {}
    for beta in ("1", "2"):
        rows = read_csv(out / f"entropy_beta{beta}.csv")
        by_beta[beta] = {int(r["msr"]): float(r["value"]) for r in rows}
    # E_1 = (s + b)/(u + s + b); E_2 weighs the big jump twice
    assert by_beta["1"] == {7: 0.0, 8: pytest.approx(2.0 / 2.0)}
    assert by_beta["2"] == {7: 0.0, 8: pytest.approx((1 + 2.0) / (0 + 1 + 2.0))}

    code = run_cli("quality", "--track", track, "--omega", "2", "--group-by", "dataset", "--out", out)
    assert code == 0
    rows = read_csv(out / "quality_omega2.csv")
    values = {int(r["msr"]): float(r["value"]) for r in rows}
    # month 6: one GoodFit, one Inconclusive and the invalid test, which
    # counts as NotFit whatever its classification -> (1 + 0.5)/3
    assert values == {
        6: pytest.approx(0.5),
        7: pytest.approx(0.75),
        8: pytest.approx(0.0),
    }


def _merge_corpora(paths, out_path):
    with open(out_path, "w") as out_fh:
        for p in paths:
            out_fh.write(Path(p).read_text())


def test_benchmark_17_releases_summary_recount(tmp_path):
    # one synthetic release per scenario, merged into a single world
    scenarios = [
        ("LN", "2,3"), ("LN", "1,8"), ("LN", "4,0"),
        ("RE", "80,0.07"), ("RE", "150,0.1"), ("RE", "60,0.03"),
        ("RQ", "0.05,2"), ("RQ", "0.02,4"), ("RQ", "0.1,1"),
        ("AT", "25,6"), ("AT", "10,2"),
        ("LP", "120,0.07"), ("LP", "200,0.02"),
        ("AML", "0.01,80,0.9"), ("AML", "0.006,150,1.2"), ("AML", "0.02,40,2"),
        ("LN", "3,5"),
    ]
    corpora = []
    releases = []
    for i, (model, params) in enumerate(scenarios):
        sim = tmp_path / f"sim{i}"
        code = run_cli(
            "simulate",
            "--model", model,
            "--params", params,
            "--horizon", "20",
            "--noise", "multiplicative",
            "--magnitude", "0.04",
            "--seed", 100 + i,
            "--product", "synthetic",
            "--series-version", f"v{i}",
            "--out", sim,
            "--emit-corpus",
        )
        assert code == 0
        corpora.append(sim / "corpus.ndjson")
        releases.extend(json.loads((sim / "releases.json").read_text()))
    corpus = tmp_path / "merged.ndjson"
    _merge_corpora(corpora, corpus)
    releases_path = tmp_path / "releases.json"
    releases_path.write_text(json.dumps(releases))

    out = tmp_path / "fit"
    code = run_cli(
        "fit",
        "--corpus", corpus,
        "--releases", releases_path,
        "--as-of", "2007-12-31",
        "--datasets", "NVD",
        "--out", out,
    )
    assert code == 0
    rows = read_csv(out / "fits.csv")
    assert len(rows) == 17 * 6
    summary = read_json(out / "fit_summary.json")["classification_counts_by_model"]
    recount = {m: {c: 0 for c in ("GoodFit", "Inconclusive", "NotFit", "errors")} for m in summary}
    for row in rows:
        if row["status"] == "ok":
            recount[row["model"]][row["classification"]] += 1
        else:
            recount[row["model"]]["errors"] += 1
    assert summary == recount


def test_compare_command(tmp_path, capsys):
    series = tmp_path / "metric.csv"
    with open(series, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "msr", "value"])
        for m in range(6, 26):
            writer.writerow(["a", m, 0.02 * (m % 5)])
            writer.writerow(["b", m, 0.02 * (m % 5) + 0.3])
            writer.writerow(["c", m, 0.02 * (m % 7) + 0.31])
            writer.writerow(["d", m, 0.02 * (m % 3) + 0.32])
            writer.writerow(["e", m, 0.02 * (m % 2) + 0.33])
    code = run_cli(
        "compare",
        "--series", series,
        "--baseline", "a",
        "--alternative", "less",
        "--alpha", "0.05",
        "--out", tmp_path,
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "corrected_alpha=0.0125" in captured
    doc = read_json(tmp_path / "compare.json")
    assert doc["corrected_alpha"] == pytest.approx(0.0125)
    assert len(doc["pairwise_mann_whitney"]) == 4
    assert all(p["null_hypothesis"] == "reject" for p in doc["pairwise_mann_whitney"])
    assert doc["kruskal_wallis"]["p_value"] < 0.05


def test_compare_identical_groups_accepts(tmp_path, capsys):
    series = tmp_path / "metric.csv"
    with open(series, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "msr", "value"])
        for m in range(6, 26):
            writer.writerow(["a", m, 0.1 * (m % 6)])
            writer.writerow(["b", m, 0.1 * (m % 6)])
    code = run_cli("compare", "--series", series, "--out", tmp_path)
    assert code == 0
    doc = read_json(tmp_path / "compare.json")
    assert doc["kruskal_wallis"]["p_value"] >= 0.95
    assert all(p["null_hypothesis"] == "accept" for p in doc["pairwise_mann_whitney"])


def test_compare_greater_reads_a_far_tail_as_a_small_positive_p(tmp_path, capsys):
    series = tmp_path / "metric.csv"
    series.write_text("group,msr,value\n" + "".join(
        f"{g},{m},{v}\n" for m in range(60) for g, v in (("hi", 100 + m), ("lo", m))))
    assert run_cli("compare", "--series", series, "--baseline", "hi",
                   "--alternative", "greater", "--out", tmp_path) == 0
    printed = capsys.readouterr().out
    assert "mann-whitney (greater): hi vs lo U=3600 p=" in printed
    assert "p=0 " not in printed
    (pair,) = read_json(tmp_path / "compare.json")["pairwise_mann_whitney"]
    assert 0.0 < pair["p_value"] < 1e-20
    assert pair["null_hypothesis"] == "reject"


def test_config_file_with_flag_override(world, tmp_path, caplog):
    config = tmp_path / "run.json"
    settings = {
        "corpus": str(world["corpus"]),
        "releases": str(world["releases"]),
        "datasets": ["NVD"],
        "models": ["LN", "RE"],
        "as_of": world["as_of"],
        "out": str(tmp_path / "from_config"),
    }
    config.write_text(json.dumps(settings))
    code = run_cli("fit", "--config", config)
    assert code == 0
    rows = read_csv(tmp_path / "from_config" / "fits.csv")
    assert {r["model"] for r in rows} == {"LN", "RE"}

    # a key that fit has no flag for is checked, then ignored: same bytes
    unread = tmp_path / "unread.json"
    unread.write_text(json.dumps(
        settings | {"seed": 5, "omega": [3], "start_msr": 40, "out": str(tmp_path / "unread")}))
    assert run_cli("fit", "--config", unread) == 0
    for name in ("fits.csv", "fit_summary.json"):
        unread_bytes = (tmp_path / "unread" / name).read_bytes()
        assert unread_bytes == (tmp_path / "from_config" / name).read_bytes()

    # whole-number weights are the default weights: one hash, one header
    track = tmp_path / "track.csv"
    track.write_text(
        "product,version,dataset,model,msr,status,classification,valid\n"
        "p,v,NVD,LN,6,ok,GoodFit,True\np,v,NVD,LN,7,ok,NotFit,True\n"
    )
    int_weights = tmp_path / "int_weights.json"
    int_weights.write_text(json.dumps(settings | {"beta": [1, 2], "omega": [1, 2]}))
    for name, path in (("float_weights", config), ("int_weights", int_weights)):
        assert run_cli("entropy", "--config", path, "--track", track,
                       "--out", tmp_path / name) == 0
    meta = read_json(tmp_path / "int_weights" / "entropy_summary.json")["meta"]
    assert meta == read_json(tmp_path / "float_weights" / "entropy_summary.json")["meta"]
    assert meta["beta"] == "[1.0, 2.0]"

    code = run_cli("fit", "--config", config, "--models", "AT", "--out", tmp_path / "override")
    assert code == 0
    rows = read_csv(tmp_path / "override" / "fits.csv")
    assert {r["model"] for r in rows} == {"AT"}

    # a wrongly typed value is an error naming the file and the key
    for key, value in (("workers", "2"), ("beta", 2), ("models", "LN"), ("seed", True)):
        typo = tmp_path / f"typo_{key}.json"
        typo.write_text(json.dumps({key: value}))
        assert run_cli("fit", "--config", typo) == 1
        assert f"{typo}: config key '{key}' must be" in caplog.text


def test_errors_exit_nonzero(tmp_path, caplog):
    assert run_cli("fit", "--corpus", tmp_path / "missing.ndjson",
                   "--releases", tmp_path / "missing.json", "--out", tmp_path) == 1
    bad = tmp_path / "bad.ndjson"
    bad.write_text("{broken\n")
    assert run_cli("import", "--corpus", bad, "--out", tmp_path) == 1
    assert run_cli("fit", "--corpus", bad, "--releases", bad, "--out", tmp_path,
                   "--models", "") == 1
    # the metrics read a track file and never refit
    for metric in ("entropy", "quality"):
        with pytest.raises(SystemExit) as exc:
            run_cli(metric, "--out", tmp_path)
        assert exc.value.code != 0
    # out-of-range metric weights are rejected up front
    assert run_cli("entropy", "--track", bad, "--beta", "0.5", "--out", tmp_path) == 1
    assert run_cli("quality", "--track", bad, "--omega", "0.9", "--out", tmp_path) == 1
    assert run_cli("entropy", "--track", bad, "--beta", "inf", "--out", tmp_path) == 1
    assert "beta weights must be finite and >= 1" in caplog.text
    assert run_cli("quality", "--track", bad, "--omega", "nan", "--out", tmp_path) == 1
    assert "omega weights must be finite and >= 1" in caplog.text
    # so is an empty multistart grid, before any input file is read
    caplog.clear()
    assert run_cli("fit", "--corpus", tmp_path / "missing.ndjson", "--releases",
                   tmp_path / "missing.json", "--multistart", "0", "--out", tmp_path) == 1
    assert "multistart must be >= 1" in caplog.text
    # and a cutoff that is not a YYYY-MM-DD date, named as such
    for as_of in ("2009-13-01", "20090131"):
        assert run_cli("fit", "--corpus", tmp_path / "missing.ndjson", "--releases",
                       tmp_path / "missing.json", "--as-of", as_of, "--out", tmp_path) == 1
        assert f"as_of must be a date YYYY-MM-DD, got '{as_of}'" in caplog.text
    assert "missing.ndjson" not in caplog.text
    assert run_cli("simulate", "--model", "LN", "--params", "1,0", "--horizon", "12",
                   "--noise", "multiplicative", "--magnitude", "nan", "--out", tmp_path) == 1
    assert "noise magnitude must be finite and >= 0" in caplog.text
    # malformed track and metric files are errors naming the file and row,
    # not tracebacks or silently different metrics
    header = "product,version,dataset,model,msr,status,classification,p_value,chi2,valid\n"
    bogus = tmp_path / "bogus_track.csv"
    bogus.write_text(header + "p,1,NVD,LN,6,ok,GoodFit,0.99,1.0,True\n"
                     "p,1,NVD,LN,7,ok,Bogus,0.99,1.0,True\n")
    assert run_cli("entropy", "--track", bogus, "--out", tmp_path) == 1
    assert f"{bogus}: row 2:" in caplog.text
    lower = tmp_path / "lower_track.csv"
    lower.write_text(header + "".join(f"p,1,NVD,LN,{m},ok,GoodFit,0.99,1.0,true\n" for m in (6, 7)))
    assert run_cli("quality", "--track", lower, "--out", tmp_path) == 1
    assert f"{lower}: row 1: valid must be True or False" in caplog.text
    bad_header = tmp_path / "bad_header_track.csv"
    bad_header.write_text("# start_msr: six\n" + header + "p,1,NVD,LN,6,ok,GoodFit,0.99,1.0,True\n")
    assert run_cli("entropy", "--track", bad_header, "--out", tmp_path) == 1
    assert f"{bad_header}: bad header:" in caplog.text
    no_value = tmp_path / "no_value.csv"
    no_value.write_text("group,msr\na,7\nb,7\n")
    assert run_cli("compare", "--series", no_value, "--out", tmp_path) == 1
    assert f"{no_value}: row 1: missing column(s) value" in caplog.text
    # NaN has no rank order: a non-finite value is an error, not a rank
    for value in ("nan", "inf"):
        odd = tmp_path / f"{value}_value.csv"
        odd.write_text(f"group,msr,value\na,7,0.5\nb,7,0.25\na,8,{value}\nb,8,0.75\n")
        assert run_cli("compare", "--series", odd, "--out", tmp_path) == 1
        assert f"{odd}: row 3: value must be finite" in caplog.text
    # a rank test needs two groups, and a baseline among them
    one = tmp_path / "one_group.csv"
    one.write_text("group,msr,value\na,7,0.5\na,8,0.25\n")
    assert run_cli("compare", "--series", one, "--out", tmp_path) == 1
    assert "need at least two groups to compare, found ['a']" in caplog.text
    two = tmp_path / "two_groups.csv"
    two.write_text("group,msr,value\na,7,0.5\nb,7,0.25\na,8,0.75\nb,8,0.5\n")
    assert run_cli("compare", "--series", two, "--baseline", "c", "--out", tmp_path) == 1
    assert "baseline group 'c' not found in ['a', 'b']" in caplog.text


TRACK_HEADER = "product,version,dataset,model,msr,status,classification,p_value,chi2,valid\n"
_NO_INPUTS = ("--corpus", "missing.ndjson", "--releases", "missing.json")


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (("fit", *_NO_INPUTS, "--datasets", ""), {}, "no dataset kinds selected"),
        (("track", *_NO_INPUTS, "--start-msr", "0"), {}, "start_msr must be >= 1"),
        (("fit", *_NO_INPUTS, "--workers", "0"), {}, "workers must be >= 1"),
        (("fit", "--config", "run.json"), {"run.json": "[1]"},
         "run.json: config must be a JSON object"),
        (("fit", "--config", "run.json"), {"run.json": '{"modles": ["LN"]}'},
         "run.json: unknown config keys ['modles']"),
        (("fit",), {}, "both --corpus and --releases are required for this command"),
        (("quality", "--track", "t.csv"),
         {"t.csv": TRACK_HEADER + "p,1,NVD,LN,6,maybe,GoodFit,0.5,1.0,True\n"},
         "t.csv: row 1: status must be ok or error, got 'maybe'"),
        (("entropy", "--track", "t.csv"),
         {"t.csv": TRACK_HEADER + "p,1,NVD,LN,6,error,,,,\np,1,NVD,LN,7,error,,,,\n"},
         "no usable state sequences (is the track data empty?)"),
        (("import",), {}, "--corpus is required"),
        (("fit", *_NO_INPUTS, "--models", "LN,FOO"), {},
         "unknown model id 'FOO'; expected one of ('AML', 'AT', 'LN', 'LP', 'RE', 'RQ')"),
    ],
    ids=["datasets-empty", "start-msr", "workers", "config-array", "config-key",
         "no-inputs", "track-status", "track-all-error", "import-no-corpus", "unknown-model"],
)
def test_each_input_error_exits_1_with_its_error_line(tmp_path, caplog, monkeypatch,
                                                       argv, files, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    assert run_cli(*argv, "--out", "out") == 1
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [("ERROR", message)]
    assert not Path("out").exists()


def test_a_repeated_list_value_is_rejected_before_any_file_is_read(tmp_path, caplog):
    missing = ("--corpus", tmp_path / "missing.ndjson", "--releases", tmp_path / "missing.json")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"models": ["RE", "LN", "RE"]}))
    cases = (
        (("fit", *missing, "--models", "LN,LN"),
         "models must not repeat a value, got ['LN', 'LN']"),
        (("fit", *missing, "--config", config),
         "models must not repeat a value, got ['RE', 'LN', 'RE']"),
        (("track", *missing, "--datasets", "NVD,NVD"),
         "datasets must not repeat a value, got ['NVD', 'NVD']"),
        (("entropy", "--track", tmp_path / "missing.csv", "--beta", "2,2.0"),
         "beta must not repeat a value, got [2.0, 2.0]"),
        (("quality", "--track", tmp_path / "missing.csv", "--omega", "1,3,1"),
         "omega must not repeat a value, got [1.0, 3.0, 1.0]"),
    )
    for argv, message in cases:
        caplog.clear()
        assert run_cli(*argv, "--out", tmp_path / "out") == 1
        assert message in caplog.text
        assert "missing" not in caplog.text
    assert not (tmp_path / "out").exists()


def test_import_reads_every_input_before_it_writes(world, tmp_path, caplog):
    bad_releases = tmp_path / "bad_releases.json"
    bad_releases.write_text('[{"product": 1}]')
    # the compact form, which Python 3.11's fromisoformat would read
    bad_date = tmp_path / "bad_date.ndjson"
    bad_date.write_text('{"id": "B1", "kind": "bug", "published": "20050110"}\n')
    cases = (
        (("--corpus", world["corpus"], "--releases", bad_releases),
         "product must be a string, got 1"),
        (("--corpus", bad_date), f"{bad_date}: line 1: "),
    )
    out = tmp_path / "imp"
    for inputs, message in cases:
        caplog.clear()
        assert run_cli("import", *inputs, "--out", out) == 1
        assert message in caplog.text
        assert not out.exists()


def test_a_bad_release_date_is_named_before_any_file_is_written(tmp_path, capsys):
    cases = (("2005-02-30", ("--emit-corpus",)), ("garbage", ()), ("20050101", ()))
    for release_date, emit in cases:
        out = tmp_path / release_date
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--model", "LN", "--params", "1,0", "--horizon", "12",
                    "--release-date", release_date, *emit, "--out", out)
        assert exc.value.code == 2, release_date
        err = capsys.readouterr().err
        assert f"argument --release-date: invalid iso_date value: '{release_date}'" in err
        assert not out.exists(), release_date
    out = tmp_path / "ok"
    assert run_cli("simulate", "--model", "LN", "--params", "1,0", "--horizon", "12",
                   "--release-date", "2004-11-09", "--emit-corpus", "--out", out) == 0
    assert read_json(out / "releases.json")[0]["release_date"] == "2004-11-09"


def test_track_past_every_series_end_warns_once_per_curve(world, tmp_path, caplog):
    assert run_cli("track", "--corpus", world["corpus"], "--releases", world["releases"],
                   "--as-of", world["as_of"], "--datasets", "NVD,NVD.Bug", "--models", "LN,RE",
                   "--start-msr", "40", "--out", tmp_path) == 0
    version = read_json(world["releases"])[0]["version"]
    assert sorted(m for m in caplog.messages if m.startswith("fit failed for ")) == [
        f"fit failed for synthetic {version} {kind} {model}: series ends at MSR 24, before MSR 40"
        for kind in ("NVD", "NVD.Bug") for model in ("LN", "RE")
    ]
    assert read_csv(tmp_path / "track.csv") == []


def test_a_product_starting_with_a_hash_is_data_not_metadata(tmp_path):
    # only the leading # lines of a track file are its metadata block, so
    # a product named #fox pools exactly as one named fox
    pooled = {}
    for product in ("fox", "#fox"):
        root = tmp_path / product.replace("#", "hash_")
        assert run_cli("simulate", "--model", "RE", "--params", "40,0.1", "--horizon", "10",
                       "--noise", "multiplicative", "--magnitude", "0.05", "--seed", "3",
                       "--product", product, "--out", root / "sim", "--emit-corpus") == 0
        as_of = read_json(root / "sim" / "manifest.json")["as_of"]
        assert run_cli("track", "--corpus", root / "sim" / "corpus.ndjson",
                       "--releases", root / "sim" / "releases.json", "--as-of", as_of,
                       "--datasets", "NVD,NVD.Bug", "--models", "LN,RQ", "--out", root) == 0
        assert product in (root / "track.csv").read_text().splitlines()[-1]
        for metric in ("entropy", "quality"):
            assert run_cli(metric, "--track", root / "track.csv", "--out", root) == 0
        written = [p for p in root.iterdir() if p.name.startswith(("entropy", "quality"))]
        pooled[product] = {p.name: p.read_bytes() for p in written}
    assert len(pooled["fox"]) == 6
    assert pooled["#fox"] == pooled["fox"]


def test_a_curve_is_its_four_columns_whatever_their_text(tmp_path):
    # the curves (a|b, c) and (a, b|c) would read alike as one joined
    # name; they are two curves, one good at both months, one not fit
    # then good
    track = tmp_path / "track.csv"
    track.write_text(TRACK_HEADER + "".join(
        f"{product},{version},NVD,LN,{msr},ok,{cls},0.5,1.0,True\n"
        for product, version, states in (("a|b", "c", ("GoodFit", "GoodFit")),
                                         ("a", "b|c", ("NotFit", "GoodFit")))
        for msr, cls in zip((6, 7), states)
    ))
    assert run_cli("quality", "--track", track, "--omega", "1", "--out", tmp_path) == 0
    assert [(r["msr"], float(r["value"])) for r in read_csv(tmp_path / "quality_omega1.csv")] == [
        ("6", 0.5), ("7", 1.0)
    ]
    # at MSR 7 one curve is unchanged and one makes a big jump
    assert run_cli("entropy", "--track", track, "--beta", "1", "--out", tmp_path) == 0
    assert [(r["msr"], float(r["value"])) for r in read_csv(tmp_path / "entropy_beta1.csv")] == [
        ("7", 0.5)
    ]


def test_a_repeated_curve_month_is_an_error_naming_the_file_and_row(tmp_path, caplog):
    track = tmp_path / "track.csv"
    track.write_text(TRACK_HEADER + "p,1,NVD,LN,6,ok,GoodFit,0.5,1.0,True\n"
                     "p,1,NVD,LN,7,error,,,,\n"
                     "p,1,NVD,LN,6,ok,NotFit,0.01,9.0,True\n"
                     "p,1,NVD,LN,7,error,,,,\n")
    for metric in ("quality", "entropy"):
        caplog.clear()
        assert run_cli(metric, "--track", track, "--out", tmp_path / "out") == 1
        assert f"{track}: row 3: repeats MSR 6 of p 1 NVD LN" in caplog.text
    assert not (tmp_path / "out").exists()
    # a repeated month without a state is a repeat too
    track.write_text(TRACK_HEADER + "p,1,NVD,LN,6,ok,GoodFit,0.5,1.0,True\n"
                     + "p,1,NVD,LN,7,error,,,,\n" * 2)
    caplog.clear()
    assert run_cli("quality", "--track", track, "--out", tmp_path / "out") == 1
    assert f"{track}: row 3: repeats MSR 7 of p 1 NVD LN" in caplog.text


def test_simulate_rejects_a_non_finite_value_and_writes_nothing(tmp_path, caplog):
    # uniform noise of +-1e308 spans 2e308, which overflows to inf
    assert run_cli("simulate", "--model", "AML", "--params", "0.004,120,1", "--horizon", "3",
                   "--noise", "additive_rounded", "--magnitude", "1e308",
                   "--out", tmp_path / "out") == 1
    assert "AML value at month 1 is not finite: inf" in caplog.text
    assert not (tmp_path / "out").exists()


def test_a_curve_that_overflows_is_an_error_line_alone(tmp_path):
    # 1e308 * ln(2) + 1e308 overflows inside numpy, which would warn first
    out = tmp_path / "out"
    proc = _python("-m", "vdmfit.cli", "simulate", "--model", "LN", "--params", "1e308,1e308",
                   "--horizon", "3", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == "ERROR LN value at month 1 is not finite: inf\n"
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("reader, content, message", [
    ("config", b'{"seed": 1,}', "Expecting property name enclosed in double quotes"),
    ("config", b'{"seed": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ("corpus", b'{"id": "\xff"}\n', "'utf-8' codec can't decode byte 0xff"),
    ("releases", b'[{"product": "\xff"}]', "'utf-8' codec can't decode byte 0xff"),
    ("track", TRACK_HEADER.encode() + b"p,\xff,NVD,LN,6,ok,GoodFit,0.5,1.0,True\n",
     "'utf-8' codec can't decode byte 0xff"),
    ("track", TRACK_HEADER.encode() + b"p," + b"v" * 200_000
     + b",NVD,LN,6,ok,GoodFit,0.5,1.0,True\n", "row 1: field larger than field limit (131072)"),
], ids=["config-json", "config-utf8", "corpus-utf8", "releases-utf8", "track-utf8",
        "track-csv-field-limit"])
def test_an_outside_file_that_fails_to_parse_names_itself(
    world, tmp_path, caplog, reader, content, message
):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    argv = {
        "config": ("fit", "--config", bad, "--corpus", world["corpus"],
                   "--releases", world["releases"]),
        "corpus": ("import", "--corpus", bad),
        "releases": ("import", "--corpus", world["corpus"], "--releases", bad),
        "track": ("quality", "--track", bad),
    }[reader]
    assert run_cli(*argv, "--out", tmp_path / "out") == 1
    assert f"{bad}: {message}" in caplog.text
    assert not (tmp_path / "out").exists()


def test_per_triple_failures_recorded_without_aborting(world, tmp_path, caplog):
    # a 4-month window leaves too few points for the 3-parameter model;
    # its row records the error, the other models still fit
    releases = json.loads(Path(world["releases"]).read_text())
    release_date = releases[0]["release_date"]
    year, month, _ = (int(x) for x in release_date.split("-"))
    short_as_of = f"{year}-{month + 4:02d}-28"
    out = tmp_path / "short"
    code = run_cli(
        "fit",
        "--corpus", world["corpus"],
        "--releases", world["releases"],
        "--as-of", short_as_of,
        "--datasets", "NVD",
        "--models", "AML,LN",
        "--out", out,
    )
    assert code == 0
    rows = {r["model"]: r for r in read_csv(out / "fits.csv")}
    assert rows["AML"]["status"] == "error"
    assert rows["AML"]["classification"] == ""
    assert rows["LN"]["status"] == "ok"
    summary = read_json(out / "fit_summary.json")
    assert summary["classification_counts_by_model"]["AML"]["errors"] == 1
    version = releases[0]["version"]
    assert f"fit failed for synthetic {version} NVD AML: series of 3 points too short for AML" \
        in caplog.messages


def test_workers_flag_gives_identical_output(world, tmp_path):
    # all six models, so every curve and Jacobian kernel runs in a worker;
    # eight workers is a pool of one per distinct fit
    shared = ("--corpus", world["corpus"], "--releases", world["releases"],
              "--as-of", world["as_of"], "--datasets", "NVD")
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        assert run_cli("fit", *shared, "--workers", workers, "--out", out) == 0
        assert run_cli("track", *shared, "--start-msr", 21, "--workers", workers,
                       "--out", out) == 0
    for workers in (2, 8):
        for name in ("fits.csv", "fit_summary.json", "track.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == \
                (tmp_path / f"w{workers}" / name).read_bytes(), (workers, name)


def test_workers_start_no_more_processes_than_distinct_fits(world, tmp_path, monkeypatch):
    pools = []

    class SerialPool:
        """Records the pool size asked for, and maps in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, payloads):
            return map(func, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    # the five kinds of a simulated world count alike: 10 curves, 2 distinct fits
    inputs = ("--corpus", world["corpus"], "--releases", world["releases"],
              "--as-of", world["as_of"])
    assert run_cli("fit", *inputs, "--models", "LN,RE", "--workers", 50,
                   "--out", tmp_path / "w50") == 0
    assert pools == [2]
    assert run_cli("fit", *inputs, "--models", "LN,RE", "--workers", 1,
                   "--out", tmp_path / "w1") == 0
    for name in ("fits.csv", "fit_summary.json"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w50" / name).read_bytes()
    # one distinct fit runs in this process, with no pool at all
    assert run_cli("fit", *inputs, "--models", "LN", "--datasets", "NVD", "--workers", 4,
                   "--out", tmp_path / "one") == 0
    assert pools == [2]


def test_weights_name_their_files_in_shortest_float_form(tmp_path):
    # two curves jump GoodFit -> NotFit at MSR 7: at beta 1e308, beta * b
    # overflows to inf, and the step reads its limit, 1
    track = tmp_path / "track.csv"
    track.write_text(TRACK_HEADER + "".join(
        f"p,{version},NVD,LN,{msr},ok,{cls},0.5,1.0,True\n"
        for version in ("1", "2") for msr, cls in ((6, "GoodFit"), (7, "NotFit"))
    ))
    out = tmp_path / "out"
    assert run_cli("entropy", "--track", track, "--beta", "1,2.5,1e300,1e308", "--out", out) == 0
    assert run_cli("quality", "--track", track, "--omega", "2,1e16", "--out", out) == 0
    assert sorted(p.name for p in out.glob("*_*[0-9].csv")) == [
        "entropy_beta1.csv", "entropy_beta1e+300.csv", "entropy_beta1e+308.csv",
        "entropy_beta2.5.csv", "quality_omega1e+16.csv", "quality_omega2.csv",
    ]
    assert read_header(out / "entropy_beta1e+300.csv")["beta"] == "1e+300"
    summary = read_json(out / "entropy_summary.json")
    assert sorted(summary["medians_by_beta"]) == ["1", "1e+300", "1e+308", "2.5"]
    for beta in ("1e+300", "1e+308"):
        assert read_csv(out / f"entropy_beta{beta}.csv") == [
            {"group": "NVD", "msr": "7", "value": "1.0"}
        ]
        assert summary["medians_by_beta"][beta]["NVD"]["grand_median"] == 1.0


def test_a_one_month_track_gives_quality_points_and_skips_entropy(world, tmp_path, caplog):
    # from MSR 24 of 24 every curve has one state: quality pools it, and
    # entropy has no step, which is warned about once per group at any
    # number of weights
    assert run_cli("track", "--corpus", world["corpus"], "--releases", world["releases"],
                   "--as-of", world["as_of"], "--datasets", "NVD,NVD.Bug", "--models", "LN,RE",
                   "--start-msr", "24", "--out", tmp_path) == 0
    assert run_cli("quality", "--track", tmp_path / "track.csv", "--omega", "1",
                   "--out", tmp_path) == 0
    assert [(r["group"], r["msr"]) for r in read_csv(tmp_path / "quality_omega1.csv")] == [
        ("LN", "24"), ("RE", "24")
    ]
    medians = read_json(tmp_path / "quality_summary.json")["medians_by_omega"]["1"]
    assert sorted(medians) == ["LN", "RE"]
    assert all(m["second_half_median"] is None for m in medians.values())
    caplog.clear()
    assert run_cli("entropy", "--track", tmp_path / "track.csv", "--beta", "1,2",
                   "--out", tmp_path) == 0
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
        f"entropy: group {kind} skipped: no metric points" for kind in ("NVD", "NVD.Bug")
    ]
    assert read_csv(tmp_path / "entropy_beta1.csv") == read_csv(tmp_path / "entropy_beta2.csv") == []
    assert read_json(tmp_path / "entropy_summary.json")["medians_by_beta"] == {}


def test_an_empty_window_is_skipped_with_its_reason(world, tmp_path, caplog):
    # the world's release is dated 2005-01-01, so MSR 1 ends on 2005-02-28
    assert run_cli("fit", "--corpus", world["corpus"], "--releases", world["releases"],
                   "--as-of", "2005-02-27", "--datasets", "NVD,NVD.Bug", "--models", "LN",
                   "--out", tmp_path) == 0
    version = read_json(world["releases"])[0]["version"]
    error = f"as_of 2005-02-27 precedes the end of MSR 1 (2005-02-28) for synthetic {version}"
    kinds = ("NVD", "NVD.Bug")
    assert read_json(tmp_path / "fit_summary.json")["skipped_series"] == [
        {"product": "synthetic", "version": version, "dataset": kind, "error": error}
        for kind in kinds
    ]
    assert [m for m in caplog.messages if m.startswith("skipping ")] == [
        f"skipping synthetic {version} {kind}: {error}" for kind in kinds
    ]
    assert read_csv(tmp_path / "fits.csv") == []


def test_fit_without_as_of_observes_up_to_the_latest_record(world, tmp_path, caplog):
    latest = max(json.loads(line)["published"] for line in Path(world["corpus"]).open())
    assert latest < world["as_of"]
    assert run_cli("fit", "--corpus", world["corpus"], "--releases", world["releases"],
                   "--datasets", "NVD", "--models", "LN", "--out", tmp_path / "fit") == 0
    assert read_header(tmp_path / "fit" / "fits.csv")["as_of"] == latest
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    assert run_cli("fit", "--corpus", empty, "--releases", world["releases"],
                   "--out", tmp_path / "none") == 1
    assert "empty corpus and no --as-of given" in caplog.text
    assert not (tmp_path / "none").exists()


# the flags each subcommand reads besides its own; a config file may still
# set every RunConfig field
SESSION = ("--config", "--out")
INPUTS = SESSION + ("--corpus", "--releases")
CURVES = INPUTS + ("--as-of", "--datasets", "--models", "--multistart", "--workers")
COMMAND_FLAGS = {
    "import": INPUTS,
    "fit": CURVES,
    "track": CURVES + ("--start-msr",),
    "entropy": SESSION + ("--beta",),
    "quality": SESSION + ("--omega",),
    "compare": SESSION,
    "simulate": SESSION + ("--seed",),
}
# a value each flag parses, and the attribute it sets
FLAG_VALUES = {
    "--config": ("run.json", "config", "run.json"),
    "--out": ("o", "out", "o"),
    "--corpus": ("c.ndjson", "corpus", "c.ndjson"),
    "--releases": ("r.json", "releases", "r.json"),
    "--as-of": ("2009-01-31", "as_of", "2009-01-31"),
    "--datasets": ("NVD,Bug", "datasets", ["NVD", "Bug"]),
    "--models": ("AML,LN", "models", ["AML", "LN"]),
    "--multistart": ("2", "multistart", 2),
    "--workers": ("2", "workers", 2),
    "--start-msr": ("7", "start_msr", 7),
    "--beta": ("1,3", "beta", [1.0, 3.0]),
    "--omega": ("2", "omega", [2.0]),
    "--seed": ("9", "seed", 9),
}
REQUIRED = {
    "entropy": ("--track", "t.csv"),
    "quality": ("--track", "t.csv"),
    "compare": ("--series", "s.csv"),
    "simulate": ("--model", "AML", "--params", "1,2,3", "--horizon", "6"),
}


def test_each_command_takes_only_the_flags_it_reads(capsys):
    assert sum(map(len, COMMAND_FLAGS.values())) == 34
    parser = build_parser()
    for command, flags in COMMAND_FLAGS.items():
        for flag in flags:
            value, attr, parsed = FLAG_VALUES[flag]
            args = parser.parse_args([command, *REQUIRED.get(command, ()), flag, value])
            assert getattr(args, attr) == parsed, (command, flag)
    dropped = [(c, f) for c in COMMAND_FLAGS for f in FLAG_VALUES if f not in COMMAND_FLAGS[c]]
    assert len(dropped) == 57
    for command, flag in dropped:
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *REQUIRED.get(command, ()), flag, FLAG_VALUES[flag][0])
        assert exc.value.code == 2, (command, flag)
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_summaries_are_strict_json_with_null_for_an_empty_half(world, tmp_path):
    # from MSR 23 of 24 there is one entropy step, so no second half
    assert run_cli("track", "--corpus", world["corpus"], "--releases", world["releases"],
                   "--as-of", world["as_of"], "--models", "LN,RE", "--start-msr", "23",
                   "--out", tmp_path) == 0
    assert run_cli("entropy", "--track", tmp_path / "track.csv", "--out", tmp_path) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    summary = json.loads((tmp_path / "entropy_summary.json").read_text(), parse_constant=reject)
    medians = summary["medians_by_beta"]["1"]
    assert medians and all(m["second_half_median"] is None for m in medians.values())
    assert all(m["first_half_median"] == m["grand_median"] for m in medians.values())


def _python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh Python process run with ``argv``, with src/ first on its
    path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def _probe_output(probe: str) -> str:
    """What a fresh Python process running ``probe`` prints."""
    proc = _python("-c", probe)
    proc.check_returncode()
    return proc.stdout.strip()


def test_cli_import_leaves_statistics_and_multiprocessing_unloaded(world, tmp_path):
    # numpy loads only in the commands that fit, a process pool only with workers
    inputs = ["--corpus", str(world["corpus"]), "--releases", str(world["releases"])]
    curves = inputs + ["--as-of", world["as_of"], "--datasets", "NVD,NVD.Bug", "--models", "LN"]
    assert run_cli("track", *curves, "--out", tmp_path) == 0
    no_fit = [
        ["import", *inputs, "--out", str(tmp_path / "import")],
        ["entropy", "--track", str(tmp_path / "track.csv"), "--out", str(tmp_path)],
        ["quality", "--track", str(tmp_path / "track.csv"), "--out", str(tmp_path)],
        ["compare", "--series", str(tmp_path / "entropy_beta1.csv"), "--out", str(tmp_path)],
    ]
    fit = ["fit", *curves, "--out", str(tmp_path / "fit")]
    probe = (
        "import sys\n"
        "import vdmfit.cli\n"
        "def loaded(*names): return sorted(set(names) & set(sys.modules))\n"
        "print(loaded('numpy', 'statistics', 'multiprocessing', 'concurrent.futures'))\n"
        f"print([vdmfit.cli.main(argv) for argv in {no_fit!r}])\n"
        "print(loaded('numpy', 'multiprocessing', 'concurrent.futures'))\n"
        f"print(vdmfit.cli.main({fit!r}), loaded('numpy'))\n"
    )
    lines = _probe_output(probe).splitlines()  # compare prints its tests in between
    assert (lines[0], lines[-3:]) == ("[]", ["[0, 0, 0, 0]", "[]", "0 ['numpy']"])


@pytest.mark.parametrize("imports", ["vdmfit", "vdmfit.stats, vdmfit.datasets"])
def test_package_import_loads_no_submodule_and_no_numpy(imports):
    # the package exports nothing: a name is imported from its module
    probe = (
        "import sys\n"
        f"import {imports}\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('vdmfit.')))\n"
    )
    expected = sorted(name.strip() for name in imports.split(",") if name.strip() != "vdmfit")
    assert _probe_output(probe) == str(expected)


def test_every_exported_name_has_a_caller_in_src():
    # a name in a module's __all__ is loaded, imported or read as an attribute
    # by some module of the package; a helper only tests call is in oracles.py
    package = Path(__file__).resolve().parent.parent / "src" / "vdmfit"
    exported, used = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Assign) and [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ] == ["__all__"]:
                exported += [(path.stem, name) for name in ast.literal_eval(node.value)]
    assert [f"{module}.{name}" for module, name in exported if name not in used] == []
