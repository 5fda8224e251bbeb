import csv
import json
import logging
import re
from pathlib import Path

import pytest

from vdmfit.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_json(path):
    return json.loads(Path(path).read_text())


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


def test_import_summary(world, tmp_path):
    code = run_cli("import", "--corpus", world["corpus"], "--out", tmp_path)
    assert code == 0
    summary = read_json(tmp_path / "import_summary.json")
    assert summary["records"] > 0
    assert summary["by_kind"]["nvd"] == summary["by_kind"]["bug"]
    assert summary["dropped_dangling_refs"] == []
    assert (tmp_path / "corpus.normalized.ndjson").exists()


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
    for metric in ("entropy", "quality"):
        assert run_cli(metric, "--track", out / "track.csv", "--out", out) == 0
        meta = read_json(out / f"{metric}_summary.json")["meta"]
        assert meta["start_msr"] == 11
        assert meta["as_of"] == world["as_of"]
    with open(out / "entropy_beta1.csv") as fh:
        header = [line for line in fh if line.startswith("#")]
    assert "# start_msr: 11\n" in header
    assert f"# as_of: {world['as_of']}\n" in header
    # compare reads the metric file's header the same way
    assert run_cli("compare", "--series", out / "entropy_beta1.csv", "--out", out) == 0
    meta = read_json(out / "compare.json")["meta"]
    assert meta["start_msr"] == 11
    assert meta["as_of"] == world["as_of"]


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


def test_failed_track_curve_keeps_its_months_as_error_rows(world, tmp_path, monkeypatch):
    import vdmfit.cli as cli

    rolling_gof = cli.rolling_gof

    def failing_re(series, model_id, *args, **kwargs):
        if model_id == "RE":
            raise ValueError("no RE today")
        return rolling_gof(series, model_id, *args, **kwargs)

    shared = ("--corpus", world["corpus"], "--releases", world["releases"],
              "--as-of", world["as_of"], "--datasets", "NVD,NVD.Bug")
    assert run_cli("track", *shared, "--models", "LN", "--out", tmp_path / "ln") == 0
    monkeypatch.setattr(cli, "rolling_gof", failing_re)
    out = tmp_path / "failed"
    assert run_cli("track", *shared, "--models", "LN,RE", "--out", out) == 0

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
    # transition counts are (u,s,b) = (2,0,0) then (0,1,1)
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
    # month 6: one GoodFit + one Inconclusive of two -> (1 + 0.5)/2
    assert values == {
        6: pytest.approx(0.75),
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


def test_config_file_with_flag_override(world, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "corpus": str(world["corpus"]),
                "releases": str(world["releases"]),
                "datasets": ["NVD"],
                "models": ["LN", "RE"],
                "as_of": world["as_of"],
                "out": str(tmp_path / "from_config"),
            }
        )
    )
    code = run_cli("fit", "--config", config)
    assert code == 0
    rows = read_csv(tmp_path / "from_config" / "fits.csv")
    assert {r["model"] for r in rows} == {"LN", "RE"}

    code = run_cli("fit", "--config", config, "--models", "AT", "--out", tmp_path / "override")
    assert code == 0
    rows = read_csv(tmp_path / "override" / "fits.csv")
    assert {r["model"] for r in rows} == {"AT"}


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
            run_cli(metric, "--corpus", bad, "--releases", bad, "--out", tmp_path)
        assert exc.value.code != 0
    # out-of-range metric weights are rejected up front
    assert run_cli("entropy", "--track", bad, "--beta", "0.5", "--out", tmp_path) == 1
    assert run_cli("quality", "--track", bad, "--omega", "0.9", "--out", tmp_path) == 1
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
    outs = []
    for workers, sub in ((1, "w1"), (2, "w2")):
        out = tmp_path / sub
        code = run_cli(
            "fit",
            "--corpus", world["corpus"],
            "--releases", world["releases"],
            "--as-of", world["as_of"],
            "--datasets", "NVD",
            "--models", "LN,RE,RQ",
            "--workers", workers,
            "--out", out,
        )
        assert code == 0
        outs.append((out / "fits.csv").read_bytes())
    a, b = outs
    # config hash differs (out path differs); compare data rows only
    strip = lambda blob: [ln for ln in blob.split(b"\n") if not ln.startswith(b"#")]
    assert strip(a) == strip(b)
