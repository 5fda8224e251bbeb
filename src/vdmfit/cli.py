"""Command-line pipeline: import, fit, track, entropy, quality, compare,
simulate.

Data goes to files (CSV for series and matrices, JSON for summaries);
progress and warnings go to stderr. Output is deterministic for a fixed
config and inputs: no timestamps and sorted keys everywhere, so reruns
are byte-identical. Every output file carries a metadata block: the tool,
the dof convention, every setting the command's parser defines but file
locations and ``--workers``, and ``config_hash``, the hash of those
settings.

``fit`` is the track of the last month: both files share one row builder
and one column list, a fits.csv row is its curve's last track row, and
equal curves are fitted once per run. The metric commands carry
``as_of``, ``start_msr`` and ``config_hash`` over from the file they read.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import sys
import time
from collections import Counter
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from . import DEFAULT_MULTISTART, MODEL_IDS, FitClass, NoiseKind, __version__
from .datasets import (
    Corpus,
    DatasetKind,
    EmptyWindowError,
    ObservationSeries,
    RecordKind,
    Release,
    build_series,
    export_corpus,
    export_releases,
    import_corpus,
    import_releases,
    iso_date,
    msr_end,
    select_dataset,
)
from .metrics import (
    DEFAULT_START_MSR, EmptyStepError, aggregate_entropy, aggregate_quality, rolling_gof
)
from .stats import bonferroni, kruskal_wallis, mann_whitney_u

if TYPE_CHECKING:
    from .gof import FitResult

log = logging.getLogger("vdmfit")

DOF_CONVENTION = "n_points_minus_param_count"

_ALL_DATASETS = tuple(k.value for k in DatasetKind)


# the config keys: each one's JSON type, as its type error names it, and its default
_CONFIG_KEYS = {
    "corpus": ("str | None", None),
    "releases": ("str | None", None),
    "datasets": ("list[str]", _ALL_DATASETS),
    "models": ("list[str]", MODEL_IDS),
    "start_msr": ("int", DEFAULT_START_MSR),
    "beta": ("list[float]", (1.0, 2.0)),
    "omega": ("list[float]", (1.0, 2.0)),
    "out": ("str", "out"),
    "seed": ("int", 0),
    "workers": ("int", 1),
    "multistart": ("int", DEFAULT_MULTISTART),
    "as_of": ("str | None", None),
}
# the JSON values a config file may give a key of each type
_JSON_SCALARS = {"str": str, "str | None": (str, type(None)), "int": int, "float": (int, float)}


def _config_value_ok(value: object, label: str) -> bool:
    """Whether a config file's value is of the type ``label``: one of
    _JSON_SCALARS, or a ``list[...]`` of one."""
    if label.startswith("list["):
        return isinstance(value, list) and all(_config_value_ok(v, label[5:-1]) for v in value)
    return isinstance(value, _JSON_SCALARS[label]) and not isinstance(value, bool)


def build_config(args: argparse.Namespace) -> None:
    """Resolve each config key the command has a flag for onto ``args``:
    the flag, else the ``--config`` file's value, else the default. The
    values are validated, then each list is put in one order."""
    loaded: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:  # bad JSON, or a byte that is not UTF-8
                raise ValueError(f"{args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = set(loaded) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {sorted(unknown)}")
        for key, value in loaded.items():
            label = _CONFIG_KEYS[key][0]
            if not _config_value_ok(value, label):
                raise ValueError(f"{args.config}: config key {key!r} must be {label}")
    # a key without a flag on this command is checked, then ignored, so
    # the header and config_hash hold only the settings the command reads
    flagged = _CONFIG_KEYS.keys() & vars(args).keys()
    cfg = {key: default for key, (_, default) in _CONFIG_KEYS.items()}
    for key in flagged:
        flag = getattr(args, key)
        cfg[key] = loaded.get(key, cfg[key]) if flag is None else flag
    # a config file may write a weight as an int: 1 and 1.0 are one analysis, and
    # an int read as its text is inf past float range, as 1e400 is
    cfg["beta"], cfg["omega"] = ([float(str(w)) for w in cfg[k]] for k in ("beta", "omega"))
    if not cfg["models"]:
        raise ValueError("no models selected")
    if not cfg["datasets"]:
        raise ValueError("no dataset kinds selected")
    for m in cfg["models"]:
        if m not in MODEL_IDS:
            from .models import spec  # its error names the unknown id
            spec(m)
    for d in cfg["datasets"]:
        DatasetKind(d)
    for name in ("beta", "omega"):
        if not cfg[name] or not all(math.isfinite(w) and w >= 1.0 for w in cfg[name]):
            raise ValueError(f"{name} weights must be finite and >= 1")
    for name in ("models", "datasets", "beta", "omega"):
        values = cfg[name]
        if len(set(values)) < len(values):
            raise ValueError(f"{name} must not repeat a value, got {values}")
    for name in ("start_msr", "workers", "multistart"):
        if cfg[name] < 1:
            raise ValueError(f"{name} must be >= 1")
    if cfg["as_of"]:
        try:
            iso_date(cfg["as_of"])
        except ValueError:
            raise ValueError(f"as_of must be a date YYYY-MM-DD, got {cfg['as_of']!r}") from None
    # and so are two orders of one list: one header and one hash, whatever order was given
    cfg["models"] = [m for m in MODEL_IDS if m in cfg["models"]]
    cfg["datasets"] = [d for d in _ALL_DATASETS if d in cfg["datasets"]]
    cfg["beta"], cfg["omega"] = sorted(cfg["beta"]), sorted(cfg["omega"])
    for key in flagged:
        setattr(args, key, cfg[key])


# the parser's own entries, file locations and scheduling
_UNRECORDED = {"command", "run", "config", "out", "corpus", "releases", "track", "series",
               "workers"}


def _header_value(value: object) -> object:
    """A setting as the header gives it: a list as JSON, a date as YYYY-MM-DD."""
    if isinstance(value, list):
        return json.dumps(value)
    return value.isoformat() if isinstance(value, date) else value


def _metadata(args: argparse.Namespace, **extra: object) -> dict:
    """The metadata of an output file: the tool, the dof convention, the
    settings (each one the command's parser defines, resolved, then
    ``extra``) and ``config_hash``, the hash of those settings. File
    locations and scheduling are not settings: reruns of one analysis from
    other directories or at other worker counts write the same bytes."""
    settings = {key: _header_value(value) for key, value in (vars(args) | extra).items()
                if key not in _UNRECORDED}
    digest = hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()[:16]
    return {**settings, "tool": f"vdmfit {__version__}", "dof_convention": DOF_CONVENTION,
            "config_hash": digest}


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(
    path: Path,
    fieldnames: Sequence[str],
    rows: Iterable[Mapping[str, object]],
    meta: Mapping[str, object],
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}: {meta[key]}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    log.info("wrote %s", path)


def _write_json(path: Path, payload: Mapping[str, object], meta: Mapping[str, object]) -> None:
    doc = {"meta": dict(meta)}
    doc.update(payload)
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")
    log.info("wrote %s", path)


def _read_rows(
    args: argparse.Namespace, path: str | Path, required: Sequence[str], parse: Callable
) -> tuple[dict, list]:
    """The metadata for what a command writes from a CSV file, and
    ``parse(row)`` of its every row. The leading ``#`` lines are the
    metadata block, whose ``# key: value`` lines give ``as_of``,
    ``start_msr`` and ``config_hash``: they describe its data, not the
    command's defaults. A byte that is not UTF-8, a row the csv module
    cannot read, a bad header, a missing ``required`` column or a bad
    value is a ValueError naming the file (and the row, from 1)."""
    header = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = []
        try:
            for line in fh:
                if lines or not line.startswith("#"):
                    lines.append(line)
                elif line.startswith("# "):
                    key, _, value = line[2:].rstrip("\r\n").partition(": ")
                    header[key] = value
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    rows = []
    try:
        rows.extend(csv.DictReader(lines))  # keeps the rows read before an error
    except csv.Error as exc:  # a field over the csv field limit, say
        raise ValueError(f"{path}: row {len(rows) + 1}: {exc}") from None
    try:
        meta = _metadata(args) | {
            key: parse_value(header[key])
            for key, parse_value in (("as_of", str), ("start_msr", int), ("config_hash", str))
            if key in header
        }
    except ValueError as exc:
        raise ValueError(f"{path}: bad header: {exc}") from None
    parsed = []
    for i, row in enumerate(rows, start=1):
        try:
            missing = [c for c in required if row.get(c) is None]
            if missing:
                raise ValueError(f"missing column(s) {', '.join(missing)}")
            parsed.append(parse(row))
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
    return meta, parsed


def _load_series(args: argparse.Namespace) -> tuple[list[ObservationSeries], list[dict], dict]:
    """Every (release, dataset kind) series of the configured world, in
    (product, version, kind) order, plus the skipped pairs (logged) and
    the output metadata."""
    if not args.corpus or not args.releases:
        raise ValueError("both --corpus and --releases are required for this command")
    started = time.perf_counter()
    corpus = import_corpus(args.corpus)
    releases = import_releases(args.releases)
    if args.as_of:
        as_of = iso_date(args.as_of)
    else:
        if len(corpus) == 0:
            raise ValueError("empty corpus and no --as-of given")
        as_of = max(r.published for r in corpus)
    kinds = [DatasetKind(d) for d in args.datasets]
    loaded = time.perf_counter()

    series_list: list[ObservationSeries] = []
    failures: list[dict] = []
    for release in sorted(releases, key=lambda r: (r.product, r.version)):
        for kind in kinds:
            vulns = select_dataset(corpus, kind, release)
            try:
                series_list.append(build_series(vulns, release, as_of, kind))
            except EmptyWindowError as exc:
                failures.append(
                    {
                        "product": release.product,
                        "version": release.version,
                        "dataset": kind.value,
                        "error": str(exc),
                    }
                )
    # timings go to stderr only, never into an output file
    log.info(
        "%d records loaded in %.3f s; %d series built and %d skipped in %.3f s",
        len(corpus),
        loaded - started,
        len(series_list),
        len(failures),
        time.perf_counter() - loaded,
    )
    for failure in failures:
        log.warning("skipping %(product)s %(version)s %(dataset)s: %(error)s", failure)
    return series_list, failures, _metadata(args, as_of=as_of.isoformat())


def _track_job(payload: tuple[ObservationSeries, str, int, int]):
    """Every fit the CLI makes: a curve's months, or the error text of its failure."""
    # bad data makes a fit raise a ValueError (InsufficientDataError, DomainError)
    # or numpy's LinAlgError; anything else is a bug and propagates
    from numpy.linalg import LinAlgError
    try:
        return rolling_gof(*payload)
    except (ValueError, LinAlgError) as exc:  # per-curve failures never abort a sweep
        return str(exc)


def _run_jobs(payloads: Sequence, workers: int) -> list:
    # a process pool may fork all its workers at the first submit: start no more than the jobs
    workers = min(workers, len(payloads))
    if workers <= 1:
        return [_track_job(p) for p in payloads]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_track_job, payloads))


# the columns of every fits.csv and track.csv row: those that name its curve, then its fit
_CURVE_COLUMNS = ("product", "version", "dataset", "model")
ROW_FIELDS = _CURVE_COLUMNS + (
    "msr", "status", "classification", "p_value", "chi2", "valid", "converged", "sse",
    "param_names", "params", "dof",
)


def _result_row(
    series: ObservationSeries, model_id: str, msr: int | None, result: FitResult | None
) -> dict:
    """A fits.csv or track.csv row: a curve's fit at MSR ``msr``, its
    parameters included, so the month's curve reads back without a refit.
    A month without a result is an error row whose result columns are
    empty; a curve without a month, one whose ``msr`` is empty too."""
    row = dict(zip(_CURVE_COLUMNS, series.key() + (model_id,)), msr=msr)
    if result is None:
        return row | {"status": "error"}
    params = result.outcome.params
    return row | {
        "status": "ok",
        "classification": result.classification.value,
        "p_value": repr(result.p_value),
        "chi2": repr(result.chi_square),
        "valid": result.valid,
        "converged": result.outcome.converged,
        "sse": repr(result.outcome.sse),
        "param_names": ";".join(params.as_dict()),
        "params": ";".join(repr(v) for v in params.values),
        "dof": result.dof,
    }


def _fit_and_write(args: argparse.Namespace, start_msr: int | None) -> tuple[list[dict], dict]:
    """Fit every (series, model) curve from ``start_msr`` on (None: the
    last month); write fits.csv, each curve's last track row (a curve
    without a month: an error row), and fit_summary.json, the counts of
    those rows' classifications and errors; return every month's track
    rows and the metadata. Equal points and model share one fit; a failed
    curve is logged once and keeps its months as error rows."""
    series_list, skipped, meta = _load_series(args)
    curves = [
        (s, m, s.last_msr if start_msr is None else start_msr)
        for s in sorted(series_list, key=ObservationSeries.key)
        for m in args.models
    ]
    # a FitResult holds no curve identity, and the points and the run fix the
    # first month and multistart: curves of equal points and model share one fit
    jobs: dict[tuple, tuple] = {}
    for series, model_id, first in curves:
        jobs.setdefault((series.points, model_id), (series, model_id, first, args.multistart))
    log.info("%d curves, %d distinct fits", len(curves), len(jobs))
    started = time.perf_counter()
    results = dict(zip(jobs, _run_jobs(list(jobs.values()), args.workers)))
    log.info("%d distinct fits in %.3f s", len(jobs), time.perf_counter() - started)
    fit_rows, track_rows = [], []
    summary = {m: dict.fromkeys([c.value for c in FitClass] + ["errors"], 0) for m in args.models}
    for series, model_id, first in curves:
        months = results[series.points, model_id]
        error = None
        if isinstance(months, str):
            error, months = months, [(m, None) for m in range(first, series.last_msr + 1)]
        elif not months:
            error = f"series ends at MSR {series.last_msr}, before MSR {first}"
        elif months[-1][1] is None:
            error = f"series of {len(series.points)} points too short for {model_id}"
        if error is not None:
            log.warning("fit failed for %s %s %s %s: %s", *series.key(), model_id, error)
        rows = [_result_row(series, model_id, msr, r) for msr, r in months]
        track_rows += rows
        row = rows[-1] if rows else _result_row(series, model_id, None, None)
        fit_rows.append(row)
        summary[model_id][row.get("classification", "errors")] += 1

    out = _out_dir(args)
    _write_csv(out / "fits.csv", ROW_FIELDS, fit_rows, meta)
    _write_json(
        out / "fit_summary.json",
        {"classification_counts_by_model": summary, "skipped_series": skipped},
        meta,
    )
    return track_rows, meta


def cmd_fit(args: argparse.Namespace) -> int:
    _fit_and_write(args, None)
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    rows, meta = _fit_and_write(args, args.start_msr)
    _write_csv(_out_dir(args) / "track.csv", ROW_FIELDS, rows, meta)
    return 0


_STATE_COLUMNS = _CURVE_COLUMNS + ("msr", "status", "classification", "valid")


def _track_state(row: Mapping[str, object]) -> tuple[tuple[str, ...], int, FitClass | None]:
    """(curve key, msr, state) of one track row: an invalid test is
    NotFit, and an error month has no state."""
    status = row["status"]
    if status not in ("ok", "error"):
        raise ValueError(f"status must be ok or error, got {status!r}")
    state = None
    if status == "ok":
        state = FitClass(row["classification"])
        if row["valid"] not in ("True", "False"):
            raise ValueError(f"valid must be True or False, got {row['valid']!r}")
        if row["valid"] == "False":
            state = FitClass.NOT_FIT
    curve = tuple(str(row[c]) for c in _CURVE_COLUMNS)
    return curve, int(row["msr"]), state


_MEDIANS = ("grand_median", "first_half_median", "second_half_median")


def _fmt_weight(w: float) -> str:
    """``w`` as written in file names and keys: 1, 2.5, 1e+300."""
    return repr(float(w)).removesuffix(".0")


def _cmd_metric(
    args: argparse.Namespace, which: str, weight_name: str, aggregate: Callable
) -> int:
    meta, states = _read_rows(args, args.track, _STATE_COLUMNS, _track_state)
    group_index = _CURVE_COLUMNS.index(args.group_by)
    # group -> curve -> msr -> state; months without a state are left out
    groups: dict[str, dict[tuple[str, ...], dict[int, FitClass]]] = {}
    seen = set()
    for i, (curve, msr, state) in enumerate(states, start=1):
        if (curve, msr) in seen:
            raise ValueError(f"{args.track}: row {i}: repeats MSR {msr} of {' '.join(curve)}")
        seen.add((curve, msr))
        if state is not None:
            groups.setdefault(curve[group_index], {}).setdefault(curve, {})[msr] = state
    if not groups:
        raise ValueError("no usable state sequences (is the track data empty?)")

    weights = getattr(args, weight_name)
    pooled: dict[str, list] = {}  # group -> its MetricSeries at each weight
    for group in sorted(groups):
        try:
            pooled[group] = [aggregate(groups[group], w) for w in weights]
        except EmptyStepError as exc:  # a group without points has none at any weight
            log.warning("%s: group %s skipped: %s", which, group, exc)

    out = _out_dir(args)
    summary: dict[str, dict] = {}
    for i, w in enumerate(weights):
        name = _fmt_weight(w)
        at_w = {group: series[i] for group, series in pooled.items()}
        rows = [
            {"group": g, "msr": m, "value": repr(v)} for g, s in at_w.items() for m, v in s.points
        ]
        _write_csv(
            out / f"{which}_{weight_name}{name}.csv", ("group", "msr", "value"), rows,
            meta | {weight_name: name},
        )
        if at_w:
            summary[name] = {g: {k: getattr(s, k) for k in _MEDIANS} for g, s in at_w.items()}
    _write_json(
        out / f"{which}_summary.json",
        {f"medians_by_{weight_name}": summary, "group_by": args.group_by},
        meta,
    )
    return 0


# the aggregate is looked up per call, so a wrapper bound in its place is the one called
def cmd_entropy(args: argparse.Namespace) -> int:
    return _cmd_metric(args, "entropy", "beta", aggregate_entropy)


def cmd_quality(args: argparse.Namespace) -> int:
    return _cmd_metric(args, "quality", "omega", aggregate_quality)


def _metric_point(row: Mapping[str, object]) -> tuple[str, float]:
    value = float(row["value"])
    if not math.isfinite(value):
        # NaN has no rank order, so a rank test over it reads nothing
        raise ValueError(f"value must be finite, got {row['value']!r}")
    return str(row["group"]), value


def cmd_compare(args: argparse.Namespace) -> int:
    meta, points = _read_rows(args, args.series, ("group", "value"), _metric_point)
    groups: dict[str, list[float]] = {}
    for group, value in points:
        groups.setdefault(group, []).append(value)
    names = sorted(groups)
    if len(names) < 2:
        raise ValueError(f"need at least two groups to compare, found {names}")

    kw = kruskal_wallis([groups[g] for g in names])
    lines = [
        f"kruskal-wallis: groups={','.join(names)} H={kw.statistic:.6g} "
        f"p={kw.p_value:.6g}"
    ]

    if args.baseline:
        if args.baseline not in groups:
            raise ValueError(f"baseline group {args.baseline!r} not found in {names}")
        pairs = [(args.baseline, g) for g in names if g != args.baseline]
    else:
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    corrected_alpha = bonferroni(args.alpha, len(pairs))
    lines.append(
        f"bonferroni: alpha={args.alpha:g} n_tests={len(pairs)} "
        f"corrected_alpha={corrected_alpha:g}"
    )

    pairwise = []
    for a, b in pairs:
        res = mann_whitney_u(groups[a], groups[b], alternative=args.alternative)
        decision = "reject" if res.p_value < corrected_alpha else "accept"
        pairwise.append(
            {
                "a": a,
                "b": b,
                "alternative": args.alternative,
                **res._asdict(),
                "corrected_alpha": corrected_alpha,
                "null_hypothesis": decision,
            }
        )
        lines.append(
            f"mann-whitney ({args.alternative}): {a} vs {b} U={res.statistic:.6g} "
            f"p={res.p_value:.6g} alpha'={corrected_alpha:g} -> {decision} null"
        )

    for line in lines:
        print(line)
    out = _out_dir(args)
    _write_json(
        out / "compare.json",
        {
            "groups": {g: len(groups[g]) for g in names},
            "kruskal_wallis": kw._asdict(),
            "alpha": args.alpha,
            "corrected_alpha": corrected_alpha,
            "pairwise_mann_whitney": pairwise,
        },
        meta,
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .simulate import NoiseSpec, corpus_records_from_series, generate
    noise = NoiseSpec(NoiseKind(args.noise), args.magnitude, args.seed)
    series = generate(args.model, args.params, args.horizon, noise, product=args.product,
                      version=args.series_version, dataset_kind=DatasetKind(args.dataset))
    if args.emit_corpus:
        # every month end is built before the first write, so a failure writes nothing
        release = Release(args.product, series.version, args.release_date)
        corpus = Corpus(corpus_records_from_series(series, release))
        as_of = msr_end(release.release_date, series.last_msr)
    out = _out_dir(args)
    columns = ("product", "version", "dataset", "msr", "cumulative")
    # simulated counts are whole numbers
    rows = (dict(zip(columns, series.key() + (m, int(c)))) for m, c in series.points)
    meta = _metadata(args)
    _write_csv(out / "series.csv", columns, rows, meta)

    if args.emit_corpus:
        export_corpus(corpus, out / "corpus.ndjson")
        export_releases([release], out / "releases.json")
        _write_json(out / "manifest.json", {"as_of": as_of.isoformat(), "records": len(corpus)},
                    meta)
    return 0


def cmd_import(args: argparse.Namespace) -> int:
    if not args.corpus:
        raise ValueError("--corpus is required")
    corpus = import_corpus(args.corpus)
    releases = import_releases(args.releases) if args.releases else None
    out = _out_dir(args)
    export_corpus(corpus, out / "corpus.normalized.ndjson")
    counts = Counter(rec.kind for rec in corpus)
    payload = {
        "records": len(corpus),
        "by_kind": {kind.value: counts[kind] for kind in RecordKind},
        "dropped_dangling_refs": [list(pair) for pair in corpus.dropped_refs],
    }
    if releases is not None:
        payload["releases"] = len(releases)
    _write_json(out / "import_summary.json", payload, _metadata(args))
    return 0


def _csv_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _csv_floats(text: str) -> list[float]:
    return [float(item) for item in _csv_list(text)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdmfit",
        description="fit vulnerability discovery models and track their goodness-of-fit",
    )
    parser.add_argument("--version", action="version", version=f"vdmfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes the flags it reads; a config file may set any of _CONFIG_KEYS
    session = argparse.ArgumentParser(add_help=False)
    session.add_argument("--config", help="JSON config file; flags override its values")
    session.add_argument("--out", help="output directory (default: out)")
    inputs = argparse.ArgumentParser(add_help=False, parents=[session])
    inputs.add_argument("--corpus", help="normalized corpus (newline-delimited JSON)")
    inputs.add_argument("--releases", help="releases JSON file")
    curves = argparse.ArgumentParser(add_help=False, parents=[inputs])
    curves.add_argument("--as-of", dest="as_of", help="observation cutoff date YYYY-MM-DD")
    curves.add_argument(
        "--datasets", type=_csv_list, help=f"comma list of {','.join(_ALL_DATASETS)}"
    )
    curves.add_argument("--models", type=_csv_list, help=f"comma list of {','.join(MODEL_IDS)}")
    curves.add_argument("--multistart", type=int, help="grid nodes per launch axis")
    curves.add_argument("--workers", type=int)

    def command(name, parent, run, text):
        p = sub.add_parser(name, parents=[parent], help=text)
        p.set_defaults(run=run)
        return p

    command("import", inputs, cmd_import, "validate and normalize a corpus")
    command("fit", curves, cmd_fit, "fit every (release x dataset x model) triple")
    p = command("track", curves, cmd_track, "rolling goodness-of-fit per month")
    p.add_argument("--start-msr", dest="start_msr", type=int)

    for name, run, weight, group_by in (
        ("entropy", cmd_entropy, "beta", "dataset"), ("quality", cmd_quality, "omega", "model"),
    ):
        p = command(name, session, run, f"{name} series and medians from rolling states")
        p.add_argument("--track", required=True, help="track.csv written by the track command")
        p.add_argument(f"--{weight}", type=_csv_floats, help=f"comma list of {weight} weights")
        p.add_argument("--group-by", choices=("dataset", "model"), default=group_by,
                       help="pooling (default: %(default)s)")

    p = command("compare", session, cmd_compare, "rank tests across metric-series groups")
    p.add_argument("--series", required=True, help="metric CSV with group,msr,value rows")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--alternative", choices=("greater", "less", "two_sided"), default="greater"
    )
    p.add_argument("--baseline", help="test this group against every other (default: all pairs)")

    p = command("simulate", session, cmd_simulate, "generate a synthetic series or corpus")
    p.add_argument("--seed", type=int)
    p.add_argument("--model", required=True, choices=MODEL_IDS)
    p.add_argument("--params", type=_csv_floats, required=True,
                   help="comma list of parameter values")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--noise", choices=[k.value for k in NoiseKind], default="none")
    p.add_argument("--magnitude", type=float, default=0.0)
    p.add_argument("--product", default="synthetic")
    p.add_argument("--series-version", help="the series' version (default: the model)")
    p.add_argument("--dataset", choices=_ALL_DATASETS, default="NVD")
    p.add_argument("--release-date", dest="release_date", type=iso_date, default="2005-01-01")
    p.add_argument("--emit-corpus", action="store_true", help="also write corpus + releases")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        build_config(args)
        return args.run(args)
    # bad input: ParseError, InsufficientDataError and DomainError are ValueErrors
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
