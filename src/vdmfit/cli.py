"""Command-line pipeline: import, fit, track, entropy, quality, compare,
simulate.

Data goes to files (CSV for series and matrices, JSON for summaries);
progress and warnings go to stderr. Output is deterministic for a fixed
config and inputs: no timestamps, sorted keys everywhere, and every
output file carries a metadata block with the config hash, the dof
convention and the beta/omega settings, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from numpy.linalg import LinAlgError

from . import __version__
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
    msr_end,
    select_dataset,
    write_series_csv,
)
from .fitter import FitOptions
from .gof import FitClass
from .metrics import (
    DEFAULT_START_MSR,
    aggregate_entropy,
    aggregate_quality,
    rolling_gof,
    states_from_results,
)
from .models import MODEL_IDS, spec
from .simulate import NoiseKind, NoiseSpec, corpus_records_from_series, generate
from .stats import bonferroni, kruskal_wallis, mann_whitney_u

log = logging.getLogger("vdmfit")

DOF_CONVENTION = "n_points_minus_param_count"

_ALL_DATASETS = tuple(k.value for k in DatasetKind)


@dataclass
class RunConfig:
    corpus: str | None = None
    releases: str | None = None
    datasets: list[str] = field(default_factory=lambda: list(_ALL_DATASETS))
    models: list[str] = field(default_factory=lambda: list(MODEL_IDS))
    start_msr: int = DEFAULT_START_MSR
    beta: list[float] = field(default_factory=lambda: [1.0, 2.0])
    omega: list[float] = field(default_factory=lambda: [1.0, 2.0])
    out: str = "out"
    seed: int = 0
    workers: int = 1
    multistart: int = 3
    as_of: str | None = None

    def validate(self) -> None:
        if not self.models:
            raise ValueError("no models selected")
        if not self.datasets:
            raise ValueError("no dataset kinds selected")
        for m in self.models:
            spec(m)
        for d in self.datasets:
            DatasetKind(d)
        if not self.beta or any(b < 1.0 for b in self.beta):
            raise ValueError("beta weights must be >= 1")
        if not self.omega or any(w < 1.0 for w in self.omega):
            raise ValueError("omega weights must be >= 1")
        if self.start_msr < 1:
            raise ValueError("start_msr must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def fit_options(self) -> FitOptions:
        return FitOptions(multistart_grid_size=self.multistart)

    def config_hash(self) -> str:
        # hash the analysis parameters, not file locations or scheduling:
        # reruns of the same analysis must produce identical bytes even
        # from different directories or worker counts
        knobs = asdict(self)
        for volatile in ("corpus", "releases", "out", "workers"):
            knobs.pop(volatile, None)
        blob = json.dumps(knobs, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def metadata(self) -> dict:
        return {
            "tool": f"vdmfit {__version__}",
            "config_hash": self.config_hash(),
            "dof_convention": DOF_CONVENTION,
            "beta": json.dumps(self.beta),
            "omega": json.dumps(self.omega),
            "seed": self.seed,
            "start_msr": self.start_msr,
        }


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def build_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{config_path}: config must be a JSON object")
        unknown = set(loaded) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"{config_path}: unknown config keys {sorted(unknown)}")
        data.update(loaded)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    cfg = RunConfig(**data)
    cfg.validate()
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s", path)


def _read_csv(cfg: RunConfig, path: str | Path) -> tuple[dict, list[dict]]:
    """The metadata for what a command writes from a CSV file, and the
    file's rows. The file's ``# key: value`` header gives ``as_of`` and
    ``start_msr``: they describe its data, not the command's defaults."""
    header = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = []
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(": ")
                header[key] = value
            elif not line.startswith("#"):
                lines.append(line)
        rows = list(csv.DictReader(lines))
    try:
        meta = cfg.metadata() | {
            key: parse(header[key])
            for key, parse in (("as_of", str), ("start_msr", int))
            if key in header
        }
    except ValueError as exc:
        raise ValueError(f"{path}: bad header: {exc}") from None
    return meta, rows


def _parse_rows(
    rows: Sequence[Mapping[str, object]],
    source: str,
    required: Sequence[str],
    parse: Callable[[Mapping[str, object]], object],
) -> list:
    """``parse(row)`` for every row that has all ``required`` columns; a
    missing column or a bad value is a ValueError naming the source and
    the row (counted from 1 after the header)."""
    parsed = []
    for i, row in enumerate(rows, start=1):
        try:
            missing = [c for c in required if row.get(c) is None]
            if missing:
                raise ValueError(f"missing column(s) {', '.join(missing)}")
            parsed.append(parse(row))
        except ValueError as exc:
            raise ValueError(f"{source}: row {i}: {exc}") from None
    return parsed


def _load_series(cfg: RunConfig) -> tuple[list[ObservationSeries], list[dict], dict]:
    """Every (release, dataset kind) series of the configured world, in
    (product, version, kind) order, plus the skipped pairs (logged) and
    the output metadata."""
    if not cfg.corpus or not cfg.releases:
        raise ValueError("both --corpus and --releases are required for this command")
    started = time.perf_counter()
    corpus = import_corpus(cfg.corpus)
    releases = import_releases(cfg.releases)
    if cfg.as_of:
        as_of = date.fromisoformat(cfg.as_of)
    else:
        if len(corpus) == 0:
            raise ValueError("empty corpus and no --as-of given")
        as_of = max(r.published for r in corpus)
    kinds = [DatasetKind(d) for d in cfg.datasets]
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
    return series_list, failures, cfg.metadata() | {"as_of": as_of.isoformat()}


def _param_csv(values: Sequence[float]) -> str:
    return ";".join(repr(v) for v in values)


# what a fit raises on bad data (InsufficientDataError and DomainError are
# ValueErrors); anything else is a bug and propagates
_FIT_FAILURES = (ValueError, LinAlgError)


def _track_job(payload: tuple[ObservationSeries, str, int, FitOptions]):
    """Every fit the CLI makes: ``fit`` is the track of the last month."""
    series, model_id, start_msr, options = payload
    try:
        return ("ok", rolling_gof(series, model_id, start_msr, options))
    except _FIT_FAILURES as exc:  # per-curve failures never abort a sweep
        return ("error", str(exc))


def _run_jobs(func, payloads: Sequence, workers: int) -> list:
    if workers <= 1:
        return [func(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, payloads))


# the columns that name a curve, first in every fits.csv and track.csv row
_CURVE_COLUMNS = ("product", "version", "dataset", "model")
FIT_FIELDS = _CURVE_COLUMNS + (
    "status", "converged", "sse", "param_names", "params", "chi2", "dof", "p_value",
    "classification", "valid",
)


def _curve_row(series: ObservationSeries, model_id: str) -> dict:
    return dict(zip(_CURVE_COLUMNS, series.key() + (model_id,)))


def cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> int:
    options = cfg.fit_options()
    series_list, failures, meta = _load_series(cfg)
    payloads = [(s, m, s.last_msr, options) for s in series_list for m in cfg.models]
    results = _run_jobs(_track_job, payloads, cfg.workers)

    rows = []
    summary: dict[str, dict[str, int]] = {
        m: {c.value: 0 for c in FitClass} | {"errors": 0} for m in cfg.models
    }
    for (series, model_id, *_), (status, outcome) in zip(payloads, results):
        row = _curve_row(series, model_id)
        # one month was tracked, last_msr: the whole series
        result = outcome[0][1] if status == "ok" else None
        if result is not None:
            row.update(
                status="ok",
                converged=result.converged,
                sse=repr(result.sse),
                param_names=";".join(spec(model_id).param_names),
                params=_param_csv(result.params.values),
                chi2=repr(result.chi_square),
                dof=result.dof,
                p_value=repr(result.p_value),
                classification=result.classification.value,
                valid=result.valid,
            )
            summary[model_id][result.classification.value] += 1
        else:
            if status == "ok":
                outcome = f"series of {len(series.points)} points too short for {model_id}"
            row.update(status="error", classification="")
            summary[model_id]["errors"] += 1
            log.warning("fit failed for %s %s %s %s: %s",
                        series.product, series.version, series.dataset_kind.value, model_id,
                        outcome)
        rows.append(row)
    rows.sort(key=lambda r: (r["product"], r["version"], r["dataset"], r["model"]))

    out = _out_dir(cfg)
    _write_csv(out / "fits.csv", FIT_FIELDS, rows, meta)
    _write_json(
        out / "fit_summary.json",
        {"classification_counts_by_model": summary, "skipped_series": failures},
        meta,
    )
    return 0


TRACK_FIELDS = _CURVE_COLUMNS + (
    "msr", "status", "classification", "p_value", "chi2", "valid", "converged", "sse",
)


def cmd_track(cfg: RunConfig, args: argparse.Namespace) -> int:
    options = cfg.fit_options()
    series_list, _, meta = _load_series(cfg)
    payloads = [(s, m, cfg.start_msr, options) for s in series_list for m in cfg.models]
    results = _run_jobs(_track_job, payloads, cfg.workers)

    rows = []
    for (series, model_id, start_msr, _), (status, outcome) in zip(payloads, results):
        if status == "error":
            # a failed curve still gets its months, each without a state
            log.warning("track failed for %s %s: %s", series.key(), model_id, outcome)
            outcome = [(msr, None) for msr in range(start_msr, series.last_msr + 1)]
        for msr, result in outcome:
            row = _curve_row(series, model_id) | {"msr": msr}
            if result is None:
                row.update(status="error", classification="", p_value="", chi2="", valid="",
                           converged="", sse="")
            else:
                row.update(
                    status="ok",
                    classification=result.classification.value,
                    p_value=repr(result.p_value),
                    chi2=repr(result.chi_square),
                    valid=result.valid,
                    converged=result.converged,
                    sse=repr(result.sse),
                )
            rows.append(row)
    rows.sort(key=lambda r: (r["product"], r["version"], r["dataset"], r["model"], r["msr"]))
    out = _out_dir(cfg)
    _write_csv(out / "track.csv", TRACK_FIELDS, rows, meta)
    return 0


# the part of a FitResult that a track row keeps
_RowOutcome = NamedTuple("_RowOutcome", [("classification", FitClass), ("valid", bool)])


def _parse_valid(value: object) -> bool:
    if value not in ("True", "False"):
        raise ValueError(f"valid must be True or False, got {value!r}")
    return value == "True"


_STATE_COLUMNS = _CURVE_COLUMNS + ("msr", "status", "classification", "valid")


def _track_state(row: Mapping[str, object]) -> tuple[tuple[str, ...], int, _RowOutcome | None]:
    """(curve key, msr, outcome) of one track row; error months have no
    outcome."""
    status = row["status"]
    if status not in ("ok", "error"):
        raise ValueError(f"status must be ok or error, got {status!r}")
    outcome = None
    if status == "ok":
        outcome = _RowOutcome(FitClass(row["classification"]), _parse_valid(row["valid"]))
    curve = tuple(str(row[c]) for c in _CURVE_COLUMNS)
    return curve, int(row["msr"]), outcome


def _state_matrices(
    rows: Sequence[Mapping[str, object]], group_by: str, source: str
) -> dict[str, dict[str, dict[int, FitClass]]]:
    """group -> curve -> msr -> state, each curve's states from
    ``metrics.states_from_results``; curves without a state are left out."""
    by_curve: dict[tuple[str, ...], list] = {}
    for curve, msr, outcome in _parse_rows(rows, source, _STATE_COLUMNS, _track_state):
        by_curve.setdefault(curve, []).append((msr, outcome))
    group_index = _CURVE_COLUMNS.index(group_by)
    groups: dict[str, dict[str, dict[int, FitClass]]] = {}
    for curve, results in by_curve.items():
        states = states_from_results(results)
        if states:
            groups.setdefault(curve[group_index], {})["|".join(curve)] = states
    return groups


def _metric_series_rows(series) -> list[dict]:
    return [
        {"group": series.group, "msr": m, "value": repr(v)} for m, v in series.points
    ]


def _fmt_weight(w: float) -> str:
    return str(int(w)) if float(w) == int(w) else str(w)


def _cmd_metric(cfg: RunConfig, args: argparse.Namespace, which: str) -> int:
    # built per call, so the aggregate functions resolve at call time
    default_group_by, weight_name, aggregate = {
        "entropy": ("dataset", "beta", aggregate_entropy),
        "quality": ("model", "omega", aggregate_quality),
    }[which]
    meta, rows = _read_csv(cfg, args.track)
    group_by = args.group_by or default_group_by
    matrices = _state_matrices(rows, group_by, args.track)
    if not matrices:
        raise ValueError("no usable state sequences (is the track data empty?)")

    out = _out_dir(cfg)
    summary: dict[str, dict] = {}
    for w in getattr(cfg, weight_name):
        csv_rows: list[dict] = []
        for group in sorted(matrices):
            try:
                series = aggregate(matrices[group], w, group=group)
            except ValueError as exc:
                log.warning("%s: group %s skipped: %s", which, group, exc)
                continue
            csv_rows.extend(_metric_series_rows(series))
            summary.setdefault(_fmt_weight(w), {})[group] = {
                "grand_median": series.grand_median,
                "first_half_median": series.first_half_median,
                "second_half_median": series.second_half_median,
            }
        _write_csv(
            out / f"{which}_{weight_name}{_fmt_weight(w)}.csv",
            ("group", "msr", "value"),
            csv_rows,
            meta | {"group_by": group_by, weight_name: _fmt_weight(w)},
        )
    _write_json(
        out / f"{which}_summary.json",
        {f"medians_by_{weight_name}": summary, "group_by": group_by},
        meta,
    )
    return 0


def cmd_entropy(cfg: RunConfig, args: argparse.Namespace) -> int:
    return _cmd_metric(cfg, args, "entropy")


def cmd_quality(cfg: RunConfig, args: argparse.Namespace) -> int:
    return _cmd_metric(cfg, args, "quality")


def _metric_point(row: Mapping[str, object]) -> tuple[str, float]:
    return str(row["group"]), float(row["value"])


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> int:
    meta, rows = _read_csv(cfg, args.series)
    groups: dict[str, list[float]] = {}
    for group, value in _parse_rows(rows, args.series, ("group", "value"), _metric_point):
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
                **res.to_json_dict(),
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
    out = _out_dir(cfg)
    _write_json(
        out / "compare.json",
        {
            "groups": {g: len(groups[g]) for g in names},
            "kruskal_wallis": kw.to_json_dict(),
            "alpha": args.alpha,
            "corrected_alpha": corrected_alpha,
            "pairwise_mann_whitney": pairwise,
        },
        meta,
    )
    return 0


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    values = [float(v) for v in args.params.split(",")]
    noise = NoiseSpec(NoiseKind(args.noise), args.magnitude, cfg.seed)
    version = args.version or args.model
    series = generate(
        args.model,
        values,
        args.horizon,
        noise,
        product=args.product,
        version=version,
        dataset_kind=DatasetKind(args.dataset),
    )
    out = _out_dir(cfg)
    meta = cfg.metadata() | {
        "model": args.model,
        "params": _param_csv(values),
        "noise": args.noise,
        "magnitude": args.magnitude,
    }
    write_series_csv(out / "series.csv", [series], meta)
    log.info("wrote %s", out / "series.csv")

    if args.emit_corpus:
        release = Release(args.product, version, date.fromisoformat(args.release_date))
        records = corpus_records_from_series(series, release)
        corpus = Corpus(records)
        export_corpus(corpus, out / "corpus.ndjson")
        export_releases([release], out / "releases.json")
        as_of = msr_end(release.release_date, series.last_msr)
        _write_json(
            out / "manifest.json",
            {"as_of": as_of.isoformat(), "records": len(corpus)},
            meta,
        )
    return 0


def cmd_import(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not cfg.corpus:
        raise ValueError("--corpus is required")
    corpus = import_corpus(cfg.corpus)
    out = _out_dir(cfg)
    export_corpus(corpus, out / "corpus.normalized.ndjson")
    counts = {kind.value: len(corpus.of_kind(kind)) for kind in RecordKind}
    payload = {
        "records": len(corpus),
        "by_kind": counts,
        "dropped_dangling_refs": [list(pair) for pair in corpus.dropped_refs],
    }
    if cfg.releases:
        releases = import_releases(cfg.releases)
        payload["releases"] = len(releases)
    _write_json(out / "import_summary.json", payload, cfg.metadata())
    return 0


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--corpus", help="normalized corpus (newline-delimited JSON)")
    p.add_argument("--releases", help="releases JSON file")
    p.add_argument("--datasets", type=_csv_list, help=f"comma list of {','.join(_ALL_DATASETS)}")
    p.add_argument("--models", type=_csv_list, help=f"comma list of {','.join(MODEL_IDS)}")
    p.add_argument("--start-msr", dest="start_msr", type=int)
    p.add_argument("--beta", type=_csv_floats, help="comma list of entropy beta weights")
    p.add_argument("--omega", type=_csv_floats, help="comma list of quality omega weights")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--multistart", type=int)
    p.add_argument("--as-of", dest="as_of", help="observation cutoff date YYYY-MM-DD")


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

    p = sub.add_parser("import", help="validate and normalize a corpus")
    _add_shared_flags(p)
    p.set_defaults(run=cmd_import)

    p = sub.add_parser("fit", help="fit every (release x dataset x model) triple")
    _add_shared_flags(p)
    p.set_defaults(run=cmd_fit)

    p = sub.add_parser("track", help="rolling goodness-of-fit per month")
    _add_shared_flags(p)
    p.set_defaults(run=cmd_track)

    for name, run in (("entropy", cmd_entropy), ("quality", cmd_quality)):
        p = sub.add_parser(name, help=f"{name} series and medians from rolling states")
        _add_shared_flags(p)
        p.set_defaults(run=run)
        p.add_argument("--track", required=True, help="track.csv written by the track command")
        p.add_argument(
            "--group-by",
            dest="group_by",
            choices=("dataset", "model"),
            help="pooling (default: dataset for entropy, model for quality)",
        )

    p = sub.add_parser("compare", help="rank tests across metric-series groups")
    _add_shared_flags(p)
    p.set_defaults(run=cmd_compare)
    p.add_argument("--series", required=True, help="metric CSV with group,msr,value rows")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--alternative", choices=("greater", "less", "two_sided"), default="greater"
    )
    p.add_argument("--baseline", help="test this group against every other (default: all pairs)")

    p = sub.add_parser("simulate", help="generate a synthetic series or corpus")
    _add_shared_flags(p)
    p.set_defaults(run=cmd_simulate)
    p.add_argument("--model", required=True, choices=MODEL_IDS)
    p.add_argument("--params", required=True, help="comma list of parameter values")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--noise", choices=[k.value for k in NoiseKind], default="none")
    p.add_argument("--magnitude", type=float, default=0.0)
    p.add_argument("--product", default="synthetic")
    p.add_argument("--series-version", dest="version", default=None)
    p.add_argument("--dataset", choices=_ALL_DATASETS, default="NVD")
    p.add_argument("--release-date", dest="release_date", default="2005-01-01")
    p.add_argument("--emit-corpus", action="store_true", help="also write corpus + releases")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(build_config(args), args)
    # bad input: CorpusError, InsufficientDataError and DomainError are ValueErrors
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
