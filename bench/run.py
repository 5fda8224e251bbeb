"""vdmfit benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload track_shared --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. A run

1. builds the seeded world several times (``setup_s`` is the median);
2. with ``--trace 0``, runs the workload's CLI session with ``--workers 1``,
   one fresh process per command, back to back until ``--seconds`` is
   used, rebuilding the world between sessions now and then, and reports
   medians over the sessions. The first session's output tree is checked
   field by field against the world's own oracle series, and every later
   session must reproduce it byte for byte;
3. with ``--trace 1``, runs the session once with ``--workers 2``, untimed,
   checks that output tree against the oracle, then runs the session in
   this process, alternately plain and under ``tracer.Tracer``, and
   reports per-layer numbers from the traced sessions. Both must
   reproduce the ``--workers 2`` tree byte for byte.

A failed check is printed and the run exits 1. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Scratch files, the run record and the spans go to
``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("track_shared", "track_distinct", "corpus_fit")
# set-up is repeated at least this often and for at least this long before
# the first session; between sessions it is repeated while it has taken less
# than SETUP_SHARE of the timed loop, so that its median spans the run
SETUP_REPEATS = 3
SETUP_SECONDS = 0.5
SETUP_SHARE = 0.05
CHECK_WORKERS = 2
REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output check failed; the run is not valid."""


# -- session -------------------------------------------------------------


def session_argvs(world, out: Path, workers: int) -> list[tuple[str, list[str]]]:
    """The workload's CLI session: (command, argv) in order."""
    d = world.design
    inputs = ["--corpus", str(world.corpus_path), "--releases", str(world.releases_path)]
    analysis = inputs + ["--as-of", world.as_of.isoformat(), "--multistart", str(d.multistart),
                         "--workers", str(workers), "--out", str(out)]
    argvs = {
        "import": ["import", *inputs, "--out", str(out)],
        "fit": ["fit", *analysis, "--models", ",".join(d.fit_models)],
        "track": ["track", *analysis, "--models", ",".join(d.track_models),
                  "--start-msr", str(d.start_msr)],
        "entropy": ["entropy", "--track", str(out / "track.csv"), "--out", str(out)],
        "quality": ["quality", "--track", str(out / "track.csv"), "--out", str(out)],
        "compare": ["compare", "--series", str(out / "entropy_beta1.csv"),
                    "--alternative", "greater", "--baseline", "NVD.Bug", "--out", str(out)],
    }
    return [(cmd, argvs[cmd]) for cmd in d.commands]


def _child_env() -> dict[str, str]:
    """The environment of a command process: this checkout's src/ first."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def run_subprocess_session(world, out: Path, workers: int, logs: Path) -> dict:
    """One fresh ``python -m vdmfit.cli`` process per command; wall time
    and peak RSS of each, read with os.wait4."""
    shutil.rmtree(out, ignore_errors=True)
    env = _child_env()
    walls, rss, cpu = {}, {}, {}
    start = time.perf_counter()
    for cmd, argv in session_argvs(world, out, workers):
        log_path = logs / f"{cmd}.log"
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(log_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_DUP2, 1, 2),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "vdmfit.cli", *argv], env,
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            # interrupted: leave no command process behind
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        walls[cmd] = time.perf_counter() - t0
        rss[cmd] = usage.ru_maxrss / 1024.0  # KiB -> MiB
        cpu[cmd] = usage.ru_utime + usage.ru_stime
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise CheckFailed(f"`vdmfit {cmd}` exited {code} (workers={workers}):\n{tail}")
    return {"wall": time.perf_counter() - start, "commands": walls, "rss_mb": rss,
            "cpu_s": cpu}


def run_inprocess_session(world, out: Path) -> dict:
    from vdmfit import cli

    shutil.rmtree(out, ignore_errors=True)
    walls = {}
    start = time.perf_counter()
    for cmd, argv in session_argvs(world, out, workers=1):
        t0 = time.perf_counter()
        code = cli.main(argv)
        walls[cmd] = time.perf_counter() - t0
        if code != 0:
            raise CheckFailed(f"in-process `vdmfit {cmd}` returned {code}")
    return {"wall": time.perf_counter() - start, "commands": walls}


def tree_digest(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def same_tree(reference: dict[str, str], out: Path, what: str) -> None:
    tree = tree_digest(out)
    if tree != reference:
        differ = sorted(k for k in set(tree) | set(reference) if tree.get(k) != reference.get(k))
        raise CheckFailed(f"{what}: output tree differs from the reference in {differ}")


# -- output checks ---------------------------------------------------------

EXPECTED_FILES = {
    "import": ("import_summary.json", "corpus.normalized.ndjson"),
    "fit": ("fits.csv", "fit_summary.json"),
    "track": ("track.csv",),
    "entropy": ("entropy_beta1.csv", "entropy_beta2.csv", "entropy_summary.json"),
    "quality": ("quality_omega1.csv", "quality_omega2.csv", "quality_summary.json"),
    "compare": ("compare.json",),
}
CLASSES = ("GoodFit", "Inconclusive", "NotFit")


def _curve(model: str, p: list[float], t: float) -> float:
    """The six VDM curves in plain floating point, independent of vdmfit."""
    if model == "AML":
        a, b, c = p
        return b / (b * c * math.exp(-a * b * t) + 1.0)
    if model == "AT":
        return p[0] * math.log(t) + p[1]
    if model == "LN":
        return p[0] * t + p[1]
    if model == "LP":
        return p[0] * math.log(1.0 + p[1] * t)
    if model == "RE":
        return p[0] * -math.expm1(-p[1] * t)
    if model == "RQ":
        return p[0] * t * t / 2.0 + p[1] * t
    raise CheckFailed(f"unknown model {model!r} in fits.csv")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader, None)
        if not header:
            raise CheckFailed(f"{path.name}: no header")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise CheckFailed(f"{path.name}: row of {len(row)} fields under {len(header)}")
            rows.append(dict(zip(header, row)))
    return rows


def _check_p(row: dict, where: str) -> None:
    if row["classification"] not in CLASSES:
        raise CheckFailed(f"{where}: unknown class {row['classification']!r}")
    p = float(row["p_value"])
    if not 0.0 <= p <= 1.0:
        raise CheckFailed(f"{where}: p-value {p} outside [0, 1]")
    band = "NotFit" if p < 0.05 else "Inconclusive" if p < 0.95 else "GoodFit"
    if row["valid"] == "True" and row["classification"] != band:
        raise CheckFailed(f"{where}: class {row['classification']} does not match p={p}")


def check_outputs(world, out: Path) -> dict:
    """Parse every output file and check it against the world's oracle.
    Returns the ok-row counts and fit statistics the metrics need."""
    for cmd in world.design.commands:
        for name in EXPECTED_FILES[cmd]:
            if not (out / name).is_file():
                raise CheckFailed(f"`vdmfit {cmd}` did not write {name}")
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            json.loads(path.read_text(encoding="utf-8"))
        elif path.suffix == ".csv":
            _read_csv(path)
        elif path.suffix == ".ndjson":
            for line in path.read_text(encoding="utf-8").splitlines():
                json.loads(line)

    if "import" in world.design.commands:
        summary = json.loads((out / "import_summary.json").read_text(encoding="utf-8"))
        if summary["records"] != world.n_records:
            raise CheckFailed(f"import counted {summary['records']} records, "
                              f"world has {world.n_records}")

    ok_fits, converged, log_sse = 0, 0, []
    fit_rows = _read_csv(out / "fits.csv")
    if len(fit_rows) != world.attempted_fits():
        raise CheckFailed(f"fits.csv has {len(fit_rows)} rows, expected {world.attempted_fits()}")
    for row in fit_rows:
        key = (row["product"], row["version"], row["dataset"])
        where = f"fits.csv {'/'.join(key)} {row['model']}"
        if row["status"] != "ok":
            continue
        ok_fits += 1
        converged += row["converged"] == "True"
        counts = world.expected_series[key]
        params = [float(v) for v in row["params"].split(";")]
        expected = [_curve(row["model"], params, float(t)) for t in range(1, len(counts) + 1)]
        sse = sum((y - e) ** 2 for y, e in zip(counts, expected))
        if not _close(sse, float(row["sse"])):
            raise CheckFailed(f"{where}: sse {row['sse']} but the oracle series gives {sse!r}")
        if int(row["dof"]) != len(counts) - len(params):
            raise CheckFailed(f"{where}: dof {row['dof']} for {len(counts)} points")
        if row["valid"] == "True":
            chi2 = sum((y - e) ** 2 / e for y, e in zip(counts, expected))
            if not _close(chi2, float(row["chi2"])):
                raise CheckFailed(f"{where}: chi2 {row['chi2']} but the oracle gives {chi2!r}")
        _check_p(row, where)
        log_sse.append(math.log(float(row["sse"])))

    ok_track = 0
    if "track" in world.design.commands:
        track_rows = _read_csv(out / "track.csv")
        if len(track_rows) > world.attempted_track():
            raise CheckFailed(f"track.csv has {len(track_rows)} rows, "
                              f"more than the {world.attempted_track()} attempted")
        for row in track_rows:
            if row["status"] == "ok":
                ok_track += 1
                _check_p(row, f"track.csv {row['version']} {row['dataset']} {row['model']} "
                              f"msr {row['msr']}")
    for name in ("entropy_beta1.csv", "entropy_beta2.csv", "quality_omega1.csv",
                 "quality_omega2.csv"):
        if (out / name).is_file():
            for row in _read_csv(out / name):
                if not 0.0 <= float(row["value"]) <= 1.0:
                    raise CheckFailed(f"{name}: value {row['value']} outside [0, 1]")
    if (out / "compare.json").is_file():
        doc = json.loads((out / "compare.json").read_text(encoding="utf-8"))
        if not doc["pairwise_mann_whitney"] or not 0 <= doc["kruskal_wallis"]["p_value"] <= 1:
            raise CheckFailed("compare.json: no pairwise tests or a bad Kruskal-Wallis p-value")

    if not log_sse:
        raise CheckFailed("fits.csv has no ok rows")
    return {
        "ok_fits": ok_fits,
        "ok_track": ok_track,
        "converged_share": converged / ok_fits,
        "fit_sse_geomean": math.exp(sum(log_sse) / len(log_sse)),
    }


# -- environment -------------------------------------------------------------


def environment(args) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    source = hashlib.sha256()
    for path in sorted((SRC / "vdmfit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


# -- main ----------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the smoke test's small worlds")
    return p.parse_args(argv)


def _exit_on_sigterm(signum, frame):
    # unwinds through run_subprocess_session, which stops its command process
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "vdmfit" / "__init__.py").is_file():
        print(f"error: no vdmfit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import vdmfit

    if Path(vdmfit.__file__).resolve().parent != (SRC / "vdmfit").resolve():
        print(f"error: imported vdmfit from {vdmfit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import logging

    import worlds

    # in-process sessions: keep the CLI's progress lines off the terminal
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    logs = work / "logs"
    logs.mkdir(parents=True)
    record = {"environment": environment(args)}

    try:
        setup_times, digests = [], set()

        def set_up():
            t0 = time.perf_counter()
            built = worlds.build(args.workload, args.seed, work / "world", args.size)
            setup_times.append(time.perf_counter() - t0)
            digests.add(built.digest)
            if len(digests) != 1:
                raise CheckFailed(f"world builder is not deterministic: digests {sorted(digests)}")
            return built

        world = set_up()
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            set_up()
        record["world"] = {
            "digest": world.digest,
            "records": world.n_records,
            "releases": len(world.design.shapes),
            "series": len(world.expected_series),
            "horizons": sorted({s.horizon for s in world.design.shapes}),
            "as_of": world.as_of.isoformat(),
            "multistart": world.design.multistart,
            "duplicate_series_share": world.duplicate_series_share,
        }

        out = work / "out"
        if args.trace == 0:
            # one untimed start-up compiles and caches the program's modules
            subprocess.run([sys.executable, "-m", "vdmfit.cli", "--version"], env=_child_env(),
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
                           timeout=60)
            first = {}

            def check(session):
                # the first session is checked against the world's oracle;
                # every later one must reproduce its output tree
                if first:
                    same_tree(first["tree"], out, "--workers 1 session")
                else:
                    first["checked"] = check_outputs(world, out)
                    first["tree"] = tree_digest(out)

            def set_up_between(elapsed):
                while sum(setup_times) < SETUP_SHARE * elapsed:
                    set_up()

            sessions = _timed_loop(
                args.seconds, lambda: run_subprocess_session(world, out, 1, logs), check,
                set_up_between)
            checked = first["checked"]
            metrics = _end_to_end(world, sessions, setup_times, checked)
            record["sessions"] = sessions
        else:
            # untimed reference session with a worker pool; the in-process
            # sessions must reproduce it
            reference_out = work / "reference"
            run_subprocess_session(world, reference_out, CHECK_WORKERS, logs)
            reference = tree_digest(reference_out)
            checked = check_outputs(world, reference_out)
            metrics, sessions, trace_record = _traced(world, work, out, reference, args)
            record["trace"] = trace_record
        record["checks"] = checked
        record["world"]["setup_s"] = {"builds": len(setup_times),
                                      "median": statistics.median(setup_times)}
        # a traced run checks two output trees per entry: plain and traced
        n_sessions = len(sessions) * (1 + args.trace)
        attempted = n_sessions * (world.attempted_fits() + world.attempted_track())
        failed = attempted - n_sessions * (checked["ok_fits"] + checked["ok_track"])
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        record["failed_check"] = str(exc)
        (work / "record.json").write_text(json.dumps(record, indent=2, default=str))
        return 1

    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    (work / "record.json").write_text(json.dumps(record, indent=2, default=str))
    print(f"{args.workload} seed={args.seed} sessions={n_sessions} digest={world.digest} "
          f"duplicate_series_share={world.duplicate_series_share:.2f} record={(work / 'record.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def _timed_loop(seconds: float, session, check, between=None) -> list[dict]:
    """Sessions until the next one would overrun ``seconds``; at least one.
    ``between(elapsed)`` runs after each session that is not the last."""
    sessions = []
    start = time.perf_counter()
    while True:
        s = session()
        check(s)
        sessions.append(s)
        typical = statistics.median(x["wall"] for x in sessions)
        elapsed = time.perf_counter() - start
        if elapsed + typical > seconds:
            return sessions
        if between:
            between(elapsed)


def _traced(world, work: Path, out: Path, reference, args):
    """Plain and traced in-process sessions in turn; per-layer metrics are
    medians over the traced ones, and trace.overhead_s is the difference
    of the median walls."""
    import tracer
    import worlds

    with tracer.Tracer() as setup_trace:
        worlds.build(args.workload, args.seed, work / "world_traced", args.size)
    missing = tracer.missing_calls(setup_trace, tracer.SETUP_PATH)
    expected = [name for cmd in world.design.commands for name in tracer.ON_PATH[cmd]]
    layer_runs = []
    # the first in-process calls pay one-off costs; pay them on the tiny world
    warm = worlds.build(args.workload, args.seed, work / "world_warm", "tiny")
    run_inprocess_session(warm, work / "warm_out")

    def pair():
        plain = run_inprocess_session(world, out)
        same_tree(reference, out, "in-process session")
        with tracer.Tracer() as t:
            traced = run_inprocess_session(world, out)
        same_tree(reference, out, "traced in-process session")
        missing.extend(tracer.missing_calls(t, expected))
        if missing:
            raise CheckFailed(
                f"{args.workload}: no traced calls to {sorted(set(missing))}, which are on the "
                "path; the program reaches them through a binding the tracer does not wrap")
        layer_runs.append((t, *tracer.summarize(t)))
        return {"wall": plain["wall"] + traced["wall"], "plain": plain, "traced": traced}

    sessions = _timed_loop(args.seconds, pair, lambda s: None)
    metrics = {
        name: (statistics.median(run[1][name] for run in layer_runs), _unit(name))
        for name in layer_runs[0][1]
    }
    metrics["simulate.setup_s"] = (
        sum(s[5] for s in setup_trace.spans if s[2].startswith("simulate.")), "s")
    plain = statistics.median(s["plain"]["wall"] for s in sessions)
    traced = statistics.median(s["traced"]["wall"] for s in sessions)
    metrics["trace.overhead_s"] = (traced - plain, "s")
    metrics["trace.wall_s"] = (traced, "s")
    layer_runs[-1][0].write(work / "spans.jsonl")
    return metrics, sessions, {"breakdown_last_session": layer_runs[-1][2],
                               "bindings_wrapped": layer_runs[-1][0].bindings,
                               "plain_wall_s": plain, "traced_wall_s": traced}


def _unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.startswith("fitter.us_per_lm_run"):
        return "us"
    if name.endswith("_share"):
        return "fraction"
    return "count"


def _end_to_end(world, sessions, setup_times, checked) -> dict[str, tuple[float, str]]:
    def wall_of(session, commands):
        return sum(session["commands"].get(c, 0.0) for c in commands)

    ok_rows = checked["ok_fits"] + checked["ok_track"]
    return {
        "wall_s": (statistics.median(s["wall"] for s in sessions), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "fits_per_s": (
            statistics.median(ok_rows / wall_of(s, ("fit", "track")) for s in sessions), "1/s"),
        "records_per_s": (statistics.median(
            world.n_records / wall_of(s, ("import", "fit", "track")) for s in sessions), "1/s"),
        "peak_rss_mb": (max(max(s["rss_mb"].values()) for s in sessions), "MB"),
        "converged_share": (checked["converged_share"], "fraction"),
        "fit_sse_geomean": (checked["fit_sse_geomean"], "count_sq"),
    }


if __name__ == "__main__":
    sys.exit(main())
