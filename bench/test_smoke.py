"""Smoke test of the benchmark itself, on tiny worlds.

    python3 -m pytest bench/test_smoke.py

Run from the root of a checkout. It runs every workload once per mode and
checks that each metric named in BENCHMARK.json is printed with its unit,
that every layer on a workload's path made traced calls, and that the
tracer reproduces the ROADMAP baseline counts of ``rolling_gof(AML)`` on
the README series.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tracer  # noqa: E402
import worlds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result = _run(workload, 0)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_and_layers_on_path_called(workload):
    result = _run(workload, 1)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    value = {name: m["value"] for name, m in result["metrics"].items()}
    commands = worlds.design(workload, "tiny").commands
    on_path = [
        "datasets.select_dataset_calls", "datasets.series_built", "fitter.fit_calls",
        "fitter.lm_runs", "fitter.iterations", "models.evaluate_calls",
        "models.gradient_calls", "gof.test_fit_calls", "stats.chi_square_survival_calls",
        "datasets.import_corpus_s", "cli.self_s", "cli.self_s.fit", "simulate.setup_s",
    ]
    if "track" in commands:
        on_path += ["metrics.rolling_gof_calls", "fitter.lm_runs.AML", "fitter.lm_runs.LP",
                    "fitter.lm_runs.RE"]
    if "entropy" in commands:
        on_path += ["metrics.aggregate_calls", "stats.rank_test_calls"]
    assert [name for name in on_path if value[name] <= 0] == []


def test_bypassed_binding_reads_as_missing_not_as_zero_time():
    from vdmfit import fitter, simulate

    series = simulate.generate("LN", (2.0, 1.0), 12)
    captured = fitter.fit  # a name the tracer cannot see, as a refactor might add
    with tracer.Tracer() as t:
        captured(series, "LN")
    assert tracer.missing_calls(t, ["fitter.fit", "models.evaluate"]) == ["fitter.fit"]
    with tracer.Tracer() as t:
        fitter.fit(series, "LN")
    assert tracer.missing_calls(t, ["fitter.fit", "models.evaluate"]) == []
    assert fitter.fit is captured  # bindings restored on exit


def test_tracer_reproduces_roadmap_aml_counts():
    """ROADMAP baseline of rolling_gof(AML) on the README series: 1161 LM
    runs (27 launches on each of 43 prefixes), 32766 gradient and 62578
    evaluate calls."""
    from vdmfit import metrics, simulate

    noise = simulate.NoiseSpec(simulate.NoiseKind.MULTIPLICATIVE, 0.03, 7)
    series = simulate.generate("AML", (0.004, 120.0, 1.0), 48, noise)
    with tracer.Tracer() as t:
        results = metrics.rolling_gof(series, "AML")
    layer, _ = tracer.summarize(t)
    assert len(results) == 43
    assert layer["fitter.fit_calls"] == 43
    assert layer["fitter.lm_runs"] == 1161 == 27 * 43
    assert layer["fitter.iterations"] == layer["models.gradient_calls"] == 32766
    assert layer["models.evaluate_calls"] == 62578
    assert round(layer["fitter.iterations_per_run"]) == 28
    assert round(layer["fitter.evals_per_run"]) == 54
