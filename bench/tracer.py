"""Span tracer that instruments vdmfit from outside.

``Tracer`` replaces each traced public function with a timing wrapper at
*every* module binding that holds it (``fitter.fit``, ``metrics.fit``,
``cli.fit`` and the package's ``vdmfit.fit`` are all the same function), so
a call is seen whichever module makes it. A later refactor that calls a
layer through a new, unwrapped name shows up as a zero call count, which
the benchmark reports as a failed check rather than as zero time.

Calls become spans (name, start, end, parent span) kept in memory and
written out when the run ends. The two innermost kernels,
``models.evaluate`` and ``models.gradient``, run tens of thousands of
times per second; they are folded into their parent span as counts and
time instead of getting spans of their own, which keeps memory flat and
the tracing cost near one clock read per call.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# module -> traced public functions (the calls that cross layer boundaries)
TRACED = {
    "datasets": ("import_corpus", "import_releases", "select_dataset", "build_series",
                 "export_corpus"),
    "fitter": ("fit", "initial_guesses"),
    "models": ("evaluate", "gradient"),
    "gof": ("test_fit",),
    "stats": ("chi_square_survival", "mann_whitney_u", "kruskal_wallis"),
    "metrics": ("rolling_gof", "aggregate_entropy", "aggregate_quality"),
    "cli": ("cmd_import", "cmd_fit", "cmd_track", "cmd_entropy", "cmd_quality",
            "cmd_compare"),
    "simulate": ("generate", "corpus_records_from_series"),
}
LEAVES = frozenset({"models.evaluate", "models.gradient"})


class Tracer:
    """Context manager: wraps every binding on entry, restores on exit."""

    def __init__(self):
        import vdmfit.models

        self._domain_error = vdmfit.models.DomainError
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self, note)
        # (leaf, parent span name) -> [calls, seconds, domain rejections]
        self.leaves: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0])
        self.bindings: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # -- instrumentation -------------------------------------------------
    def __enter__(self) -> "Tracer":
        originals = {}
        for module, names in TRACED.items():
            mod = sys.modules.get(f"vdmfit.{module}") or __import__(
                f"vdmfit.{module}", fromlist=["_"]
            )
            for name in names:
                originals[id(getattr(mod, name))] = f"{module}.{name}"
        wrappers = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "vdmfit" and not mod_name.startswith("vdmfit."):
                continue
            for attr, value in list(vars(mod).items()):
                qualname = originals.get(id(value))
                if qualname is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, qualname)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
                self.bindings[qualname] = self.bindings.get(qualname, 0) + 1
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, func, qualname: str):
        if qualname in LEAVES:
            return self._wrap_leaf(func, qualname)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack) + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, qualname, 0.0]
            stack.append(frame)
            note = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                note = _note(qualname, args, kwargs, result)
                return result
            except Exception as exc:
                note = {"error": type(exc).__name__, **(_note(qualname, args, kwargs, None) or {})}
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                spans.append((span_id, parent, qualname, start, end, end - start - frame[2], note))

        traced.__wrapped__ = func
        return traced

    def _wrap_leaf(self, func, qualname: str):
        leaves, stack, domain_error = self.leaves, self._stack, self._domain_error

        def traced(*args, **kwargs):
            entry = leaves[(qualname, stack[-1][1] if stack else "")]
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            except domain_error:
                entry[2] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                entry[0] += 1
                entry[1] += elapsed
                if stack:
                    stack[-1][2] += elapsed

        traced.__wrapped__ = func
        return traced

    # -- results ---------------------------------------------------------
    def write(self, path) -> None:
        """Spans as JSON lines, then one line of folded leaf totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, self_s, note in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "self_s": self_s,
                                     "note": note}) + "\n")
            fh.write(json.dumps({"leaves": [
                {"name": leaf, "parent": parent, "calls": c, "seconds": s, "domain_errors": d}
                for (leaf, parent), (c, s, d) in sorted(self.leaves.items())
            ]}) + "\n")


def _model_of(args, kwargs) -> str | None:
    if len(args) > 1:
        return args[1]
    return kwargs.get("model_id")


def _note(qualname: str, args, kwargs, result):
    """What the metrics need from a call besides its timing."""
    if qualname == "fitter.fit":
        note = {"model": _model_of(args, kwargs)}
        if result is not None:
            note["converged"] = bool(result.converged)
        return note
    if qualname == "fitter.initial_guesses":
        return {"model": _model_of(args, kwargs),
                "launches": len(result) if result is not None else 0}
    if qualname == "gof.test_fit" and result is not None:
        return {"valid": bool(result.valid)}
    if qualname == "datasets.build_series" and result is not None:
        return {"points": [c for _, c in result.points]}
    return None


# calls that must appear in a traced session for each CLI command in it
ON_PATH = {
    "import": ("cli.cmd_import", "datasets.import_corpus"),
    "fit": ("cli.cmd_fit", "datasets.import_corpus", "datasets.import_releases",
            "datasets.select_dataset", "datasets.build_series", "fitter.fit",
            "fitter.initial_guesses", "models.evaluate", "models.gradient", "gof.test_fit",
            "stats.chi_square_survival"),
    "track": ("cli.cmd_track", "metrics.rolling_gof", "fitter.fit", "gof.test_fit"),
    "entropy": ("cli.cmd_entropy", "metrics.aggregate_entropy"),
    "quality": ("cli.cmd_quality", "metrics.aggregate_quality"),
    "compare": ("cli.cmd_compare", "stats.kruskal_wallis", "stats.mann_whitney_u"),
}
SETUP_PATH = ("simulate.generate", "simulate.corpus_records_from_series")


def call_counts(tracer: Tracer) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        counts[span[2]] += 1
    for (leaf, _), entry in tracer.leaves.items():
        counts[leaf] += entry[0]
    return counts


def missing_calls(tracer: Tracer, expected) -> list[str]:
    """Traced functions on the path that made no calls: the program now
    reaches that layer through a binding the tracer does not wrap."""
    counts = call_counts(tracer)
    return sorted({name for name in expected if counts[name] == 0})


def summarize(tracer: Tracer) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced session, and the full breakdown.

    ``_s`` values are self time (span minus child spans) summed over calls;
    ``fitter.us_per_lm_run*`` divide the inclusive time of ``fit`` by the
    multistart launches ``initial_guesses`` handed it.
    """
    per_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    fit_s_by_model: dict[str, float] = defaultdict(float)
    launches: dict[str, int] = defaultdict(int)
    unconverged = insufficient = invalid = 0
    built: dict[int, list] = defaultdict(list)
    for _, parent, name, start, end, self_s, note in tracer.spans:
        entry = per_name[name]
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += end - start
        note = note or {}
        if name == "fitter.fit":
            fit_s_by_model[note["model"]] += end - start
            if note.get("error") == "InsufficientDataError":
                insufficient += 1
            elif note.get("converged") is False:
                unconverged += 1
        elif name == "fitter.initial_guesses":
            launches[note["model"]] += note.get("launches", 0)
        elif name == "gof.test_fit" and note.get("valid") is False:
            invalid += 1
        elif name == "datasets.build_series" and "points" in note:
            built[parent].append(tuple(note["points"]))

    leaf_calls: dict[str, int] = defaultdict(int)
    leaf_s: dict[str, float] = defaultdict(float)
    under_fit: dict[str, int] = defaultdict(int)
    rejections = 0
    for (leaf, parent), (calls, seconds, domain_errors) in tracer.leaves.items():
        leaf_calls[leaf] += calls
        leaf_s[leaf] += seconds
        rejections += domain_errors
        if parent == "fitter.fit":
            under_fit[leaf] += calls
        per_name[leaf]["calls"] += calls
        per_name[leaf]["self_s"] += seconds
        per_name[leaf]["total_s"] += seconds

    def self_s(name):
        return per_name[name]["self_s"] if name in per_name else 0.0

    def calls(name):
        return per_name[name]["calls"] if name in per_name else 0

    runs = sum(launches.values())
    series_built = sum(len(v) for v in built.values())
    distinct = sum(len(set(v)) for v in built.values())
    us_per_run = {m: 1e6 * fit_s_by_model[m] / launches[m] for m in sorted(launches) if launches[m]}
    commands = sorted(n for n in per_name if n.startswith("cli.cmd_"))
    metrics = {
        "datasets.import_corpus_s": self_s("datasets.import_corpus"),
        "datasets.select_dataset_s": self_s("datasets.select_dataset"),
        "datasets.select_dataset_calls": calls("datasets.select_dataset"),
        "datasets.build_series_s": self_s("datasets.build_series"),
        "datasets.series_built": series_built,
        # per command: series that repeat another series of the same command
        "datasets.duplicate_series_share": 1.0 - distinct / series_built if series_built else 0.0,
        "fitter.fit_s": self_s("fitter.fit"),
        "fitter.fit_calls": calls("fitter.fit"),
        "fitter.lm_runs": runs,
        "fitter.iterations": under_fit["models.gradient"],
        "fitter.iterations_per_run": under_fit["models.gradient"] / runs if runs else 0.0,
        "fitter.evals_per_run": under_fit["models.evaluate"] / runs if runs else 0.0,
        "fitter.us_per_lm_run": 1e6 * sum(fit_s_by_model.values()) / runs if runs else 0.0,
        **{f"fitter.us_per_lm_run.{m}": us_per_run.get(m, 0.0) for m in ("AT", "LN", "RQ")},
        **{f"fitter.lm_runs.{m}": launches.get(m, 0) for m in ("AML", "LP", "RE")},
        "fitter.unconverged_winners": unconverged,
        "fitter.insufficient_data": insufficient,
        "models.evaluate_s": leaf_s["models.evaluate"],
        "models.evaluate_calls": leaf_calls["models.evaluate"],
        "models.gradient_s": leaf_s["models.gradient"],
        "models.gradient_calls": leaf_calls["models.gradient"],
        "models.domain_rejections": rejections,
        "gof.test_fit_s": self_s("gof.test_fit"),
        "gof.test_fit_calls": calls("gof.test_fit"),
        "gof.invalid_tests": invalid,
        "stats.chi_square_survival_s": self_s("stats.chi_square_survival"),
        "stats.chi_square_survival_calls": calls("stats.chi_square_survival"),
        "stats.rank_test_calls": calls("stats.mann_whitney_u") + calls("stats.kruskal_wallis"),
        "metrics.rolling_gof_calls": calls("metrics.rolling_gof"),
        "metrics.aggregate_calls": calls("metrics.aggregate_entropy")
        + calls("metrics.aggregate_quality"),
        "cli.self_s": sum(self_s(n) for n in commands),
        "cli.self_s.fit": self_s("cli.cmd_fit"),
    }
    breakdown = {
        "per_function": dict(sorted(per_name.items())),
        "fitter.us_per_lm_run_by_model": us_per_run,
        "fitter.lm_runs_by_model": dict(sorted(launches.items())),
        "metrics.rolling_gof_s": self_s("metrics.rolling_gof"),
        "metrics.aggregate_s": self_s("metrics.aggregate_entropy")
        + self_s("metrics.aggregate_quality"),
        "stats.rank_tests_s": self_s("stats.mann_whitney_u") + self_s("stats.kruskal_wallis"),
        "cli.self_s_by_command": {n[len("cli.cmd_"):]: self_s(n) for n in commands},
    }
    return metrics, breakdown
