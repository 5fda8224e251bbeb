"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import json
import random
import time
from contextlib import contextmanager
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from vdmfit.cli import main as cli_main
from vdmfit.datasets import (
    DatasetKind,
    Release,
    build_series,
    msr_end,
    select_dataset,
)
from vdmfit.fitter import fit
from vdmfit.gof import FitClass, classify
from vdmfit.gof import test_fit as run_gof_test
from vdmfit.metrics import (
    TransitionKind,
    entropy_at,
    quality_at,
    rolling_gof,
)
from vdmfit.models import MODEL_IDS
from vdmfit.simulate import NoiseKind, NoiseSpec, generate
from vdmfit.stats import bonferroni, chi_square_survival, kruskal_wallis, mann_whitney_u

from oracles import CHI2_DOFS, CHI2_GRID, exact_series, link_bugs_to_nvd, load_chi2_oracle
from test_datasets import (
    browser_vulnerability_space_corpus,
    brute_force_links,
    counting_perspective_sizes,
    random_corpus,
    selector_oracle,
    VERSIONS,
)
from test_models import _draw_params, _draw_t, assert_gradient_matches_fd
from test_stats import _mwu_monte_carlo


@contextmanager
def criterion(num, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s)")


def test_criterion_01_formula_fidelity():
    with criterion(1, "formula fidelity, published values"):
        assert classify(0.999991) is FitClass.GOOD_FIT

        assert classify(0.0) is FitClass.NOT_FIT
        assert classify(0.049999999) is FitClass.NOT_FIT
        assert classify(0.05) is FitClass.INCONCLUSIVE
        assert classify(0.9499999) is FitClass.INCONCLUSIVE
        assert classify(0.95) is FitClass.GOOD_FIT
        assert classify(1.0) is FitClass.GOOD_FIT

        assert bonferroni(0.05, 4) == 0.0125

        assert msr_end(date(1997, 9, 1), 1) == date(1997, 10, 31)
        assert msr_end(date(1997, 9, 30), 1) == date(1997, 10, 31)

        corpus, release = browser_vulnerability_space_corpus()
        assert counting_perspective_sizes(corpus, release) == (6, 10, 14)


def test_criterion_02_chi_square_p_value_kernel():
    with criterion(2, "chi-square p-value kernel vs quadrature oracle"):
        oracle = load_chi2_oracle()
        assert len(oracle) == len(CHI2_DOFS) * len(CHI2_GRID) == 1500
        assert {e["dof"] for e in oracle} == set(range(1, 31))
        for entry in oracle:
            got = chi_square_survival(entry["chi2"], entry["dof"])
            assert abs(got - entry["p"]) <= 1e-6, entry
        assert chi_square_survival(3.841, 1) == pytest.approx(0.050, abs=0.001)


RECOVERY_RANGES = {
    "AML": ((0.002, 0.01), (60.0, 200.0), (0.3, 3.0)),
    "AT": ((5.0, 40.0), (1.0, 20.0)),
    "LN": ((0.5, 5.0), (1.0, 20.0)),
    "LP": ((50.0, 300.0), (0.02, 0.3)),
    "RE": ((60.0, 300.0), (0.02, 0.15)),
    "RQ": ((0.01, 0.1), (0.5, 5.0)),
}


def _ground_truth(rng, model_id):
    return tuple(rng.uniform(lo, hi) for lo, hi in RECOVERY_RANGES[model_id])


def test_criterion_03_parameter_recovery():
    with criterion(3, "noiseless parameter recovery within 2%"):
        for model_id in MODEL_IDS:
            # a str seed is hashed with SHA-512, not the per-process salted hash()
            rng = random.Random(model_id)
            for trial in range(100):
                truth = _ground_truth(rng, model_id)
                series = exact_series(model_id, truth, 60)
                outcome = fit(series, model_id)
                for got, want in zip(outcome.params.values, truth):
                    assert abs(got - want) / abs(want) < 0.02, (model_id, trial, truth)
                assert outcome.sse <= 1e-6 * series.counts[-1] ** 2, (model_id, trial)


SELF_FIT_TRUTH = {
    "AML": (0.004, 120.0, 1.0),
    "AT": (30.0, 5.0),
    "LN": (2.0, 3.0),
    "LP": (150.0, 0.05),
    "RE": (100.0, 0.05),
    "RQ": (0.05, 2.0),
}


def test_criterion_04_self_fit_classification():
    with criterion(4, "self-fit GoodFit rate and cross-fit rejection"):
        for model_id in MODEL_IDS:
            truth = SELF_FIT_TRUTH[model_id]
            good = 0
            for seed in range(100):
                noise = NoiseSpec(NoiseKind.MULTIPLICATIVE, 0.02, seed)
                series = generate(model_id, truth, 60, noise)
                result = run_gof_test(series, fit(series, model_id))
                good += result.classification is FitClass.GOOD_FIT
            assert good >= 95, (model_id, good)

        s_shaped = exact_series("AML", (0.004, 120.0, 1.0), 80)
        cross = run_gof_test(s_shaped, fit(s_shaped, "LN"))
        assert cross.classification is FitClass.NOT_FIT


def test_criterion_05_gradient_correctness():
    with criterion(5, "analytic gradients vs central differences"):
        rng = random.Random(55)
        checked = 0
        while checked < 1000:
            model_id = rng.choice(MODEL_IDS)
            params = _draw_params(rng, model_id)
            assert_gradient_matches_fd(model_id, params, _draw_t(rng), rel_tol=1e-6)
            checked += 1


def test_criterion_06_metric_identities():
    with criterion(6, "entropy and quality identities"):
        U, S, B = TransitionKind.UNCHANGED, TransitionKind.SMALL_JUMP, TransitionKind.BIG_JUMP
        assert entropy_at([U, U, U, U], beta=2.0) == 0.0
        assert entropy_at([S, S, B], beta=3.0) == 1.0
        assert quality_at((7, 0, 0), omega=2.0) == 1.0
        assert quality_at((0, 0, 9), omega=2.0) == 0.0

        rng = random.Random(66)
        for _ in range(1000):
            u, s, b = rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9)
            if u + s + b == 0:
                continue
            multiset = [U] * u + [S] * s + [B] * b
            b1, b2 = sorted((rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0)))
            assert entropy_at(multiset, b2) >= entropy_at(multiset, b1) - 1e-15

        for _ in range(1000):
            counts = (rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9))
            if sum(counts) == 0:
                continue
            w1, w2 = sorted((rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0)))
            assert quality_at(counts, w2) <= quality_at(counts, w1) + 1e-15
            assert quality_at(counts, 1.0) == (counts[0] + counts[1]) / sum(counts)


def test_criterion_07_dataset_invariants():
    with criterion(7, "dataset selectors, linking, subset invariants"):
        rng = random.Random(77)
        as_of = date(2010, 12, 31)
        for _ in range(100):
            corpus = random_corpus(rng)
            release = Release(
                "browser", rng.choice(VERSIONS), date(2005, 1, 15), rng.random() < 0.3
            )
            assert set(link_bugs_to_nvd(corpus)) == brute_force_links(corpus)
            for kind in DatasetKind:
                assert select_dataset(corpus, kind, release) == selector_oracle(
                    corpus, kind, release
                )
            base = build_series(
                select_dataset(corpus, DatasetKind.NVD, release), release, as_of, DatasetKind.NVD
            )
            for kind in (DatasetKind.NVD_BUG, DatasetKind.NVD_ADVICE):
                sub = build_series(
                    select_dataset(corpus, kind, release), release, as_of, kind
                )
                assert all(s <= b for s, b in zip(sub.counts, base.counts))



ROLLING_SCENARIOS = [
    ("LN", (2.0, 3.0), 0.03, 1),
    ("LN", (1.0, 8.0), 0.05, 2),
    ("RE", (90.0, 0.06), 0.04, 3),
    ("RE", (150.0, 0.1), 0.02, 4),
    ("RQ", (0.05, 2.0), 0.03, 5),
    ("RQ", (0.02, 4.0), 0.05, 6),
    ("AT", (25.0, 6.0), 0.04, 7),
    ("LP", (120.0, 0.07), 0.03, 8),
    ("AML", (0.01, 80.0, 0.9), 0.03, 9),
    ("AML", (0.006, 150.0, 1.2), 0.04, 10),
]


def test_criterion_08_rolling_experiment_consistency():
    with criterion(8, "rolling sweep equals independent prefix refits"):
        for model_id, truth, magnitude, seed in ROLLING_SCENARIOS:
            noise = NoiseSpec(NoiseKind.MULTIPLICATIVE, magnitude, seed)
            series = generate(model_id, truth, 20, noise)
            rolled = rolling_gof(series, model_id, multistart=2)
            assert [m for m, _ in rolled] == list(range(6, 21))
            for m, result in rolled:
                prefix = series.truncated(m)
                independent = run_gof_test(prefix, fit(prefix, model_id, 2))
                assert result is not None
                assert result.classification is independent.classification, (
                    model_id,
                    seed,
                    m,
                )


def test_criterion_09_nonparametric_tests():
    with criterion(9, "rank tests: exact case, symmetry, Monte-Carlo"):
        exact = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], alternative="less")
        assert exact.p_value == 0.05
        assert exact.statistic == 0.0

        a = [1.0, 2.0, 3.0, 4.0]
        sym = mann_whitney_u(a, list(a))
        assert sym.statistic == len(a) * len(a) / 2.0

        rng = np.random.default_rng(42)
        x = list(rng.normal(0.0, 1.0, 20))
        y = list(rng.normal(0.3, 1.0, 20))
        approx = mann_whitney_u(x, y, alternative="less")
        mc = _mwu_monte_carlo(x, y, "less", 1_000_000, seed=1)
        assert abs(approx.p_value - mc) <= 0.02

        groups = [list(rng.normal(mu, 1.0, 20)) for mu in (0.0, 0.2, 0.5)]
        kw = kruskal_wallis(groups)
        mc_kw = _kw_monte_carlo(groups, 1_000_000, seed=2)
        assert abs(kw.p_value - mc_kw) <= 0.02


def _kw_monte_carlo(groups, n_perm, seed):
    from vdmfit.stats import average_ranks

    pooled = np.array([v for g in groups for v in g])
    sizes = [len(g) for g in groups]
    n = pooled.size
    ranks = np.array(average_ranks(list(pooled)))
    h_obs = kruskal_wallis(groups).statistic
    gen = np.random.default_rng(seed)
    count = 0
    done = 0
    batch = 100_000
    while done < n_perm:
        size = min(batch, n_perm - done)
        keys = gen.random((size, n))
        order = np.argsort(keys, axis=1)
        permuted = ranks[order]
        h = np.zeros(size)
        col = 0
        for gsize in sizes:
            r_sum = permuted[:, col : col + gsize].sum(axis=1)
            h += r_sum * r_sum / gsize
            col += gsize
        h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
        count += int((h >= h_obs - 1e-9).sum())
        done += size
    return count / n_perm


def _run_pipeline(base: Path, seed: int) -> Path:
    """simulate -> import -> fit -> track -> entropy -> quality -> compare."""
    out = base
    sim = out / "sim"
    assert (
        cli_main(
            [
                "simulate",
                "--model", "RE",
                "--params", "80,0.07",
                "--horizon", "24",
                "--noise", "multiplicative",
                "--magnitude", "0.05",
                "--seed", str(seed),
                "--out", str(sim),
                "--emit-corpus",
            ]
        )
        == 0
    )
    as_of = json.loads((sim / "manifest.json").read_text())["as_of"]
    # only simulate takes --seed, so only it reads the session config's
    # seed; every other command checks the key, then ignores it, and its
    # header has no seed line
    config = sim / "run.json"
    config.write_text(json.dumps({"seed": seed}))
    session = ["--config", str(config)]
    world = [
        "--corpus", str(sim / "corpus.ndjson"),
        "--releases", str(sim / "releases.json"),
        "--as-of", as_of,
    ]
    assert cli_main(["import", *session, "--corpus", str(sim / "corpus.ndjson"),
                     "--out", str(out / "import")]) == 0
    assert cli_main(["fit", *session, *world, "--out", str(out / "fit")]) == 0
    assert cli_main(["track", *session, *world, "--out", str(out / "track")]) == 0
    assert cli_main(["entropy", *session, "--track", str(out / "track" / "track.csv"),
                     "--out", str(out / "entropy")]) == 0
    assert cli_main(["quality", *session, "--track", str(out / "track" / "track.csv"),
                     "--out", str(out / "quality")]) == 0
    assert cli_main(["compare", *session, "--series", str(out / "quality" / "quality_omega1.csv"),
                     "--alternative", "two_sided", "--out", str(out / "compare")]) == 0
    return out


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "byte-identical pipeline reruns"):
        run_a = _run_pipeline(tmp_path / "a", seed=2012)
        run_b = _run_pipeline(tmp_path / "b", seed=2012)
        files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
        assert files_a == files_b
        assert files_a  # non-empty tree
        for rel in files_a:
            assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
