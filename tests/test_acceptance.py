"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The data-replication criterion is skipped with a
notice unless the settler-mortality CSV is supplied (see ``_ajr_path``).
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from pulse_iv import inference
from pulse_iv.data import Dataset, DesignView, ModelPartition
from pulse_iv.estimators import EstimatorSpec, estimate
from pulse_iv.experiments import ExperimentConfig, run_experiment
from pulse_iv.inference import ANDERSON_RUBIN, PLAIN, TestConfig, chi2_quantile
from pulse_iv.pulse import PulseConfig, PulseMessage, primal_solve, pulse_estimate
from pulse_iv.sem import (
    e1_model,
    e1_superiority_interval,
    population_pulse_underid,
    round_interval_inward,
    sem_sample,
    univariate_model,
)

from conftest import (
    kclass_estimand,
    make_instance,
    oracle_lambda_bisection,
    penalized_loss_minimizer,
    t_star,
)


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    assert ok, f"{cid}: {detail}"


def test_c01_kclass_closed_form_vs_optimizer():
    start = time.time()
    rng = np.random.default_rng(101)
    kappas = (0.0, 0.3, 0.6, 0.9)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(30, 201))
        d1 = int(rng.integers(1, 4))
        q = int(rng.integers(d1, d1 + 4))
        view = make_instance(10_000 + i, n=n, d1=d1, q=q, confounding=0.6)
        kappa = kappas[i % 4]
        closed = estimate(view, EstimatorSpec("kclass", kappa)).alpha
        oracle = penalized_loss_minimizer(view, kappa)
        gap = float(np.linalg.norm(closed - oracle)) / (1.0 + float(np.linalg.norm(closed)))
        worst = max(worst, gap)
    elapsed = time.time() - start
    report(
        "C1",
        worst <= 1e-6 and elapsed < 30.0,
        f"closed form vs optimizer, worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_c02_monotonicity_suite():
    start = time.time()
    grid = np.linspace(0.0, 100.0, 200)
    violations = 0
    for i in range(50):
        d1 = 1 + i % 2
        q = d1 + (i % 3)
        view = make_instance(20_000 + i, n=60 + (i % 4) * 30, d1=d1, q=q, confounding=0.8)
        ols_vals, iv_vals, t_vals = [], [], []
        for lam in grid:
            alpha = view.kclass_solve(lam / (1.0 + lam))
            lo, li = view.ols_loss(alpha), view.iv_loss(alpha)
            ols_vals.append(lo)
            iv_vals.append(li)
            t_vals.append(view.n * li / lo)
        for seq, sign in ((ols_vals, 1.0), (iv_vals, -1.0), (t_vals, -1.0)):
            arr = np.asarray(seq)
            slack = 1e-12 * np.maximum(1.0, np.abs(arr[:-1]))
            violations += int(np.sum(sign * np.diff(arr) < -slack))
    elapsed = time.time() - start
    report(
        "C2",
        violations == 0 and elapsed < 20.0,
        f"monotone losses/statistic on 50 instances, {violations} violations, {elapsed:.1f}s",
    )


def test_c03_primal_dual_pulse_equivalence():
    start = time.time()
    cfg = PulseConfig()
    shapes = [(2, 1), (1, 1), (1, 2)]  # under, just, over
    checked = 0
    boundary_checked = 0
    worst_gap, worst_boundary = 0.0, 0.0
    i = 0
    while checked < 50 and i < 200:
        d1, q = shapes[i % 3]
        view = make_instance(30_000 + i, n=100 + (i % 3) * 40, d1=d1, q=q, confounding=0.85)
        i += 1
        res = pulse_estimate(view, cfg)
        if res.message is PulseMessage.TSLS_REJECTED_FALLBACK:
            continue
        ts = t_star(view, cfg)
        if not math.isfinite(ts):
            continue
        alpha_primal = primal_solve(view, ts)
        scale = 1.0 + float(np.linalg.norm(res.alpha))
        gap = float(np.linalg.norm(alpha_primal - res.alpha)) / scale
        worst_gap = max(worst_gap, gap)
        checked += 1
        if res.message is PulseMessage.NONE:
            tr = inference.test_statistic(view, res.alpha, cfg)
            worst_boundary = max(
                worst_boundary, abs(tr.statistic - tr.threshold) / tr.threshold
            )
            boundary_checked += 1
    elapsed = time.time() - start
    ok = (
        checked == 50
        and boundary_checked >= 10
        and worst_gap <= 1e-5
        and worst_boundary <= 1e-4
        and elapsed < 60.0
    )
    report(
        "C3",
        ok,
        f"primal=dual=PULSE on {checked} instances (worst gap {worst_gap:.2e}), "
        f"boundary on {boundary_checked} (worst {worst_boundary:.2e}), {elapsed:.1f}s",
    )


def test_c04_binary_search_precision():
    worst = {2**10: 0.0, 2**20: 0.0}
    for i in range(20):
        d1, q = [(1, 1), (1, 2), (2, 2)][i % 3]
        view = make_instance(40_000 + i, n=80 + (i % 5) * 20, d1=d1, q=q, confounding=0.9)
        cfg0 = PulseConfig()
        stat_ols = inference.test_statistic(view, view.kclass_solve(0.0), cfg0)
        if stat_ols.accepted:
            continue
        for n_prec in worst:
            result = pulse_estimate(view, PulseConfig(precision_n=n_prec)).lambda_used
            oracle = oracle_lambda_bisection(view, cfg0, precision=0.1 / n_prec)
            worst[n_prec] = max(worst[n_prec], abs(result - oracle))
    ok = all(gap <= 1.0 / n_prec for n_prec, gap in worst.items())
    report(
        "C4",
        ok,
        "search within 1/N of 10x-finer oracle: "
        + ", ".join(f"N=2^{int(math.log2(n))}: {g:.2e}" for n, g in worst.items()),
    )


def test_c05_e1_population_and_finite_sample():
    model = e1_model()
    part = ModelPartition((0,))
    targets = {0.0: 1.25, 0.75: 1.1, 1.0: 1.0}
    pop_ok = all(
        abs(kclass_estimand(model, part, k)[0] - v) <= 1e-10 for k, v in targets.items()
    )
    sums = {k: 0.0 for k in targets}
    seeds = 50
    for seed in range(seeds):
        view = DesignView(sem_sample(model, 2000, seed=500 + seed))
        for k in targets:
            sums[k] += float(estimate(view, EstimatorSpec("kclass", k)).alpha[0])
    mean_gap = {k: abs(sums[k] / seeds - targets[k]) for k in targets}
    ok = pop_ok and all(g <= 0.03 for g in mean_gap.values())
    report(
        "C5",
        ok,
        f"population exactly 1.25/1.1/1.0; finite-sample mean gaps "
        + ", ".join(f"{k:g}: {g:.3f}" for k, g in mean_gap.items()),
    )


def test_c06_superiority_interval():
    start = time.time()
    lo, hi = e1_superiority_interval(1.1, (1.25, 1.0))
    rounded = round_interval_inward((lo, hi))
    elapsed = time.time() - start
    ok = (
        round(lo, 4) == 1.3628
        and abs(hi - 3.0) <= 1e-9
        and rounded == (1.37, 3.0)
        and elapsed < 1.0
    )
    report("C6", ok, f"crossings [{lo:.4f}, {hi:.4f}] -> report {rounded}, {elapsed:.2f}s")


def test_c07_test_level_and_power():
    start = time.time()
    model = univariate_model(q=2, rho=0.3, r2=0.5)
    cfg = TestConfig(p_min=0.05, scaling=PLAIN)
    reps = 2000
    reject_null, reject_alt = 0, 0
    for seed in range(reps):
        view = DesignView(sem_sample(model, 2000, seed=70_000 + seed))
        if not inference.test_statistic(view, np.array([1.0]), cfg).accepted:
            reject_null += 1
        if not inference.test_statistic(view, np.array([1.5]), cfg).accepted:
            reject_alt += 1
    level = reject_null / reps
    power = reject_alt / reps
    elapsed = time.time() - start
    ok = abs(level - 0.05) <= 0.015 and power >= 0.99 and elapsed < 120.0
    report("C7", ok, f"level {level:.3f} (target 0.05 +/- 0.015), power {power:.3f}, {elapsed:.0f}s")


def test_c08_weak_instrument_rmse_ordering():
    start = time.time()

    def run_cell(rho: float, r2: float):
        cfg = ExperimentConfig(
            design="univariate",
            repetitions=1000,
            master_seed=80,
            q_values=(1,),
            rho_values=(rho,),
            r2_values=(r2,),
            n_values=(50,),
            estimators=("ols", "fuller:1", "fuller:4", "pulse"),
        )
        return run_experiment(cfg).cells[0]

    weak_cell = run_cell(rho=0.1, r2=0.0001)
    strong_cell = run_cell(rho=0.9, r2=0.3)
    weak = {label: met.rmse for label, met in weak_cell.metrics.items()}
    strong = {label: met.rmse for label, met in strong_cell.metrics.items()}
    gn_weakest = weak_cell.weak["mean_min_eig_gn"]
    elapsed = time.time() - start
    ok = (
        weak["pulse"] < weak["fuller:1"]
        and weak["pulse"] < weak["fuller:4"]
        and strong["pulse"] < strong["ols"]
        and gn_weakest < 1.55  # below the relevancy-test threshold range
        and elapsed < 360.0
    )
    report(
        "C8",
        ok,
        "weak cell RMSE pulse/f1/f4 = "
        f"{weak['pulse']:.3f}/{weak['fuller:1']:.3f}/{weak['fuller:4']:.3f} "
        f"(mean min-eig G_n {gn_weakest:.2f}); "
        f"strong cell pulse {strong['pulse']:.3f} vs ols {strong['ols']:.3f}, {elapsed:.0f}s",
    )


def test_c09_underidentified_convergence():
    target = population_pulse_underid(1.0, 1.0, 1.0)
    assert target == pytest.approx((1.0 / 3.0, 2.0 / 3.0), abs=1e-12)
    cfg = ExperimentConfig(
        design="underid-e3",
        repetitions=100,
        master_seed=90,
        n_values=(100, 1000, 10_000),
        estimators=("pulse", "modified-tsls"),
    )
    result = run_experiment(cfg)
    medians: dict[str, list[float]] = {"pulse": [], "modified-tsls": []}
    for cell in result.cells:
        for label in medians:
            medians[label].append(cell.metrics[label].median_abs_error)
    ok = all(
        seq[0] > seq[1] > seq[2] and seq[2] < 0.05 for seq in medians.values()
    )
    report(
        "C9",
        ok,
        "median errors across n=1e2/1e3/1e4: "
        + "; ".join(f"{k}: " + "/".join(f"{v:.3f}" for v in seq) for k, seq in medians.items()),
    )


def test_c10_pulse_consistency():
    model = univariate_model(q=1, rho=0.5, r2=0.3)
    cfg = PulseConfig()
    errors = {100: [], 10_000: []}
    for seed in range(200):
        for n in errors:
            view = DesignView(sem_sample(model, n, seed=100_000 + seed))
            errors[n].append(abs(float(pulse_estimate(view, cfg).alpha[0]) - 1.0))
    med_small = float(np.median(errors[100]))
    med_large = float(np.median(errors[10_000]))
    ok = med_large < med_small / 3.0
    report("C10", ok, f"median |error| at n=1e4 {med_large:.4f} < 1/3 of n=1e2 {med_small:.4f}")


def test_c11_anderson_rubin_bridge():
    mismatches = 0
    total = 0
    for i in range(30):
        d1, q = [(1, 1), (1, 2), (2, 3)][i % 3]
        view = make_instance(60_000 + i, n=60 + (i % 4) * 25, d1=d1, q=q)
        cfg = TestConfig(p_min=0.05, scaling=ANDERSON_RUBIN)
        quant = chi2_quantile(view.q, 0.95)
        rng = np.random.default_rng(61_000 + i)
        for _ in range(100):
            alpha = rng.normal(size=view.k)
            via_tc = inference.test_statistic(view, alpha, cfg).accepted
            via_ar = inference.ar_statistic(view, alpha) <= quant / view.q
            mismatches += int(via_tc != via_ar)
            total += 1
    report("C11", mismatches == 0, f"{total} grid points, {mismatches} acceptance mismatches")


# ---------------------------------------------------------------------------
# Data replication (conditional on dataset availability)
# ---------------------------------------------------------------------------

#: Column layout expected of the settler-mortality extract: log GDP per capita
#: 1995, average expropriation protection, log settler mortality, scaled
#: latitude, continent indicators, and the neo-Europe indicator.
AJR_COLUMNS = ("logpgp95", "avexpr", "logem4", "lat_abst", "africa", "asia", "other", "rich4")

AJR_GOLDEN = {
    "M1": (0.5221, 0.9443, 0.8584, 0.6583, None, 5.9915, 5.9915),
    "M2": (0.4679, 0.9957, 0.8457, 0.5834, None, 7.8147, 7.8147),
    "M3": (0.4868, 1.2812, 0.9925, 0.7429, None, 5.9914, 5.9915),
    "M4": (0.4709, 1.2118, 0.9268, 0.6292, None, 7.8147, 7.8147),
    "M5": (0.4824, 0.5780, 0.5573, 0.4824, "ols", 1.1798, 5.9915),
    "M6": (0.4658, 0.5757, 0.5476, 0.4658, "ols", 1.1554, 7.8147),
    "M7": (0.4238, 0.9822, 0.7409, 0.4238, "ols", 10.7722, 11.0705),
    "M8": (0.4013, 1.1071, 0.7059, 0.4013, "ols", 9.7546, 12.5916),
}


def _ajr_path() -> Path | None:
    env = os.environ.get("PULSE_IV_AJR_CSV")
    if env and Path(env).exists():
        return Path(env)
    local = Path(__file__).parent / "data" / "ajr_colonial.csv"
    return local if local.exists() else None


def _ajr_view(rows: np.ndarray, names: list[str], included: tuple[str, ...]) -> DesignView:
    col = {name: rows[:, names.index(name)] for name in names}
    inc = np.column_stack([col[c] for c in included]) if included else np.empty((rows.shape[0], 0))
    a = np.column_stack([inc, col["logem4"], np.ones(rows.shape[0])])
    ds = Dataset(
        y=col["logpgp95"],
        x=col["avexpr"][:, None],
        a=a,
        x_names=("avexpr",),
        a_names=tuple(included) + ("logem4", "const"),
    )
    included_exo = tuple(range(len(included))) + (ds.q - 1,)
    return DesignView(ds, ModelPartition((0,), included_exo))


def test_settler_mortality_plumbing_on_synthetic_data():
    """Exercise the replication machinery so the conditional golden test cannot
    hide a broken construction: thresholds must count the intercept and every
    included exogenous column, and all estimators must run on each subset."""
    rng = np.random.default_rng(12_000)
    n = 64
    logem4 = rng.normal(4.6, 1.2, size=n)
    avexpr = 9.0 - 0.6 * logem4 + rng.normal(size=n)
    logpgp95 = 4.0 + 0.5 * avexpr + rng.normal(scale=0.5, size=n)
    lat = rng.uniform(0.0, 0.7, size=n)
    africa, asia, other = np.zeros(n), np.zeros(n), np.zeros(n)
    africa[:25], asia[25:40], other[40:46] = 1.0, 1.0, 1.0  # 18 base rows
    rich4 = np.zeros(n)
    rich4[46:50] = 1.0
    names = list(AJR_COLUMNS)
    data = np.column_stack([logpgp95, avexpr, logem4, lat, africa, asia, other, rich4])

    expected_dof = {(): 2, ("lat_abst",): 3, ("africa", "asia", "other"): 5,
                    ("lat_abst", "africa", "asia", "other"): 6}
    for included, dof in expected_dof.items():
        view = _ajr_view(data, names, included)
        assert view.q == dof
        cfg = PulseConfig(p_min=0.05)
        res = pulse_estimate(view, cfg)
        assert inference.test_statistic(view, res.alpha, cfg).threshold == pytest.approx(
            chi2_quantile(dof, 0.95), rel=1e-12
        )
        for kind in ("ols", "tsls"):
            assert np.all(np.isfinite(estimate(view, EstimatorSpec(kind)).alpha))
    # subset filters drop the flagged rows only
    assert data[data[:, names.index("rich4")] < 0.5].shape[0] == 60
    assert data[data[:, names.index("africa")] < 0.5].shape[0] == 39


def test_c12_settler_mortality_golden_values():
    path = _ajr_path()
    if path is None:
        msg = (
            "C12: settler-mortality CSV not present; place it at tests/data/ajr_colonial.csv "
            f"or set PULSE_IV_AJR_CSV (expected columns: {', '.join(AJR_COLUMNS)})"
        )
        print(f"[SKIP] {msg}")
        pytest.skip(msg)
    import csv as _csv

    with path.open(newline="", encoding="utf-8") as fh:
        reader = _csv.DictReader(fh)
        names = list(AJR_COLUMNS)
        records = [[float(rec[c]) for c in names] for rec in reader]
    data = np.asarray(records)
    assert data.shape[0] == 64, f"expected the 64-country extract, got {data.shape[0]} rows"

    subsets = {
        "base": data,
        "no_neo": data[data[:, names.index("rich4")] < 0.5],
        "no_africa": data[data[:, names.index("africa")] < 0.5],
    }
    model_spec = {
        "M1": ("base", ()),
        "M2": ("base", ("lat_abst",)),
        "M3": ("no_neo", ()),
        "M4": ("no_neo", ("lat_abst",)),
        "M5": ("no_africa", ()),
        "M6": ("no_africa", ("lat_abst",)),
        "M7": ("base", ("africa", "asia", "other")),
        "M8": ("base", ("lat_abst", "africa", "asia", "other")),
    }
    cfg = PulseConfig(p_min=0.05)
    failures = []
    for name, (subset, included) in model_spec.items():
        view = _ajr_view(subsets[subset], names, included)
        got = {
            "OLS": float(estimate(view, EstimatorSpec("ols")).alpha[0]),
            "TSLS": float(estimate(view, EstimatorSpec("tsls")).alpha[0]),
            "FUL": float(estimate(view, EstimatorSpec("fuller", 4.0)).alpha[0]),
        }
        res = pulse_estimate(view, cfg)
        got["PULSE"] = float(res.alpha[0])
        ols_v, tsls_v, ful_v, pulse_v, message, stat_v, thr_v = AJR_GOLDEN[name]
        for label, expect in (("OLS", ols_v), ("TSLS", tsls_v), ("FUL", ful_v), ("PULSE", pulse_v)):
            if abs(got[label] - expect) > 5e-4:
                failures.append(f"{name} {label}: {got[label]:.4f} vs {expect}")
        expected_msg = PulseMessage.OLS_ACCEPTED if message == "ols" else PulseMessage.NONE
        if res.message is not expected_msg:
            failures.append(f"{name} message: {res.message} vs {expected_msg}")
        tr = inference.test_statistic(view, res.alpha, cfg)
        if abs(tr.statistic - stat_v) > 5e-4:
            failures.append(f"{name} stat: {tr.statistic:.4f} vs {stat_v}")
        if abs(tr.threshold - thr_v) > 5e-4:
            failures.append(f"{name} threshold: {tr.threshold:.4f} vs {thr_v}")
    report("C12", not failures, "settler-mortality M1-M8 golden values" + (
        "" if not failures else "; " + "; ".join(failures)
    ))
