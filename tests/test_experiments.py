"""Experiment harness: metrics, orderings, determinism, and report schemas."""

from __future__ import annotations

import _thread
import csv
import io
import multiprocessing
import os
import shutil
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from multiprocessing import resource_tracker, spawn
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pulse_iv import experiments
from pulse_iv.data import Dataset, DesignView
from pulse_iv.estimators import EstimatorSpec, estimate, parse_estimators
from pulse_iv.exceptions import DataError, PulseIVError, SingularGram
from pulse_iv.inference import weak_instrument_stat
from pulse_iv.experiments import (
    FIXED_NOISE_DECLARED,
    ExperimentConfig,
    MseOrder,
    cell_seed,
    mse_partial_order,
    relative_change,
    rho_norm_multivariate,
    run_experiment,
    summarize_estimates,
    summarize_stacks,
    write_result,
    xi_from_r2,
)
from pulse_iv.pulse import PulseConfig, pulse_estimate
from pulse_iv.sem import (
    MODEL_STREAM,
    e3_model,
    mv_fixed_model,
    mv_varying_model,
    philox_generator,
    population_pulse_underid,
    sample_stack,
    sem_sample,
    univariate_model,
)


class TestXiFromR2:
    def test_vanishes_with_r2(self):
        assert xi_from_r2(1e-8, 3) == pytest.approx(0.0, abs=1e-3)

    def test_reference_points(self):
        assert xi_from_r2(0.5, 1) == pytest.approx(1.0, abs=1e-12)
        assert xi_from_r2(0.2, 4) == pytest.approx(0.25, abs=1e-12)

    def test_round_trip(self):
        for q in (1, 4, 30):
            for r2 in (0.001, 0.3, 0.9):
                xi = xi_from_r2(r2, q)
                assert q * xi**2 / (q * xi**2 + 1.0) == pytest.approx(r2, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            xi_from_r2(0.0, 2)
        with pytest.raises(ValueError):
            xi_from_r2(0.5, 0)


class TestRelativeChange:
    def test_reference_points(self):
        assert relative_change(1.0, 1.0) == 0.0
        assert relative_change(2.0, 1.0) == 1.0
        assert relative_change(0.0, 1.0) == -1.0

    def test_zero_reference(self):
        with pytest.raises(ZeroDivisionError):
            relative_change(1.0, 0.0)


class TestMsePartialOrder:
    def test_equal(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert mse_partial_order(m, m) is MseOrder.EQUAL

    def test_incomparable(self):
        assert (
            mse_partial_order(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
            is MseOrder.INCOMPARABLE
        )

    def test_rank_one_bump(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(3, 3))
        a = base @ base.T + np.eye(3)
        v = rng.normal(size=3)
        assert mse_partial_order(a, a + np.outer(v, v)) is MseOrder.A_LESS_OR_EQUAL
        assert mse_partial_order(a + np.outer(v, v), a) is MseOrder.B_LESS_OR_EQUAL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            mse_partial_order(np.eye(2), np.eye(3))


class TestRhoNorm:
    def test_zero_cases(self):
        delta = np.array([[0.4, -0.2], [0.1, 0.6]])
        assert rho_norm_multivariate(np.zeros(2), delta, (0.5, 0.5)) == 0.0
        assert rho_norm_multivariate(np.ones(2), np.zeros((2, 2)), (0.5, 0.5)) == 0.0

    def test_matches_collapsed_covariance_formula(self):
        rng = np.random.default_rng(1)
        mu = rng.uniform(-2, 2, size=2)
        delta = rng.uniform(-2, 2, size=(2, 2))
        sigma_sq = (0.4, 0.7)
        # collapsed noise: U_X = delta^T H + N_X, U_Y = mu^T H + N_Y
        cov_ux = delta.T @ delta + np.diag(sigma_sq)
        cov_xy = delta.T @ mu
        var_uy = float(mu @ mu + 1.0)
        expect = np.sqrt(float(cov_xy @ np.linalg.solve(cov_ux, cov_xy)) / var_uy)
        assert rho_norm_multivariate(mu, delta, sigma_sq) == pytest.approx(expect, rel=1e-12)

    def test_fixed_noise_closed_form(self):
        eta, phi = 0.2, 0.15
        rho_sq = (2 * phi**2 - 2 * eta * phi**2) / (1 - eta**2)
        assert rho_sq == pytest.approx(2 * phi**2 / (1 + eta), rel=1e-12)
        assert abs(np.sqrt(2 * phi**2 / (1 + eta)) - 0.20) < 0.01

    def test_singular_inner_matrix(self):
        delta = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularGram):
            rho_norm_multivariate(np.ones(2), delta, (0.0, 0.0))


class TestSummaries:
    def test_trace_decomposition(self):
        rng = np.random.default_rng(2)
        est = rng.normal(size=(500, 2)) + np.array([0.3, -0.2])
        met = summarize_estimates(est, np.zeros(2))
        lhs = met.trace_mse
        rhs = float(np.trace(met.variance)) + float(met.bias @ met.bias)
        assert lhs == pytest.approx(rhs, rel=1e-8)
        assert met.rmse == pytest.approx(np.sqrt(lhs), rel=1e-12)

    def test_mse_is_psd(self):
        rng = np.random.default_rng(3)
        est = rng.normal(size=(200, 3))
        met = summarize_estimates(est, np.zeros(3))
        eigs = np.linalg.eigvalsh(met.mse)
        assert eigs[0] >= -1e-9 * met.trace_mse

    def test_iqr_type7(self):
        est = np.arange(1.0, 6.0)[:, None]  # 1..5
        met = summarize_estimates(est, np.zeros(1))
        assert met.iqr[0] == pytest.approx(2.0, abs=1e-12)


def summarize_one_by_one(estimates, target):
    """Oracle: the per-estimator summary the stacked pass replaced, field by field
    in :class:`EstimatorMetrics` order."""
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    target = np.asarray(target, dtype=float).reshape(-1)
    n_used, k = est.shape
    err = est - target
    mean_err = np.sum(np.ascontiguousarray(err), axis=0) / n_used
    mse = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            mse[i, j] = mse[j, i] = float(np.sum(err[:, i] * err[:, j])) / n_used
    quart = np.quantile(est, [0.25, 0.75], axis=0, method="linear")
    trace_mse = float(np.trace(mse))
    return (
        n_used, mean_err, mse, mse - np.outer(mean_err, mean_err), trace_mse,
        float(np.linalg.det(mse)), float(np.sqrt(trace_mse)), quart[1] - quart[0],
        float(np.median(np.linalg.norm(err, axis=1))),
    )


def mse_order_one_pair(mse_a, mse_b):
    """Oracle: the per-pair PSD order the stacked pass replaced."""
    a = np.atleast_2d(np.asarray(mse_a, dtype=float))
    b = np.atleast_2d(np.asarray(mse_b, dtype=float))
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"MSE matrices must be square and same shape; got {a.shape}, {b.shape}")
    for name, mat in (("mse_a", a), ("mse_b", b)):
        if not np.allclose(mat, mat.T, atol=1e-10 * max(1.0, float(np.abs(mat).max()))):
            raise ValueError(f"{name} must be symmetric")
    tol = 1e-9 * max(float(np.trace(a)), float(np.trace(b)), 1e-300)
    diff = b - a
    a_le = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0]) >= -tol
    b_le = float(np.linalg.eigvalsh(0.5 * (-diff - diff.T))[0]) >= -tol
    if a_le and b_le:
        return MseOrder.EQUAL
    if a_le:
        return MseOrder.A_LESS_OR_EQUAL
    if b_le:
        return MseOrder.B_LESS_OR_EQUAL
    return MseOrder.INCOMPARABLE


def assert_same_bits(met, oracle):
    names = [f.name for f in dataclass_fields(met)]
    assert len(names) == len(oracle)
    for name, want in zip(names, oracle):
        assert np.array_equal(getattr(met, name), want), name


class TestStackedSummaries:
    """One numpy pass over an ``(E, R, k)`` stack gives each estimator its own bits."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("reps", [1, 2, 7, 8, 9, 128, 129, 1000])
    def test_stack_matches_each_estimator_alone(self, reps, k):
        rng = np.random.default_rng(1000 * reps + k)
        stacks = rng.standard_normal((4, reps, k)) * rng.uniform(0.01, 100.0, size=(4, 1, k))
        stacks += rng.normal(size=(4, 1, k))
        target = rng.normal(size=k)
        for est, met in zip(stacks, summarize_stacks(stacks, target)):
            assert_same_bits(met, summarize_one_by_one(est, target))
            assert_same_bits(summarize_estimates(est, target), summarize_one_by_one(est, target))

    def test_reduction_groups_unequal_lengths(self):
        """Estimators that failed on different repetitions form groups of their
        own length, and one that failed on every repetition has no summary."""
        rng = np.random.default_rng(7)
        labels = ("pulse", "ols", "tsls", "fuller:4", "kclass:1")
        estimators = parse_estimators(labels)
        fails = {"ols": {3}, "tsls": {0, 5, 9}, "fuller:4": {3}, "kclass:1": set(range(12))}
        alpha, kept = np.full((12, len(labels), 2), np.nan), {label: [] for label in labels}
        errors = np.full((12, len(labels)), "", dtype=object)
        for rep in range(12):
            for e, label in enumerate(labels):
                if rep in fails.get(label, ()):
                    errors[rep, e] = "UnderIdentified"
                else:
                    alpha[rep, e] = rng.normal(size=2)
                    kept[label].append(alpha[rep, e])

        def part(reps):  # the outputs of repetitions ``reps``, as the step returns them
            nan = np.full(len(reps), np.nan)
            g = np.full((len(reps), 2, 2), np.nan)
            return experiments._Outputs(alpha[reps], errors[reps], nan, g)

        target = np.array([0.5, -0.5])
        cell = experiments._Cell({"n": 100}, e3_model, (100, 1, 2), target)
        # the cell's repetitions in two parts, as a cell split across chunks returns them
        parts = [part(range(5)), part(range(5, 12))]
        [result] = experiments._reduce_cells([(cell, parts)], estimators)
        assert list(result.metrics) == ["pulse", "ols", "tsls", "fuller:4"]
        assert result.failures == {
            "ols": {"UnderIdentified": 1}, "tsls": {"UnderIdentified": 3},
            "fuller:4": {"UnderIdentified": 1}, "kclass:1": {"UnderIdentified": 12},
        }
        assert result.weak == {}
        for label, met in result.metrics.items():
            assert_same_bits(met, summarize_one_by_one(np.vstack(kept[label]), target))
        assert [m.n_used for m in result.metrics.values()] == [12, 11, 9, 11]
        ref = result.metrics["pulse"].mse
        for label in ("ols", "tsls", "fuller:4"):
            want = mse_order_one_pair(ref, result.metrics[label].mse)
            assert result.pairwise[label]["mse_order_vs_pulse"] == want.value


class TestBatchedReduction:
    """A batch of cells is reduced in array passes, and each cell gets the bits of
    its reduction alone."""

    LABELS = ("pulse", "ols", "tsls", "kclass:1")

    def batch(self, cells=6, reps=9, seed=3):
        """Cells with their own failures (``kclass:1`` fails everywhere, cell 0
        nowhere else), missing ``G_n`` (all of cell 2's), and parts split anywhere."""
        rng = np.random.default_rng(seed)
        batch = []
        for c in range(cells):
            alpha = rng.normal(size=(reps, len(self.LABELS), 2)) * 10.0 ** rng.uniform(-3, 3)
            rates = [0.0, 0.0, 0.0, 1.0] if c == 0 else [0.1, 0.3, 0.6, 1.0]
            failed = rng.random(alpha.shape[:2]) < rates
            alpha[failed] = np.nan
            errors = np.full(failed.shape, "", dtype=object)
            errors[failed] = rng.choice(["UnderIdentified", "SingularGram"], size=failed.sum())
            root = rng.normal(size=(reps, 3, 3))
            g = root @ root.transpose(0, 2, 1) + 0.1 * np.eye(3)
            min_eig = np.linalg.eigvalsh(g)[:, 0]
            lost = np.ones(reps, bool) if c == 2 else rng.random(reps) < 0.3
            g[lost], min_eig[lost] = np.nan, np.nan
            cut = int(rng.integers(0, reps + 1))
            parts = [
                experiments._Outputs(alpha[span], errors[span], min_eig[span], g[span])
                for span in (slice(0, cut), slice(cut, reps))
            ]
            cell = experiments._Cell({"model_index": c}, e3_model, (50, 2, 2), rng.normal(size=2))
            batch.append((cell, parts))
        return batch

    def test_each_cell_as_alone(self):
        estimators = parse_estimators(self.LABELS)
        batch = self.batch()
        together = experiments._reduce_cells(batch, estimators)
        assert len(together) == len(batch)
        for (cell, parts), got in zip(batch, together):
            [alone] = experiments._reduce_cells([(cell, parts)], estimators)
            assert got.params is cell.params
            assert list(got.metrics) == list(alone.metrics)
            for label, met in got.metrics.items():
                want = alone.metrics[label]
                assert_same_bits(met, [getattr(want, f.name) for f in dataclass_fields(want)])
            assert got.failures == alone.failures
            assert list(got.weak.items()) == list(alone.weak.items())
            assert got.pairwise == alone.pairwise

    def test_each_cell_against_its_formulas(self):
        estimators = parse_estimators(self.LABELS)
        batch = self.batch(seed=4)
        for (cell, parts), got in zip(batch, experiments._reduce_cells(batch, estimators)):
            alpha, errors, min_eig, g = (np.concatenate(arrays) for arrays in zip(*parts))
            made = ~np.isnan(alpha[..., 0])
            for e, label in enumerate(self.LABELS):
                if made[:, e].any():
                    want = summarize_one_by_one(alpha[made[:, e], e], cell.target)
                    assert_same_bits(got.metrics[label], want)
                else:
                    assert label not in got.metrics
                causes, counts = np.unique(errors[~made[:, e], e].astype(str), return_counts=True)
                assert got.failures.get(label, {}) == dict(zip(causes.tolist(), counts.tolist()))
            ran = ~np.isnan(min_eig)
            if ran.any():
                mean_g = np.cumsum(g[ran], axis=0)[-1] / ran.sum()
                assert got.weak == {
                    "mean_min_eig_gn": float(np.mean(min_eig[ran])),
                    "min_eig_mean_gn": float(np.linalg.eigvalsh(mean_g)[0]),
                    "gn_repetitions": float(ran.sum()),
                }
            else:
                assert got.weak == {}
            ref = got.metrics["pulse"]
            for label, entry in got.pairwise.items():
                met = got.metrics[label]
                assert entry["mse_order_vs_pulse"] == mse_partial_order(ref.mse, met.mse).value
                for scalar in ("rmse", "trace_mse", "det_mse"):
                    key = f"rel_change_{scalar}_vs_pulse"
                    if getattr(ref, scalar) > 0:
                        want = relative_change(getattr(met, scalar), getattr(ref, scalar))
                        assert entry[key] == want
                    else:
                        assert key not in entry

    def test_an_empty_batch(self):
        assert experiments._reduce_cells([], parse_estimators(self.LABELS)) == []


#: Strings ``csv`` must quote (a comma, a quote, a line break), spaces and nothing.
_CSV_TEXT = st.text(alphabet=st.sampled_from(list('ab1:_ ,"\r\n\'\u00e9')), max_size=6)
#: Floats with the edge cases spelled out: NaN, infinities, -0.0, subnormals, 1e+-300.
_CSV_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, -2.2e-310,
                     1e300, -1e-300, 1e-300]),
)
_CSV_VALUE = st.one_of(_CSV_FLOAT, st.integers(), _CSV_TEXT)


class TestCsvRenderer:
    """The renderer writes the bytes ``csv.writer`` writes."""

    @given(
        params=st.lists(st.one_of(_CSV_FLOAT, st.integers(), _CSV_TEXT), max_size=4),
        lines=st.lists(st.tuples(_CSV_TEXT, _CSV_TEXT, _CSV_VALUE, st.integers(0, 10**6)),
                       max_size=5),
    )
    def test_cell_lines(self, params, lines):
        want = io.StringIO()
        csv.writer(want).writerows([*(str(value) for value in params), *line] for line in lines)
        assert experiments._CsvFields().cell(params, lines) == want.getvalue()

    @given(st.lists(_CSV_VALUE, min_size=2, max_size=6))
    def test_a_line(self, values):
        want = io.StringIO()
        csv.writer(want).writerow(values)
        fields = experiments._CsvFields()
        assert fields.line(values) == want.getvalue()
        assert fields.line(values) == want.getvalue()  # and again, from the kept fields


class TestStackedOrders:
    """One stacked ``eigvalsh`` pass gives each pair the order of its own call."""

    def test_each_pair_matches_its_own_call(self):
        rng = np.random.default_rng(11)
        seen = set()
        for k in (1, 2, 3):
            pairs = []  # every pair of one k in one pass, as a batch of cells gives them
            for _ in range(60):
                base = rng.normal(size=(k, k))
                # traces far apart, so that each pair's noise floor is its own
                a = (base @ base.T + 0.1 * np.eye(k)) * 10.0 ** rng.uniform(-6, 6)
                for _ in range(4):
                    v = rng.normal(size=k)
                    pick = rng.integers(5)
                    if pick == 0:
                        b = a.copy()  # equal
                    elif pick == 1:
                        b = a + np.outer(v, v)  # a <= b
                    elif pick == 2:
                        b = a - 0.05 * np.outer(v, v) / (v @ v)  # b <= a
                    elif pick == 3:
                        w = rng.normal(size=k)
                        b = a + np.outer(v, v) - np.outer(w, w)  # incomparable for k > 1
                    else:
                        b = a + 1e-10 * np.trace(a) * np.outer(v, v) / (v @ v)
                    pairs.append((a, b))
            mse_as, mse_bs = (np.array(mats) for mats in zip(*pairs))
            got = experiments._mse_orders(mse_as, mse_bs)
            assert len(got) == len(pairs)
            for (a, b), order in zip(pairs, got):
                assert order is mse_order_one_pair(a, b)
                assert mse_partial_order(a, b) is order
                seen.add(order)
        assert seen == set(MseOrder)

    def test_same_errors_as_one_pair(self):
        sym = np.array([[2.0, 0.3], [0.3, 1.0]])
        skew = np.array([[2.0, 0.3], [0.1, 1.0]])
        for a, b, match in (
            (skew, sym, "mse_a must be symmetric"),
            (sym, skew, "mse_b must be symmetric"),
            (skew, skew, "mse_a must be symmetric"),
            (np.eye(2), np.eye(3), "same shape"),
            (np.ones((2, 3)), np.ones((2, 3)), "square"),
        ):
            with pytest.raises(ValueError) as want:
                mse_order_one_pair(a, b)
            with pytest.raises(ValueError, match=match) as got:
                mse_partial_order(a, b)
            assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="mse_b must be symmetric"):
            experiments._mse_orders(np.array([sym, sym]), np.array([sym, skew]))
        with pytest.raises(ValueError, match="mse_a must be symmetric"):
            experiments._mse_orders(np.array([sym, skew]), np.array([sym, sym]))


class TestConfigValidation:
    def test_unknown_design(self):
        with pytest.raises(ValueError, match="unknown design"):
            ExperimentConfig(design="bogus")

    def test_declared_range_enforced(self):
        with pytest.raises(ValueError, match="allow_extensions"):
            ExperimentConfig(design="univariate", q_values=(7,))
        cfg = ExperimentConfig(design="univariate", q_values=(7,), allow_extensions=True)
        assert cfg.q_values == (7,)

    @pytest.mark.parametrize(
        "field", ["estimators", "q_values", "rho_values", "r2_values", "n_values", "noise_triples"]
    )
    def test_empty_list_is_rejected_not_the_declared_grid(self, field):
        grids = {"rho_values": (0.5,), "r2_values": (0.1,), "n_values": (50,)}
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(design="univariate", **{**grids, field: ()})
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(design="univariate", **{**grids, field: []})

    def test_robustness_e1_takes_one_n(self):
        with pytest.raises(ValueError, match="robustness-e1 takes one n"):
            ExperimentConfig(design="robustness-e1", n_values=(100, 5000), repetitions=2)
        assert ExperimentConfig(design="robustness-e1", n_values=(100,)).n_values == (100,)

    @pytest.mark.parametrize("n_models", [0, -1])
    def test_n_models_must_be_positive(self, n_models):
        with pytest.raises(ValueError, match="n_models"):
            ExperimentConfig(design="mv-random", n_models=n_models)

    @pytest.mark.parametrize(
        "field, value",
        [("p_min", 1.5), ("p_min", 0.0), ("sample_size", 0), ("n_values", (100, 0))],
        ids=["p_min-above-one", "p_min-zero", "sample_size-zero", "n_values-zero"],
    )
    def test_values_that_would_fail_the_run_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(design="underid-e3", **{field: value})

    @pytest.mark.parametrize(
        "rejected, accepted, sizes",
        [
            ({"design": "underid-e3", "n_values": (1,)}, {"n_values": (2,)}, "n=1 and q=1"),
            ({"design": "mv-fixed", "sample_size": 2}, {"sample_size": 3}, "n=2 and q=2"),
            ({"design": "mv-random", "sample_size": 2}, {"sample_size": 3}, "n=2 and q=2"),
            (
                {"design": "univariate", "allow_extensions": True, "q_values": (1, 30),
                 "n_values": (30,)},
                {"n_values": (31,)},
                "n=30 and q=30",
            ),
        ],
        ids=["underid-e3", "mv-fixed", "mv-random", "univariate"],
    )
    def test_cells_with_n_at_most_q_are_rejected(self, rejected, accepted, sizes):
        with pytest.raises(ValueError, match=sizes):
            ExperimentConfig(**rejected)
        ExperimentConfig(**{**rejected, **accepted})  # one more observation than instruments

    @pytest.mark.parametrize(
        "labels", [("pulse", "PULSE"), ("fuller", "fuller:4")], ids=["pulse-case", "fuller-default"]
    )
    def test_two_labels_for_one_estimator_are_rejected(self, labels):
        with pytest.raises(ValueError, match="repeat"):
            ExperimentConfig(design="underid-e3", estimators=labels)

    @pytest.mark.parametrize(
        "design, field, value",
        [
            ("mv-fixed", "n_values", (1000,)),
            ("robustness-e1", "estimators", ("ols",)),
            ("robustness-e1", "p_min", 0.1),
            ("underid-e3", "sample_size", 10),
            ("univariate", "noise_triples", ((0.8, 0.19, 0.19),)),
            ("mv-random", "allow_extensions", True),
        ],
    )
    def test_fields_the_design_does_not_read_are_rejected(self, design, field, value):
        with pytest.raises(ValueError, match=f"{design} does not read {field}"):
            ExperimentConfig(design=design, **{field: value})
        # left at its default, the field is accepted
        default = ExperimentConfig.__dataclass_fields__[field].default
        ExperimentConfig(design=design, **{field: default})

    def test_json_round_trip(self):
        cfg = ExperimentConfig(
            design="univariate",
            repetitions=10,
            q_values=(1,),
            rho_values=(0.1,),
            r2_values=(0.1,),
            n_values=(50,),
        )
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg


def small_univariate_config(reps: int = 40, seed: int = 3) -> ExperimentConfig:
    return ExperimentConfig(
        design="univariate",
        repetitions=reps,
        master_seed=seed,
        q_values=(1,),
        rho_values=(0.3,),
        r2_values=(0.1,),
        n_values=(50,),
        estimators=("ols", "fuller:4", "pulse"),
    )


class TestRunExperiment:
    def test_deterministic_and_thread_invariant(self):
        cfg = ExperimentConfig(
            design="univariate",
            repetitions=25,
            master_seed=11,
            q_values=(1, 2),
            rho_values=(0.3,),
            r2_values=(0.1,),
            n_values=(50,),
            estimators=("ols", "pulse"),
        )
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.rows == r2.rows
        # worker processes run the repetitions; the parent reduces them in order
        assert run_experiment(cfg, threads=2).rows == r1.rows

    def test_csv_and_manifest_round_trip(self, tmp_path):
        cfg = small_univariate_config(reps=10)
        result = run_experiment(cfg)
        csv_path, manifest_path = write_result(result, tmp_path)
        assert csv_path.exists() and manifest_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "q,rho,r2,n,estimator,metric,value,repetitions_used"
        again_csv, _ = write_result(run_experiment(cfg), tmp_path / "again")
        assert csv_path.read_bytes() == again_csv.read_bytes()

    def test_numpy_float_grid_values_write_plain_cells(self, tmp_path):
        cfg = small_univariate_config(reps=4)
        plain, _ = write_result(run_experiment(cfg), tmp_path / "plain")
        numpy_cfg = replace(cfg, rho_values=(np.float64(0.3),))
        numpy_csv, _ = write_result(run_experiment(numpy_cfg), tmp_path / "numpy")
        assert numpy_csv.read_bytes() == plain.read_bytes()
        assert "np.float64" not in numpy_csv.read_text()

    @pytest.mark.parametrize(
        "cfg",
        [
            small_univariate_config(reps=9),
            replace(small_univariate_config(reps=4), rho_values=(np.float64(0.3),)),
            ExperimentConfig(design="robustness-e1", repetitions=4, master_seed=2),
            ExperimentConfig(
                design="underid-e3", repetitions=5, master_seed=4, n_values=(100, 200),
                estimators=("pulse", "modified-tsls", "tsls"),
            ),
        ],
        ids=["univariate", "numpy-float-grid", "robustness-e1", "underid-e3-tsls"],
    )
    def test_rendered_text_is_what_dictwriter_writes_of_the_rows(self, cfg, tmp_path):
        """Oracle: the ``csv.DictWriter`` rendering of ``rows`` that ``write_result``
        made before each cell's text was rendered as it was reduced."""
        result = run_experiment(cfg)
        oracle = tmp_path / "oracle.csv"
        with oracle.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=result.columns)
            writer.writeheader()
            for row in result.rows:
                writer.writerow({k: row.get(k) for k in result.columns})
        csv_path, _ = write_result(result, tmp_path / "out")
        assert csv_path.read_bytes() == oracle.read_bytes()
        if cfg.estimators and "tsls" in cfg.estimators:
            assert b",tsls,excluded_UnderIdentified,5,0\r\n" in oracle.read_bytes()

    def test_repetition_accounting(self):
        cfg = ExperimentConfig(
            design="underid-e3",
            repetitions=8,
            master_seed=4,
            n_values=(100,),
            estimators=("pulse", "modified-tsls", "tsls"),
        )
        result = run_experiment(cfg)
        cell = result.cells[0]
        # classical TSLS fails on every under-identified repetition
        assert "tsls" not in cell.metrics
        assert cell.failures["tsls"] == {"UnderIdentified": 8}
        assert cell.metrics["pulse"].n_used == 8
        exclusion_rows = [r for r in result.rows if r["metric"] == "excluded_UnderIdentified"]
        assert len(exclusion_rows) == 1 and exclusion_rows[0]["value"] == 8

    def test_kclass_at_one_is_excluded_as_under_identified(self):
        cfg = ExperimentConfig(
            design="underid-e3", repetitions=3, n_values=(100,),
            estimators=("pulse", "kclass:1"),
        )
        result = run_experiment(cfg)
        assert result.cells[0].failures["kclass:1"] == {"UnderIdentified": 3}
        rows = [r for r in result.rows if r["estimator"] == "kclass:1"]
        assert [(r["metric"], r["value"]) for r in rows] == [("excluded_UnderIdentified", 3)]

    def test_pulse_is_compared_whatever_its_spelling(self):
        def pairwise_rows(pulse_label):
            cfg = ExperimentConfig(
                design="underid-e3", repetitions=3, n_values=(100,),
                estimators=(pulse_label, "modified-tsls"),
            )
            return [
                (r["estimator"], r["metric"], r["value"])
                for r in run_experiment(cfg).rows if r["metric"].endswith("_vs_pulse")
            ]

        rows = pairwise_rows("pulse")
        assert len(rows) == 4 and {r[0] for r in rows} == {"modified-tsls"}
        assert pairwise_rows("PULSE") == rows

    def test_robustness_e1_schema(self):
        cfg = ExperimentConfig(design="robustness-e1", repetitions=3, master_seed=5)
        result = run_experiment(cfg)
        assert result.columns == ["rep", "kappa", "estimate", "wcmspe"]
        assert len(result.rows) == 9
        kappas = sorted({row["kappa"] for row in result.rows})
        assert kappas == [0.0, 0.75, 1.0]
        means = {
            k: np.mean([r["estimate"] for r in result.rows if r["kappa"] == k]) for k in kappas
        }
        assert means[0.0] == pytest.approx(1.25, abs=0.05)
        assert means[1.0] == pytest.approx(1.0, abs=0.05)

    def test_underid_rows_have_target_metrics(self):
        cfg = ExperimentConfig(
            design="underid-e3", repetitions=6, master_seed=6, n_values=(100, 400)
        )
        result = run_experiment(cfg)
        metrics = {row["metric"] for row in result.rows}
        assert {"trace_mse", "rmse", "median_abs_error"} <= metrics
        ns = {row["n"] for row in result.rows}
        assert ns == {100, 400}

    def test_weak_columns_present(self):
        result = run_experiment(small_univariate_config(reps=10))
        weak_rows = [r for r in result.rows if r["estimator"] == "_instruments"]
        names = {r["metric"] for r in weak_rows}
        assert names == {"mean_min_eig_gn", "min_eig_mean_gn"}

    def test_cell_seed_distinct_across_cells(self):
        seen = {cell_seed(0, c, r) for c in range(4) for r in range(100)}
        assert len(seen) == 400

    def test_mv_random_smoke(self):
        cfg = ExperimentConfig(
            design="mv-random", repetitions=12, master_seed=21, n_models=2
        )
        result = run_experiment(cfg)
        assert len(result.cells) == 2
        for cell in result.cells:
            assert 0.0 <= cell.params["rho_norm"] < 1.0
            met = cell.metrics["pulse"]
            assert met.mse.shape == (2, 2)
            assert "fuller:4" in cell.pairwise
            assert "mse_order_vs_pulse" in cell.pairwise["fuller:4"]

    def test_mv_fixed_smoke(self):
        cfg = ExperimentConfig(
            design="mv-fixed",
            repetitions=10,
            master_seed=22,
            n_models=1,
            noise_triples=((0.2, 0.15, 0.15),),
        )
        result = run_experiment(cfg)
        cell = result.cells[0]
        assert cell.params["eta"] == 0.2
        assert cell.params["rho_norm"] == pytest.approx(
            np.sqrt(2 * 0.15**2 / 1.2), rel=1e-12
        )
        assert set(cell.metrics) == {"ols", "fuller:1", "fuller:4", "pulse"}


def _model_rng(seed: int, cell: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[cell_seed(seed, cell, 0), 2]))


def _univariate_cell(cfg, k):
    # cells enumerate q, rho, r2, n with n fastest; cell 2 is q=2, r2=0.01
    assert k == 2
    params = {"q": 2, "rho": 0.3, "r2": 0.01, "n": 50}
    return params, univariate_model(2, 0.3, 0.01), 50, np.array([1.0]), "ols"


def _mv_random_cell(cfg, k):
    rng = _model_rng(cfg.master_seed, k)
    sigma_sq = tuple(rng.uniform(0.1, 1.0, size=2))
    xi = rng.uniform(-2.0, 2.0, size=(2, 2))
    delta = rng.uniform(-2.0, 2.0, size=(2, 2))
    mu = rng.uniform(-2.0, 2.0, size=2)
    params = {"model_index": k, "rho_norm": rho_norm_multivariate(mu, delta, sigma_sq)}
    model = mv_varying_model(xi, delta, mu, sigma_sq)
    return params, model, cfg.sample_size, np.zeros(2), "ols"


def _mv_fixed_cell(cfg, k):
    # n_models cells per noise triple, numbered across triples
    eta, phi1, phi2 = cfg.noise_triples[k // cfg.n_models]
    rho_norm = float(np.sqrt((phi1**2 + phi2**2 - 2 * eta * phi1 * phi2) / (1.0 - eta**2)))
    xi = _model_rng(cfg.master_seed, k).uniform(-2.0, 2.0, size=(2, 2))
    params = {"eta": eta, "phi1": phi1, "phi2": phi2, "rho_norm": rho_norm, "model_index": k}
    return params, mv_fixed_model(xi, eta, phi1, phi2), cfg.sample_size, np.zeros(2), "ols"


def _underid_cell(cfg, k):
    n = cfg.n_values[k]
    target = np.array(population_pulse_underid(1.0, 1.0, 1.0))
    return {"n": n}, e3_model(), n, target, "pulse"


CELL_MAPPING_CASES = [
    (
        ExperimentConfig(
            design="univariate", repetitions=5, master_seed=13, q_values=(1, 2),
            rho_values=(0.3,), r2_values=(0.01, 0.1), n_values=(50,),
        ),
        2,
        _univariate_cell,
    ),
    (
        ExperimentConfig(design="mv-random", repetitions=5, master_seed=14, n_models=3),
        2,
        _mv_random_cell,
    ),
    (
        ExperimentConfig(
            design="mv-fixed", repetitions=5, master_seed=15, n_models=2,
            noise_triples=FIXED_NOISE_DECLARED[:2],
        ),
        3,
        _mv_fixed_cell,
    ),
    (
        ExperimentConfig(design="underid-e3", repetitions=5, master_seed=16, n_values=(100, 200)),
        1,
        _underid_cell,
    ),
]


class TestCellMapping:
    """Cell index -> seed -> parameters, rebuilt by hand for one cell per design."""

    @pytest.mark.parametrize(
        "cfg, k, rebuild", CELL_MAPPING_CASES, ids=[c[0].design for c in CELL_MAPPING_CASES]
    )
    def test_cell_rows_rebuilt_by_hand(self, cfg, k, rebuild):
        params, model, n, target, label = rebuild(cfg, k)
        stack = []
        for r in range(cfg.repetitions):
            view = DesignView(sem_sample(model, n, cell_seed(cfg.master_seed, k, r)))
            if label == "pulse":
                stack.append(pulse_estimate(view, PulseConfig(p_min=cfg.p_min)).alpha)
            else:
                stack.append(estimate(view, EstimatorSpec.parse(label)).alpha)
        met = summarize_estimates(np.vstack(stack), target)
        values = {"trace_mse": met.trace_mse, "det_mse": met.det_mse, "rmse": met.rmse,
                  "median_abs_error": met.median_abs_error}
        dim = met.bias.shape[0]
        for i in range(dim):
            values[f"bias_{i}"] = float(met.bias[i])
            values[f"iqr_{i}"] = float(met.iqr[i])
            for j in range(i, dim):
                values[f"mse_{i}{j}"] = float(met.mse[i, j])
                values[f"var_{i}{j}"] = float(met.variance[i, j])
        expected = {
            m: {**params, "estimator": label, "metric": m, "value": v,
                "repetitions_used": cfg.repetitions}
            for m, v in values.items()
        }

        result = run_experiment(cfg)
        assert result.cells[k].params == params
        assert list(result.cells[k].params) == list(params)
        got = [
            row for row in result.rows
            if row["estimator"] == label and row["metric"] in values
            and all(row[p] == params[p] for p in params)
        ]
        assert len(got) == len(values)
        assert {row["metric"]: row for row in got} == expected

    @pytest.mark.parametrize(
        "cfg", [c[0] for c in CELL_MAPPING_CASES], ids=[c[0].design for c in CELL_MAPPING_CASES]
    )
    def test_two_threads_give_the_same_rows(self, cfg):
        # two worker processes run the repetitions; the parent reduces them in order
        assert run_experiment(cfg, threads=2).rows == run_experiment(cfg).rows


class TestModelDraws:
    """A cell's model draws come from the thread's re-keyed Philox, with the draws of a
    fresh generator on the cell's model stream."""

    @pytest.mark.parametrize("seed", [7, 2**63 + 5])
    @pytest.mark.parametrize("design", ["mv-fixed", "mv-random"])
    def test_each_cell_draws_what_a_fresh_generator_draws(self, design, seed):
        cfg = ExperimentConfig(design=design, repetitions=1, master_seed=seed, n_models=5)
        cells = experiments._cells(cfg)
        assert len(cells) == (30 if design == "mv-fixed" else 5)
        for i, cell in enumerate(cells):
            rng = philox_generator(cell_seed(seed, i, 0), MODEL_STREAM)
            if design == "mv-fixed":
                want = [rng.uniform(-2.0, 2.0, size=(2, 2))]  # xi
            else:
                sigma_sq = rng.uniform(0.1, 1.0, size=2)
                want = [rng.uniform(-2.0, 2.0, size=shape) for shape in ((2, 2), (2, 2), 2)]
                want.append(sigma_sq)  # after xi, delta and mu among the model's arguments
            got = cell.build.args[: len(want)]
            assert [np.asarray(arg).tobytes() for arg in got] == [w.tobytes() for w in want]


#: Every design of ``CELL_MAPPING_CASES``, and one whose ``kclass:1`` fails on every
#: repetition, so the workers' ``excluded_UnderIdentified`` counts are merged too.
WORKER_CASES = [c[0] for c in CELL_MAPPING_CASES] + [
    ExperimentConfig(
        design="underid-e3", repetitions=7, master_seed=17, n_values=(100, 10000),
        estimators=("pulse", "modified-tsls", "kclass:1"),
    ),
]


class TestLazyRows:
    """``rows`` is built from the cells on first read, once, as the run built it
    before: one dict per CSV line."""

    @pytest.mark.parametrize(
        "cfg", [*WORKER_CASES[:3], WORKER_CASES[4]],
        ids=["univariate", "mv-random", "mv-fixed", "underid-e3-kclass1"],
    )
    def test_rows_are_the_eager_rows_built_once(self, cfg, monkeypatch):
        result = run_experiment(cfg)
        assert "rows" not in vars(result)  # the run renders its CSV text without them
        eager = []
        for cell in result.cells:
            params = [cell.params[name] for name in result.columns[:-4]]
            lines = experiments._cell_lines(cell)
            eager.extend(dict(zip(result.columns, (*params, *line))) for line in lines)
        calls = []
        cell_lines = experiments._cell_lines
        monkeypatch.setattr(
            experiments, "_cell_lines", lambda cell: calls.append(cell) or cell_lines(cell)
        )
        rows = result.rows
        assert rows == eager
        assert [list(row) for row in rows] == [list(row) for row in eager]  # and key order
        assert result.rows is rows and calls == result.cells  # built once

    def test_robustness_rows_are_kept_as_built(self):
        result = run_experiment(ExperimentConfig(design="robustness-e1", repetitions=3))
        assert result.cells == [] and vars(result)["rows"] is result.rows
        assert len(result.rows) == 9


class TestWorkers:
    """``threads > 1`` runs the repetitions on worker processes: the same bytes."""

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        """As many workers as asked for, up to 3, on any machine."""
        monkeypatch.setattr(experiments, "_cpu_count", lambda: 3)

    def test_cells_split_across_chunks_give_the_serial_bytes_and_rows(self, tmp_path, monkeypatch):
        """Chunks of 7 repetitions of 5-repetition cells: each returned chunk completes
        a batch of one or two cells, with a part of one left over for the next."""
        cfg = ExperimentConfig(design="mv-fixed", repetitions=5, master_seed=21, n_models=3,
                               noise_triples=FIXED_NOISE_DECLARED[:3])
        serial = run_experiment(cfg)
        monkeypatch.setattr(experiments, "CHUNK_REPS", 7)
        pooled = run_experiment(cfg, threads=2)
        assert pooled.csv_text == serial.csv_text
        assert pooled.rows == serial.rows
        files = [[p.read_bytes() for p in write_result(r, tmp_path / name)]
                 for name, r in (("serial", serial), ("pooled", pooled))]
        assert files[0] == files[1]

    @pytest.mark.parametrize(
        "cfg", WORKER_CASES, ids=[c[0].design for c in CELL_MAPPING_CASES] + ["underid-e3-kclass1"]
    )
    def test_any_worker_count_gives_the_same_files(self, cfg, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "CHUNK_REPS", 2)  # cells split across workers
        serial = run_experiment(cfg)
        files = [p.read_bytes() for p in write_result(serial, tmp_path / "1")]
        for threads in (2, 3):
            result = run_experiment(cfg, threads=threads)
            assert result.rows == serial.rows
            assert [p.read_bytes() for p in write_result(result, tmp_path / str(threads))] == files
        if cfg.estimators and "kclass:1" in cfg.estimators:
            assert [c.failures["kclass:1"] for c in result.cells] == [{"UnderIdentified": 7}] * 2

    @pytest.mark.parametrize("threads", [0, -2])
    def test_fewer_than_one_thread_is_refused(self, threads):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_experiment(CELL_MAPPING_CASES[0][0], threads=threads)

    def test_workers_exit_when_shut_down(self, monkeypatch):
        cfg = CELL_MAPPING_CASES[2][0]
        monkeypatch.setattr(experiments, "CHUNK_REPS", 5)  # 4 chunks, not one
        first = run_experiment(cfg, threads=2)
        procs = multiprocessing.active_children()
        assert len(procs) == 2
        assert run_experiment(cfg, threads=2).rows == first.rows
        # a later call reuses them
        assert {p.pid for p in multiprocessing.active_children()} == {p.pid for p in procs}
        experiments.shutdown_workers()
        assert experiments._WORKERS is None
        assert multiprocessing.active_children() == []
        assert [p.exitcode for p in procs] == [0, 0]
        assert run_experiment(cfg, threads=2).rows == first.rows  # and new ones start on demand
        experiments.shutdown_workers()

    @pytest.mark.parametrize("preset", [None, "4"])
    def test_each_worker_runs_one_blas_thread(self, monkeypatch, preset):
        """The workers start with one BLAS thread; the caller's environment is left as it was."""
        if not Path("/proc/self/environ").exists():
            pytest.skip("no /proc to read a worker's environment from")
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        for name in names:
            monkeypatch.delenv(name, raising=False)
        if preset is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        before = dict(os.environ)
        monkeypatch.setattr(experiments, "CHUNK_REPS", 5)  # 4 chunks, not one
        experiments.shutdown_workers()
        run_experiment(CELL_MAPPING_CASES[2][0], threads=2)
        procs = multiprocessing.active_children()
        assert len(procs) == 2
        for proc in procs:
            entries = Path(f"/proc/{proc.pid}/environ").read_bytes().split(b"\0")
            env = dict(entry.decode().split("=", 1) for entry in entries if b"=" in entry)
            assert [env.get(name) for name in names] == ["1", "1", "1"]
        assert dict(os.environ) == before
        experiments.shutdown_workers()

    @pytest.mark.parametrize("cpus, chunk_reps, started", [(3, 5, 2), (3, 1, 3), (1, 1, 0)])
    def test_workers_are_no_more_than_chunks_or_cpus(self, monkeypatch, cpus, chunk_reps, started):
        cfg = CELL_MAPPING_CASES[3][0]  # 2 cells of 5 repetitions
        serial = run_experiment(cfg)
        experiments.shutdown_workers()
        monkeypatch.setattr(experiments, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(experiments, "CHUNK_REPS", chunk_reps)
        assert run_experiment(cfg, threads=1000).rows == serial.rows
        assert len(multiprocessing.active_children()) == started
        experiments.shutdown_workers()

    def test_a_replaced_step_function_runs_in_this_process(self, monkeypatch):
        """A monkeypatch or a tracer sees every call: a worker would run the original."""
        cfg = CELL_MAPPING_CASES[3][0]
        serial = run_experiment(cfg)
        experiments.shutdown_workers()
        calls = []

        def counted(*args, **kwargs):
            calls.extend([args[1].kind] * len(args[0]))  # one per repetition of the stack
            return estimate(*args, **kwargs)

        monkeypatch.setattr(experiments, "estimate", counted)
        assert run_experiment(cfg, threads=2).rows == serial.rows
        assert experiments._WORKERS is None
        assert len(calls) == len(serial.cells) * cfg.repetitions * len(serial.cells[0].metrics)

    def test_a_worker_that_dies_at_start_is_an_error_not_a_respawn(self, monkeypatch):
        false = shutil.which("false")
        if false is None:
            pytest.skip("no `false` executable")
        cfg = CELL_MAPPING_CASES[2][0]
        monkeypatch.setattr(experiments, "CHUNK_REPS", 5)  # 4 chunks, not one
        experiments.shutdown_workers()
        resource_tracker.ensure_running()  # started from the real interpreter, not `false`
        executable = spawn.get_executable()
        multiprocessing.set_executable(false)
        try:
            with pytest.raises(BrokenProcessPool):
                run_experiment(cfg, threads=2)
        finally:
            multiprocessing.set_executable(executable)
        assert experiments._WORKERS is None
        assert run_experiment(cfg, threads=2).rows == run_experiment(cfg).rows
        experiments.shutdown_workers()

    @pytest.mark.parametrize("error", [OSError("closed pipe"), ValueError("bad value(s) in fds_to_keep")])
    def test_a_worker_start_that_fails_breaks_the_pool(self, error, monkeypatch):
        """A worker that stops at start can close the pipes and descriptors the pool
        passes on to the next worker's start: either error breaks the pool."""
        cfg = CELL_MAPPING_CASES[2][0]
        monkeypatch.setattr(experiments, "CHUNK_REPS", 5)  # 4 chunks, not one
        experiments.shutdown_workers()

        def failed_start(self, fn, *iterables, **kwargs):
            raise error

        monkeypatch.setattr(ProcessPoolExecutor, "map", failed_start)
        with pytest.raises(BrokenProcessPool) as broken:
            run_experiment(cfg, threads=2)
        assert broken.value.__cause__ is error
        assert experiments._WORKERS is None

    def test_a_stopped_call_leaves_no_answer_for_the_next(self, monkeypatch):
        """A reduction that raises mid-study, its traceback still held, leaves no
        answer in flight for the next call to read as its own."""
        cfg = CELL_MAPPING_CASES[2][0]
        serial = run_experiment(cfg)
        monkeypatch.setattr(experiments, "CHUNK_REPS", 1)  # several chunks in flight
        reduce_cells = experiments._reduce_cells

        def reduce_one_then_fail(batch, estimators):
            reduce_cells(batch, estimators)
            raise KeyError("stop")

        monkeypatch.setattr(experiments, "_reduce_cells", reduce_one_then_fail)
        with pytest.raises(KeyError) as held:
            run_experiment(cfg, threads=2)
        monkeypatch.setattr(experiments, "_reduce_cells", reduce_cells)
        assert run_experiment(cfg, threads=2).rows == serial.rows
        assert held.traceback  # held to here, and with it the stopped call's frames
        experiments.shutdown_workers()


def cell_oracle(cfg, k, model, n, target, tamper=None):
    """Oracle: cell ``k``'s metrics, exclusions, ``G_n`` summary and comparisons with
    PULSE, from one view and one call per repetition and estimator, summed one
    repetition after another; ``tamper(seed, dataset)`` may change a sample."""
    estimators = parse_estimators(
        cfg.estimators or experiments._GRID_DESIGNS[cfg.design].estimators
    )
    pulse_cfg = PulseConfig(p_min=cfg.p_min)
    kept = {label: [] for label, _ in estimators}
    failures: dict[str, dict[str, int]] = {}
    min_eigs, g_sum = [], None
    for r in range(cfg.repetitions):
        seed = cell_seed(cfg.master_seed, k, r)
        ds = sem_sample(model, n, seed)
        view = DesignView(tamper(seed, ds) if tamper else ds)
        try:
            report = weak_instrument_stat(view)
            min_eigs.append(report.min_eigenvalue)
            g_sum = report.g_matrix if g_sum is None else g_sum + report.g_matrix
        except PulseIVError:
            pass
        for label, spec in estimators:
            try:
                kept[label].append(estimate(view, spec, pulse_cfg).alpha)
            except PulseIVError as exc:
                causes = failures.setdefault(label, {})
                causes[type(exc).__name__] = causes.get(type(exc).__name__, 0) + 1
    metrics = {label: summarize_estimates(np.vstack(v), target) for label, v in kept.items() if v}
    weak = {}
    if min_eigs:
        weak = {"mean_min_eig_gn": float(np.mean(min_eigs)),
                "min_eig_mean_gn": float(np.linalg.eigvalsh(g_sum / len(min_eigs))[0]),
                "gn_repetitions": float(len(min_eigs))}
    pairwise = {}
    ref = metrics.get("pulse")
    for label, met in metrics.items():
        if ref is None or label == "pulse":
            continue
        pairwise[label] = {"mse_order_vs_pulse": mse_partial_order(ref.mse, met.mse).value}
        for scalar in ("rmse", "trace_mse", "det_mse"):
            if getattr(ref, scalar) > 0:
                pairwise[label][f"rel_change_{scalar}_vs_pulse"] = relative_change(
                    getattr(met, scalar), getattr(ref, scalar)
                )
    return metrics, failures, weak, pairwise


def assert_cell_is_its_oracle(cell, oracle):
    metrics, failures, weak, pairwise = oracle
    assert list(cell.metrics) == list(metrics)
    for label, want in metrics.items():
        fields = [getattr(want, f.name) for f in dataclass_fields(want)]
        assert_same_bits(cell.metrics[label], fields)
    assert cell.failures == failures
    assert cell.weak == weak
    assert cell.pairwise == pairwise


def counted_samples(monkeypatch):
    """The seed counts of ``experiments.sample_stack``'s calls, as they are made."""
    sizes = []

    def counted(model, n, seeds, iv=None):
        sizes.append(len(seeds))
        return sample_stack(model, n, seeds, iv)

    monkeypatch.setattr(experiments, "sample_stack", counted)
    return sizes


def univariate_cells(q, rho, r2_values, n):
    return [(univariate_model(q, rho, r2), n, np.ones(1)) for r2 in r2_values]


class TestCrossCellChunks:
    """A chunk holds consecutive cells of one shape, and its stacks run across them:
    each cell keeps the metrics of its own repetitions, bit for bit."""

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(experiments, "_cpu_count", lambda: 3)

    def test_a_stack_boundary_inside_a_cell(self, monkeypatch):
        cfg = ExperimentConfig(
            design="univariate", repetitions=25, master_seed=5, q_values=(30,),
            rho_values=(0.9,), r2_values=(0.01, 0.1, 0.3), n_values=(150,),
        )
        sizes = counted_samples(monkeypatch)
        result = run_experiment(cfg)
        # 54 samples of q = 30 at n = 150 fill a row-reading stack: 25 + 25 + 4, then 21
        assert experiments.ROW_STACK_ELEMENTS // (150 * (30 + 2)) == 54
        assert sizes == [25, 25, 4, 21]
        for k, (model, n, target) in enumerate(univariate_cells(30, 0.9, (0.01, 0.1, 0.3), 150)):
            assert_cell_is_its_oracle(result.cells[k], cell_oracle(cfg, k, model, n, target))

    def test_large_q_cells_give_the_same_files_serially_and_on_workers(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(
            design="univariate", repetitions=60, master_seed=9, q_values=(20, 30),
            rho_values=(0.9,), r2_values=(0.1,), n_values=(50, 150),
        )
        monkeypatch.setattr(experiments, "CHUNK_REPS", 25)  # pooled stacks of 25 + 25 + 10
        experiments.shutdown_workers()
        pooled = write_result(run_experiment(cfg, threads=2), tmp_path / "pooled")
        assert len(multiprocessing.active_children()) == 2
        experiments.shutdown_workers()
        sizes = counted_samples(monkeypatch)
        serial = write_result(run_experiment(cfg), tmp_path / "serial")
        # n varies fastest; serially a row-reading stack ends inside the q = 30, n = 150 cell
        assert experiments._per_stack(experiments.ROW_STACK_ELEMENTS, 150, 30, 2) == 54
        assert sizes == [60, 60, 60, 54, 6]
        assert [path.read_bytes() for path in pooled] == [path.read_bytes() for path in serial]

    def test_a_serial_chunk_holds_a_row_reading_stack(self, monkeypatch):
        # mv-fixed at n = 50 holds 1048 repetitions per stack: its 48 cells of 5 are
        # one chunk and one reduction batch, not chunks of CHUNK_REPS
        cfg = ExperimentConfig(design="mv-fixed", repetitions=5, master_seed=7, n_models=8)
        assert experiments._per_stack(experiments.ROW_STACK_ELEMENTS, 50, 2, 3) == 1048
        chunks, batches = [], []
        run_chunk, reduce_cells = experiments._run_chunk, experiments._reduce_cells

        def counted_chunk(chunk, threads=1):
            chunks.append(sum(len(reps) for _, _, reps in chunk.parts))
            return run_chunk(chunk, threads)

        def counted_batch(batch, estimators):
            batches.append(len(batch))
            return reduce_cells(batch, estimators)

        monkeypatch.setattr(experiments, "_run_chunk", counted_chunk)
        monkeypatch.setattr(experiments, "_reduce_cells", counted_batch)
        whole = run_experiment(cfg)
        assert chunks == [240] and batches == [48]
        # a budget of two repetitions per stack: serial chunks of CHUNK_REPS, same bytes
        chunks.clear()
        monkeypatch.setattr(experiments, "ROW_STACK_ELEMENTS", 2 * 50 * (2 + 3))
        assert run_experiment(cfg).csv_text == whole.csv_text
        assert chunks == [100, 100, 40]

    @pytest.mark.parametrize("repetitions", [7, 40, 1000])
    def test_a_serial_underid_chunk_is_its_cell(self, repetitions):
        cfg = ExperimentConfig(design="underid-e3", repetitions=repetitions, master_seed=7)
        cells = experiments._cells(cfg)
        size = max(experiments.CHUNK_REPS, repetitions)
        chunks = experiments._chunks(cells, (), cfg, size, experiments.ROW_STACK_ELEMENTS)
        assert chunks == experiments._chunks(cells, (), cfg, size)
        assert [chunk.parts for chunk in chunks] == [
            ((i, cell.build, range(repetitions)),) for i, cell in enumerate(cells)
        ]

    @pytest.mark.parametrize("design", ["univariate", "mv-random", "mv-fixed", "underid-e3"])
    def test_each_cell_shape_is_its_models(self, design):
        grids = {"univariate": {"q_values": (1, 30), "n_values": (50, 150)},
                 "mv-random": {"n_models": 3}, "mv-fixed": {"n_models": 1}}
        cfg = ExperimentConfig(design=design, repetitions=1, **grids.get(design, {}))
        for cell in experiments._cells(cfg):
            model = cell.build()
            n = cell.params.get("n", cfg.sample_size)
            assert cell.shape == (n, model.q, len(model.x_indices), model.k)

    def test_a_cell_split_across_two_pooled_chunks(self, monkeypatch):
        cfg = CELL_MAPPING_CASES[2][0]  # mv-fixed: 4 cells of 5 repetitions, one shape
        monkeypatch.setattr(experiments, "CHUNK_REPS", 7)
        estimators = parse_estimators(experiments._GRID_DESIGNS["mv-fixed"].estimators)
        specs = tuple(spec for _, spec in estimators)
        chunks = experiments._chunks(experiments._cells(cfg), specs, cfg, experiments.CHUNK_REPS)
        parts = [[(index, reps) for index, _, reps in chunk.parts] for chunk in chunks]
        # cell 1 is split: its first two repetitions join cell 0's chunk
        assert parts == [[(0, range(0, 5)), (1, range(0, 2))], [(1, range(2, 5)), (2, range(0, 4))],
                         [(2, range(4, 5)), (3, range(0, 5))]]
        experiments.shutdown_workers()
        result = run_experiment(cfg, threads=2)
        assert len(multiprocessing.active_children()) == 2
        for k in range(4):
            params, model, n, target, _ = _mv_fixed_cell(cfg, k)
            assert result.cells[k].params == params
            assert_cell_is_its_oracle(result.cells[k], cell_oracle(cfg, k, model, n, target))
        assert run_experiment(cfg).rows == result.rows
        experiments.shutdown_workers()

    def test_a_singular_repetition_is_excluded_in_its_own_cell_only(self, monkeypatch):
        cfg = ExperimentConfig(
            design="univariate", repetitions=6, master_seed=8, q_values=(2,),
            rho_values=(0.5,), r2_values=(0.01, 0.1, 0.3), n_values=(50,),
        )
        singular = cell_seed(cfg.master_seed, 1, 2)

        def collinear(a):  # the second anchor a multiple of the first: A^T A is singular
            a[..., 1] = 2.0 * a[..., 0]

        def sampled(model, n, seeds, iv=None):
            y, x, a = sample_stack(model, n, seeds, iv)
            if singular in seeds:
                collinear(a[list(seeds).index(singular)])
            return y, x, a

        def tamper(seed, ds):
            if seed != singular:
                return ds
            a = ds.a.copy()
            collinear(a)
            return Dataset(y=ds.y, x=ds.x, a=a)

        monkeypatch.setattr(experiments, "sample_stack", sampled)
        experiments.shutdown_workers()
        result = run_experiment(cfg, threads=2)  # runs here: the step was replaced
        assert experiments._WORKERS is None
        oracles = [
            cell_oracle(cfg, k, model, n, target, tamper)
            for k, (model, n, target) in enumerate(univariate_cells(2, 0.5, (0.01, 0.1, 0.3), 50))
        ]
        for cell, oracle in zip(result.cells, oracles):
            assert_cell_is_its_oracle(cell, oracle)
        assert [cell.failures for cell in result.cells][::2] == [{}, {}]
        assert result.cells[1].failures["pulse"] == {"SingularGram": 1}
        assert result.cells[1].weak["gn_repetitions"] == 5.0
        excluded = {(row["r2"], row["estimator"]) for row in result.rows
                    if row["metric"] == "excluded_SingularGram"}
        assert excluded and {r2 for r2, _ in excluded} == {0.1}


ROW_FREE_CASES = [
    ExperimentConfig(design="underid-e3", repetitions=7, master_seed=7,
                     n_values=(100, 1000, 10000)),
    ExperimentConfig(design="underid-e3", repetitions=7, master_seed=7,
                     n_values=(100, 1000, 10000), estimators=("pulse", "modified-tsls", "kclass:1")),
    ExperimentConfig(design="robustness-e1", repetitions=60, master_seed=7),
]


def large_n_study(repetitions: int) -> ExperimentConfig:
    """One ``underid-e3`` cell at n = 1e4, where a slice holds one repetition."""
    cfg = ExperimentConfig(design="underid-e3", repetitions=repetitions, master_seed=7,
                           n_values=(10000,))
    model = e3_model()
    assert experiments.STACK_ELEMENTS // (10000 * (model.q + model.k)) == 1
    return cfg


def samplers() -> list[threading.Thread]:
    """The helper threads of ``experiments._in_order`` that are alive."""
    return [t for t in threading.enumerate() if t.name == experiments.SAMPLER_THREAD]


class TestRowFreeSamplingThreads:
    """A serial run samples the slices of a chunk whose estimators read no rows on one
    thread per CPU: the same bytes, the first failed slice's error, and no thread left."""

    @pytest.mark.parametrize("cfg", ROW_FREE_CASES, ids=["underid-e3", "kclass1", "robustness-e1"])
    def test_any_cpu_count_gives_the_same_files(self, cfg, tmp_path, monkeypatch):
        files = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(experiments, "_cpu_count", lambda cpus=cpus: cpus)
            result = run_experiment(cfg)
            files.append([p.read_bytes() for p in write_result(result, tmp_path / str(cpus))])
            assert not samplers()
        assert files[1] == files[0] and files[2] == files[0]

    def test_a_serial_run_samples_on_one_thread_per_cpu_and_a_worker_on_one(self, monkeypatch):
        cfg = large_n_study(4)
        monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
        idents = []
        pairs = threading.Barrier(2, timeout=10)  # broken unless two slices run at once

        def sampled(model, n, seeds, iv=None):
            idents.append(threading.get_ident())
            pairs.wait()
            return sample_stack(model, n, seeds, iv)

        monkeypatch.setattr(experiments, "sample_stack", sampled)
        serial = run_experiment(cfg)
        assert len(idents) == 4 and len(set(idents)) == 2
        assert threading.get_ident() in idents
        idents.clear()
        run_experiment(ExperimentConfig(design="robustness-e1", repetitions=20))  # 2 slices
        assert len(set(idents)) == 2 and threading.get_ident() in idents

        idents.clear()

        def on_its_thread(model, n, seeds, iv=None):
            idents.append(threading.get_ident())
            return sample_stack(model, n, seeds, iv)

        monkeypatch.setattr(experiments, "sample_stack", on_its_thread)
        estimators = parse_estimators(experiments._GRID_DESIGNS["underid-e3"].estimators)
        specs = tuple(spec for _, spec in estimators)
        (chunk,) = experiments._chunks(experiments._cells(cfg), specs, cfg, experiments.CHUNK_REPS)
        worker = experiments._run_chunk(chunk)  # as a worker calls it
        assert idents == [threading.get_ident()] * 4
        threaded = experiments._run_chunk(chunk, 3)
        assert worker.errors.tolist() == threaded.errors.tolist()
        for name in ("alpha", "min_eig", "g"):
            assert getattr(worker, name).tobytes() == getattr(threaded, name).tobytes(), name
        assert run_experiment(cfg).rows == serial.rows

    def test_the_first_failed_slice_in_order_is_raised(self, monkeypatch):
        cfg = large_n_study(6)
        monkeypatch.setattr(experiments, "_cpu_count", lambda: 3)
        run_experiment(cfg)
        assert not samplers()
        slice_of = {cell_seed(cfg.master_seed, 0, rep): rep for rep in range(cfg.repetitions)}
        second_failed = threading.Event()
        checked_rows = experiments._checked_rows

        def checked(y, x, a):
            try:
                return checked_rows(y, x, a)
            except DataError:
                second_failed.set()  # slice 2 fails first: slice 1 waits for it
                raise

        def sampled(model, n, seeds, iv=None):
            y, x, a = sample_stack(model, n, seeds, iv)
            if slice_of[seeds[0]] == 1:
                assert second_failed.wait(10), "slice 2 did not run beside slice 1"
                y[0, 0] = np.nan
            elif slice_of[seeds[0]] == 2:
                x[0, 0, 0] = np.nan
            return y, x, a

        monkeypatch.setattr(experiments, "_checked_rows", checked)
        monkeypatch.setattr(experiments, "sample_stack", sampled)
        with pytest.raises(DataError, match="non-finite values in y"):
            run_experiment(cfg)
        assert second_failed.is_set()
        assert not samplers()

    @pytest.mark.parametrize("stop", [ValueError, KeyboardInterrupt])
    def test_no_item_starts_after_a_failure_or_ctrl_c(self, stop):
        started = []

        def item(i):
            started.append(i)
            on_caller = threading.current_thread() is threading.main_thread()
            if i >= 3 and stop is ValueError and not on_caller:
                raise ValueError(i)  # on a helper: the caller must stop taking items too
            if i >= 3 and stop is KeyboardInterrupt and on_caller:
                _thread.interrupt_main()  # as Ctrl-C does, once every helper has started
            time.sleep(0.01)
            return i

        with pytest.raises(stop):
            experiments._in_order(item, range(200), 3)
        assert not samplers()
        assert 4 <= len(started) < 200
        assert experiments._in_order(lambda i: i * i, range(9), 3) == [i * i for i in range(9)]
        assert not samplers()

    @pytest.mark.parametrize("step", ["start", "join"])
    def test_ctrl_c_while_helpers_start_or_are_joined_leaves_none(self, step, monkeypatch):
        ran = threading.Event()

        class Interrupted(threading.Thread):
            def run(self):
                if step == "start":
                    _thread.interrupt_main()  # as Ctrl-C does, while the caller is in ``start``
                    ran.set()
                super().run()

            def start(self):
                super().start()
                if step == "start":
                    assert ran.wait(10)

            def join(self, timeout=None):
                if step == "join":
                    _thread.interrupt_main()  # as Ctrl-C does, in the first join
                super().join(timeout)

        def item(i):
            if i >= 3 and threading.current_thread() is threading.main_thread():
                raise ValueError(i)  # the caller joins the helpers while they still run
            time.sleep(0.05)  # so a helper left unjoined is still alive below
            return i

        monkeypatch.setattr(threading, "Thread", Interrupted)
        with pytest.raises(KeyboardInterrupt):
            experiments._in_order(item, range(200), 3)
        assert not samplers()
