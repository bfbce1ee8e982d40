"""Chi-squared quantiles, the uncorrelatedness test, and weak-instrument stats."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats

from pulse_iv.data import Dataset, DesignView, ModelPartition
from pulse_iv.estimators import EstimatorSpec, estimate
from pulse_iv.exceptions import DegenerateResidual, SingularGram, ZeroResidual
from pulse_iv import inference
from pulse_iv.sem import e3_model, sem_sample
from pulse_iv.inference import (
    ANDERSON_RUBIN,
    PLAIN,
    TestConfig,
    ar_statistic,
    chi2_quantile,
    weak_instrument_stat,
)

from conftest import make_instance, raw_matrices


class TestChi2Quantile:
    def test_reference_values(self):
        assert chi2_quantile(2, 0.95) == pytest.approx(5.9915, abs=5e-5)
        assert chi2_quantile(3, 0.95) == pytest.approx(7.8147, abs=5e-5)

    def test_vanishes_at_zero_probability_limit(self):
        assert chi2_quantile(1, 1e-12) < 1e-10

    def test_cdf_round_trip(self):
        for q in (1, 2, 5, 30):
            for p in (0.01, 0.5, 0.95, 0.999):
                quant = chi2_quantile(q, p)
                assert scipy.stats.chi2.cdf(quant, df=q) == pytest.approx(p, rel=1e-10)

    def test_memoised_value_is_the_gammaincinv_float(self):
        for q in (1, 2, 5, 30):
            for p in (0.5, 0.95):
                expected = 2 * scipy.special.gammaincinv(q / 2, p)
                assert chi2_quantile(q, p) == expected
                assert chi2_quantile(q, p) == expected
                assert TestConfig(p_min=1 - p).threshold(q) == expected

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            chi2_quantile(2, 0.0)
        with pytest.raises(ValueError):
            chi2_quantile(2, 1.0)
        with pytest.raises(ValueError):
            chi2_quantile(0, 0.5)


class TestTestStatistic:
    def test_orthogonal_residual_accepted_at_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(40, 2))
        q_basis, _ = np.linalg.qr(a)
        resid = rng.normal(size=40)
        resid -= q_basis @ (q_basis.T @ resid)
        x = rng.normal(size=(40, 1))
        y = 1.5 * x[:, 0] + resid
        view = DesignView(Dataset(y=y, x=x, a=a))
        res = inference.test_statistic(view, np.array([1.5]), TestConfig(scaling=PLAIN))
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.accepted

    def test_scaling_schemes_differ_by_exact_factor(self):
        view = make_instance(1, n=60, d1=1, q=2)
        alpha = np.array([0.4])
        plain = inference.test_statistic(view, alpha, TestConfig(p_min=0.05, scaling=PLAIN))
        ar = inference.test_statistic(view, alpha, TestConfig(p_min=0.05, scaling=ANDERSON_RUBIN))
        n, q = view.n, view.q
        factor = (n - q + chi2_quantile(q, 0.95)) / n
        assert ar.statistic == pytest.approx(plain.statistic * factor, rel=1e-12)

    def test_zero_residual_raises(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(10, 1))
        y = 2.0 * z[:, 0]
        view = DesignView(Dataset(y=y, x=z, a=rng.normal(size=(10, 1))))
        with pytest.raises(ZeroResidual):
            inference.test_statistic(view, np.array([2.0]))

    def test_scale_invariance(self):
        view = make_instance(3, n=50, d1=1, q=2)
        alpha = np.array([0.7])
        base = inference.test_statistic(view, alpha, TestConfig(scaling=PLAIN)).statistic
        c = 13.7
        scaled_view = DesignView(
            Dataset(y=c * view.dataset.y, x=c * view.dataset.x, a=view.dataset.a)
        )
        scaled = inference.test_statistic(scaled_view, alpha, TestConfig(scaling=PLAIN)).statistic
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_threshold_monotone_in_level(self):
        view = make_instance(4, n=60, d1=1, q=2)
        grid = [np.array([v]) for v in np.linspace(-1.0, 2.0, 25)]
        accepted = {}
        thresholds = {}
        for p_min in (0.01, 0.05, 0.2):
            cfg = TestConfig(p_min=p_min, scaling=PLAIN)
            accepted[p_min] = {
                i for i, g in enumerate(grid) if inference.test_statistic(view, g, cfg).accepted
            }
            thresholds[p_min] = cfg.threshold(view.q)
        assert thresholds[0.01] > thresholds[0.05] > thresholds[0.2]
        assert accepted[0.2] <= accepted[0.05] <= accepted[0.01]

    def test_boundary_counts_as_accepted(self):
        res_type = inference.test_statistic(make_instance(5), np.array([0.0]))
        assert res_type.accepted == (res_type.statistic <= res_type.threshold)

    def test_anderson_rubin_scaling_needs_n_above_q(self):
        with pytest.raises(ValueError, match="n > q"):
            TestConfig(scaling=ANDERSON_RUBIN).scale(n=3, q=3)


class TestAndersonRubin:
    def test_orthogonal_residual_gives_zero(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(40, 2))
        q_basis, _ = np.linalg.qr(a)
        resid = rng.normal(size=40)
        resid -= q_basis @ (q_basis.T @ resid)
        x = rng.normal(size=(40, 1))
        view = DesignView(Dataset(y=x[:, 0] + resid, x=x, a=a))
        assert ar_statistic(view, np.array([1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_algebraic_bridge(self):
        view = make_instance(8, n=60, d1=1, q=3)
        rng = np.random.default_rng(9)
        n, q = view.n, view.q
        for _ in range(20):
            alpha = rng.normal(size=view.k)
            t_ar = ar_statistic(view, alpha)
            li, lo = view.iv_loss(alpha), view.ols_loss(alpha)
            rebuilt = (n - q) / q * (li / lo) / (1.0 - li / lo)
            assert t_ar == pytest.approx(rebuilt, rel=1e-10)

    def test_acceptance_regions_coincide(self):
        view = make_instance(10, n=80, d1=1, q=2)
        cfg = TestConfig(p_min=0.05, scaling=ANDERSON_RUBIN)
        quant = chi2_quantile(view.q, 0.95)
        for v in np.linspace(-2.0, 3.0, 100):
            alpha = np.array([v])
            via_tc = inference.test_statistic(view, alpha, cfg).accepted
            via_ar = ar_statistic(view, alpha) <= quant / view.q
            assert via_tc == via_ar

    def test_plain_region_contains_ar_region_when_quantile_exceeds_dof(self):
        # with c(n) = n the acceptance region contains the Anderson-Rubin one
        # whenever the chi-squared quantile is at least q
        view = make_instance(17, n=60, d1=1, q=2)
        assert chi2_quantile(view.q, 0.95) >= view.q
        plain = TestConfig(p_min=0.05, scaling=PLAIN)
        ar = TestConfig(p_min=0.05, scaling=ANDERSON_RUBIN)
        for v in np.linspace(-2.0, 3.0, 60):
            alpha = np.array([v])
            if inference.test_statistic(view, alpha, ar).accepted:
                assert inference.test_statistic(view, alpha, plain).accepted

    def test_degenerate_residual_raises(self):
        # residual entirely inside span(A): y - z*alpha lies in the column space
        rng = np.random.default_rng(11)
        a = rng.normal(size=(20, 2))
        x = rng.normal(size=(20, 1))
        y = 0.5 * x[:, 0] + a @ np.array([1.0, -1.0])
        view = DesignView(Dataset(y=y, x=x, a=a))
        with pytest.raises(DegenerateResidual):
            ar_statistic(view, np.array([0.5]))


class TestWeakInstruments:
    def test_univariate_f_formula(self):
        view = make_instance(12, n=50, d1=1, q=2)
        y, z, a = raw_matrices(view)
        x = z[:, 0]
        q_basis, _ = np.linalg.qr(a)
        px = q_basis @ (q_basis.T @ x)
        n, q = view.n, view.q
        f_direct = (n - q) / q * (x @ px) / (x @ x - x @ px)
        report = weak_instrument_stat(view)
        assert report.g_matrix[0, 0] == pytest.approx(f_direct, rel=1e-10)
        assert report.min_eigenvalue == pytest.approx(f_direct, rel=1e-10)

    def test_orthogonal_regressor_gives_zero(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(30, 2))
        q_basis, _ = np.linalg.qr(a)
        x = rng.normal(size=30)
        x -= q_basis @ (q_basis.T @ x)
        view = DesignView(Dataset(y=rng.normal(size=30), x=x[:, None], a=a))
        assert weak_instrument_stat(view).min_eigenvalue == pytest.approx(0.0, abs=1e-10)

    def test_rank_deficient_gn_reports_exact_zero(self):
        # e3 has q = 1 < d1 = 2: G_n has rank one, so its smallest eigenvalue is 0
        view = DesignView(sem_sample(e3_model(), 200, seed=3))
        report = weak_instrument_stat(view)
        assert report.min_eigenvalue == 0.0
        assert report.rule_of_thumb_pass is False
        assert np.linalg.matrix_rank(report.g_matrix) == 1

    def test_two_step_regression_oracle(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(20, 2))
        x = a @ np.array([0.8, -0.4]) + rng.normal(size=20)
        view = DesignView(Dataset(y=rng.normal(size=20), x=x[:, None], a=a))
        # first-stage regression anova: F = (ESS/q) / (RSS/(n-q))
        coef = np.linalg.lstsq(a, x, rcond=None)[0]
        fitted = a @ coef
        ess, rss = float(fitted @ fitted), float((x - fitted) @ (x - fitted))
        f_anova = (ess / 2) / (rss / (20 - 2))
        assert weak_instrument_stat(view).min_eigenvalue == pytest.approx(f_anova, rel=1e-10)

    @pytest.mark.parametrize("d1, q1", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_included_exogenous_are_partialled_out(self, d1, q1):
        """Stock and Yogo's G_T from rows: X and the excluded instruments
        residualized on the included exogenous A_*, Sigma from X's residual on A."""
        rng = np.random.default_rng(30 + 3 * d1 + q1)
        n, q2 = 80, 3
        a = rng.normal(size=(n, q1 + q2)) + 2.0
        x = 4.0 + a @ rng.normal(size=(q1 + q2, d1)) + rng.normal(size=(n, d1))
        partition = ModelPartition(tuple(range(d1)), tuple(range(q1)))
        view = DesignView(Dataset(y=rng.normal(size=n), x=x, a=a), partition)

        def residual(basis, m):
            return m - basis @ np.linalg.lstsq(basis, m, rcond=None)[0]

        a_star, a_excl = a[:, :q1], a[:, q1:]
        x_perp = residual(a_star, x)
        fitted = x_perp - residual(residual(a_star, a_excl), x_perp)
        x_resid = residual(a, x)
        sigma = x_resid.T @ x_resid / (n - q1 - q2)
        w, v = np.linalg.eigh(sigma)
        isqrt = (v / np.sqrt(w)) @ v.T
        g = isqrt @ (fitted.T @ fitted) @ isqrt / q2
        report = weak_instrument_stat(view)
        np.testing.assert_allclose(report.g_matrix, g, rtol=1e-10, atol=1e-12 * np.abs(g).max())
        assert report.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(g)[0], rel=1e-10)

    def test_no_excluded_instrument_gives_zero_matrix(self):
        # every anchor is an included regressor: P_A = P_{A_*}, and q2 = 0 divides nothing
        rng = np.random.default_rng(31)
        a = rng.normal(size=(50, 2))
        x = a @ np.array([1.0, 1.0]) + rng.normal(size=50)
        ds = Dataset(y=rng.normal(size=50), x=x[:, None], a=a)
        view = DesignView(ds, ModelPartition((0,), (0, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = weak_instrument_stat(view)
        assert report.g_matrix.tolist() == [[0.0]]
        assert report.min_eigenvalue == 0.0 and report.rule_of_thumb_pass is False

    @pytest.mark.parametrize("d1", [1, 2])
    def test_regressors_in_anchor_span_are_singular(self, d1):
        # X = A C exactly, so X^T P_A^perp X is zero up to rounding; a check relative
        # to that rounding residue alone passes about half of these seeds
        for seed in range(40):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(60, 3))
            x = a @ rng.normal(size=(3, d1))
            view = DesignView(Dataset(y=rng.normal(size=60), x=x, a=a))
            with pytest.raises(SingularGram) as exc:
                weak_instrument_stat(view)
            assert exc.value.matrix_name == "X^T P_A^perp X"

    def test_matrix_symmetric_and_rule_of_thumb(self):
        view = make_instance(15, n=100, d1=2, q=3, instrument_strength=2.0)
        report = weak_instrument_stat(view)
        np.testing.assert_allclose(report.g_matrix, report.g_matrix.T, atol=1e-10)
        assert report.rule_of_thumb_pass == (report.min_eigenvalue > 10.0)

    def test_tsls_inside_acceptance_region_for_valid_instruments(self):
        view = make_instance(16, n=200, d1=1, q=2)
        res = estimate(view, EstimatorSpec("tsls"))
        assert inference.test_statistic(view, res.alpha).accepted
