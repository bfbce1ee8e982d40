"""Edge paths and cross-module behaviors not covered by the module suites."""

from __future__ import annotations

import pickle
import re

import numpy as np
import pytest

from pulse_iv import inference
from pulse_iv.data import Dataset, DesignView, center, load_csv, CsvSchema
from pulse_iv.estimators import EstimateResult, EstimatorSpec, estimate
from pulse_iv.exceptions import DataError, SingularGram
from pulse_iv.inference import ANDERSON_RUBIN, PLAIN, TestConfig
from pulse_iv.pulse import PulseConfig, PulseMessage, pulse_estimate
from pulse_iv.sem import (
    InterventionSpec,
    draw_anchors,
    e1_model,
    e1_superiority_interval,
    sem_sample,
)

from conftest import invalid_instrument_view, make_instance, weak_confounding_view


#: A view builder and a config for each PULSE branch, keyed by its message.
_PULSE_BRANCHES = {
    "none": (
        lambda: make_instance(43, n=150, d1=1, q=1, confounding=0.9),
        PulseConfig(precision_n=2**10),
    ),
    "ols_accepted": (weak_confounding_view, PulseConfig()),
    "tsls_rejected_fallback": (invalid_instrument_view, PulseConfig(fallback=EstimatorSpec("liml"))),
}


class TestEstimatorDispatch:
    def test_every_closed_form_kind_dispatches(self):
        view = make_instance(70, n=80, d1=1, q=2)
        for text in ("ols", "tsls", "kclass:0.4", "anchor:2", "liml", "fuller:4"):
            res = estimate(view, EstimatorSpec.parse(text))
            assert np.all(np.isfinite(res.alpha))

    def test_modified_tsls_dispatch_under_identified(self):
        view = make_instance(71, n=80, d1=2, q=1)
        res = estimate(view, EstimatorSpec("modified-tsls"))
        assert res.alpha.shape == (2,)

    @pytest.mark.parametrize("branch", list(_PULSE_BRANCHES))
    def test_pulse_kind_dispatches_to_pulse_estimate(self, branch):
        make_view, cfg = _PULSE_BRANCHES[branch]
        got = estimate(make_view(), EstimatorSpec("pulse"), cfg)
        want = pulse_estimate(make_view(), cfg)
        assert want.message is PulseMessage(branch)
        assert got.alpha.tobytes() == want.alpha.tobytes()
        assert (got.lambda_used, got.kappa_used) == (want.lambda_used, want.kappa_used)
        assert got.message is want.message and got.diagnostics == want.diagnostics

    def test_pulse_config_is_a_test_config(self):
        for p_min, scaling in ((0.0, ANDERSON_RUBIN), (1.0, PLAIN), (-0.1, PLAIN),
                               (float("nan"), ANDERSON_RUBIN), (0.05, "ar")):
            with pytest.raises(ValueError) as refused:
                TestConfig(p_min, scaling)
            with pytest.raises(ValueError, match=re.escape(str(refused.value))):
                PulseConfig(p_min, scaling)
        view = make_instance(72, n=80, d1=1, q=2)
        for p_min, scaling in ((0.05, ANDERSON_RUBIN), (0.2, PLAIN)):
            for kappa in (0.0, 0.5, 1.0):
                alpha = view.kclass_solve(kappa)
                assert inference.test_statistic(
                    view, alpha, PulseConfig(p_min, scaling)
                ) == inference.test_statistic(view, alpha, TestConfig(p_min, scaling))

    def test_result_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            EstimateResult(alpha=np.array([np.inf]))


class TestNegativeAnchorPenalty:
    def test_matches_kclass_reparametrization(self):
        # lambda in (-1, 0) maps to negative kappa; the identity still holds
        view = make_instance(73, n=90, d1=1, q=2)
        lam = -0.5
        res = estimate(view, EstimatorSpec("anchor", lam))
        np.testing.assert_allclose(
            res.alpha, estimate(view, EstimatorSpec("kclass", lam / (1.0 + lam))).alpha, atol=1e-10
        )
        assert res.kappa_used == pytest.approx(-1.0, abs=1e-12)


class TestInterventionValidation:
    def test_dimension_mismatch(self):
        model = e1_model()
        bad = InterventionSpec.hard(np.array([1.0, 2.0]))  # q = 1 model
        with pytest.raises(ValueError, match="dimensions"):
            draw_anchors(model, 10, seed=0, iv=bad)

    def test_sample_size_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            sem_sample(e1_model(), 0, seed=0)


class TestExceptionPickling:
    @pytest.mark.parametrize("rcond", [None, 0.0])
    def test_singular_gram_round_trip(self, rcond):
        exc = SingularGram("A^T A", rcond)
        back = pickle.loads(pickle.dumps(exc))
        assert (back.matrix_name, back.rcond, str(back)) == ("A^T A", rcond, str(exc))


class TestDataEdges:
    def test_center_needs_two_rows(self):
        ds = Dataset(y=[1.0], x=[[1.0]], a=[[1.0]])
        with pytest.raises(ValueError, match="two rows"):
            center(ds)

    def test_load_csv_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "absent.csv", CsvSchema("y", ("x",), ("a",)))

    def test_schema_rejects_duplicates(self):
        with pytest.raises(DataError, match="duplicate"):
            CsvSchema("y", ("y",), ("a",))

    def test_with_intercept_appends_readonly_column(self):
        ds = Dataset(y=[1.0, 2.0], x=[[1.0], [2.0]], a=[[3.0], [4.0]])
        out = ds.with_intercept()
        assert out.a_names[-1] == "const"
        np.testing.assert_allclose(out.a[:, -1], 1.0)
        assert out.q == ds.q + 1


class TestPulseConfigEdges:
    def test_precision_must_be_positive(self):
        with pytest.raises(ValueError, match="precision_n"):
            PulseConfig(precision_n=0)

    def test_precision_whose_reciprocal_is_no_positive_float_is_refused(self):
        # 1/2**1024 overflows the int-to-float conversion the search width makes
        with pytest.raises(ValueError, match="precision_n"):
            PulseConfig(precision_n=2**1024)
        assert 0.0 < 1.0 / PulseConfig(precision_n=2**1023).precision_n

    def test_p_min_must_be_interior(self):
        with pytest.raises(ValueError, match="p_min"):
            PulseConfig(p_min=1.0)


class TestSuperiorityIntervalShapes:
    def test_causal_point_superior_beyond_three(self):
        lo, hi = e1_superiority_interval(1.0, (1.25, 1.1))
        assert lo == pytest.approx(3.0, abs=1e-9)
        assert hi == np.inf

    def test_ols_point_superior_below_crossing(self):
        lo, hi = e1_superiority_interval(1.25, (1.1, 1.0))
        assert lo == 0.0
        assert round(hi, 4) == 1.3628

    def test_identical_curves_nowhere_strictly_superior(self):
        assert e1_superiority_interval(1.1, (1.1,)) == (0.0, 0.0)


class TestSuperiorityRangeStudy:
    def test_finite_sample_range_lengths_grow_toward_theory(self):
        # per-repetition superiority ranges of the kappa=3/4 estimate against
        # the estimated endpoints; the theoretical interval has length 1.63,
        # short samples produce markedly shorter ranges on median
        model = e1_model()

        def median_length(n: int) -> float:
            lengths = []
            for seed in range(50):
                view = DesignView(sem_sample(model, n, seed=300 + seed))
                g = {k: float(view.kclass_solve(k)[0]) for k in (0.0, 0.75, 1.0)}
                lo, hi = e1_superiority_interval(g[0.75], (g[0.0], g[1.0]))
                lengths.append(min(hi, 10.0) - lo)
            return float(np.median(lengths))

        short, long = median_length(50), median_length(2000)
        assert short < long
        assert 1.3 <= long <= 2.2
