"""Dual binary search, the PULSE wrapper, and the primal oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulse_iv import inference, pulse
from pulse_iv.data import KAPPA_FORM_MAX, Dataset, DesignView, PathStack
from pulse_iv.estimators import EstimatorSpec, estimate
from pulse_iv.exceptions import NonMonotoneDetected, OutOfDomain
from pulse_iv.experiments import UNIVARIATE_DECLARED
from pulse_iv.inference import PLAIN, StackTest, chi2_quantile
from pulse_iv.pulse import (
    MESSAGE_TEXT,
    PulseConfig,
    PulseMessage,
    _gap_polynomials,
    _smallest_accepted,
    primal_solve,
    pulse_estimate,
)
from pulse_iv.sem import e3_model, mv_fixed_model, sem_sample, univariate_model

from conftest import (
    decided_bracket,
    invalid_instrument_view,
    make_instance,
    oracle_lambda_bisection,
    t_star,
    weak_confounding_view,
)


def weak_just_identified_view(n: int = 200, strength: float = 1e-9, seed: int = 0) -> DesignView:
    """One instrument of the given strength, exactly orthogonal to the
    first-stage noise, that also enters the response: ``lambda*`` is huge."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    u = rng.normal(size=n)
    u -= a * (a @ u) / (a @ a)
    x = strength * a + u
    y = x + 0.5 * a + rng.normal(size=n)
    return DesignView(Dataset(y=y, x=x[:, None], a=a[:, None]))


def weak_under_identified_view(n: int = 200, strength: float = 1e-9, seed: int = 0) -> DesignView:
    """d=2, q=1 analogue of :func:`weak_just_identified_view`."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 1))
    u = rng.normal(size=(n, 2))
    u -= a @ np.linalg.lstsq(a, u, rcond=None)[0]
    x = strength * a @ np.array([[1.0, 0.5]]) + u
    y = x @ np.array([1.0, -0.5]) + 0.5 * a[:, 0] + rng.normal(size=n)
    return DesignView(Dataset(y=y, x=x, a=a))


class TestLambdaStarSearch:
    def test_zero_when_ols_accepted(self):
        view = weak_confounding_view()
        cfg = PulseConfig()
        stat_ols = inference.test_statistic(view, view.kclass_solve(0.0), cfg)
        assert stat_ols.accepted
        assert pulse_estimate(view, cfg).lambda_used == 0.0

    def test_infinite_when_tsls_rejected(self):
        view = invalid_instrument_view()
        assert pulse_estimate(view, PulseConfig()).lambda_used == math.inf

    def test_matches_fine_oracle(self):
        view = make_instance(40, n=120, d1=1, q=1, confounding=0.9)
        cfg = PulseConfig(precision_n=10**6)
        result = pulse_estimate(view, cfg).lambda_used
        oracle = oracle_lambda_bisection(view, cfg, precision=1e-7)
        assert abs(result - oracle) <= 2e-6
        stat = inference.test_statistic(view, view.kclass_solve(result / (1 + result)), cfg)
        assert abs(stat.statistic - stat.threshold) <= 1e-6 * stat.threshold

    def test_finite_in_under_identified_setup(self):
        view = make_instance(41, n=100, d1=2, q=1, confounding=0.9)
        lam = pulse_estimate(view, PulseConfig()).lambda_used
        assert math.isfinite(lam)


class TestPulseEstimate:
    def test_ols_branch_returns_exact_ols(self):
        view = weak_confounding_view()
        res = pulse_estimate(view)
        assert res.message is PulseMessage.OLS_ACCEPTED
        assert res.lambda_used == 0.0 and res.kappa_used == 0.0
        np.testing.assert_array_equal(res.alpha, view.kclass_solve(0.0))

    def test_fallback_branch(self):
        view = invalid_instrument_view()
        res = pulse_estimate(view)
        assert res.message is PulseMessage.TSLS_REJECTED_FALLBACK
        assert math.isinf(res.lambda_used) and res.kappa_used is None
        fuller = estimate(view, EstimatorSpec("fuller", 4.0))
        np.testing.assert_allclose(res.alpha, fuller.alpha, atol=1e-12)

    def test_fallback_spec_is_honoured(self):
        view = invalid_instrument_view()
        cfg = PulseConfig(fallback=EstimatorSpec("tsls"))
        res = pulse_estimate(view, cfg)
        assert res.diagnostics["fallback"] == "tsls"

    def test_interior_branch_invariants(self):
        view = make_instance(43, n=150, d1=1, q=1, confounding=0.9)
        res = pulse_estimate(view)
        assert res.message is PulseMessage.NONE
        assert res.kappa_used == pytest.approx(
            res.lambda_used / (1.0 + res.lambda_used), abs=1e-12
        )
        np.testing.assert_allclose(
            res.alpha, view.kclass_solve(res.kappa_used), atol=1e-10
        )
        # acceptance membership and boundary activity
        tr = inference.test_statistic(view, res.alpha, PulseConfig())
        assert tr.statistic <= tr.threshold * (1 + 1e-9)
        assert abs(tr.statistic - tr.threshold) <= 1e-4 * tr.threshold

    def test_interior_results_pass_the_reported_test(self):
        # the search decides with the predicate test_statistic reports, so no
        # interior answer lands an ulp outside the acceptance region
        cfg = PulseConfig()
        interior = 0
        for i in range(60):
            d1, q = [(2, 1), (1, 1), (1, 2), (2, 3)][i % 4]
            view = make_instance(500 + i, n=60 + 20 * (i % 5), d1=d1, q=q, confounding=0.9)
            res = pulse_estimate(view, cfg)
            if res.message is PulseMessage.NONE:
                interior += 1
                assert inference.test_statistic(view, res.alpha, cfg).accepted
        assert interior >= 30

    def test_message_strings_match_algorithm(self):
        assert MESSAGE_TEXT[PulseMessage.OLS_ACCEPTED] == "Warning: The OLS is accepted."
        assert (
            MESSAGE_TEXT[PulseMessage.TSLS_REJECTED_FALLBACK]
            == "Warning: TSLS outside interior of acceptance region."
        )

    def test_rejects_inconsistent_config(self):
        with pytest.raises(ValueError, match="consistent estimator"):
            PulseConfig(fallback=EstimatorSpec("ols"))


class TestExtremePenalties:
    """Penalties where ``kappa = lam / (1 + lam)`` is within 1e-8 of one; the
    search's bracket passes 2^53, where ``kappa`` rounds to one."""

    def test_weak_just_identified_is_not_tsls(self):
        view = weak_just_identified_view()
        cfg = PulseConfig()
        res = pulse_estimate(view, cfg)
        tsls = estimate(view, EstimatorSpec("tsls")).alpha
        assert res.message is PulseMessage.NONE
        assert res.lambda_used > 1e9
        assert inference.test_statistic(view, res.alpha, cfg).accepted
        assert abs(res.alpha[0]) < 1e-3 * abs(tsls[0])

    def test_weak_under_identified_is_finite(self):
        view = weak_under_identified_view()
        cfg = PulseConfig()
        res = pulse_estimate(view, cfg)
        assert res.message is PulseMessage.NONE
        assert math.isfinite(res.lambda_used) and np.all(np.isfinite(res.alpha))
        assert inference.test_statistic(view, res.alpha, cfg).accepted

    def test_anchor_kclass_identity_at_large_penalty(self):
        view = weak_just_identified_view()
        lam = 1e8
        np.testing.assert_allclose(
            estimate(view, EstimatorSpec("kclass", lam / (1.0 + lam))).alpha,
            estimate(view, EstimatorSpec("anchor", lam)).alpha,
            rtol=1e-6,
        )

    def test_path_forms_agree_across_the_switch(self):
        # alpha(lam) is the kappa-form Gram solve up to KAPPA_FORM_MAX and the
        # eigenbasis lambda form above it: both must give the same point
        for d1, q in ((1, 1), (2, 1), (2, 3)):
            view = make_instance(60 + q, n=90, d1=d1, q=q, confounding=0.8)
            paths = view.stack.paths[0]
            v, b0, b1, d = paths.v[0], paths.b0[0], paths.b1[0], paths.d[0]
            for lam in (0.5, 37.0, KAPPA_FORM_MAX):
                eigen = v @ ((b0 + lam * b1) / (1.0 + lam * d))
                np.testing.assert_allclose(path_point(view, lam), eigen, rtol=1e-9, atol=1e-12)


def path_point(view: DesignView, lam: float) -> np.ndarray:
    """The view's K-class path point at penalty ``lam``."""
    return estimate(view, EstimatorSpec("anchor", lam)).alpha


def exact_predicate(view: DesignView, cfg: PulseConfig):
    """The reported predicate ``StackTest.accepts(path.alpha(lam))`` of the view, as
    a search predicate of its one-item stack."""
    stack = view.stack
    test, paths = StackTest(stack, cfg), stack.paths[0]

    def accepts(lams: list[float], items: list[int]) -> tuple[list[bool], dict]:
        at = np.array(items)
        alpha, failed = paths.alpha(np.array(lams), at)
        verdicts, rejected = test.accepts(at, alpha)
        return verdicts.tolist(), {**rejected, **failed}

    return accepts


def exact_search(view: DesignView, cfg: PulseConfig) -> tuple[float, np.ndarray]:
    """The search whose every step asks the reported predicate."""
    _, accepted, failed = _smallest_accepted(exact_predicate(view, cfg), 1.0 / cfg.precision_n, [0])
    if failed:
        raise failed[0]
    return accepted[0], path_point(view, accepted[0])


def count_path_points(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """A one-element counter of the path points (``PathStack.alpha`` items) computed
    from now on."""
    count = [0]
    alpha = PathStack.alpha

    def counted(self: PathStack, lam: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, dict]:
        count[0] += len(items)
        return alpha(self, lam, items)

    monkeypatch.setattr(PathStack, "alpha", counted)
    return count


def design_view(design: str, seed: int, n: int, q: int, r2: float) -> DesignView:
    """A sample of one of the harness's designs, or one of the extreme-penalty
    views at instrument strength ``r2``."""
    if design == "univariate":
        return DesignView(sem_sample(univariate_model(q, 0.9, r2), n, seed))
    if design == "mv-fixed":
        xi = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(2, 2))
        return DesignView(sem_sample(mv_fixed_model(xi, 0.8, 0.47, 0.47), n, seed))
    if design == "underid-e3":
        return DesignView(sem_sample(e3_model(), n, seed))
    weak = weak_just_identified_view if design == "weak-just" else weak_under_identified_view
    return weak(n, strength=r2, seed=seed)


#: The views of the search's properties: samples of the harness's designs, and the
#: extreme-penalty views at instrument strength ``r2``.
SEARCH_VIEWS = dict(
    design=st.sampled_from(("univariate", "mv-fixed", "underid-e3", "weak-just", "weak-under")),
    seed=st.integers(0, 10**6),
    n=st.sampled_from((20, 150, 1000)),
    q=st.integers(1, 10),
    r2=st.sampled_from(UNIVARIATE_DECLARED["r2"] + (1e-9, 1e-6)),
)


@st.composite
def roots_and_widths(draw) -> tuple[float, float]:
    """A search width, the grid's ones and the subnormal ones of ``precision_n`` near
    2^1023 included, and a positive root at or next to a point where the bisection's
    bracket changes shape: a tiny or subnormal root, a power of two, a growth point
    ``2^(2^j)`` of the accepted end (2^512 and above take the exact search), or a
    point of the width's grid."""
    width = draw(st.one_of(
        st.sampled_from((2.0**-20, 1e-3, 0.3, 1.0)),
        st.integers(1, 2**1023).map(lambda n: 1.0 / n),
        st.integers(2**1000, 2**1023).map(lambda n: 1.0 / n),
    ))
    step = 2.0 ** (math.frexp(width)[1] - 1)
    root = draw(st.one_of(
        st.floats(5e-324, 1e-300),
        st.floats(1e-300, 2.0**512),
        st.integers(-1074, 513).map(lambda e: math.ldexp(1.0, e)),
        st.integers(0, 9).map(lambda j: 2.0 ** 2**j),
        st.floats(2.0**512, math.inf),
        st.integers(1, 2**60).map(lambda i: min(i * step, 2.0**512)),
    ))
    root = math.nextafter(root, draw(st.sampled_from((0.0, root, math.inf))))
    return max(root, 5e-324), width


class TestRootSearch:
    """The search decides its steps by the root of the gap polynomial and checks its
    bracket with the reported predicate; it must give the exact search's bits."""

    @settings(deadline=None)
    @given(**SEARCH_VIEWS)
    def test_same_bits_as_exact_search(self, design, seed, n, q, r2):
        view = design_view(design, seed, n, q, r2)
        cfg = PulseConfig()
        res = pulse_estimate(view, cfg)
        if res.message is not PulseMessage.NONE:
            return
        lam, alpha = exact_search(view, cfg)
        assert res.lambda_used.hex() == lam.hex()
        assert res.alpha.tobytes() == alpha.tobytes()

    @settings(deadline=None)
    @given(**SEARCH_VIEWS)
    def test_lambda_is_the_first_accepted_grid_point(self, design, seed, n, q, r2):
        # the bisection's grid below lambda: a step of the largest power of two
        # within 1/N, or of one ulp where the doubles are coarser
        view = design_view(design, seed, n, q, r2)
        cfg = PulseConfig()
        res = pulse_estimate(view, cfg)
        if res.message is not PulseMessage.NONE:
            return
        lam = res.lambda_used
        step = 2.0 ** math.floor(math.log2(1.0 / cfg.precision_n))
        below = min(lam - step, math.nextafter(lam, 0.0))
        verdicts, failed = exact_predicate(view, cfg)([lam, below], [0, 0])
        assert not failed
        assert verdicts == [True, False]

    @settings(deadline=None)
    @given(roots_and_widths())
    def test_closed_form_bracket_is_the_decided_bisections(self, case):
        root, width = case
        if not root <= 2.0**512:  # the bracket overflows: the exact search runs
            with pytest.raises(NonMonotoneDetected):
                decided_bracket(root, width)
            return
        rejected, accepted = pulse._brackets(np.array([root]), width)
        want = decided_bracket(root, width)
        assert (rejected[0].hex(), accepted[0].hex()) == (want[0].hex(), want[1].hex())

    @pytest.mark.parametrize(
        "seed, wrong",
        [
            # lambda* is 1.55: with no positive root every step is rejected, up to
            # float overflow
            (43, "flipped"),
            # lambda* is 2.21, above the bracket's first end: likewise
            (40, "flipped"),
            # the root lies just above lambda*, so only the exact check of the
            # rejected end shows the bracket is late
            (43, "shifted"),
            # the root lies just below lambda*, so the exact check of the accepted
            # end rejects it
            (40, "early"),
        ],
    )
    def test_wrong_root_falls_back_to_exact_search(self, monkeypatch, seed, wrong):
        view = make_instance(seed, n=150 if seed == 43 else 120, d1=1, q=1, confounding=0.9)
        cfg = PulseConfig()
        lam, alpha = exact_search(view, cfg)
        roots = pulse._roots
        shift = {"flipped": math.inf, "shifted": 1e-3, "early": -1e-3}[wrong]

        def wrong_roots(test: StackTest, items: np.ndarray) -> np.ndarray:
            return roots(test, items) * (1.0 + shift)

        monkeypatch.setattr(pulse, "_roots", wrong_roots)
        count = count_path_points(monkeypatch)
        res = pulse_estimate(view, cfg)
        assert res.lambda_used.hex() == lam.hex()
        assert res.alpha.tobytes() == alpha.tobytes()
        assert count[0] > 20  # the exact search ran

    def test_typical_search_runs_few_exact_points(self, monkeypatch):
        view = DesignView(sem_sample(univariate_model(2, 0.9, 0.1), 150, 12))
        view.stack  # built before counting
        count = count_path_points(monkeypatch)
        res = pulse_estimate(view)
        assert res.message is PulseMessage.NONE
        assert count[0] <= 3

    def test_polynomial_sign_is_the_exact_verdict(self):
        # on a grid of penalties away from the root, including an under-identified
        # design (d1 = 2, q = 1) whose zero d drop out of the polynomial
        cfg = PulseConfig()
        grid = np.concatenate([[0.0], np.logspace(-3, 6, 46)])
        seen = set()
        for d1, q, q1 in ((1, 1, 0), (1, 5, 0), (2, 1, 0), (2, 3, 0), (2, 4, 1)):
            view = make_instance(70 + q, n=120, d1=d1, q=q, q1=q1, confounding=0.8)
            test = StackTest(view.stack, cfg)
            (at, poly), = _gap_polynomials(test, np.array([0]))
            assert at.tolist() == [0] and poly.shape == (1, 2 * min(view.k, view.q) + 1)
            root = pulse._roots(test, np.array([0]))[0]
            lams = [lam for lam in grid.tolist() if abs(lam / root - 1.0) > 1e-6]
            signs = [float(np.polyval(poly[0, ::-1], lam)) <= 0.0 for lam in lams]
            verdicts, failed = exact_predicate(view, cfg)(lams, [0] * len(lams))
            assert not failed
            assert signs == verdicts, (d1, q, q1)
            seen.update(verdicts)
        assert seen == {True, False}


class TestMonotonicity:
    def test_losses_and_statistic_along_path(self):
        view = make_instance(44, n=80, d1=2, q=2, confounding=0.8)
        grid = np.concatenate([[0.0], np.logspace(-2, 2, 60)])
        ols_vals, iv_vals, t_vals = [], [], []
        for lam in grid:
            alpha = view.kclass_solve(lam / (1.0 + lam))
            ols_vals.append(view.ols_loss(alpha))
            iv_vals.append(view.iv_loss(alpha))
            t_vals.append(view.n * iv_vals[-1] / ols_vals[-1])
        for seq, sign in ((ols_vals, 1.0), (iv_vals, -1.0), (t_vals, -1.0)):
            diffs = sign * np.diff(seq)
            slack = 1e-12 * np.maximum(1.0, np.abs(seq[:-1]))
            assert np.all(diffs >= -slack)


class TestPrimal:
    def test_bound_at_ols_returns_ols(self):
        view = make_instance(45, n=70, d1=1, q=2, confounding=0.7)
        iv_at_ols = view.iv_loss(view.kclass_solve(0.0))
        np.testing.assert_allclose(
            primal_solve(view, iv_at_ols), view.kclass_solve(0.0), atol=1e-12
        )

    def test_matches_kclass_along_path(self):
        view = make_instance(46, n=70, d1=1, q=2, confounding=0.7)
        for lam in (0.3, 2.0, 15.0):
            alpha = view.kclass_solve(lam / (1.0 + lam))
            t = view.iv_loss(alpha)
            np.testing.assert_allclose(primal_solve(view, t), alpha, atol=1e-6)

    def test_just_identified_bound_to_zero_approaches_tsls(self):
        view = make_instance(47, n=70, d1=1, q=1, confounding=0.7)
        tsls = view.kclass_solve(1.0)
        close = primal_solve(view, 1e-9 * view.iv_loss(view.kclass_solve(0.0)))
        assert np.linalg.norm(close - tsls) <= 1e-3 * (1.0 + np.linalg.norm(tsls))

    def test_out_of_domain(self):
        view = make_instance(48, n=70, d1=1, q=2, confounding=0.7)
        with pytest.raises(OutOfDomain):
            primal_solve(view, view.iv_loss(view.kclass_solve(0.0)) * 1.5)
        with pytest.raises(OutOfDomain):
            primal_solve(view, view.min_iv_loss() * 0.99 - 1e-12)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_is_out_of_domain(self, t):
        view = make_instance(49, n=70, d1=2, q=3, confounding=0.8)
        with pytest.raises(OutOfDomain):
            primal_solve(view, t)

    def test_constraint_active(self):
        view = make_instance(49, n=70, d1=2, q=3, confounding=0.8)
        iv_at_ols = view.iv_loss(view.kclass_solve(0.0))
        t = 0.5 * (view.min_iv_loss() + iv_at_ols)
        alpha = primal_solve(view, t)
        assert view.iv_loss(alpha) == pytest.approx(t, abs=1e-8 * max(1.0, t))


class TestTStar:
    def test_ols_accepted_returns_right_endpoint(self):
        view = weak_confounding_view()
        assert t_star(view) == pytest.approx(view.iv_loss(view.kclass_solve(0.0)), rel=1e-12)

    def test_infeasible_returns_neg_infinity(self):
        view = invalid_instrument_view()
        assert t_star(view) == -math.inf

    def test_primal_at_t_star_matches_pulse(self):
        view = make_instance(50, n=120, d1=1, q=1, confounding=0.9)
        res = pulse_estimate(view)
        assert res.message is PulseMessage.NONE
        ts = t_star(view)
        alpha_primal = primal_solve(view, ts)
        scale = 1.0 + float(np.linalg.norm(res.alpha))
        assert np.linalg.norm(alpha_primal - res.alpha) <= 1e-5 * scale


class TestDualIdentityProperty:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500), lam=st.floats(0.01, 50.0))
    def test_primal_reproduces_any_path_point(self, seed, lam):
        view = make_instance(seed % 25, n=60, d1=1 + seed % 2, q=2, confounding=0.7)
        alpha = view.kclass_solve(lam / (1.0 + lam))
        t = view.iv_loss(alpha)
        if t <= view.min_iv_loss() * (1 + 1e-9):
            return  # path already at the IV optimum; bound outside the open domain
        np.testing.assert_allclose(primal_solve(view, t), alpha, atol=1e-6)


class TestPlainScalingPath:
    def test_search_under_plain_scaling(self):
        view = make_instance(51, n=100, d1=1, q=2, confounding=0.9)
        cfg = PulseConfig(p_min=0.05, scaling=PLAIN)
        res = pulse_estimate(view, cfg)
        stat = inference.test_statistic(view, res.alpha, cfg)
        if res.message is PulseMessage.NONE:
            assert abs(stat.statistic - chi2_quantile(view.q, 0.95)) <= 1e-3 * stat.threshold
        assert stat.accepted or res.message is PulseMessage.TSLS_REJECTED_FALLBACK
