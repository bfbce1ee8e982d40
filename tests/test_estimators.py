"""K-class, anchor, TSLS, modified TSLS, LIML and Fuller estimators."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from pulse_iv import data, estimators
from pulse_iv.data import RCOND_GRAM, Dataset, DesignView, ModelPartition
from pulse_iv.estimators import (
    EstimatorSpec,
    estimate,
    fuller_kappa,
    liml_kappa,
    min_generalized_eigenvalue,
    modified_tsls,
)
from pulse_iv.exceptions import InfeasibleConstraint, SingularGram, UnderIdentified
from pulse_iv.pulse import PulseConfig, PulseMessage, pulse_estimate
from pulse_iv.sem import e3_model, population_pulse_underid, sem_sample

from conftest import (
    invalid_instrument_view,
    kclass_estimand,
    make_instance,
    penalized_loss_minimizer,
    raw_matrices,
)


class TestKclass:
    def test_kappa_zero_is_ols(self):
        view = make_instance(0, n=60, d1=2, q=2)
        res = estimate(view, EstimatorSpec("kclass", 0.0))
        y, z, _ = raw_matrices(view)
        expected = np.linalg.lstsq(z, y, rcond=None)[0]
        np.testing.assert_allclose(res.alpha, expected, atol=1e-10)
        assert res.kappa_used == 0.0 and res.lambda_used == 0.0

    def test_ols_ignores_collinear_instruments(self):
        """OLS reads only ``Z^T Z`` and ``Z^T y``; a repeated instrument column
        makes ``A^T A`` singular, which only the estimators that need it report."""
        rng = np.random.default_rng(5)
        y, x, a = rng.normal(size=(3, 50))
        view = DesignView(Dataset(y=y, x=x[:, None], a=np.column_stack([a, a])))
        res = estimate(view, EstimatorSpec("ols"))
        expected = np.linalg.lstsq(x[:, None], y, rcond=None)[0]
        np.testing.assert_allclose(res.alpha, expected, rtol=1e-12, atol=0)
        for label in ("tsls", "pulse"):
            with pytest.raises(SingularGram, match=r"A\^T A"):
                estimate(view, EstimatorSpec.parse(label))

    def test_kappa_one_just_identified_moment_condition(self):
        view = make_instance(1, n=60, d1=1, q=1)
        res = estimate(view, EstimatorSpec("kclass", 1.0))
        y, z, a = raw_matrices(view)
        moment = a.T @ (y - z @ res.alpha)
        assert np.linalg.norm(moment) <= 1e-9 * np.linalg.norm(a.T @ y)

    def test_matches_numerical_minimizer(self):
        view = make_instance(2, n=50, d1=2, q=3)
        for kappa in (0.3, 0.6):
            closed = estimate(view, EstimatorSpec("kclass", kappa)).alpha
            oracle = penalized_loss_minimizer(view, kappa)
            assert np.linalg.norm(closed - oracle) <= 1e-6 * (1.0 + np.linalg.norm(closed))

    def test_kappa_one_under_identified_raises(self):
        view = make_instance(4, n=60, d1=2, q=1)
        with pytest.raises(UnderIdentified):
            estimate(view, EstimatorSpec("kclass", 1.0))

    def test_normal_equation_residual(self):
        view = make_instance(5, n=80, d1=2, q=3, q1=1)
        y, z, a = raw_matrices(view)
        q_basis, _ = np.linalg.qr(a)
        for kappa in (0.0, 0.25, 0.5, 0.9, 1.0):
            alpha = estimate(view, EstimatorSpec("kclass", kappa)).alpha

            def weighted(v):
                return (1.0 - kappa) * v + kappa * (q_basis @ (q_basis.T @ v))

            lhs = z.T @ weighted(y - z @ alpha)
            rhs = z.T @ weighted(y)
            assert np.linalg.norm(lhs) <= 1e-8 * np.linalg.norm(rhs)


class TestAnchor:
    def test_lambda_zero_is_ols(self):
        view = make_instance(6, n=50, d1=1, q=2)
        np.testing.assert_allclose(
            estimate(view, EstimatorSpec("anchor", 0.0)).alpha,
            estimate(view, EstimatorSpec("ols")).alpha,
            atol=1e-12,
        )

    def test_reparametrization_identity(self):
        view = make_instance(7, n=60, d1=2, q=3)
        res = estimate(view, EstimatorSpec("anchor", 3.0))
        kclass = estimate(view, EstimatorSpec("kclass", 0.75))
        np.testing.assert_allclose(res.alpha, kclass.alpha, atol=1e-10)
        assert res.kappa_used == pytest.approx(res.lambda_used / (1 + res.lambda_used), abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 10.0, 100.0])
    def test_reparametrization_across_lambda(self, lam):
        view = make_instance(8, n=60, d1=1, q=2, q1=1)
        np.testing.assert_allclose(
            estimate(view, EstimatorSpec("anchor", lam)).alpha,
            estimate(view, EstimatorSpec("kclass", lam / (1.0 + lam))).alpha,
            atol=1e-10,
        )

    def test_matches_numerical_minimizer(self):
        view = make_instance(9, n=50, d1=1, q=2)
        lam = 10.0
        closed = estimate(view, EstimatorSpec("anchor", lam)).alpha
        oracle = penalized_loss_minimizer(view, lam / (1.0 + lam))
        assert np.linalg.norm(closed - oracle) <= 1e-6 * (1.0 + np.linalg.norm(closed))

    def test_rejects_lambda_at_minus_one(self):
        view = make_instance(10, n=50, d1=1, q=1)
        with pytest.raises(ValueError, match="lambda > -1"):
            estimate(view, EstimatorSpec("anchor", -1.0))


class TestTsls:
    def test_just_identified_zero_iv_loss(self):
        view = make_instance(11, n=60, d1=1, q=1)
        res = estimate(view, EstimatorSpec("tsls"))
        assert view.iv_loss(res.alpha) <= 1e-10

    def test_over_identified_minimizes_iv_loss(self):
        view = make_instance(12, n=80, d1=1, q=3)
        res = estimate(view, EstimatorSpec("tsls"))
        base = view.iv_loss(res.alpha)
        rng = np.random.default_rng(13)
        probes = res.alpha + rng.normal(scale=0.5, size=(1000, view.k))
        assert all(view.iv_loss(p) >= base - 1e-12 for p in probes)

    def test_limit_of_kclass(self):
        view = make_instance(14, n=80, d1=2, q=3)
        tsls = estimate(view, EstimatorSpec("tsls")).alpha
        near = estimate(view, EstimatorSpec("kclass", 0.999999)).alpha
        assert np.linalg.norm(near - tsls) <= 1e-3 * (1.0 + np.linalg.norm(tsls))

    def test_under_identified_raises(self):
        view = make_instance(15, n=60, d1=2, q=1)
        with pytest.raises(UnderIdentified, match="modified_tsls"):
            estimate(view, EstimatorSpec("tsls"))

    @pytest.mark.parametrize("spec", [EstimatorSpec("tsls"), EstimatorSpec("kclass", 1.0)])
    def test_kappa_one_under_identified_is_one_exception(self, spec):
        view = DesignView(sem_sample(e3_model(), 100, seed=2))
        with pytest.raises(UnderIdentified, match="modified_tsls"):
            estimate(view, spec)


class TestModifiedTsls:
    def test_just_identified_equals_tsls(self):
        view = make_instance(16, n=60, d1=1, q=1)
        np.testing.assert_allclose(
            modified_tsls(view).alpha, estimate(view, EstimatorSpec("tsls")).alpha, atol=1e-9
        )

    def test_duplicated_regressor_splits_weight(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(50, 1))
        x1 = a[:, 0] + rng.normal(size=50)
        y = 2.0 * x1 + rng.normal(size=50)
        ds = Dataset(y=y, x=np.column_stack([x1, x1]), a=a)
        view = DesignView(ds)
        alpha = modified_tsls(view).alpha
        w = float((a[:, 0] @ y) / (a[:, 0] @ x1))
        np.testing.assert_allclose(alpha, [w / 2, w / 2], atol=1e-8)

    def test_null_space_oracle(self):
        view = make_instance(18, n=60, d1=2, q=1)
        alpha = modified_tsls(view).alpha
        y, z, a = raw_matrices(view)
        # independent route: particular solution plus least squares over the
        # null space of the constraint matrix
        atz, aty = a.T @ z, a.T @ y
        part = np.linalg.pinv(atz) @ aty
        _, _, vt = np.linalg.svd(atz)
        null = vt[np.linalg.matrix_rank(atz) :].T
        coef = np.linalg.lstsq(z @ null, y - z @ part, rcond=None)[0]
        oracle = part + null @ coef
        np.testing.assert_allclose(alpha, oracle, atol=1e-8)
        assert np.linalg.norm(atz @ alpha - aty) <= 1e-9 * max(1.0, np.linalg.norm(aty))

    def test_over_identified_raises(self):
        view = make_instance(19, n=60, d1=1, q=3)
        with pytest.raises(InfeasibleConstraint):
            modified_tsls(view)

    def test_converges_to_population_coefficient(self):
        model = e3_model()
        target = np.array(population_pulse_underid(1.0, 1.0, 1.0))
        ds = sem_sample(model, 100_000, seed=20)
        alpha = modified_tsls(DesignView(ds)).alpha
        assert np.linalg.norm(alpha - target) < 0.05


class TestLimlFuller:
    def test_just_identified_liml_equals_tsls(self):
        view = make_instance(21, n=80, d1=1, q=1)
        np.testing.assert_allclose(
            estimate(view, EstimatorSpec("liml")).alpha,
            estimate(view, EstimatorSpec("tsls")).alpha,
            atol=1e-6,
        )

    def test_equal_matrices_give_unit_eigenvalue(self):
        rng = np.random.default_rng(22)
        m = rng.normal(size=(3, 3))
        w = m @ m.T + np.eye(3)
        assert min_generalized_eigenvalue(w, w) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_kappa_at_least_one(self, seed):
        view = make_instance(seed + 23, n=100, d1=1, q=3)
        assert liml_kappa(view) >= 1.0 - 1e-10

    def test_generalized_eigenvalue_oracle(self):
        view = make_instance(30, n=90, d1=2, q=4)
        kappa = liml_kappa(view)
        from pulse_iv.estimators import _liml_blocks

        w1, w = (block[0] for block in _liml_blocks(view.stack, view.stack.items))
        eigs = scipy.linalg.eigvals(w1, w)
        assert kappa == pytest.approx(float(np.min(eigs.real)), rel=1e-8)

    def test_fuller_arithmetic(self):
        # kappa_LIML = 1.02, n = 50, q = 3, a = 1 gives 1.02 - 1/47
        assert 1.02 - 1.0 / 47 == pytest.approx(0.9987234042553191, abs=1e-12)
        view = make_instance(31, n=50, d1=1, q=3)
        kl = liml_kappa(view)
        assert fuller_kappa(view, 1.0) == pytest.approx(kl - 1.0 / 47, abs=1e-12)

    def test_fuller_monotone_in_a(self):
        view = make_instance(32, n=70, d1=1, q=2)
        assert fuller_kappa(view, 4.0) < fuller_kappa(view, 1.0)

    def test_fuller_estimate_runs(self):
        view = make_instance(33, n=70, d1=1, q=2)
        res = estimate(view, EstimatorSpec("fuller", 4.0))
        assert res.kappa_used == fuller_kappa(view, 4.0)
        assert res.kappa_used < liml_kappa(view)

    def test_liml_requires_excluded_instrument(self):
        view = make_instance(34, n=50, d1=1, q=2, q1=2)
        with pytest.raises(ValueError, match="excluded instrument"):
            liml_kappa(view)


class TestLimlCache:
    LABELS = ("liml", "fuller:1", "fuller:4")

    SHAPES = [dict(seed=40, n=90, d1=1, q=3), dict(seed=41, n=120, d1=2, q=4, q1=1)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_shared_view_bit_equal_to_fresh_views_in_either_order(self, shape):
        fresh = {
            label: estimate(make_instance(**shape), EstimatorSpec.parse(label))
            for label in self.LABELS
        }
        for order in (self.LABELS, self.LABELS[::-1]):
            view = make_instance(**shape)
            for label in order:
                res = estimate(view, EstimatorSpec.parse(label))
                assert np.array_equal(res.alpha, fresh[label].alpha), (order, label)
                assert res.kappa_used == fresh[label].kappa_used, (order, label)

    def test_blocks_built_once_per_view(self, monkeypatch):
        seen = []
        original = estimators._liml_blocks

        def counting(*args):
            seen.append(args[0])
            return original(*args)

        monkeypatch.setattr(estimators, "_liml_blocks", counting)
        view = invalid_instrument_view()
        fuller1 = estimate(view, EstimatorSpec("fuller", 1.0))
        fuller4 = estimate(view, EstimatorSpec("fuller", 4.0))
        liml = estimate(view, EstimatorSpec("liml"))
        result = pulse_estimate(view)
        assert result.message is PulseMessage.TSLS_REJECTED_FALLBACK
        assert np.array_equal(result.alpha, fuller4.alpha)
        assert len(seen) == 1
        assert fuller1.kappa_used == liml.kappa_used - 1.0 / (view.n - view.q)
        fuller_kappa(make_instance(42, n=60, d1=1, q=2), 4.0)
        assert len(seen) == 2

    def test_failure_is_stored_and_raised_on_every_call(self, monkeypatch):
        # y lies exactly in span(X, A), so W has rank one
        rng = np.random.default_rng(43)
        a = rng.normal(size=(50, 2))
        x = a @ np.array([1.0, -0.5]) + rng.normal(size=50)
        view = DesignView(Dataset(y=2.0 * x + a @ np.array([0.3, 0.1]), x=x[:, None], a=a))
        seen = []
        original = estimators._liml_blocks
        monkeypatch.setattr(estimators, "_liml_blocks",
                            lambda *args: seen.append(args[0]) or original(*args))
        raised = []
        for call in (liml_kappa, liml_kappa, lambda v: estimate(v, EstimatorSpec("fuller"))):
            with pytest.raises(SingularGram, match="W") as err:
                call(view)
            raised.append(err.value)
        assert all(exc is raised[0] for exc in raised)
        assert seen == [view.stack]

    @pytest.mark.parametrize("center", [False, True], ids=["raw", "centred"])
    def test_w_without_residual_degrees_of_freedom_is_singular(self, center):
        # A spans every column of [y X], so W is rounding residue; its own eigenvalue
        # ratio could still read healthy, and about one design in ten returned a
        # kappa near 1e14 before W was read against the trace of [y X]^T [y X]
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = 4 if center else 3
            ds = Dataset(y=rng.normal(size=n), x=rng.normal(size=(n, 1)), a=rng.normal(size=(n, 3)))
            view = DesignView(data.center(ds) if center else ds)
            with pytest.raises(SingularGram, match="W") as err:
                liml_kappa(view)
            assert err.value.rcond < RCOND_GRAM

    def test_lapack_route_bit_equal_to_scipy_wrappers(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            m = rng.normal(size=(k + 6, k))
            w = m.T @ m
            m1 = rng.normal(size=(k + 3, k))
            w1 = w + m1.T @ m1
            low = scipy.linalg.cholesky(w, lower=True)
            inner = scipy.linalg.solve_triangular(low, w1, lower=True)
            inner = scipy.linalg.solve_triangular(low, inner.T, lower=True)
            expected = float(np.linalg.eigvalsh(0.5 * (inner + inner.T))[0])
            assert min_generalized_eigenvalue(w1, w) == expected

    def test_singular_w_raises_singular_gram(self):
        with pytest.raises(SingularGram, match="W"):
            min_generalized_eigenvalue(np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestSpecParsing:
    def test_parse_forms(self):
        assert EstimatorSpec.parse("ols").kind == "ols"
        assert EstimatorSpec.parse("kclass:0.6").value == 0.6
        assert EstimatorSpec.parse("fuller:4").value == 4.0
        assert EstimatorSpec.parse("modified-tsls").kind == "modified-tsls"

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError):
            EstimatorSpec.parse("ols:3")
        with pytest.raises(ValueError):
            EstimatorSpec.parse("nope")
        with pytest.raises(ValueError):
            EstimatorSpec.parse("anchor:-2")

    @pytest.mark.parametrize(
        "make, needle",
        [
            (lambda: EstimatorSpec("ols", 0.5), "'ols' takes no parameter"),
            (lambda: EstimatorSpec.parse("kclass"), "kclass requires kappa"),
            (lambda: EstimatorSpec.parse("anchor:-1"), "anchor requires a finite lambda > -1"),
            (lambda: EstimatorSpec.parse("anchor:inf"), "anchor requires a finite lambda > -1"),
            (lambda: EstimatorSpec.parse("kclass:nan"), "kclass requires a finite kappa"),
            (lambda: EstimatorSpec.parse("fuller:nan"), "fuller requires a finite a > 0"),
            (lambda: EstimatorSpec.parse("fuller:0"), "fuller requires a finite a > 0"),
            (
                lambda: EstimatorSpec.parse("kclass:abc"),
                "estimator 'kclass:abc': kclass requires a number as its kappa, got 'abc'",
            ),
        ],
        ids=["ols-value", "kclass-missing", "anchor-minus-one", "anchor-inf", "kclass-nan",
             "fuller-nan", "fuller-zero", "kclass-not-a-number"],
    )
    def test_one_rule_names_kind_and_parameter(self, make, needle):
        with pytest.raises(ValueError, match=needle):
            make()

    def test_label_round_trips_for_every_kind(self):
        valued = {"kclass": 0.6, "anchor": 2.5, "fuller": 1.0}
        for kind in estimators._KINDS:
            spec = EstimatorSpec(kind, valued.get(kind))
            assert EstimatorSpec.parse(spec.label()) == spec

    def test_fuller_default_is_stated_once(self):
        assert EstimatorSpec.parse("fuller").value == PulseConfig().fallback.value == 4.0


class TestConsistency:
    def test_kclass_approaches_population_estimand(self):
        # fixed SEM, kappa in {0, 0.5, 0.9}: the estimate at n=10^4 beats the
        # one at n=10^2 in the vast majority of seeds.  The per-seed win
        # probability of a root-n-consistent estimator at a 100x sample ratio
        # is 1 - (2/pi) arctan(1/10) ~ 93.7%, so the bound is set at 90%.
        from pulse_iv.sem import univariate_model

        model = univariate_model(q=2, rho=0.5, r2=0.3)
        partition = ModelPartition((0,))
        pops = {k: kclass_estimand(model, partition, k) for k in (0.0, 0.5, 0.9)}
        wins = {k: 0 for k in pops}
        seeds = 100
        for seed in range(seeds):
            views = {n: DesignView(sem_sample(model, n, seed=seed)) for n in (100, 10_000)}
            for kappa, pop in pops.items():
                err = {
                    n: np.linalg.norm(estimate(v, EstimatorSpec("kclass", kappa)).alpha - pop)
                    for n, v in views.items()
                }
                if err[10_000] < err[100]:
                    wins[kappa] += 1
        for kappa, count in wins.items():
            assert count >= 0.90 * seeds, f"kappa={kappa}: only {count}/{seeds} improved"


def scipy_openblas() -> tuple | None:
    """The thread-count getter and setter of the OpenBLAS in scipy's wheel, opened by
    this test from the libraries in ``scipy.libs`` that this process has mapped
    (Linux); ``None`` where there is none."""
    import ctypes
    from pathlib import Path

    import scipy
    import scipy.linalg.lapack  # noqa: F401  (maps the library)

    libs = Path(scipy.__file__).parent.parent / "scipy.libs"
    try:
        mapped = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()}
    except OSError:
        return None
    for path in sorted(p for p in mapped if Path(p).parent == libs and "openblas" in p):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            if hasattr(lib, f"{prefix}_get_num_threads"):
                get, set_ = (getattr(lib, f"{prefix}_{verb}_num_threads") for verb in ("get", "set"))
                get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, set_
    return None


class TestScipyBlasPin:
    """LIML's per-item ``potrf``/``trtrs`` loop runs with scipy's OpenBLAS pool at one
    thread, and the pool's count is restored after it, also when it raises."""

    @pytest.fixture
    def threads(self):
        """The getter of scipy's pool, set to 2 threads for the test."""
        pool = scipy_openblas()
        if pool is None:
            pytest.skip("no OpenBLAS of scipy's wheel is loaded")
        get, set_ = pool
        before = get()
        set_(2)
        try:
            if get() != 2:
                pytest.skip("scipy's OpenBLAS does not run 2 threads")
            yield get
        finally:
            set_(before)

    @staticmethod
    def loop(monkeypatch, threads, blas, fail_at=None):
        """The count the pool reads at each ``potrf`` call of one stacked pass over 4
        items, and the pass's values or the error a failing ``potrf`` raised, with
        ``blas`` as the discovery's answer.  The spy wraps that library's ``potrf``,
        which the pass calls through ``ctypes``, or scipy's wrapper where it is None."""
        seen = []

        def spy(potrf):
            def call(*args, **kwargs):
                seen.append(threads())
                if len(seen) == fail_at:
                    raise RuntimeError("potrf failed")
                return potrf(*args, **kwargs)
            return call

        if blas is None:
            import scipy.linalg.lapack as lapack

            monkeypatch.setattr(lapack, "dpotrf", spy(lapack.dpotrf))
        else:
            blas = blas._replace(potrf=spy(blas.potrf))
        monkeypatch.setattr(estimators, "_scipy_openblas", lambda: blas)
        m = np.random.default_rng(3).normal(size=(4, 6, 2))
        w = np.transpose(m, (0, 2, 1)) @ m
        try:
            values, failed = estimators._min_generalized_eigenvalues(w + np.eye(2), w)
        except RuntimeError as exc:
            return seen, exc
        assert failed == {}
        return seen, values

    def test_one_thread_inside_the_loop_and_the_old_count_after(self, threads, monkeypatch):
        blas = estimators._scipy_openblas()
        seen, values = self.loop(monkeypatch, threads, blas)
        assert seen == [1, 1, 1, 1] and threads() == 2
        seen, raised = self.loop(monkeypatch, threads, blas, fail_at=2)
        assert seen == [1, 1] and str(raised) == "potrf failed"
        assert threads() == 2

    def test_nothing_is_pinned_where_no_pool_is_found(self, threads, monkeypatch):
        _, pinned = self.loop(monkeypatch, threads, estimators._scipy_openblas())
        seen, values = self.loop(monkeypatch, threads, None)
        assert seen == [2, 2, 2, 2] and threads() == 2
        assert values.tobytes() == pinned.tobytes()
