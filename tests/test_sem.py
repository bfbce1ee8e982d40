"""SEM sampling, interventions, exact moments, and population estimands."""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from pulse_iv import sem
from pulse_iv.data import DesignView, ModelPartition
from pulse_iv.estimators import EstimatorSpec, estimate, modified_tsls
from pulse_iv.exceptions import DataError, NonStationary, SingularGram, UnderIdentified
from pulse_iv.experiments import cell_seed
from pulse_iv.sem import (
    _A_STREAM,
    _NOISE_STREAM,
    MODEL_STREAM,
    InterventionSpec,
    SemModel,
    _gaussians,
    _psd_root,
    draw_anchors,
    draw_noise,
    e1_model,
    e1_superiority_interval,
    e3_model,
    load_sem_json,
    model_from_json,
    model_to_json,
    mv_varying_model,
    philox_generator,
    population_moments,
    population_pulse_underid,
    reduced_form_solve,
    round_interval_inward,
    sem_sample,
    univariate_model,
    wcmspe_curve_e1,
    worst_case_mspe,
)

from conftest import kclass_estimand


class TestModelValidation:
    def test_rejects_explosive_structural_matrix(self):
        with pytest.raises(NonStationary):
            SemModel(
                b=np.array([[0.0, 1.0], [1.1, 0.0]]),
                m=np.zeros((1, 2)),
                noise_cov=np.ones(2),
                anchor_cov=np.eye(1),
                roles=("y", "x"),
            )

    def test_rejects_bad_anchor_cov(self):
        with pytest.raises(ValueError, match="positive definite"):
            SemModel(
                b=np.zeros((2, 2)),
                m=np.zeros((1, 2)),
                noise_cov=np.ones(2),
                anchor_cov=np.zeros((1, 1)),
                roles=("y", "x"),
            )

    def test_rejects_asymmetric_anchor_cov_at_construction(self):
        # passes the SPD check on its lower triangle; the anchor root is taken
        # at construction, so population-only uses of the model reject it too
        doc = model_to_json(e1_model())
        doc["anchor_cov"] = [[1.0, 0.1], [0.1001, 1.0]]
        doc["m"] = [[0.0, 1.0], [0.0, 0.5]]
        with pytest.raises(ValueError, match="anchor_cov must be symmetric$"):
            model_from_json(doc)

    def test_rejects_bad_roles(self):
        with pytest.raises(ValueError, match="exactly one"):
            SemModel(
                b=np.zeros((2, 2)),
                m=np.zeros((1, 2)),
                noise_cov=np.ones(2),
                anchor_cov=np.eye(1),
                roles=("x", "x"),
            )


    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("name", ["b", "m", "noise_cov", "anchor_cov"])
    def test_rejects_a_non_finite_entry_by_name(self, name, bad):
        fields = model_to_json(univariate_model(q=2, rho=0.3, r2=0.1))
        del fields["roles"]
        fields = {key: np.array(value) for key, value in fields.items()}
        fields[name][(0,) * fields[name].ndim] = bad
        with pytest.raises(ValueError, match=f"^{name} must have finite entries$"):
            SemModel(**fields, roles=("y", "x"))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_a_non_finite_diagonal_noise_variance(self, bad):
        with pytest.raises(ValueError, match="^noise_cov must have finite entries$"):
            SemModel(b=np.zeros((2, 2)), m=np.ones((1, 2)), noise_cov=np.array([1.0, bad]),
                     anchor_cov=np.eye(1), roles=("y", "x"))


def _psd_root_by_allclose(mat: np.ndarray, name: str) -> np.ndarray:
    """Oracle: the symmetric PSD root with its symmetry check written as np.allclose."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if not np.allclose(mat, mat.T, atol=1e-12 * max(1.0, float(np.abs(mat).max()))):
        raise ValueError(f"{name} must be symmetric")
    w, v = np.linalg.eigh(mat)
    if w.size and w.min() < -1e-10 * max(w.max(), 1.0):
        raise ValueError(f"{name} must be positive semi-definite")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


class TestConstructionChecks:
    """The symmetry check written in plain numpy decides every finite matrix as
    np.allclose does, and the roots the models keep are bit-equal to it."""

    def test_symmetry_check_decides_as_allclose(self):
        rng = np.random.default_rng(30)
        seen = set()
        for case in range(3000):
            k = int(rng.integers(1, 5))
            scale = 10.0 ** rng.uniform(-310, 300)  # subnormal entries to 1e300
            unit = rng.normal(size=(k, k))
            mat = (unit @ unit.T if case % 2 else unit + unit.T) * scale  # PSD, or indefinite
            if k > 1:
                i, j = (0, 1) if case % 3 else (k - 1, 0)
                atol = 1e-12 * max(1.0, float(np.abs(mat).max()))
                # an asymmetry near the tolerance, on either side of it
                mat[i, j] += rng.choice([-1, 1]) * (atol + 1e-5 * abs(mat[j, i])) * rng.choice(
                    [0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0]
                )
            with np.errstate(all="ignore"):
                want = _outcome(_psd_root_by_allclose, mat, "cov")
            got = _outcome(_psd_root, mat, "cov")
            if isinstance(want, str):
                assert got == want
            else:
                assert np.array_equal(got, want)
            seen.add(want if isinstance(want, str) else "root")
        assert seen == {"root", "cov must be symmetric", "cov must be positive semi-definite"}

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_entry_is_refused(self, bad):
        mat = np.eye(3)
        mat[1, 1] = bad  # symmetric, so only finiteness can refuse it
        with pytest.raises(ValueError, match="^cov must have finite entries$"):
            _psd_root(mat, "cov")
        iv = InterventionSpec.stochastic(mat)  # the one covariance not checked at construction
        with pytest.raises(ValueError, match="^intervention cov must have finite entries$"):
            draw_anchors(univariate_model(q=3, rho=0.3, r2=0.1), 5, 1, iv)

    def test_kept_roots_are_bit_equal_to_the_allclose_oracle(self):
        rng = np.random.default_rng(5)
        models = [
            e1_model(), e3_model(), univariate_model(q=3, rho=0.9, r2=0.3),
            *(sem.mv_fixed_model(rng.uniform(-2, 2, (2, 2)), 0.8, 0.76, 0.76) for _ in range(5)),
            *(mv_varying_model(rng.uniform(-2, 2, (2, 2)), rng.uniform(-2, 2, (2, 2)),
                               rng.uniform(-2, 2, 2), (0.3, 0.7)) for _ in range(5)),
        ]
        for model in models:
            assert np.array_equal(
                model.noise_root, _psd_root_by_allclose(model.noise_cov, "noise_cov")
            )
            assert np.array_equal(
                model.anchor_root, _psd_root_by_allclose(model.anchor_cov, "anchor_cov")
            )

    @pytest.mark.parametrize("k", range(1, 7))
    def test_a_structural_matrix_without_edges_has_spectral_radius_zero(self, k):
        """A zero ``B`` skips ``eigvals``, whose radius on it is exactly 0."""
        assert np.max(np.abs(np.linalg.eigvals(np.zeros((k, k))))) == 0.0
        roles = ("y", *("x" * (k - 1)))
        SemModel(b=np.zeros((k, k)), m=np.ones((1, k)), noise_cov=np.ones(k),
                 anchor_cov=np.eye(1), roles=roles)


class TestSampling:
    def test_zero_structure_reproduces_noise(self):
        model = SemModel(
            b=np.zeros((2, 2)),
            m=np.zeros((1, 2)),
            noise_cov=np.array([2.0, 3.0]),
            anchor_cov=np.eye(1),
            roles=("y", "x"),
        )
        ds = sem_sample(model, 200, seed=5)
        eps = draw_noise(model, 200, seed=5)
        np.testing.assert_array_equal(ds.y, eps[:, 0])
        np.testing.assert_array_equal(ds.x[:, 0], eps[:, 1])

    def test_e1_sample_moments_match_analytic(self):
        ds = sem_sample(e1_model(), 100_000, seed=6)
        x, y = ds.x[:, 0], ds.y
        assert np.mean(x * x) == pytest.approx(2.0, abs=0.02)
        assert np.mean(x * y) == pytest.approx(2.5, abs=0.02)
        assert np.mean(x * ds.a[:, 0]) == pytest.approx(1.0, abs=0.02)

    def test_hard_intervention_sets_anchor_mean(self):
        ds = sem_sample(e1_model(), 100_000, seed=7, iv=InterventionSpec.hard(3.0))
        np.testing.assert_allclose(ds.a, 3.0)
        assert np.mean(ds.x[:, 0]) == pytest.approx(3.0, abs=0.02)

    def test_seed_determinism(self):
        model = e1_model()
        d1 = sem_sample(model, 100, seed=8)
        d2 = sem_sample(model, 100, seed=8)
        np.testing.assert_array_equal(d1.y, d2.y)
        np.testing.assert_array_equal(d1.x, d2.x)
        np.testing.assert_array_equal(d1.a, d2.a)
        d3 = sem_sample(model, 100, seed=9)
        assert not np.array_equal(d1.y, d3.y)

    def test_reduced_form_identity(self):
        model = e3_model()
        n = 50
        a = draw_anchors(model, n, seed=10)
        eps = draw_noise(model, n, seed=10)
        v = reduced_form_solve(model, a, eps)
        gamma = model.gamma
        pi = model.m @ np.linalg.inv(gamma)
        np.testing.assert_allclose(v, a @ pi + eps @ np.linalg.inv(gamma), atol=1e-10)
        np.testing.assert_allclose(v @ gamma, a @ model.m + eps, atol=1e-10)

    def test_intervention_changes_only_the_anchor_law(self):
        model = e1_model()
        iv = InterventionSpec.hard(2.0)
        obs = sem_sample(model, 64, seed=11)
        intervened = sem_sample(model, 64, seed=11, iv=iv)
        eps = draw_noise(model, 64, seed=11)
        # identical noise rows across interventions, and the endogenous block
        # is exactly the reduced-form solve of (intervened anchors, same noise)
        a_int = draw_anchors(model, 64, seed=11, iv=iv)
        v = reduced_form_solve(model, a_int, eps)
        np.testing.assert_array_equal(intervened.y, v[:, 0])
        np.testing.assert_array_equal(intervened.x[:, 0], v[:, 1])
        assert not np.array_equal(obs.a, intervened.a)

    def test_stochastic_intervention_covariance(self):
        model = e1_model()
        iv = InterventionSpec.stochastic(cov=np.array([[4.0]]), mean=np.array([1.0]))
        ds = sem_sample(model, 200_000, seed=12, iv=iv)
        assert np.mean(ds.a[:, 0]) == pytest.approx(1.0, abs=0.02)
        assert np.var(ds.a[:, 0]) == pytest.approx(4.0, abs=0.05)


class TestUniforms:
    def test_top_integer_gives_a_finite_draw(self, monkeypatch):
        # the all-ones word shifts to k = 2^53 - 1, and k + 0.5 rounds up to 2^53,
        # so without a cap u = 1.0
        monkeypatch.setattr(
            sem, "_philox_words",
            lambda seed, stream, shape: np.full(shape, 2**64 - 1, dtype=np.uint64),
        )
        z = _gaussians(0, _A_STREAM, (3, 2))
        assert np.all(np.isfinite(z)) and np.all(z > 8.0)


def _fresh_gaussians(seed: int, stream: int, shape: tuple[int, ...]) -> np.ndarray:
    """The draws of a fresh Philox generator keyed by the list ``[seed, stream]``,
    through 53-bit integers, offset uniforms, the cap and ``ndtri``."""
    rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
    u = (rng.integers(0, 1 << 53, size=shape).astype(float) + 0.5) / float(1 << 53)
    return scipy.special.ndtri(np.minimum(u, np.nextafter(1.0, 0.0)))


class TestStreamSource:
    """Each stream read from the thread's re-keyed Philox has the bits of a fresh
    generator keyed by ``[seed, stream]``."""

    # below 2^63; then [2^63, 2^64 - 1024), where numpy converts the list key
    # through float64 (ROADMAP item 1), including one cell's repetition seeds
    SEEDS = (0, 3, 2**32 + 7, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1025) + tuple(
        cell_seed(7, 1, r) for r in range(3)
    )

    def test_gaussians_equal_a_fresh_generators(self):
        shape = (37, 3)
        for seed in self.SEEDS:
            for stream in (_A_STREAM, _NOISE_STREAM, MODEL_STREAM):
                expected = _fresh_gaussians(seed, stream, shape)
                assert _gaussians(seed, stream, shape).tobytes() == expected.tobytes()
                # a fresh model-stream generator between streams leaves them alone
                model_rng = philox_generator(seed, MODEL_STREAM)
                fresh = np.random.Generator(np.random.Philox(key=[seed, MODEL_STREAM]))
                assert model_rng.uniform(size=5).tobytes() == fresh.uniform(size=5).tobytes()
        for stream in (_NOISE_STREAM, _A_STREAM):
            stack = _gaussians(list(self.SEEDS), stream, shape)
            for row, seed in zip(stack, self.SEEDS):
                assert row.tobytes() == _fresh_gaussians(seed, stream, shape).tobytes()

    def test_a_rekeyed_generator_draws_what_a_fresh_one_draws(self):
        for seed in self.SEEDS:
            for stream in (MODEL_STREAM, _NOISE_STREAM):
                fresh = philox_generator(seed, stream)
                rekeyed = sem._rekeyed_generator(seed, stream)
                for draw in (lambda g: g.uniform(0.1, 1.0, size=2), lambda g: g.normal(size=3),
                             lambda g: g.uniform(-2.0, 2.0, size=(2, 2)),
                             lambda g: g.integers(0, 7, size=5)):
                    assert draw(rekeyed).tobytes() == draw(fresh).tobytes()
                # words read between two re-keys leave the next re-key's draws alone
                sem._philox_words(3, stream, (5,))
                again = sem._rekeyed_generator(seed, stream).uniform(size=4)
                assert again.tobytes() == philox_generator(seed, stream).uniform(size=4).tobytes()

    def test_words_are_numpys_bounded_integers(self):
        # Lemire's method on the range 2^53 never rejects and keeps a word's top
        # 53 bits; a numpy that draws bounded integers otherwise fails here
        for seed, stream, shape in ((5, 0, (1,)), (2**63 + 5, 1, (7,)), (9, 2, (150, 2))):
            raw = np.random.Philox(key=[seed, stream]).random_raw(shape)
            ints = np.random.Generator(np.random.Philox(key=[seed, stream])).integers(
                0, 2**53, size=shape
            )
            assert np.array_equal(raw >> 11, ints)
            assert np.array_equal(sem._philox_words(seed, stream, shape), raw)
            u = ((raw >> 11).astype(float) + 0.5) / float(1 << 53)
            z = scipy.special.ndtri(np.minimum(u, np.nextafter(1.0, 0.0)))
            assert _gaussians(seed, stream, shape).tobytes() == z.tobytes()

    def test_threads_get_their_serial_bits(self):
        # three threads, each on seeds of its own
        shape, rounds = (40, 2), 300
        work = [[11, 2**63 + 5], [cell_seed(3, 2, r) for r in range(2)], [4, 2**40 + 1]]
        expected = [
            [_fresh_gaussians(s, _NOISE_STREAM, shape).tobytes() for s in seeds]
            for seeds in work
        ]
        barrier = threading.Barrier(len(work))
        right = [0] * len(work)

        def sample(t: int) -> None:
            barrier.wait()
            for _ in range(rounds):
                got = [row.tobytes() for row in _gaussians(work[t], _NOISE_STREAM, shape)]
                right[t] += got == expected[t]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=sample, args=(t,)) for t in range(len(work))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert right == [rounds] * len(work)


class TestCachedRoots:
    """Sampling with the roots kept per model is bit-equal to recomputing them
    on every draw."""

    CASES = {
        "diagonal noise": (e3_model(), None),
        "full noise": (univariate_model(q=2, rho=0.7, r2=0.2), None),
        "stochastic intervention": (
            univariate_model(q=2, rho=0.7, r2=0.2),
            InterventionSpec.stochastic(
                cov=np.array([[2.0, 0.5], [0.5, 1.0]]), mean=np.array([1.0, -1.0])
            ),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sample_bit_equal_to_uncached_formula(self, case):
        model, iv = self.CASES[case]
        mean, cov = (iv or InterventionSpec.none()).law(model)
        n = 40
        for seed in (3, 4):  # every draw reads the roots kept on the model
            ds = sem_sample(model, n, seed, iv)
            a = mean + _gaussians(seed, _A_STREAM, (n, model.q)) @ _psd_root(cov, "cov").T
            eps = _gaussians(seed, _NOISE_STREAM, (n, model.k)) @ _psd_root(
                model.noise_cov, "noise_cov"
            ).T
            v = reduced_form_solve(model, a, eps)
            assert np.array_equal(ds.a, a)
            assert np.array_equal(ds.y, v[:, model.y_index])
            assert np.array_equal(ds.x, v[:, list(model.x_indices)])

    def test_roots_kept_at_construction(self):
        model = univariate_model(q=2, rho=0.7, r2=0.2)
        assert np.array_equal(model.noise_root, _psd_root(model.noise_cov, "noise_cov"))
        assert np.array_equal(model.anchor_root, _psd_root(model.anchor_cov, "anchor_cov"))


class TestPopulationMoments:
    def test_zero_structure_moments_are_noise_moments(self):
        model = SemModel(
            b=np.zeros((2, 2)),
            m=np.array([[0.0, 1.5]]),
            noise_cov=np.array([2.0, 3.0]),
            anchor_cov=np.eye(1),
            roles=("y", "x"),
        )
        mom = population_moments(model)
        assert mom.yty == pytest.approx(2.0, abs=1e-12)
        assert mom.ztz[0, 0] == pytest.approx(1.5**2 + 3.0, abs=1e-12)
        assert mom.atz[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_e1_hand_algebra(self):
        mom = population_moments(e1_model())
        assert mom.ztz[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert mom.zty[0] == pytest.approx(2.5, abs=1e-12)
        assert mom.atz[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert mom.yty == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_sample_moments_agree(self, seed):
        rng = np.random.default_rng(seed)
        b = np.zeros((3, 3))
        b[1, 0] = rng.uniform(-0.8, 0.8)  # X -> Y
        b[2, 0] = rng.uniform(-0.8, 0.8)  # H -> Y
        b[2, 1] = rng.uniform(-0.8, 0.8)  # H -> X
        m = np.zeros((2, 3))
        m[:, 1] = rng.uniform(-1.0, 1.0, size=2)
        model = SemModel(
            b=b,
            m=m,
            noise_cov=rng.uniform(0.5, 1.5, size=3),
            anchor_cov=np.eye(2),
            roles=("y", "x", "h"),
        )
        n = 100_000
        ds = sem_sample(model, n, seed=seed + 100)
        mom = population_moments(model)
        z = ds.x[:, 0]
        pairs = [
            (z * z, mom.ztz[0, 0]),
            (z * ds.y, mom.zty[0]),
            (ds.a[:, 0] * z, mom.atz[0, 0]),
            (ds.y * ds.y, mom.yty),
        ]
        for sample_terms, exact in pairs:
            se = float(np.std(sample_terms)) / np.sqrt(n)
            assert abs(float(np.mean(sample_terms)) - exact) <= 4.0 * se


class TestPopulationKclass:
    def test_e1_reference_values(self):
        model = e1_model()
        part = ModelPartition((0,))
        assert kclass_estimand(model, part, 0.0)[0] == pytest.approx(1.25, abs=1e-10)
        assert kclass_estimand(model, part, 0.75)[0] == pytest.approx(1.1, abs=1e-10)
        assert kclass_estimand(model, part, 1.0)[0] == pytest.approx(1.0, abs=1e-10)

    def test_kappa_one_recovers_causal_coefficient(self):
        model = univariate_model(q=2, rho=0.6, r2=0.4, gamma=-0.7)
        part = ModelPartition((0,))
        assert kclass_estimand(model, part, 1.0)[0] == pytest.approx(-0.7, abs=1e-10)

    def test_finite_sample_consistency(self):
        model = univariate_model(q=2, rho=0.4, r2=0.3)
        part = ModelPartition((0,))
        view = DesignView(sem_sample(model, 100_000, seed=13))
        for kappa in (0.0, 0.5, 1.0):
            pop = kclass_estimand(model, part, kappa)[0]
            est = estimate(view, EstimatorSpec("kclass", kappa)).alpha[0]
            assert est == pytest.approx(pop, abs=0.02)

    def test_correlated_anchors_match_normal_equations(self):
        # anchor_cov != I, so the whitening by E[AA^T]^{-1/2} does not reduce to E[AZ^T]
        b = np.zeros((2, 2))
        b[1, 0] = 0.8  # X -> Y
        m = np.array([[0.3, 0.7], [0.0, -0.4]])  # A1 -> (Y, X), A2 -> X
        noise = np.array([[1.0, 0.5], [0.5, 1.0]])
        anchor_cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        model = SemModel(b=b, m=m, noise_cov=noise, anchor_cov=anchor_cov, roles=("y", "x"))
        for part in (ModelPartition((0,)), ModelPartition((0,), (0,))):
            mom = population_moments(model, None, part)
            iv_gram = mom.atz.T @ np.linalg.solve(mom.ata, mom.atz)
            iv_rhs = mom.atz.T @ np.linalg.solve(mom.ata, mom.aty)
            for kappa in (0.0, 0.5, 0.9, 1.0):
                want = np.linalg.solve(
                    (1.0 - kappa) * mom.ztz + kappa * iv_gram,
                    (1.0 - kappa) * mom.zty + kappa * iv_rhs,
                )
                np.testing.assert_allclose(
                    kclass_estimand(model, part, kappa), want, rtol=0.0, atol=1e-12
                )

    def test_singular_population_systems_raise(self):
        model = e3_model()
        with pytest.raises(UnderIdentified):
            kclass_estimand(model, model.observed_partition(), 1.0)
        # X := A exactly, with A also included: E[ZZ^T] is singular at every kappa
        collinear = SemModel(
            b=np.array([[0.0, 0.0], [1.0, 0.0]]),
            m=np.array([[0.0, 1.0]]),
            noise_cov=np.array([1.0, 0.0]),
            anchor_cov=np.eye(1),
            roles=("y", "x"),
        )
        for kappa in (0.0, 0.5):
            with pytest.raises(SingularGram, match=r"Z\^T Z"):
                kclass_estimand(collinear, ModelPartition((0,), (0,)), kappa)


class TestPopulationGramEstimands:
    """Gram-only estimators run on the population moments give population estimands."""

    def test_modified_tsls_is_the_underidentified_pulse_limit(self):
        alpha = modified_tsls(population_moments(e3_model())).alpha
        want = np.array(population_pulse_underid(1.0, 1.0, 1.0))
        np.testing.assert_allclose(alpha, want, rtol=0.0, atol=1e-12)

    def test_every_gram_only_kind_runs_on_population_moments(self):
        mom = population_moments(e1_model())
        want = {"ols": 1.25, "kclass:0.75": 1.1, "tsls": 1.0, "anchor:3": 1.1, "modified-tsls": 1.0}
        for label, value in want.items():
            alpha = estimate(mom, EstimatorSpec.parse(label)).alpha
            assert alpha[0] == pytest.approx(value, abs=1e-10), label
        for label in ("liml", "fuller"):
            with pytest.raises(TypeError, match="need a DesignView"):
                estimate(mom, EstimatorSpec.parse(label))

    @pytest.mark.parametrize("partition", [ModelPartition((1,)), ModelPartition((-1,))])
    def test_partition_is_validated_like_a_sample_view(self, partition):
        with pytest.raises(ValueError, match="out of range"):
            population_moments(e1_model(), None, partition)

    @pytest.mark.parametrize("lam", [0.5, 3.0])
    def test_anchor_is_population_kclass(self, lam):
        b = np.zeros((2, 2))
        b[1, 0] = 0.8  # X -> Y
        correlated = SemModel(
            b=b,
            m=np.array([[0.3, 0.7], [0.0, -0.4]]),
            noise_cov=np.array([[1.0, 0.5], [0.5, 1.0]]),
            anchor_cov=np.array([[2.0, 0.6], [0.6, 1.0]]),
            roles=("y", "x"),
        )
        cases = [
            (e1_model(), ModelPartition((0,))),
            (correlated, ModelPartition((0,))),
            (correlated, ModelPartition((0,), (0,))),
        ]
        for model, part in cases:
            pop = population_moments(model, None, part)
            alpha = estimate(pop, EstimatorSpec("anchor", lam)).alpha
            want = kclass_estimand(model, part, lam / (1.0 + lam))
            np.testing.assert_allclose(alpha, want, rtol=0.0, atol=1e-12)


class TestWorstCaseMspe:
    def test_kappa_zero_is_population_ols_loss(self):
        model = e1_model()
        part = ModelPartition((0,))
        mom = population_moments(model)
        alpha = np.array([1.1])
        assert worst_case_mspe(model, part, alpha, 0.0) == pytest.approx(
            mom.ols_loss(alpha), abs=1e-12
        )

    def test_matches_hard_intervention_parametrization(self):
        # sup over |v| <= x equals the penalized form at kappa = 1 - 1/x^2
        model = e1_model()
        part = ModelPartition((0,))
        for gamma_hat in (0.8, 1.0, 1.1, 1.25):
            for x in (1.5, 2.0, 2.5):
                kappa = 1.0 - 1.0 / (x * x)
                via_pop = worst_case_mspe(model, part, np.array([gamma_hat]), kappa)
                via_curve = float(wcmspe_curve_e1(gamma_hat, [x])[0])
                assert via_pop == pytest.approx(via_curve, rel=1e-10)

    def test_population_kclass_minimizes_worst_case(self):
        model = e1_model()
        part = ModelPartition((0,))
        kappa = 0.75
        star = kclass_estimand(model, part, kappa)
        best = worst_case_mspe(model, part, star, kappa)
        for g in np.linspace(0.5, 1.5, 201):
            assert best <= worst_case_mspe(model, part, np.array([g]), kappa) + 1e-12

    def test_matched_radius_dominance(self):
        model = e1_model()
        part = ModelPartition((0,))
        kappa = 0.75
        vals = {
            k: worst_case_mspe(model, part, kclass_estimand(model, part, k), kappa)
            for k in (0.0, 0.75, 1.0)
        }
        assert vals[0.75] <= vals[0.0] and vals[0.75] <= vals[1.0]


def _uniforms(size: int, lo: float, hi: float) -> st.SearchStrategy[np.ndarray]:
    return st.lists(st.floats(lo, hi), min_size=size, max_size=size).map(np.array)


#: Random e3 and mv-varying models, each under the observed partition and under
#: one with an included exogenous anchor (``q1 = 1``).
_ROBUSTNESS_CASES = st.one_of(
    st.builds(
        lambda p, part: (e3_model(*p), part),
        _uniforms(5, -2.0, 2.0),
        st.sampled_from([ModelPartition((0, 1)), ModelPartition((0,), (0,))]),
    ),
    st.builds(
        lambda xi, delta, mu, sig, part: (mv_varying_model(xi, delta, mu, tuple(sig)), part),
        _uniforms(4, -2.0, 2.0),
        _uniforms(4, -2.0, 2.0),
        _uniforms(2, -2.0, 2.0),
        _uniforms(2, 0.1, 1.0),
        st.sampled_from([ModelPartition((0, 1)), ModelPartition((0, 1), (0,))]),
    ),
)


class TestRobustnessIdentity:
    """The penalized loss is the MSPE under the largest shift it guards against:
    ``l_OLS + lam l_IV`` at any ``alpha`` equals the MSPE under ``E[AA^T] =
    (1 + lam) E[AA^T]_obs``, and no intervention below that bound does worse."""

    @settings(max_examples=40, deadline=None)
    @given(
        case=_ROBUSTNESS_CASES,
        kappa=st.floats(0.0, 0.99),
        alpha=_uniforms(3, -2.0, 2.0),
        shrink=_uniforms(2, 0.0, 1.0),
        turn=_uniforms(4, -1.0, 1.0),
    )
    def test_shift_identity_and_bound(self, case, kappa, alpha, shrink, turn):
        model, part = case
        alpha = alpha[: part.d1 + part.q1]
        lam = kappa / (1.0 - kappa)
        bound = (1.0 + lam) * model.anchor_cov
        penalized = worst_case_mspe(model, part, alpha, kappa)
        at_bound = population_moments(model, InterventionSpec.stochastic(bound), part)
        assert at_bound.ols_loss(alpha) == pytest.approx(penalized, rel=1e-10)

        # with bound = L L^T and U orthogonal, L U diag(shrink) U^T L^T lies below the bound
        q = model.q
        u = np.linalg.qr(turn[: q * q].reshape(q, q))[0]
        root = np.linalg.cholesky(bound) @ u
        below = root @ np.diag(shrink[:q]) @ root.T
        inside = population_moments(model, InterventionSpec.stochastic(below), part)
        assert inside.ols_loss(alpha) <= penalized * (1.0 + 1e-10)


class TestE1Curve:
    def test_causal_coefficient_flat_at_one(self):
        np.testing.assert_allclose(wcmspe_curve_e1(1.0, [0.0, 2.0, 17.0]), 1.0)

    def test_ols_value_at_origin(self):
        assert float(wcmspe_curve_e1(1.25, [0.0])[0]) == pytest.approx(0.8125, abs=1e-12)

    def test_superiority_interval(self):
        lo, hi = e1_superiority_interval()
        assert round(lo, 4) == 1.3628
        assert hi == pytest.approx(3.0, abs=1e-9)
        assert round_interval_inward((lo, hi)) == (1.37, 3.0)


class TestPopulationPulseUnderid:
    def test_reference_point(self):
        a1, a2 = population_pulse_underid(1.0, 1.0, 0.5)
        assert a2 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert a1 == pytest.approx(0.5 / 3.0, abs=1e-12)

    def test_no_feedback_edge(self):
        a1, a2 = population_pulse_underid(1.3, 0.0, 0.9)
        assert a2 == 0.0 and a1 == pytest.approx(0.9, abs=1e-12)

    def test_population_solution_has_zero_iv_loss(self):
        model = e3_model()
        part = ModelPartition((0, 1))
        mom = population_moments(model, None, part)
        alpha = np.array(population_pulse_underid(1.0, 1.0, 1.0))
        assert mom.iv_loss(alpha) == pytest.approx(0.0, abs=1e-12)
        # and it is loss-minimal along the moment-condition line
        for shift in (-0.2, 0.2):
            other = alpha + shift * np.array([-1.0, 1.0])
            if mom.iv_loss(other) < 1e-10:
                assert mom.ols_loss(alpha) <= mom.ols_loss(other)


class TestJsonConfig:
    def test_round_trip(self, tmp_path):
        model = e3_model()
        iv = InterventionSpec.hard(np.array([2.0]))
        doc = model_to_json(model, iv)
        again, iv2 = model_from_json(json.loads(json.dumps(doc)))
        np.testing.assert_allclose(again.b, model.b)
        np.testing.assert_allclose(again.m, model.m)
        assert again.roles == model.roles
        assert iv2.kind == "hard" and iv2.mean[0] == 2.0

    def test_load_errors(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(DataError, match="not found"):
            load_sem_json(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataError, match="invalid JSON"):
            load_sem_json(bad)
        incomplete = tmp_path / "incomplete.json"
        incomplete.write_text(json.dumps({"b": [[0.0]]}))
        with pytest.raises(DataError, match="missing field"):
            load_sem_json(incomplete)


class TestArrayRecordIdentity:
    """Records holding arrays compare and hash by identity."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: univariate_model(2, 0.7, 0.2),
            lambda: InterventionSpec.stochastic(np.eye(2)),
            lambda: sem_sample(e1_model(), 5, 3),
            lambda: population_moments(e1_model()),
        ],
        ids=["SemModel", "InterventionSpec", "Dataset", "PopulationMoments"],
    )
    def test_equality_and_hash_by_identity(self, make):
        first, second = make(), make()
        assert first == first
        assert first != second
        assert first in [second, first]
        assert second not in [first]
        assert hash(first) == hash(first)
        assert len({first, second}) == 2
