"""Stacked sampling, view building and estimation against the per-repetition path,
bit for bit.

``sample_stack`` and ``DesignView.stack`` run each step once over a stack of
repetitions.  Every product and cache of a stacked view must carry the bits of
``DesignView(sem_sample(model, n, seed))``, and every estimator, loss, statistic and
``G_n`` run over a ``GramStack`` the bits (or the error) of the plain per-view numpy
formulas and of the one-view call: the Monte Carlo outputs are compared byte for
byte across versions, so a last-bit difference is a failure here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special

from pulse_iv import experiments, inference, pulse
from pulse_iv.data import KAPPA_FORM_MAX, Dataset, DesignView, GramStack, ModelPartition, PathStack
from pulse_iv.estimators import EstimatorSpec, estimate, liml_kappa
from pulse_iv.exceptions import DataError, PulseIVError, SingularGram
from pulse_iv.inference import StackTest, weak_instrument_stat
from pulse_iv.pulse import PulseConfig, PulseMessage, pulse_estimate
from pulse_iv.sem import (
    InterventionSpec,
    e1_model,
    e3_model,
    mv_fixed_model,
    philox_generator,
    sample_stack,
    sem_sample,
    univariate_model,
)

PRODUCTS = ("ztz", "zty", "atz", "aty", "ata")
PATH_ARRAYS = ("ztz", "zty", "sts", "sty", "v", "d", "b0", "b1")


def bits(value) -> bytes:
    arr = np.asarray(value, dtype=float)
    return repr(arr.shape).encode() + arr.tobytes()


def assert_same_view(stacked: DesignView, single: DesignView) -> None:
    """Every product and cache of ``stacked``, filled by the stack builder, has the
    bits of the lazily built single view."""
    for name in ("y", "x", "a"):
        assert bits(getattr(stacked.dataset, name)) == bits(getattr(single.dataset, name)), name
    for name in PRODUCTS:
        assert bits(getattr(stacked, name)) == bits(getattr(single, name)), name
    assert bits(stacked.yty) == bits(single.yty)
    assert stacked.coef_names == single.coef_names
    cache = vars(stacked)
    assert "rcond_ztz" in cache and "iv_pieces" in cache and "path" in cache
    assert bits(stacked.rcond_ztz) == bits(single.rcond_ztz)
    for got, want in zip(stacked.iv_pieces, single.iv_pieces):
        assert bits(got) == bits(want)
    for name in PATH_ARRAYS:
        assert bits(getattr(stacked.path, name)) == bits(getattr(single.path, name)), name
    assert bits(stacked.path.yty) == bits(single.path.yty)
    assert bits(stacked.path.syy) == bits(single.path.syy)


def assert_per_matrix_formulas(view: DesignView) -> None:
    """The view's products and caches have the bits of the plain per-matrix numpy
    formulas on its own rows: 2-D ``matmul``, ``y @ y``, ``eigh``, ``cholesky``,
    ``solve`` and ``svd``, one call per matrix, as before any stacking."""
    ds, part = view.dataset, view.partition
    y, a = ds.y, ds.a
    z = np.hstack([ds.x[:, list(part.included_endogenous)], a[:, list(part.included_exogenous)]])
    want = {"ztz": z.T @ z, "zty": z.T @ y, "atz": a.T @ z, "aty": a.T @ y, "ata": a.T @ a}
    for name, value in want.items():
        assert bits(getattr(view, name)) == bits(value), name
    assert bits(view.yty) == bits(y @ y)
    w = np.abs(np.linalg.eigvalsh(want["ztz"]))
    assert bits(view.rcond_ztz) == bits(w.min() / w.max())
    w, v = np.linalg.eigh(want["ata"])
    isqrt = (v * (1.0 / np.sqrt(w))) @ v.T
    s, sy = isqrt @ want["atz"], isqrt @ want["aty"]
    assert bits(view.iv_pieces[0]) == bits(s) and bits(view.iv_pieces[1]) == bits(sy)
    k = z.shape[1]
    low = np.linalg.cholesky(want["ztz"])
    u, sig, rt = np.linalg.svd(np.linalg.solve(low, s.T).T)
    r = sig.size
    d, b1 = np.zeros(k), np.zeros(k)
    d[:r] = sig * sig
    b1[:r] = sig * (u[:, :r].T @ sy)
    eigv = np.linalg.solve(low.T, rt.T)
    path = {"sts": s.T @ s, "sty": s.T @ sy, "v": eigv, "d": d, "b0": eigv.T @ want["zty"], "b1": b1}
    for name, value in path.items():
        assert bits(getattr(view.path, name)) == bits(value), name
    assert bits(view.path.syy) == bits(sy @ sy)


def single_views(model, n, seeds, partition=None):
    return [DesignView(sem_sample(model, n, seed), partition) for seed in seeds]


CASES = {
    "univariate q=1": (univariate_model(1, 0.9, 0.01), 150),
    "univariate q=2": (univariate_model(2, 0.5, 0.1), 150),
    "univariate q=30": (univariate_model(30, 0.9, 0.3), 150),
    "mv-fixed": (mv_fixed_model(np.array([[1.5, -0.3], [0.2, -1.1]]), 0.8, 0.47, 0.47), 50),
    "e3": (e3_model(), 100),
    "e1 large n": (e1_model(), 3000),
}


class TestStackedViews:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stack_matches_single_views(self, case):
        model, n = CASES[case]
        seeds = [experiments.cell_seed(7, 3, r) for r in range(9)] + [0]
        stacked = DesignView.stack(*sample_stack(model, n, seeds))
        assert len(stacked) == len(seeds)
        for got, want in zip(stacked, single_views(model, n, seeds)):
            assert_same_view(got, want)
            assert_per_matrix_formulas(got)

    def test_included_exogenous_partition(self):
        model, n, seeds = univariate_model(3, 0.7, 0.2), 80, [11, 12, 13]
        part = ModelPartition((0,), (1,))
        stacked = DesignView.stack(*sample_stack(model, n, seeds), partition=part)
        for got, want in zip(stacked, single_views(model, n, seeds, part)):
            assert got.coef_names == ("x1", "a2")
            assert_same_view(got, want)
            assert_per_matrix_formulas(got)

    def test_underidentified_path_has_exact_zeros(self):
        # one anchor, two regressors: S has rank one, so d[1] and b1[1] are exact zeros
        seeds = [21, 22, 23]
        for view in DesignView.stack(*sample_stack(e3_model(), 100, seeds)):
            assert bits(view.path.d[1:]) == bits(np.zeros(1))
            assert bits(view.path.b1[1:]) == bits(np.zeros(1))

    def test_chunk_split_at_the_element_budget(self, monkeypatch):
        model, n = univariate_model(30, 0.9, 0.3), 150
        seeds = [experiments.cell_seed(5, 0, r) for r in range(25)]
        sizes = []

        def counted(model, n, seeds, iv=None):
            sizes.append(len(seeds))
            return sample_stack(model, n, seeds, iv)

        monkeypatch.setattr(experiments, "sample_stack", counted)
        views = [view for stack in experiments._views(model, n, seeds) for view in stack]
        per_stack = experiments.STACK_ELEMENTS // (n * (model.q + model.k))
        assert sizes == [per_stack, len(seeds) - per_stack]
        for got, want in zip(views, single_views(model, n, seeds)):
            assert_same_view(got, want)

    def test_a_sample_above_the_budget_is_a_stack_of_its_own(self, monkeypatch):
        model, n = e3_model(), experiments.STACK_ELEMENTS
        sizes = []

        def counted(model, n, seeds, iv=None):
            sizes.append(len(seeds))
            return sample_stack(model, n, seeds, iv)

        monkeypatch.setattr(experiments, "sample_stack", counted)
        assert [len(stack) for stack in experiments._views(model, n, [1, 2])] == [1, 1]
        assert sizes == [1, 1]


class TestStackedFailures:
    def test_singular_items_raise_on_access_and_neighbours_do_not(self):
        y, x, a = sample_stack(univariate_model(2, 0.9, 0.1), 60, [1, 2, 3, 4])
        a[1, :, 1] = 2.0 * a[1, :, 0]  # collinear anchors: A^T A singular
        x[2] = 0.0  # Z^T Z = 0 while A^T A stays regular
        views = DesignView.stack(y, x, a)
        singles = [DesignView(Dataset(y=y[r], x=x[r], a=a[r])) for r in range(4)]
        for r in (0, 3):
            assert_same_view(views[r], singles[r])
        for attr in ("iv_pieces", "path", "iv_pieces"):
            with pytest.raises(SingularGram, match=r"A\^T A") as got:
                getattr(views[1], attr)
            with pytest.raises(SingularGram) as want:
                getattr(singles[1], attr)
            assert str(got.value) == str(want.value)
        assert "iv_pieces" not in vars(views[1]) and "path" not in vars(views[1])
        assert "iv_pieces" in vars(views[2]) and "path" not in vars(views[2])
        for got, want in zip(views[2].iv_pieces, singles[2].iv_pieces):
            assert bits(got) == bits(want)
        with pytest.raises(SingularGram, match=r"Z\^T Z") as got:
            views[2].path
        with pytest.raises(SingularGram) as want:
            singles[2].path
        assert str(got.value) == str(want.value)
        assert bits(views[2].rcond_ztz) == bits(singles[2].rcond_ztz) == bits(0.0)

    @pytest.mark.parametrize("name", ["y", "x", "a"])
    def test_non_finite_item_gives_the_dataset_error(self, name):
        stacks = dict(zip("yxa", sample_stack(univariate_model(2, 0.9, 0.1), 40, [1, 2, 3])))
        stacks[name][1, 5] = np.nan if name != "a" else np.inf
        with pytest.raises(DataError) as want:
            Dataset(y=stacks["y"][1], x=stacks["x"][1], a=stacks["a"][1])
        with pytest.raises(DataError) as got:
            DesignView.stack(stacks["y"], stacks["x"], stacks["a"])
        assert str(got.value) == str(want.value) == f"non-finite values in {name}"

    def test_too_few_rows_gives_the_dataset_error(self):
        with pytest.raises(DataError, match="need n >= max"):
            DesignView.stack(*sample_stack(univariate_model(5, 0.5, 0.1), 3, [1, 2]))


class TestSampleStack:
    @pytest.mark.parametrize(
        "iv",
        [
            None,
            InterventionSpec.hard(np.array([1.0, -2.0])),
            InterventionSpec.stochastic(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])),
        ],
        ids=["observational", "hard", "stochastic"],
    )
    def test_items_equal_sem_sample(self, iv):
        model, n, seeds = univariate_model(2, 0.7, 0.2), 64, [3, 4, 2**63 + 5]
        y, x, a = sample_stack(model, n, seeds, iv)
        assert y.shape == (3, n) and x.shape == (3, n, 1) and a.shape == (3, n, 2)
        for r, seed in enumerate(seeds):
            ds = sem_sample(model, n, seed, iv)
            assert bits(y[r]) == bits(ds.y) and bits(x[r]) == bits(ds.x) and bits(a[r]) == bits(ds.a)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_items_equal_the_per_matrix_formulas(self, case):
        # one Philox stream pair per seed, then 2-D numpy calls, as before any stacking
        model, n = CASES[case]
        seeds = [experiments.cell_seed(9, 2, r) for r in range(4)]

        def gaussians(seed, stream, shape):
            ints = philox_generator(seed, stream).integers(0, 1 << 53, size=shape)
            u = (ints.astype(float) + 0.5) / float(1 << 53)
            return scipy.special.ndtri(np.minimum(u, np.nextafter(1.0, 0.0)))

        y, x, a = sample_stack(model, n, seeds)
        for r, seed in enumerate(seeds):
            anchors = np.zeros(model.q) + gaussians(seed, 0, (n, model.q)) @ model.anchor_root.T
            eps = gaussians(seed, 1, (n, model.k)) @ model.noise_root.T
            v = np.linalg.solve(model.gamma.T, (anchors @ model.m + eps).T).T
            assert bits(a[r]) == bits(anchors)
            assert bits(y[r]) == bits(v[:, model.y_index])
            assert bits(x[r]) == bits(v[:, list(model.x_indices)])

    def test_n_below_one_is_refused(self):
        with pytest.raises(ValueError, match="n must be positive"):
            sample_stack(e1_model(), 0, [1])


class TestReadOnlyCaches:
    """A cached array cannot be changed in place, so no caller can move a view's
    later losses or solves."""

    @pytest.mark.parametrize("build", ["single", "stacked"])
    def test_pieces_and_path_arrays_are_read_only(self, build):
        model, seeds = univariate_model(2, 0.9, 0.1), [5, 6]
        if build == "single":
            view = DesignView(sem_sample(model, 100, seeds[0]))
        else:
            view = DesignView.stack(*sample_stack(model, 100, seeds))[0]
        s, sy = view.iv_pieces
        arrays = [s, sy] + [getattr(view.path, name) for name in PATH_ARRAYS]
        arrays += [getattr(view, name) for name in PRODUCTS]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] += 1.0


# ---------------------------------------------------------------------------
# The estimators over a GramStack
# ---------------------------------------------------------------------------

SPECS = ("ols", "tsls", "kclass:0.6", "liml", "fuller:1", "fuller:4", "anchor:3", "anchor:5000",
         "modified-tsls", "pulse")


def grid_views(q: int, n: int, reps: int, seed: int = 7) -> list[DesignView]:
    """Views of the univariate grid at one ``q`` and ``n``, over three instrument
    strengths, so that a stack mixes PULSE's branches."""
    views = []
    for index, r2 in enumerate((0.01, 0.1, 0.3)):
        seeds = [experiments.cell_seed(seed, index, r) for r in range(reps)]
        views += DesignView.stack(*sample_stack(univariate_model(q, 0.9, r2), n, seeds))
    return views


STACKS = {
    "univariate q=2": lambda: grid_views(2, 150, 12),
    "univariate q=10": lambda: grid_views(10, 150, 12),
    "mv-fixed": lambda: DesignView.stack(*sample_stack(CASES["mv-fixed"][0], 50, list(range(20)))),
    "e3": lambda: DesignView.stack(*sample_stack(e3_model(), 100, list(range(20)))),
    "included exogenous": lambda: DesignView.stack(
        *sample_stack(univariate_model(3, 0.7, 0.2), 80, list(range(12))),
        partition=ModelPartition((0,), (1,)),
    ),
}


def outcome(fit, r: int):
    """Item ``r`` of a stacked fit as comparable bits: its error's class, or its values."""
    if r in fit.failed:
        return type(fit.failed[r]).__name__
    return bits(fit.alpha[r]) + bits(fit.kappa[r]) + bits(fit.lam[r])


def single_outcome(view: DesignView, spec: EstimatorSpec):
    try:
        res = estimate(view, spec)
    except PulseIVError as exc:
        return type(exc).__name__
    nan = float("nan")
    kappa = nan if res.kappa_used is None else res.kappa_used
    lam = nan if res.lambda_used is None else res.lambda_used
    return bits(res.alpha) + bits(kappa) + bits(lam)


def kclass_formula(view: DesignView, kappa: float) -> np.ndarray:
    """The per-view K-class solve as before any stacking."""
    path = view.path
    mat = (1.0 - kappa) * path.ztz + kappa * path.sts
    return np.linalg.solve(mat, (1.0 - kappa) * path.zty + kappa * path.sty)


def estimate_formula(view: DesignView, spec: EstimatorSpec) -> np.ndarray:
    """Each kind's point by the plain per-view numpy formulas."""
    if spec.kind == "ols":
        return np.linalg.solve(view.ztz, view.zty)
    if spec.kind == "anchor":
        lam, path = spec.value, view.path
        if lam <= KAPPA_FORM_MAX:
            return kclass_formula(view, lam / (1.0 + lam))
        return path.v @ ((path.b0 + lam * path.b1) / (1.0 + lam * path.d))
    if spec.kind == "modified-tsls":
        k, q = view.k, view.q
        kkt = np.zeros((k + q, k + q))
        kkt[:k, :k], kkt[:k, k:], kkt[k:, :k] = view.ztz, view.atz.T, view.atz
        return np.linalg.solve(kkt, np.concatenate([view.zty, view.aty]))[:k]
    if spec.kind in ("tsls", "kclass"):
        return kclass_formula(view, 1.0 if spec.kind == "tsls" else spec.value)
    if spec.kind == "fuller":
        return kclass_formula(view, liml_kappa(view) - spec.value / (view.n - view.q))
    return kclass_formula(view, liml_kappa(view))


def loss_formulas(view: DesignView, alpha: np.ndarray) -> tuple[float, float]:
    ols = (view.yty - 2.0 * (alpha @ view.zty) + alpha @ view.ztz @ alpha) / view.n
    s, sy = view.iv_pieces
    res = sy - s @ alpha
    return max(float(ols), 0.0), max(float(res @ res) / view.n, 0.0)


def weak_formula(view: DesignView) -> tuple[float, np.ndarray]:
    """``G_n`` by the per-view numpy calls, as before any stacking."""
    n, q, d1, q2 = view.n, view.q, view.d1, view.q2
    s_x = view.iv_pieces[0][:, :d1]
    xtx = view.ztz[:d1, :d1]
    conc = s_x.T @ s_x
    w, v = np.linalg.eigh((xtx - conc) / (n - q))
    isqrt = (v * (1.0 / np.sqrt(w))) @ v.T
    if view.q1:
        inc = list(view.partition.included_exogenous)
        astar_x = view.atz[inc, :d1]
        conc = conc - astar_x.T @ np.linalg.solve(view.ata[np.ix_(inc, inc)], astar_x)
    g = isqrt @ conc @ isqrt / q2
    g = 0.5 * (g + g.T)
    return (0.0 if q2 < d1 else float(np.linalg.eigvalsh(g)[0])), g


class TestStackedEstimators:
    @pytest.mark.parametrize("case", sorted(STACKS))
    def test_every_kind_matches_the_per_view_route(self, case):
        views = STACKS[case]()
        stack = GramStack(views)
        for label in SPECS:
            spec = EstimatorSpec.parse(label)
            fit = estimate(stack, spec)
            for r, view in enumerate(views):
                assert outcome(fit, r) == single_outcome(view, spec), (label, r)
                if r not in fit.failed and spec.kind != "pulse":
                    assert bits(fit.alpha[r]) == bits(estimate_formula(view, spec)), (label, r)

    @pytest.mark.parametrize("case", sorted(STACKS))
    def test_losses_statistic_and_g_n_match_the_per_view_formulas(self, case):
        views = STACKS[case]()
        stack = GramStack(views)
        rng = np.random.default_rng(3)
        alpha = rng.normal(size=(len(views), stack.k))
        ols = stack.ols_loss(stack.items, alpha)
        iv, failed = stack.iv_loss(stack.items, alpha)
        cfg = PulseConfig()
        test = StackTest(stack, cfg)
        stat, stat_failed = test.statistic(stack.items, alpha)
        assert not failed and not stat_failed
        reports = weak_instrument_stat(stack)
        for r, view in enumerate(views):
            want_ols, want_iv = loss_formulas(view, alpha[r])
            assert bits(ols[r]) == bits(want_ols) == bits(view.ols_loss(alpha[r]))
            assert bits(iv[r]) == bits(want_iv) == bits(view.iv_loss(alpha[r]))
            scale = cfg.scale(view.n, view.q)
            assert bits(stat[r]) == bits(scale * want_iv / want_ols)
            assert bits(stat[r]) == bits(inference.test_statistic(view, alpha[r], cfg).statistic)
            low, g = weak_formula(view)
            assert bits(reports[r].min_eigenvalue) == bits(low)
            assert bits(reports[r].g_matrix) == bits(g) == bits(weak_instrument_stat(view).g_matrix)

    def test_a_singular_item_among_regular_neighbours(self):
        y, x, a = sample_stack(univariate_model(2, 0.9, 0.1), 60, [1, 2, 3, 4, 5])
        a[1, :, 1] = 2.0 * a[1, :, 0]  # collinear anchors: A^T A singular
        x[3] = 0.0  # Z^T Z = 0 while A^T A stays regular
        views = DesignView.stack(y, x, a)
        stack = GramStack(views)
        singles = [DesignView(Dataset(y=y[r], x=x[r], a=a[r])) for r in range(5)]
        for label in SPECS:
            spec = EstimatorSpec.parse(label)
            fit = estimate(stack, spec)
            got = [outcome(fit, r) for r in range(5)]
            assert got == [single_outcome(view, spec) for view in singles], label
            assert isinstance(got[3], str), label  # every kind reads Z^T Z
            if spec.kind != "modified-tsls":  # infeasible on every over-identified item
                assert all(isinstance(got[r], bytes) for r in (0, 2, 4)), label
            if spec.kind != "ols":  # the only kind that needs no regular A^T A
                assert isinstance(got[1], str), label
        reports = weak_instrument_stat(stack)
        for report, view in zip(reports, singles):
            try:
                want = weak_instrument_stat(view)
            except PulseIVError as exc:
                assert type(report) is type(exc) and str(report) == str(exc)
            else:
                assert bits(report.g_matrix) == bits(want.g_matrix)
        assert isinstance(reports[1], SingularGram) and isinstance(reports[3], SingularGram)

    def test_all_three_pulse_branches_in_one_stack(self):
        views = grid_views(10, 150, 20)
        fit = estimate(GramStack(views), EstimatorSpec("pulse"))
        assert set(fit.messages) == set(PulseMessage)
        assert fit.message is PulseMessage.NONE  # the stack's branch: its items' differ
        for r in (fit.messages.index(PulseMessage.OLS_ACCEPTED), fit.messages.index(
                PulseMessage.TSLS_REJECTED_FALLBACK)):
            assert estimate(GramStack(views[r : r + 1]), EstimatorSpec("pulse")).message is fit.messages[r]
        for r, view in enumerate(views):
            want = pulse_estimate(view)
            got = fit.result(r)
            assert got.message is want.message
            assert bits(got.alpha) == bits(want.alpha)
            assert got.lambda_used == want.lambda_used
            assert got.kappa_used == want.kappa_used
            assert got.diagnostics == want.diagnostics

    def test_searches_of_different_lengths_run_in_lockstep(self, monkeypatch):
        views = grid_views(2, 150, 20)
        steps: dict[int, int] = {}
        roots, alpha = pulse._roots, PathStack.alpha

        def no_root_at_most_items(test: StackTest, items: np.ndarray) -> np.ndarray:
            found = roots(test, items)
            found[items % 3 != 0] = math.inf  # these items search exactly
            return found

        def counted(self: PathStack, lam: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, dict]:
            for r in items.tolist():
                steps[r] = steps.get(r, 0) + 1
            return alpha(self, lam, items)

        monkeypatch.setattr(pulse, "_roots", no_root_at_most_items)
        monkeypatch.setattr(PathStack, "alpha", counted)
        fit = estimate(GramStack(views), EstimatorSpec("pulse"))
        monkeypatch.undo()
        searched = [r for r in range(len(views)) if fit.messages[r] is PulseMessage.NONE]
        counts = {steps[r] for r in searched if r % 3 != 0}
        assert len(searched) > 5 and len(counts) > 3
        for r in searched:
            want = pulse_estimate(views[r])
            assert bits(fit.alpha[r]) == bits(want.alpha)
            assert fit.lam[r].hex() == want.lambda_used.hex()

    @pytest.mark.parametrize("cuts", [(1,), (7,), (11, 29)], ids=["ones", "sevens", "uneven"])
    def test_same_view_same_bits_whatever_the_stack(self, cuts):
        views = grid_views(10, 150, 12) + grid_views(10, 150, 4, seed=3)
        whole = {label: estimate(GramStack(views), EstimatorSpec.parse(label)) for label in SPECS}
        bounds = list(range(0, len(views), cuts[0])) if len(cuts) == 1 else [0, *cuts]
        for start, stop in zip(bounds, bounds[1:] + [len(views)]):
            part = GramStack(views[start:stop])
            for label in SPECS:
                fit = estimate(part, EstimatorSpec.parse(label))
                for r in range(stop - start):
                    assert outcome(fit, r) == outcome(whole[label], start + r), (label, start + r)
            reports = weak_instrument_stat(part)
            wanted = weak_instrument_stat(GramStack(views))[start:stop]
            for got, want in zip(reports, wanted):
                assert bits(got.g_matrix) == bits(want.g_matrix)

    def test_views_of_different_shapes_are_refused(self):
        a = DesignView(sem_sample(univariate_model(2, 0.9, 0.1), 50, 1))
        b = DesignView(sem_sample(univariate_model(3, 0.9, 0.1), 50, 1))
        with pytest.raises(ValueError, match="share one partition"):
            GramStack([a, b])
