"""Stacked sampling, view building and estimation against the per-repetition path,
bit for bit.

``sample_stack`` and ``GramStack.from_rows`` run each step once over a stack of
repetitions.  Every product and cache of a stack's item must carry the bits of
``DesignView(sem_sample(model, n, seed))``'s one-item stack and of the plain
per-matrix numpy formulas, and every estimator, loss, statistic and ``G_n`` run
over a ``GramStack`` the bits (or the error) of those formulas and of the one-view
call: the Monte Carlo outputs are compared byte for byte across versions, so a
last-bit difference is a failure here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from pulse_iv import data, estimators, experiments, inference, pulse
from pulse_iv.data import (
    KAPPA_FORM_MAX, RCOND_GRAM, Dataset, DesignView, GramStack, ModelPartition, PathStack,
)
from pulse_iv.estimators import EstimatorSpec, estimate, liml_kappa
from pulse_iv.exceptions import DataError, PulseIVError, SingularGram
from pulse_iv.inference import StackTest, weak_instrument_stat
from pulse_iv.pulse import PulseConfig, PulseMessage, primal_solve, pulse_estimate
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


def assert_same_item(stack: GramStack, r: int, single: DesignView) -> None:
    """Item ``r`` of a stack built from rows has, in every row, product, condition
    number, whitened piece and path array, the bits of the single view and of item 0
    of its one-item stack."""
    one = single.stack
    for name, rows, one_rows in zip(("y", "x", "a"), stack.rows, one.rows):
        assert bits(rows[r]) == bits(getattr(single.dataset, name)) == bits(one_rows[0]), name
    for name in PRODUCTS:
        assert bits(getattr(stack, name)[r]) == bits(getattr(single, name)), name
    assert bits(stack.yty[r]) == bits(single.yty)
    assert {"rcond_ztz", "pieces", "paths"} <= set(vars(stack))  # computed as it was built
    assert bits(stack.rcond_ztz[r]) == bits(single.rcond_ztz)
    s, sy, _ = stack.pieces
    assert bits(s[r]) == bits(one.pieces[0][0]) and bits(sy[r]) == bits(one.pieces[1][0])
    paths, failed = stack.paths
    assert r not in failed and not one.paths[1]
    for name in PATH_ARRAYS + ("yty", "syy"):
        assert bits(getattr(paths, name)[r]) == bits(getattr(one.paths[0], name)[0]), name


def assert_per_matrix_formulas(stack: GramStack, r: int) -> None:
    """Item ``r``'s products and paths have the bits of the plain per-matrix numpy
    formulas on its own rows: 2-D ``matmul``, ``y @ y``, ``eigh``, ``cholesky``,
    ``solve`` and ``svd``, one call per matrix, as before any stacking."""
    part = stack.partition
    y, x, a = (rows[r] for rows in stack.rows)
    z = np.hstack([x[:, list(part.included_endogenous)], a[:, list(part.included_exogenous)]])
    want = {"ztz": z.T @ z, "zty": z.T @ y, "atz": a.T @ z, "aty": a.T @ y, "ata": a.T @ a}
    for name, value in want.items():
        assert bits(getattr(stack, name)[r]) == bits(value), name
    assert bits(stack.yty[r]) == bits(y @ y)
    w = np.abs(np.linalg.eigvalsh(want["ztz"]))
    assert bits(stack.rcond_ztz[r]) == bits(w.min() / w.max())
    w, v = np.linalg.eigh(want["ata"])
    isqrt = (v * (1.0 / np.sqrt(w))) @ v.T
    s, sy = isqrt @ want["atz"], isqrt @ want["aty"]
    assert bits(stack.pieces[0][r]) == bits(s) and bits(stack.pieces[1][r]) == bits(sy)
    k = z.shape[1]
    low = np.linalg.cholesky(want["ztz"])
    u, sig, rt = np.linalg.svd(np.linalg.solve(low, s.T).T)
    rank = sig.size
    d, b1 = np.zeros(k), np.zeros(k)
    d[:rank] = sig * sig
    b1[:rank] = sig * (u[:, :rank].T @ sy)
    eigv = np.linalg.solve(low.T, rt.T)
    path = {"sts": s.T @ s, "sty": s.T @ sy, "v": eigv, "d": d, "b0": eigv.T @ want["zty"], "b1": b1}
    paths, _ = stack.paths
    for name, value in path.items():
        assert bits(getattr(paths, name)[r]) == bits(value), name
    assert bits(paths.syy[r]) == bits(sy @ sy)


def single_views(model, n, seeds, partition=None):
    return [DesignView(sem_sample(model, n, seed), partition) for seed in seeds]


def views_of(y, x, a, partition=None) -> list[DesignView]:
    """The single view of each sample of a stack of rows."""
    return [DesignView(Dataset(y=y[r], x=x[r], a=a[r]), partition) for r in range(len(y))]


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
        stack = GramStack.from_rows(*sample_stack(model, n, seeds))
        assert len(stack) == len(seeds)
        for r, want in enumerate(single_views(model, n, seeds)):
            assert_same_item(stack, r, want)
            assert_per_matrix_formulas(stack, r)

    def test_included_exogenous_partition(self):
        model, n, seeds = univariate_model(3, 0.7, 0.2), 80, [11, 12, 13]
        part = ModelPartition((0,), (1,))
        stack = GramStack.from_rows(*sample_stack(model, n, seeds), partition=part)
        assert (stack.partition, stack.k, stack.q2) == (part, 2, 2)
        for r, want in enumerate(single_views(model, n, seeds, part)):
            assert_same_item(stack, r, want)
            assert_per_matrix_formulas(stack, r)

    def test_underidentified_path_has_exact_zeros(self):
        # one anchor, two regressors: S has rank one, so d[1] and b1[1] are exact zeros
        paths, _ = GramStack.from_rows(*sample_stack(e3_model(), 100, [21, 22, 23])).paths
        assert bits(paths.d[:, 1:]) == bits(np.zeros((3, 1)))
        assert bits(paths.b1[:, 1:]) == bits(np.zeros((3, 1)))

    def test_chunk_split_at_the_element_budget(self, monkeypatch):
        model, n = univariate_model(30, 0.9, 0.3), 150
        seeds = [experiments.cell_seed(5, 0, r) for r in range(60)]
        sizes = []

        def counted(model, n, seeds, iv=None):
            sizes.append(len(seeds))
            return sample_stack(model, n, seeds, iv)

        monkeypatch.setattr(experiments, "sample_stack", counted)
        stacks = experiments._stacks([model], n, [seeds])
        items = [(stack, r) for stack in stacks for r in stack.items]
        per_stack = experiments.ROW_STACK_ELEMENTS // (n * (model.q + model.k))
        assert per_stack == 54
        assert sizes == [per_stack, len(seeds) - per_stack]
        for (stack, r), want in zip(items, single_views(model, n, seeds)):
            assert_same_item(stack, r, want)

    def test_a_sample_above_the_budget_is_a_stack_of_its_own(self, monkeypatch):
        model, n = e3_model(), experiments.ROW_STACK_ELEMENTS
        sizes = []

        def counted(model, n, seeds, iv=None):
            sizes.append(len(seeds))
            return sample_stack(model, n, seeds, iv)

        monkeypatch.setattr(experiments, "sample_stack", counted)
        assert [len(stack) for stack in experiments._stacks([model], n, [[1, 2]])] == [1, 1]
        assert sizes == [1, 1]


class TestStackedFailures:
    def test_singular_items_raise_on_access_and_neighbours_do_not(self):
        y, x, a = sample_stack(univariate_model(2, 0.9, 0.1), 60, [1, 2, 3, 4])
        a[1, :, 1] = 2.0 * a[1, :, 0]  # collinear anchors: A^T A singular
        x[2] = 0.0  # Z^T Z = 0 while A^T A stays regular
        stack = GramStack.from_rows(y, x, a)
        singles = views_of(y, x, a)
        for r in (0, 3):
            assert_same_item(stack, r, singles[r])
        s, sy, pieces_failed = stack.pieces
        paths, paths_failed = stack.paths
        assert list(pieces_failed) == [1] and list(paths_failed) == [1, 2]
        want = singles[1].stack.pieces[2][0]
        assert isinstance(want, SingularGram) and "A^T A" in str(want)
        for got in (pieces_failed[1], paths_failed[1], singles[1].stack.paths[1][0]):
            assert str(got) == str(want)
        assert bits(s[1]) == bits(np.zeros((2, 1))) and bits(sy[1]) == bits(np.zeros(2))
        assert bits(s[2]) == bits(singles[2].stack.pieces[0][0])
        assert bits(sy[2]) == bits(singles[2].stack.pieces[1][0])
        want = singles[2].stack.paths[1][0]
        assert isinstance(want, SingularGram) and "Z^T Z" in str(want)
        assert str(paths_failed[2]) == str(want)
        assert bits(stack.rcond_ztz[2]) == bits(singles[2].rcond_ztz) == bits(0.0)

    @pytest.mark.parametrize("name", ["y", "x", "a"])
    def test_non_finite_item_gives_the_dataset_error(self, name):
        stacks = dict(zip("yxa", sample_stack(univariate_model(2, 0.9, 0.1), 40, [1, 2, 3])))
        stacks[name][1, 5] = np.nan if name != "a" else np.inf
        with pytest.raises(DataError) as want:
            Dataset(y=stacks["y"][1], x=stacks["x"][1], a=stacks["a"][1])
        with pytest.raises(DataError) as got:
            GramStack.from_rows(stacks["y"], stacks["x"], stacks["a"])
        assert str(got.value) == str(want.value) == f"non-finite values in {name}"

    def test_the_first_non_finite_item_names_the_error(self):
        y, x, a = sample_stack(univariate_model(2, 0.9, 0.1), 40, [1, 2, 3])
        y[2, 0], a[1, 3, 1] = np.nan, np.inf  # item 1 fails on a before item 2 on y
        with pytest.raises(DataError, match="non-finite values in a"):
            GramStack.from_rows(y, x, a)

    def test_too_few_rows_gives_the_dataset_error(self):
        with pytest.raises(DataError, match="need n >= max"):
            GramStack.from_rows(*sample_stack(univariate_model(5, 0.5, 0.1), 3, [1, 2]))


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

    def test_a_views_arrays_are_read_only(self):
        view = DesignView(sem_sample(univariate_model(2, 0.9, 0.1), 100, 5))
        stack = view.stack
        arrays = [*stack.pieces[:2], stack.rcond_ztz, stack.yty, *stack.rows]
        arrays += [getattr(stack.paths[0], name) for name in PATH_ARRAYS + ("yty", "syy")]
        arrays += [getattr(view, name) for name in PRODUCTS]
        arrays += [getattr(stack, name) for name in PRODUCTS]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] += 1.0

    @pytest.mark.parametrize("build", ["from rows", "row-free chunk"])
    def test_stacked_arrays_are_read_only(self, build):
        model = univariate_model(2, 0.9, 0.1)
        if build == "from rows":
            stack = GramStack.from_rows(*sample_stack(model, 100, [5, 6, 7]))
        else:
            stack = experiments._row_free_stack([model], 100, [[5, 6, 7]])
        paths, _ = stack.paths
        arrays = [*stack.pieces[:2], stack.rcond_ztz, stack.yty]
        arrays += [getattr(paths, name) for name in PATH_ARRAYS + ("yty", "syy")]
        arrays += [getattr(stack, name) for name in PRODUCTS]
        if stack.rows is not None:
            arrays += list(stack.rows)
            estimate(stack, EstimatorSpec("liml"))  # its kappa, cached on the stack
            arrays.append(estimators._stack_liml_kappas(stack, stack.items)[0])
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] += 1.0


# ---------------------------------------------------------------------------
# The estimators over a GramStack
# ---------------------------------------------------------------------------

SPECS = ("ols", "tsls", "kclass:0.6", "liml", "fuller:1", "fuller:4", "anchor:3", "anchor:5000",
         "modified-tsls", "pulse")


def grid_rows(q: int, n: int, reps: int, seed: int = 7) -> tuple[np.ndarray, ...]:
    """Samples of the univariate grid at one ``q`` and ``n``, over three instrument
    strengths, so that a stack mixes PULSE's branches."""
    stacks = [
        sample_stack(univariate_model(q, 0.9, r2), n,
                     [experiments.cell_seed(seed, index, r) for r in range(reps)])
        for index, r2 in enumerate((0.01, 0.1, 0.3))
    ]
    return tuple(np.concatenate(parts) for parts in zip(*stacks))


#: Each case's rows and partition.
STACKS = {
    "univariate q=2": lambda: (grid_rows(2, 150, 12), None),
    "univariate q=10": lambda: (grid_rows(10, 150, 12), None),
    "mv-fixed": lambda: (sample_stack(CASES["mv-fixed"][0], 50, list(range(20))), None),
    "e3": lambda: (sample_stack(e3_model(), 100, list(range(20))), None),
    "included exogenous": lambda: (
        sample_stack(univariate_model(3, 0.7, 0.2), 80, list(range(12))), ModelPartition((0,), (1,))
    ),
}


def built(case: str) -> tuple[GramStack, list[DesignView]]:
    """A case's stack, built from its rows, and the single view of each sample."""
    rows, partition = STACKS[case]()
    return GramStack.from_rows(*rows, partition=partition), views_of(*rows, partition)


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


def path_of(view: DesignView):
    """The view's K-class path: item 0 of its one-item stack's, as ``(k, ...)`` arrays."""
    paths, failed = view.stack.paths
    assert not failed
    return PathStack(*(getattr(paths, name)[0] for name in data._PATH_FIELDS))


def kclass_formula(view: DesignView, kappa: float) -> np.ndarray:
    """The per-view K-class solve as before any stacking."""
    path = path_of(view)
    mat = (1.0 - kappa) * path.ztz + kappa * path.sts
    return np.linalg.solve(mat, (1.0 - kappa) * path.zty + kappa * path.sty)


def estimate_formula(view: DesignView, spec: EstimatorSpec) -> np.ndarray:
    """Each kind's point by the plain per-view numpy formulas."""
    if spec.kind == "ols":
        return np.linalg.solve(view.ztz, view.zty)
    if spec.kind == "anchor":
        lam, path = spec.value, path_of(view)
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
        return kclass_formula(view, liml_formula(view) - spec.value / (view.n - view.q))
    return kclass_formula(view, liml_formula(view))


def liml_formula(view: DesignView) -> float | str:
    """LIML's ``kappa`` by the plain per-view calls, as before any stacking: a row
    ``lstsq`` per projection, scipy's ``potrf``/``trtrs`` and ``eigvalsh``; the name of
    the error where ``W`` is singular."""
    ds, part = view.dataset, view.partition
    m0 = np.column_stack([ds.y, ds.x[:, list(part.included_endogenous)]])

    def residual_gram(basis: np.ndarray) -> np.ndarray:
        if basis.shape[1] == 0:
            return m0.T @ m0
        proj = basis @ np.linalg.lstsq(basis, m0, rcond=None)[0]
        return m0.T @ m0 - proj.T @ proj

    w, w1 = residual_gram(ds.a), residual_gram(ds.a[:, list(part.included_exogenous)])
    scale = view.yty + float(np.trace(view.ztz[: view.d1, : view.d1]))
    if not float(np.linalg.eigvalsh(w)[0]) > RCOND_GRAM * scale:
        return "SingularGram"
    low, info = scipy.linalg.lapack.dpotrf(w, lower=True, clean=True)
    assert info == 0
    inner, _ = scipy.linalg.lapack.dtrtrs(low, w1, lower=True)
    inner, _ = scipy.linalg.lapack.dtrtrs(low, inner.T, lower=True)
    return float(np.linalg.eigvalsh(0.5 * (inner + inner.T))[0])


def loss_formulas(view: DesignView, alpha: np.ndarray) -> tuple[float, float]:
    ols = (view.yty - 2.0 * (alpha @ view.zty) + alpha @ view.ztz @ alpha) / view.n
    s, sy = (piece[0] for piece in view.stack.pieces[:2])
    res = sy - s @ alpha
    return max(float(ols), 0.0), max(float(res @ res) / view.n, 0.0)


def weak_formula(view: DesignView) -> tuple[float, np.ndarray]:
    """``G_n`` by the per-view numpy calls, as before any stacking."""
    n, q, d1, q2 = view.n, view.q, view.d1, view.q2
    s_x = view.stack.pieces[0][0][:, :d1]
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
        stack, views = built(case)
        for label in SPECS:
            spec = EstimatorSpec.parse(label)
            fit = estimate(stack, spec)
            for r, view in enumerate(views):
                assert outcome(fit, r) == single_outcome(view, spec), (label, r)
                if r not in fit.failed and spec.kind != "pulse":
                    assert bits(fit.alpha[r]) == bits(estimate_formula(view, spec)), (label, r)

    @pytest.mark.parametrize("case", sorted(STACKS))
    def test_losses_statistic_and_g_n_match_the_per_view_formulas(self, case):
        stack, views = built(case)
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
        stack = GramStack.from_rows(y, x, a)
        singles = views_of(y, x, a)
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

    @pytest.mark.parametrize("case", sorted(STACKS))
    def test_the_g_n_arrays_are_the_reports_values(self, case):
        stack, _ = built(case)
        y, x, a = stack.rows
        x = x.copy()
        x[1] = 0.0  # X^T P_A^perp X = 0 at item 1
        stack = GramStack.from_rows(y, x, a, partition=stack.partition)
        g, min_eig, failed = inference._weak_instrument_arrays(stack)
        reports = weak_instrument_stat(stack)
        assert 1 in failed and g.shape == (len(stack), stack.d1, stack.d1)
        for r, report in enumerate(reports):
            if r in failed:
                assert type(report) is type(failed[r]) and str(report) == str(failed[r])
                assert np.isnan(g[r]).all() and np.isnan(min_eig[r])
            else:
                assert bits(g[r]) == bits(report.g_matrix)
                assert bits(min_eig[r]) == bits(report.min_eigenvalue)

    def test_all_three_pulse_branches_in_one_stack(self):
        rows = grid_rows(10, 150, 20)
        stack, views = GramStack.from_rows(*rows), views_of(*rows)
        fit = estimate(stack, EstimatorSpec("pulse"))
        assert set(fit.messages) == set(PulseMessage)
        assert fit.message is PulseMessage.NONE  # the stack's branch: its items' differ
        for r in (fit.messages.index(PulseMessage.OLS_ACCEPTED), fit.messages.index(
                PulseMessage.TSLS_REJECTED_FALLBACK)):
            one = GramStack.from_rows(*(arr[[r]] for arr in rows))
            assert estimate(one, EstimatorSpec("pulse")).message is fit.messages[r]
        for r, view in enumerate(views):
            want = pulse_estimate(view)
            got = fit.result(r)
            assert got.message is want.message
            assert bits(got.alpha) == bits(want.alpha)
            assert got.lambda_used == want.lambda_used
            assert got.kappa_used == want.kappa_used
            assert got.diagnostics == want.diagnostics

    @pytest.mark.parametrize("fallback", ["fuller", "tsls"])
    def test_the_fallback_runs_on_its_own_items_alone(self, monkeypatch, fallback):
        rows = grid_rows(10, 150, 20)
        stack, views = GramStack.from_rows(*rows), views_of(*rows)
        cached = set(vars(stack))
        seen = []
        original = estimators._liml_blocks
        monkeypatch.setattr(estimators, "_liml_blocks",
                            lambda *args: seen.append(args[1].tolist()) or original(*args))
        cfg = PulseConfig(fallback=EstimatorSpec(fallback))
        fit = estimate(stack, EstimatorSpec("pulse"), cfg)
        back = [r for r, message in enumerate(fit.messages)
                if message is PulseMessage.TSLS_REJECTED_FALLBACK]
        assert 0 < len(back) < len(stack)
        assert seen == ([back] if fallback == "fuller" else [])  # LIML on those items alone
        assert set(vars(stack)) == cached  # a part's LIML kappa is not cached on the stack
        for r, view in enumerate(views):
            want, got = pulse_estimate(view, cfg), fit.result(r)
            assert got.message is want.message
            assert bits(got.alpha) == bits(want.alpha)
            assert got.lambda_used == want.lambda_used
            assert got.diagnostics == want.diagnostics

    def test_searches_of_different_lengths_run_in_lockstep(self, monkeypatch):
        rows = grid_rows(2, 150, 20)
        stack, views = GramStack.from_rows(*rows), views_of(*rows)
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
        fit = estimate(stack, EstimatorSpec("pulse"))
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
        rows = tuple(np.concatenate(parts) for parts in zip(grid_rows(10, 150, 12),
                                                            grid_rows(10, 150, 4, seed=3)))
        whole = GramStack.from_rows(*rows)
        fits = {label: estimate(whole, EstimatorSpec.parse(label)) for label in SPECS}
        wanted = weak_instrument_stat(whole)
        bounds = list(range(0, len(whole), cuts[0])) if len(cuts) == 1 else [0, *cuts]
        for start, stop in zip(bounds, bounds[1:] + [len(whole)]):
            part = GramStack.from_rows(*(arr[start:stop] for arr in rows))
            for label in SPECS:
                fit = estimate(part, EstimatorSpec.parse(label))
                for r in range(stop - start):
                    assert outcome(fit, r) == outcome(fits[label], start + r), (label, start + r)
            for got, want in zip(weak_instrument_stat(part), wanted[start:stop]):
                assert bits(got.g_matrix) == bits(want.g_matrix)


class TestStackedLiml:
    """LIML's ``kappa`` runs once per stack built from rows, one numpy call per step
    but the per-item ``potrf`` and ``trtrs``, with each item's bits and error."""

    @pytest.mark.parametrize("case", sorted(STACKS))
    def test_kappa_matches_the_per_view_formula(self, case):
        stack, views = built(case)
        liml = estimate(stack, EstimatorSpec("liml"))
        fuller = estimate(stack, EstimatorSpec("fuller", 1.0))
        regular = 0
        for r, view in enumerate(views):
            want = liml_formula(view)
            if isinstance(want, str):
                assert isinstance(liml.failed[r], SingularGram) and r in fuller.failed
                continue
            regular += 1
            assert bits(liml.kappa[r]) == bits(want), r
            assert bits(fuller.kappa[r]) == bits(want - 1.0 / (view.n - view.q)), r
            assert bits(liml.kappa[r]) == bits(liml_kappa(view)), r
        assert regular > len(views) // 2

    def test_kappa_is_computed_once_per_stack(self, monkeypatch):
        stack, _ = built("univariate q=10")
        seen = []
        original = estimators._liml_blocks
        monkeypatch.setattr(estimators, "_liml_blocks",
                            lambda *args: seen.append(len(args[1])) or original(*args))
        fits = [estimate(stack, EstimatorSpec.parse(label)) for label in
                ("liml", "fuller:1", "fuller:4", "pulse")]
        assert seen == [len(stack)]
        assert PulseMessage.TSLS_REJECTED_FALLBACK in fits[-1].messages  # reads fuller:4's kappa

    def test_w_singular_items_fail_at_their_own_index(self):
        y, x, a = sample_stack(univariate_model(2, 0.9, 0.1), 60, [1, 2, 3, 4, 5])
        y[1] = 2.0 * x[1, :, 0] + a[1] @ np.array([0.3, 0.1])  # y in span(X, A): W has rank one
        x[3, :, 0], y[3] = a[3] @ np.array([1.0, -0.5]), a[3] @ np.array([0.2, 0.4])  # W is residue
        stack, views = GramStack.from_rows(y, x, a), views_of(y, x, a)
        for label in ("liml", "fuller:1"):
            fit = estimate(stack, EstimatorSpec.parse(label))
            assert sorted(fit.failed) == [1, 3], label
            for r, view in enumerate(views):
                if r in fit.failed:
                    with pytest.raises(SingularGram, match="W") as want:
                        estimate(view, EstimatorSpec.parse(label))
                    assert str(fit.failed[r]) == str(want.value)
                else:
                    assert outcome(fit, r) == single_outcome(view, EstimatorSpec.parse(label))

    def test_a_w_that_is_not_positive_definite_fails_alone(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 9, 3))
        w = np.transpose(m, (0, 2, 1)) @ m
        w1 = w + np.eye(3)
        w[2] = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # singular
        values, failed = estimators._min_generalized_eigenvalues(w1, w)
        assert list(failed) == [2] and isinstance(failed[2], SingularGram)
        with pytest.raises(SingularGram, match="W") as want:
            estimators.min_generalized_eigenvalue(w1[2], w[2])
        assert str(failed[2]) == str(want.value)
        for r in (0, 1, 3):
            assert bits(values[r]) == bits(estimators.min_generalized_eigenvalue(w1[r], w[r]))


class TestWrappedSolves:
    """Where the discovery finds no OpenBLAS of scipy's wheel, LIML's per-item loop runs
    through ``scipy.linalg.lapack``'s wrappers, with the bits and errors of the
    ``ctypes`` route it takes where the library is found."""

    @staticmethod
    def both_routes(monkeypatch, run):
        """``run()`` on the ``ctypes`` route, then with the discovery finding nothing."""
        if estimators._scipy_openblas() is None:
            pytest.skip("no OpenBLAS of scipy's wheel is loaded")
        direct = run()
        monkeypatch.setattr(estimators, "_scipy_openblas", lambda: None)
        return direct, run()

    @staticmethod
    def errors(failed) -> list[tuple[int, str, str]]:
        return [(r, type(exc).__name__, str(exc)) for r, exc in failed.items()]

    @pytest.mark.parametrize("k", [2, 3])
    def test_eigenvalues_and_refusals(self, k, monkeypatch):
        rng = np.random.default_rng(k)
        m = rng.normal(size=(6, 4 + k, k))
        # neither W nor W1 is exactly symmetric, so a buffer in the wrong order shows
        w = np.transpose(m, (0, 2, 1)) @ m + 1e-3 * rng.normal(size=(6, k, k))
        w1 = w + np.eye(k) + 1e-2 * rng.normal(size=(6, k, k))
        w[2] = np.ones((k, k))  # singular: potrf stops at its second pivot
        w[4] = -np.eye(k)  # negative definite
        (values, failed), (want, want_failed) = self.both_routes(
            monkeypatch, lambda: estimators._min_generalized_eigenvalues(w1, w)
        )
        assert sorted(failed) == [2, 4]
        assert bits(values) == bits(want)
        assert self.errors(failed) == self.errors(want_failed)

    def test_stacks_of_two_shapes_are_refused_before_any_call(self):
        blas = estimators._scipy_openblas()
        if blas is None:
            pytest.skip("no OpenBLAS of scipy's wheel is loaded")
        w = np.broadcast_to(np.eye(3), (4, 3, 3))
        for w1 in (w[:, :2], w[:3], w[0]):
            with pytest.raises(ValueError, match="stacks of one shape"):
                estimators._lapack_solves(blas, w1, w)
        with pytest.raises(ValueError, match="stacks of one shape"):
            estimators._lapack_solves(blas, w[:, :2], w[:, :2])

    @pytest.mark.parametrize("model", [univariate_model(2, 0.9, 0.1),
                                       mv_fixed_model(np.array([[1.5, -0.3], [0.2, -1.1]]),
                                                      0.8, 0.47, 0.47)],
                             ids=["k=2", "k=3"])
    def test_estimates_with_w_singular_items(self, model, monkeypatch):
        y, x, a = sample_stack(model, 60, [1, 2, 3, 4, 5])
        y[1] = x[1] @ np.full(x.shape[-1], 2.0) + a[1] @ np.array([0.3, 0.1])  # W is singular

        def run():
            stack = GramStack.from_rows(y, x, a)
            return [estimate(stack, EstimatorSpec.parse(label)) for label in ("liml", "fuller:1")]

        direct, wrapped = self.both_routes(monkeypatch, run)
        for fit, want in zip(direct, wrapped):
            assert list(fit.failed) == [1]
            assert bits(fit.kappa) == bits(want.kappa) and bits(fit.alpha) == bits(want.alpha)
            assert self.errors(fit.failed) == self.errors(want.failed)


class TestStackedLstsq:
    """LIML's projections are one stacked ``gelsd`` call (``estimators._lstsq``) with
    each item's ``np.linalg.lstsq(b, m, rcond=None)`` bits and error."""

    @staticmethod
    def assert_per_item_bits(basis: np.ndarray, rhs: np.ndarray) -> None:
        got = estimators._lstsq(basis, rhs)
        assert got.shape == (len(basis), basis.shape[-1], rhs.shape[-1])
        for r, (b, m) in enumerate(zip(basis, rhs)):
            assert bits(got[r]) == bits(np.linalg.lstsq(b, m, rcond=None)[0]), r

    @pytest.mark.parametrize("case", sorted(STACKS))
    def test_each_projection_keeps_every_items_bits(self, case):
        # the included exogenous case projects on one column and on A's three
        stack, _ = built(case)
        y, x, a = stack.rows
        part = stack.partition
        m0 = np.concatenate([y[..., None], x[..., list(part.included_endogenous)]], axis=-1)
        for basis in (a, a[..., list(part.included_exogenous)]):
            if basis.shape[-1]:
                self.assert_per_item_bits(basis, m0)

    @pytest.mark.parametrize("tilt", [1e-9, 1e-15, 0.0])
    def test_a_near_collinear_item_among_regular_neighbours(self, tilt):
        y, x, a = sample_stack(univariate_model(3, 0.9, 0.1), 60, [1, 2, 3, 4, 5])
        a[2, :, 2] = a[2, :, 0] + tilt * a[2, :, 2]
        assert np.linalg.matrix_rank(a[2]) == (3 if tilt > 1e-12 else 2)
        self.assert_per_item_bits(a, np.concatenate([y[..., None], x], axis=-1))

    def test_more_columns_than_rows(self):
        rng = np.random.default_rng(4)
        self.assert_per_item_bits(rng.normal(size=(4, 3, 5)), rng.normal(size=(4, 3, 2)))

    def test_an_items_gelsd_failure_raises_lstsqs_error(self):
        rng = np.random.default_rng(3)
        basis, rhs = rng.normal(size=(3, 20, 2)), rng.normal(size=(3, 20, 2))
        basis[1, 0, 0] = math.nan  # gelsd's SVD does not converge
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.lstsq(basis[1], rhs[1], rcond=None)
        with pytest.raises(np.linalg.LinAlgError) as got:
            estimators._lstsq(basis, rhs)
        assert str(got.value) == str(want.value)


class TestRowFreeChunkStack:
    """A chunk whose estimators read no rows is one stack of its slices' joined Gram
    products (``experiments._row_free_stack``), with each item's bits and errors."""

    @staticmethod
    def chunk_and_whole(monkeypatch) -> tuple[GramStack, GramStack]:
        """The row-free stack of a chunk of two cells, in slices of 3, 3 and 1 samples
        (the first joins both cells'), and ``from_rows`` of the chunk's whole sample:
        ``Z^T Z = 0`` at item 2 and ``A^T A`` singular at item 4."""
        model, n = univariate_model(2, 0.9, 0.1), 60
        seeds = list(range(7))
        y, x, a = sample_stack(model, n, seeds)
        x[2] = 0.0
        a[4, :, 1] = 2.0 * a[4, :, 0]
        drawn = {seed: (y[r], x[r], a[r]) for r, seed in enumerate(seeds)}

        def sampled(model, n, taken, iv=None):
            return tuple(np.stack(arrs) for arrs in zip(*(drawn[seed] for seed in taken)))

        monkeypatch.setattr(experiments, "sample_stack", sampled)
        monkeypatch.setattr(experiments, "STACK_ELEMENTS", 3 * n * (model.q + model.k))
        chunk = experiments._row_free_stack([model, model], n, [seeds[:2], seeds[2:]])
        return chunk, GramStack.from_rows(y, x, a)

    def test_each_item_keeps_its_values_and_errors_without_rows(self, monkeypatch):
        chunk, whole = self.chunk_and_whole(monkeypatch)
        assert chunk.rows is None and len(chunk) == 7
        for name in PRODUCTS + ("yty", "rcond_ztz"):
            assert bits(getattr(chunk, name)) == bits(getattr(whole, name)), name
        for got, want in zip(chunk.pieces[:2], whole.pieces[:2]):
            assert bits(got) == bits(want)
        for name in PATH_ARRAYS + ("yty", "syy"):
            assert bits(getattr(chunk.paths[0], name)) == bits(getattr(whole.paths[0], name))
        assert list(chunk.pieces[2]) == [4] and list(chunk.paths[1]) == [2, 4]
        for got, want in ((chunk.pieces[2], whole.pieces[2]), (chunk.paths[1], whole.paths[1])):
            assert {r: str(exc) for r, exc in got.items()} == {
                r: str(exc) for r, exc in want.items()}
        assert "Z^T Z" in str(chunk.paths[1][2]) and "A^T A" in str(chunk.paths[1][4])

    def test_the_estimators_that_read_no_rows_give_each_items_outcome(self, monkeypatch):
        chunk, whole = self.chunk_and_whole(monkeypatch)
        for label in ("ols", "tsls", "pulse", "modified-tsls"):
            spec = EstimatorSpec.parse(label)
            got, want = estimate(chunk, spec), estimate(whole, spec)
            assert [outcome(got, r) for r in range(7)] == [outcome(want, r) for r in range(7)]
        with pytest.raises(TypeError, match="rows"):
            estimate(chunk, EstimatorSpec("liml"))

    def test_a_chunk_gives_the_outputs_of_its_stacks_with_rows(self, monkeypatch):
        # slices of 2, 2, 2 and 1 samples, the second across the two cells: one row-free
        # stack, against four stacks that keep their rows
        model, n = e3_model(), 100
        for budget in ("STACK_ELEMENTS", "ROW_STACK_ELEMENTS"):
            monkeypatch.setattr(experiments, budget, 2 * n * (model.q + model.k))
        specs = tuple(EstimatorSpec.parse(label) for label in ("pulse", "modified-tsls", "ols"))
        chunk = experiments._Chunk(((0, e3_model, range(3)), (1, e3_model, range(4))), n,
                                   specs, 7, 0.05)
        row_free = experiments._parts(chunk, experiments._run_chunk(chunk))
        monkeypatch.setattr(experiments, "_reads_rows", lambda *args: True)
        with_rows = experiments._parts(chunk, experiments._run_chunk(chunk))
        assert [len(part.alpha) for part in row_free] == [3, 4]
        for got, want in zip(row_free, with_rows):
            assert got.errors.tolist() == want.errors.tolist()
            for name in ("alpha", "min_eig", "g"):
                assert bits(getattr(got, name)) == bits(getattr(want, name)), name


class TestOneViewStack:
    def test_every_single_view_entry_point_shares_one_stack(self, monkeypatch):
        counts = {(data, "_iv_pieces"): 0, (data, "_path_arrays"): 0,
                  (estimators, "_liml_blocks"): 0}

        def counted(key):
            original = getattr(*key)

            def call(*args):
                counts[key] += 1
                return original(*args)

            return call

        for key in counts:
            monkeypatch.setattr(*key, counted(key))
        view = DesignView(sem_sample(univariate_model(10, 0.9, 0.01), 150, 4))
        # first, so that its fallback's LIML kappa is the one the view's stack keeps
        assert pulse_estimate(view).message is PulseMessage.TSLS_REJECTED_FALLBACK
        outcomes = [single_outcome(view, EstimatorSpec.parse(label)) for label in SPECS]
        assert outcomes[SPECS.index("modified-tsls")] == "InfeasibleConstraint"
        ols = estimate(view, EstimatorSpec("ols")).alpha
        inference.test_statistic(view, ols)
        weak_instrument_stat(view)
        primal_solve(view, 0.5 * (view.min_iv_loss() + view.iv_loss(ols)))
        assert list(counts.values()) == [1, 1, 1]
