"""Stacked sampling and view building against the per-repetition path, bit for bit.

``sample_stack`` and ``DesignView.stack`` run each step once over a stack of
repetitions.  Every product and cache of a stacked view must carry the bits of
``DesignView(sem_sample(model, n, seed))``: the Monte Carlo outputs are compared
byte for byte across versions, so a last-bit difference is a failure here.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.special

from pulse_iv import experiments
from pulse_iv.data import Dataset, DesignView, ModelPartition
from pulse_iv.exceptions import DataError, SingularGram
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
    assert bits(stacked.path._terms) == bits(single.path._terms)


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
        views = list(experiments._views(model, n, seeds))
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
        assert len(list(experiments._views(model, n, [1, 2]))) == 2
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
