"""Shared instance generators for the test suite."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import settings

from pulse_iv.data import Dataset, DesignView, IdentificationClass, ModelPartition
from pulse_iv.estimators import EstimatorSpec, estimate
from pulse_iv.pulse import PulseConfig, primal_solve
from pulse_iv.sem import SemModel, population_moments

#: CI runs the tier-1 tests with ``--hypothesis-profile=ci``: properties that do
#: not pin ``max_examples`` get ten times the default, on a fixed example sequence.
settings.register_profile("ci", max_examples=1000, derandomize=True)


def kclass_estimand(model: SemModel, partition: ModelPartition, kappa: float) -> np.ndarray:
    """The population K-class point at ``kappa``: ``estimate`` on the exact moments."""
    return estimate(population_moments(model, None, partition), EstimatorSpec("kclass", kappa)).alpha


def make_instance(
    seed: int,
    n: int = 80,
    d1: int = 1,
    q: int = 2,
    q1: int = 0,
    confounding: float = 0.6,
    instrument_strength: float = 1.0,
) -> DesignView:
    """Random confounded IV instance with d1 endogenous and q1 included exogenous.

    The data are generated from a linear model with one hidden confounder so
    that OLS is biased and the instruments are valid; coefficients are drawn
    from the seeded generator, so instances are reproducible.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, q))
    h = rng.normal(size=n)
    w = rng.uniform(0.5, 1.5, size=(q, d1)) * instrument_strength
    x = a @ w + confounding * h[:, None] + rng.normal(size=(n, d1))
    gamma = rng.uniform(-1.0, 1.0, size=d1)
    beta = rng.uniform(-1.0, 1.0, size=q1)
    a_inc = a[:, :q1] if q1 else np.zeros((n, 0))
    y = x @ gamma + (a_inc @ beta if q1 else 0.0) + confounding * h + rng.normal(size=n)
    ds = Dataset(y=y, x=x, a=a)
    partition = ModelPartition(
        included_endogenous=tuple(range(d1)), included_exogenous=tuple(range(q1))
    )
    return DesignView(ds, partition)


def weak_confounding_view(seed: int = 1) -> DesignView:
    """Instance where the OLS solution passes the test."""
    return make_instance(seed, n=50, d1=1, q=1, confounding=0.05, instrument_strength=0.25)


def invalid_instrument_view(seed: int = 0, n: int = 400) -> DesignView:
    """Over-identified instance whose instruments enter the target equation, so
    TSLS is rejected and PULSE falls back."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2))
    x = a @ np.array([1.0, 0.5]) + rng.normal(size=n)
    y = 0.5 * x + a @ np.array([0.9, -0.7]) + rng.normal(size=n)
    return DesignView(Dataset(y=y, x=x[:, None], a=a))


def raw_matrices(view: DesignView) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, Z, A) as plain arrays for oracle computations, ``Z = [X_* A_*]`` sliced
    from the view's dataset by its partition."""
    ds, part = view.dataset, view.partition
    z = np.hstack([ds.x[:, list(part.included_endogenous)], ds.a[:, list(part.included_exogenous)]])
    return np.array(ds.y), z, np.array(ds.a)


def loss_by_residuals(y: np.ndarray, z: np.ndarray, a: np.ndarray, alpha: np.ndarray):
    """Independent (QR-projection) computation of the OLS and IV losses."""
    n = y.shape[0]
    r = y - z @ alpha
    q_basis, _ = np.linalg.qr(a)
    proj = q_basis @ (q_basis.T @ r)
    return float(r @ r) / n, float(proj @ proj) / n


def penalized_loss_minimizer(view: DesignView, kappa: float) -> np.ndarray:
    """Numerical minimizer of ``(1-kappa) l_OLS + kappa l_IV``, independent of
    the closed form: dense grid plus bounded scalar refinement in one
    dimension, restarted Nelder-Mead otherwise."""
    import scipy.optimize

    y, z, a = raw_matrices(view)

    def loss(alpha):
        lo, li = loss_by_residuals(y, z, a, np.atleast_1d(alpha))
        return (1.0 - kappa) * lo + kappa * li

    if view.k == 1:
        grid = np.linspace(-10.0, 10.0, 2001)
        best = grid[np.argmin([loss(np.array([g])) for g in grid])]
        res = scipy.optimize.minimize_scalar(
            lambda g: loss(np.array([g])),
            bounds=(best - 0.2, best + 0.2),
            method="bounded",
            options={"xatol": 1e-12},
        )
        return np.array([res.x])
    start = np.zeros(view.k)
    for _ in range(2):  # one restart tightens the simplex around the optimum
        res = scipy.optimize.minimize(
            loss,
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-15, "maxiter": 40000, "maxfev": 40000},
        )
        start = res.x
    return start


def oracle_lambda_bisection(view: DesignView, test_cfg, precision: float) -> float:
    """Reference bisection for the smallest accepted penalty, written plainly."""
    scale = test_cfg.scale(view.n, view.q)
    threshold = test_cfg.threshold(view.q)

    def stat(lam: float) -> float:
        alpha = view.kclass_solve(lam / (1.0 + lam))
        return scale * view.iv_loss(alpha) / view.ols_loss(alpha)

    lo, hi = 0.0, 2.0
    while stat(hi) > threshold:
        lo, hi = hi, hi * hi
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if stat(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return hi


def t_star(view: DesignView, cfg: PulseConfig | None = None) -> float:
    """Reference for the largest constraint bound ``t`` whose primal solution
    ``primal_solve(view, t)`` still passes the test, written plainly.

    The statistic is weakly increasing in ``t`` along the primal path, so ``t``
    is bisected over ``(inf l_IV, l_IV(OLS)]`` to adjacent doubles in this
    function's own loop; it shares no search code with the dual search it
    checks.  Returns ``l_IV(OLS)`` when OLS is accepted, and ``-inf`` when the
    setup is over-identified and TSLS is on or outside the acceptance region.
    """
    test_cfg = cfg or PulseConfig()
    scale = test_cfg.scale(view.n, view.q)
    threshold = test_cfg.threshold(view.q)

    def stat(alpha: np.ndarray) -> float:
        return scale * view.iv_loss(alpha) / view.ols_loss(alpha)

    ols = view.kclass_solve(0.0)
    if view.identification is IdentificationClass.OVER and stat(view.kclass_solve(1.0)) >= threshold:
        return -math.inf
    iv_at_ols = view.iv_loss(ols)
    if stat(ols) <= threshold:
        return iv_at_ols
    inf_iv = view.min_iv_loss()
    lo, hi = inf_iv, iv_at_ols  # the accepted side (an open end) and the rejected one
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if stat(primal_solve(view, mid)) <= threshold:
            lo = mid
        else:
            hi = mid
    # no bound accepted: lo still sits on inf l_IV, outside the open domain
    return lo if lo > inf_iv else 0.5 * (inf_iv + hi)
