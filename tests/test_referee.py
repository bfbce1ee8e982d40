"""LIML's ``kappa`` and ``estimate``'s K-class kinds against the exact referee.

Every bound is a dimension constant times ``eps`` times the condition the
referee reports for the system (see ``tests/referee.py``), so a miss means the
library lost more accuracy than the problem's conditioning allows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

mpmath = pytest.importorskip("mpmath")

import referee  # noqa: E402  (needs mpmath)

from pulse_iv.data import Dataset, DesignView, ModelPartition  # noqa: E402
from pulse_iv.estimators import EstimatorSpec, estimate, liml_kappa  # noqa: E402
from pulse_iv.exceptions import SingularGram  # noqa: E402

EPS = float(np.finfo(float).eps)


@st.composite
def views(draw) -> DesignView:
    """A confounded, identified IV design (``q2 >= d1``, ``q1`` in 0..2) with
    ``n`` from barely above ``q + d1`` to 80, instruments from very weak to
    strong, nearly collinear instruments, columns on scales 1e-2..1e2 and a
    nearly exact fit."""
    d1 = draw(st.integers(1, 2))
    q1 = draw(st.integers(0, 2))
    q = q1 + d1 + draw(st.integers(0, 3))
    n = draw(st.integers(q + d1 + 2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(n, q))
    if q > 1:
        a[:, -1] = a[:, 0] + 10 ** draw(st.floats(-4, 0)) * rng.normal(size=n)
    a *= 10 ** rng.uniform(-2, 2, size=q)
    h = rng.normal(size=n)
    strength = 10 ** draw(st.floats(-4, 1))
    x = a @ (strength * rng.normal(size=(q, d1)) / np.linalg.norm(a, axis=0)[:, None] * np.sqrt(n))
    x += h[:, None] + rng.normal(size=(n, d1))
    y = x @ rng.normal(size=d1) + a[:, :q1] @ rng.normal(size=q1) + h
    y += 10 ** draw(st.floats(-4, 0)) * rng.normal(size=n)
    part = ModelPartition(tuple(range(d1)), tuple(range(q1)))
    return DesignView(Dataset(y=y, x=x, a=a), part)


def _gap(alpha: np.ndarray, exact) -> float:
    return float(mpmath.norm(mpmath.matrix(alpha.tolist()) - exact))


class TestReferee:
    def test_just_identified_liml_kappa_is_one(self):
        # with q2 = d1 the LIML pencil's smallest eigenvalue is exactly 1
        rng = np.random.default_rng(3)
        a = rng.normal(size=(40, 2))
        x = a[:, :1] + rng.normal(size=(40, 1))
        y = x[:, 0] + a[:, 1] + rng.normal(size=40)
        view = DesignView(Dataset(y=y, x=x, a=a), ModelPartition((0,), (1,)))
        rho, _ = referee.liml_kappa(referee.exact_grams(view))
        assert abs(rho - 1) < mpmath.mpf(10) ** (5 - referee.DPS)

    def test_kappa_zero_solves_the_normal_equations(self):
        # OLS is sum(x y) / sum(x x) = 17 / 14
        x, a = [[1.0], [2.0], [3.0]], [[1.0], [0.0], [1.0]]
        view = DesignView(Dataset(y=[1.0, 2.0, 4.0], x=x, a=a))
        alpha, _ = referee.kclass(referee.grams_of(view), 0.0)
        with mpmath.workdps(referee.DPS):
            assert abs(alpha[0] - mpmath.mpf(17) / 14) < mpmath.mpf(10) ** (5 - referee.DPS)


class TestAgainstReferee:
    @settings(max_examples=40, deadline=None)
    @given(views())
    def test_liml_kappa(self, view):
        try:
            kappa = liml_kappa(view)
        except SingularGram:
            assume(False)
        rho, cond = referee.liml_kappa(referee.exact_grams(view))
        # the residual projections act on n rows of q columns
        assert abs(kappa - rho) <= 2 * (view.n + view.q) * EPS * cond * rho

    def test_liml_kappa_with_nearly_singular_instruments(self):
        # rcond(A'A) = 3e-12, just above RCOND_GRAM: a route through the Gram
        # products pays cond(A'A) here where the row projections pay its square
        # root, and an eigenbasis LIML of the path was seen to miss this bound
        n = 40
        rng = np.random.default_rng(1)
        a = rng.normal(size=(n, 4))
        a[:, 3] = a[:, 0] + 1e-3 * rng.normal(size=n)
        a *= [0.05, 1.0, 20.0, 0.05]
        h = rng.normal(size=n)
        x = 0.3 * (a / np.linalg.norm(a, axis=0)) @ rng.normal(size=(4, 1)) * np.sqrt(n)
        x += h[:, None] + rng.normal(size=(n, 1))
        y = x[:, 0] + 50.0 * a[:, 0] + h + 0.1 * rng.normal(size=n)
        view = DesignView(Dataset(y=y, x=x, a=a), ModelPartition((0,), (0,)))
        assert 1e-12 < view.rcond_ata < 1e-11
        rho, cond = referee.liml_kappa(referee.exact_grams(view))
        assert abs(liml_kappa(view) - rho) <= 2 * (view.n + view.q) * EPS * cond * rho

    @settings(max_examples=40, deadline=None)
    @given(views(), st.sampled_from(["ols", "kclass:0.5", "tsls", "liml", "fuller", "fuller:1"]))
    def test_kclass_kinds(self, view, label):
        try:
            res = estimate(view, EstimatorSpec.parse(label))
        except SingularGram:
            assume(False)
        exact, cond = referee.kclass(referee.grams_of(view), res.kappa_used)
        # a (k + q)-sized inverse square root and solve
        assert _gap(res.alpha, exact) <= 2 * (view.k + view.q) * EPS * cond
        if label in ("ols", "kclass:0.5", "tsls"):
            assert res.kappa_used == {"ols": 0.0, "kclass:0.5": 0.5, "tsls": 1.0}[label]
        else:
            rho, liml_cond = referee.liml_kappa(referee.exact_grams(view))
            shift = EstimatorSpec.parse(label).value / (view.n - view.q) if label != "liml" else 0
            want = rho - shift
            bound = 2 * (view.n + view.q) * EPS * liml_cond * rho + 2 * EPS * abs(want)
            assert abs(res.kappa_used - want) <= bound
