"""Uncorrelatedness test, chi-squared quantiles, and weak-instrument diagnostics.

The test statistic is ``T = c(n) * l_IV(alpha) / l_OLS(alpha)`` compared with
the ``1 - p_min`` quantile of a chi-squared with ``q`` degrees of freedom.
Two scaling schemes are supported: plain (``c(n) = n``) and the one that makes
the test equivalent to the asymptotic Anderson-Rubin test
(``c(n) = n - q + Q``).  :class:`TestConfig` holds the level and the scaling;
:class:`ViewTest` binds them to one view and is the one place the statistic is
computed, for :func:`test_statistic` and for the PULSE search alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.special

from .data import GramView, psd_inverse_sqrt, RCOND_GRAM
from .exceptions import DegenerateResidual, SingularGram, ZeroResidual

PLAIN = "plain"
ANDERSON_RUBIN = "anderson-rubin"
_SCALINGS = (PLAIN, ANDERSON_RUBIN)

#: Conventional non-weak-instrument rule of thumb on the first-stage F.
WEAK_INSTRUMENT_RULE = 10.0

#: ``l_OLS`` at or below this multiple of ``y'y / n`` is numerically zero, and
#: :meth:`ViewTest.statistic` raises :class:`ZeroResidual` there.
ZERO_RESIDUAL = 1e-14


@functools.lru_cache(maxsize=256)
def chi2_quantile(q_dof: int, prob: float) -> float:
    """Quantile of the central chi-squared distribution.

    Computed by inverting the regularized lower incomplete gamma function, so
    ``cdf(chi2_quantile(q, p)) == p`` to high accuracy.  Memoised per
    ``(q_dof, prob)``; invalid arguments raise on every call.

    Raises
    ------
    ValueError
        If ``prob`` is outside ``(0, 1)`` or ``q_dof`` is not positive.
    """
    if q_dof < 1:
        raise ValueError(f"degrees of freedom must be positive, got {q_dof}")
    if not 0.0 < prob < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {prob}")
    return float(2.0 * scipy.special.gammaincinv(q_dof / 2.0, prob))


@dataclass(frozen=True)
class TestConfig:
    """Level and scaling scheme of the uncorrelatedness test.

    The one owner of both settings: :class:`ViewTest` reads them, and
    :class:`pulse_iv.pulse.PulseConfig` extends this class, so a PULSE config is
    the test it searches with.  The degrees of freedom ``q`` are the data's.
    """

    p_min: float = 0.05
    scaling: str = ANDERSON_RUBIN

    def __post_init__(self) -> None:
        if not 0.0 < self.p_min < 1.0:
            raise ValueError(f"p_min must lie in (0, 1), got {self.p_min}")
        if self.scaling not in _SCALINGS:
            raise ValueError(f"scaling must be one of {_SCALINGS}, got {self.scaling!r}")

    def scale(self, n: int, q: int) -> float:
        """The factor ``c(n)``: ``n`` for plain, ``n - q + Q`` for Anderson-Rubin."""
        if self.scaling == PLAIN:
            return float(n)
        if n <= q:
            raise ValueError(f"Anderson-Rubin scaling requires n > q; got n={n}, q={q}")
        return float(n - q + self.threshold(q))

    def threshold(self, q: int) -> float:
        return chi2_quantile(q, 1.0 - self.p_min)


@dataclass
class TestResult:
    """Statistic, threshold and verdict; ``accepted`` iff statistic <= threshold.

    No p-value is computed: every caller reads only the verdict against the
    threshold, which :func:`chi2_quantile` gives once per level.
    """

    statistic: float
    threshold: float
    accepted: bool


@dataclass
class WeakInstrumentReport:
    """First-stage concentration diagnostic ``G_n`` and the >10 rule of thumb."""

    g_matrix: np.ndarray
    min_eigenvalue: float
    rule_of_thumb_pass: bool


class ViewTest:
    """The uncorrelatedness test bound to one view: its ``scale`` and
    ``threshold`` are fixed once, and every verdict (:meth:`accepts`,
    :meth:`result`, the PULSE search) compares :meth:`statistic` with them."""

    def __init__(self, view: GramView, cfg: TestConfig | None = None):
        cfg = cfg or TestConfig()
        self.view = view
        self.scale, self.threshold = cfg.scale(view.n, view.q), cfg.threshold(view.q)

    def statistic(self, alpha: np.ndarray) -> float:
        """``scale * l_IV(alpha) / l_OLS(alpha)``; :class:`ZeroResidual` if
        ``l_OLS`` is numerically zero."""
        view = self.view
        denom = view.ols_loss(alpha)
        if denom <= ZERO_RESIDUAL * view.yty / view.n:
            raise ZeroResidual("l_OLS(alpha) is numerically zero; the test ratio is undefined")
        return float(self.scale * view.iv_loss(alpha) / denom)

    def accepts(self, alpha: np.ndarray) -> bool:
        return self.statistic(alpha) <= self.threshold

    def result(self, alpha: np.ndarray) -> TestResult:
        stat = self.statistic(alpha)
        return TestResult(
            statistic=stat,
            threshold=float(self.threshold),
            accepted=bool(stat <= self.threshold),
        )


def test_statistic(view: GramView, alpha: np.ndarray, cfg: TestConfig | None = None) -> TestResult:
    """Test the hypothesis that the exogenous variables are uncorrelated with
    the residual ``y - Z alpha``.

    Raises
    ------
    ZeroResidual
        If the OLS loss at ``alpha`` is numerically zero, making the ratio
        undefined.
    """
    return ViewTest(view, cfg).result(alpha)


def ar_statistic(view: GramView, alpha: np.ndarray) -> float:
    """Anderson-Rubin F-form statistic ``(n-q)/q * l_IV / (l_OLS - l_IV)``.

    Accepting ``ar_statistic(alpha) <= chi2_quantile(q, 1-p)/q`` is equivalent
    to accepting the scaled test with ``c(n) = n - q + chi2_quantile(q, 1-p)``.

    Raises
    ------
    DegenerateResidual
        If ``l_OLS - l_IV`` is not strictly positive, i.e. the residual lies
        entirely in the span of the exogenous variables.
    """
    lo = view.ols_loss(alpha)
    li = view.iv_loss(alpha)
    gap = lo - li
    if gap <= 1e-14 * max(lo, 1e-300):
        raise DegenerateResidual("residual lies in span(A); the F-form denominator vanishes")
    return float((view.n - view.q) / view.q * li / gap)


def weak_instrument_stat(view: GramView) -> WeakInstrumentReport:
    """Multivariate first-stage F-statistic ``G_n`` for the included endogenous block.

    ``G_n = Sigma^{-1/2} X^T P_A X Sigma^{-1/2} / q`` with
    ``Sigma = (n - q)^{-1} X^T P_A^perp X``.  Instruments pass the rule of
    thumb when the smallest eigenvalue exceeds 10.  With ``q < d1``, ``G_n`` has
    rank at most ``q``, so its smallest eigenvalue is ``0.0`` by construction and
    is reported as such, not as the rounding residue an eigensolver returns.

    Raises
    ------
    SingularGram
        Named ``X^T P_A^perp X``, if the smallest eigenvalue of ``Sigma`` is
        at most ``RCOND_GRAM`` times the trace of ``X^T X / (n - q)``: below
        that, ``Sigma`` is rounding residue of ``X`` lying in ``span(A)``.
    """
    n, q, d1 = view.n, view.q, view.d1
    if n <= q:
        raise ValueError(f"G_n requires n > q; got n={n}, q={q}")
    s, _ = view.iv_pieces
    s_x = s[:, :d1]
    xtx = view.ztz[:d1, :d1]
    x_pa_x = s_x.T @ s_x
    sigma = (xtx - x_pa_x) / (n - q)
    w_min, scale = float(np.linalg.eigvalsh(sigma)[0]), float(np.trace(xtx)) / (n - q)
    if not w_min > RCOND_GRAM * scale:
        raise SingularGram("X^T P_A^perp X", w_min / scale if scale > 0.0 else 0.0)
    isqrt = psd_inverse_sqrt("X^T P_A^perp X", sigma)
    g = isqrt @ x_pa_x @ isqrt / q
    g = 0.5 * (g + g.T)
    min_eig = 0.0 if q < d1 else float(np.linalg.eigvalsh(g)[0])
    return WeakInstrumentReport(
        g_matrix=g,
        min_eigenvalue=min_eig,
        rule_of_thumb_pass=bool(min_eig > WEAK_INSTRUMENT_RULE),
    )
