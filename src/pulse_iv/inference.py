"""Uncorrelatedness test, chi-squared quantiles, and weak-instrument diagnostics.

The test statistic is ``T = c(n) * l_IV(alpha) / l_OLS(alpha)`` compared with
the ``1 - p_min`` quantile of a chi-squared with ``q`` degrees of freedom.
Two scaling schemes are supported: plain (``c(n) = n``) and the one that makes
the test equivalent to the asymptotic Anderson-Rubin test
(``c(n) = n - q + Q``).  :class:`TestConfig` holds the level and the scaling;
:class:`StackTest` binds them to a stack of designs and is the one place the
statistic is computed, for :func:`test_statistic` and for the PULSE search alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.special

from .data import _ONE, RCOND_GRAM, Failed, GramStack, GramView, _rows, _t, only, passed
from .exceptions import DegenerateResidual, PulseIVError, SingularGram, ZeroResidual

PLAIN = "plain"
ANDERSON_RUBIN = "anderson-rubin"
_SCALINGS = (PLAIN, ANDERSON_RUBIN)

#: Conventional non-weak-instrument rule of thumb on the first-stage F.
WEAK_INSTRUMENT_RULE = 10.0

#: ``l_OLS`` at or below this multiple of ``y'y / n`` is numerically zero, and
#: :meth:`StackTest.statistic` fails with :class:`ZeroResidual` there.
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

    The one owner of both settings: :class:`StackTest` reads them, and
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


class StackTest:
    """The uncorrelatedness test bound to a stack of designs: its ``scale`` and
    ``threshold`` are fixed once, and every verdict (:meth:`accepts`,
    :func:`test_statistic`, the PULSE search) compares :meth:`statistic` with them."""

    def __init__(self, stack: GramStack, cfg: TestConfig | None = None):
        cfg = cfg or TestConfig()
        self.stack = stack
        self.scale, self.threshold = cfg.scale(stack.n, stack.q), cfg.threshold(stack.q)
        self._zero = ZERO_RESIDUAL * stack.yty / stack.n

    def statistic(self, items: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, Failed]:
        """``scale * l_IV(alpha) / l_OLS(alpha)`` of each item at its row of ``alpha``;
        :class:`ZeroResidual` where ``l_OLS`` is numerically zero."""
        stack = self.stack
        denom = stack.ols_loss(items, alpha)
        zero = denom <= _rows(self._zero, items)
        iv, failed = stack.iv_loss(items, alpha)
        if not zero.any():
            return self.scale * iv / denom, failed
        failed = {
            **failed,
            **{r: ZeroResidual("l_OLS(alpha) is numerically zero; the test ratio is undefined")
               for r in items[zero].tolist()},
        }
        return np.divide(self.scale * iv, denom, out=np.zeros_like(denom), where=~zero), failed

    def accepts(self, items: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, Failed]:
        stat, failed = self.statistic(items, alpha)
        return stat <= self.threshold, failed


def test_statistic(view: GramView, alpha: np.ndarray, cfg: TestConfig | None = None) -> TestResult:
    """Test the hypothesis that the exogenous variables are uncorrelated with
    the residual ``y - Z alpha``: :meth:`StackTest.statistic` of this view alone.

    Raises
    ------
    ZeroResidual
        If the OLS loss at ``alpha`` is numerically zero, making the ratio
        undefined.
    """
    test = StackTest(view.stack, cfg)
    stat = float(only(*test.statistic(_ONE, view._check_alpha(alpha)[None])))
    return TestResult(
        statistic=stat, threshold=float(test.threshold), accepted=bool(stat <= test.threshold)
    )


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


def weak_instrument_stat(
    view: GramView | GramStack,
) -> WeakInstrumentReport | list[WeakInstrumentReport | PulseIVError]:
    """Multivariate first-stage F-statistic ``G_n`` for the included endogenous block.

    Stock and Yogo's (2005) ``G_T``: ``G_n = Sigma^{-1/2} X^T (P_A - P_{A_*}) X
    Sigma^{-1/2} / q2`` with ``Sigma = (n - q)^{-1} X^T P_A^perp X``, so the
    included exogenous regressors ``A_*`` (an intercept among them) are partialled
    out and only the ``q2`` excluded instruments count as strength.  Instruments
    pass the rule of thumb when the smallest eigenvalue exceeds 10.  With
    ``q2 < d1``, ``G_n`` has rank at most ``q2``, so its smallest eigenvalue is
    ``0.0`` by construction and is reported as such, not as the rounding residue
    an eigensolver returns; with ``q2 = 0``, ``G_n`` is the zero matrix.

    On a :class:`~pulse_iv.data.GramStack` it runs once over the stack, one numpy
    call per step with each item's bits, and returns each item's report, or the
    error the item raised; a view is the one-item case.

    Raises
    ------
    SingularGram
        Named ``X^T P_A^perp X``, if the smallest eigenvalue of ``Sigma`` is
        at most ``RCOND_GRAM`` times the trace of ``X^T X / (n - q)``: below
        that, ``Sigma`` is rounding residue of ``X`` lying in ``span(A)``.
    """
    if isinstance(view, GramStack):
        return _weak_instrument_reports(view)
    report = _weak_instrument_reports(view.stack)[0]
    if isinstance(report, PulseIVError):
        raise report
    return report


def _weak_instrument_reports(stack: GramStack) -> list[WeakInstrumentReport | PulseIVError]:
    """Each item's report, or its error, from :func:`_weak_instrument_arrays`."""
    g, min_eig, failed = _weak_instrument_arrays(stack)
    return [
        failed[r] if r in failed else WeakInstrumentReport(
            g_matrix=g[r], min_eigenvalue=low, rule_of_thumb_pass=bool(low > WEAK_INSTRUMENT_RULE)
        )
        for r, low in enumerate(min_eig.tolist())
    ]


def _weak_instrument_arrays(stack: GramStack) -> tuple[np.ndarray, np.ndarray, Failed]:
    """Each item's ``G_n`` (``(R, d1, d1)``) and its smallest eigenvalue (``(R,)``),
    NaN where the item failed, and the error of each item that failed
    (:func:`weak_instrument_stat`)."""
    n, q, d1, q2 = stack.n, stack.q, stack.d1, stack.q2
    if n <= q:
        raise ValueError(f"G_n requires n > q; got n={n}, q={q}")
    s, _, failed = stack.pieces
    failed = dict(failed)
    g_all, min_eig_all = np.full((len(stack), d1, d1), np.nan), np.full(len(stack), np.nan)
    items = stack.items[passed(stack.items, failed)]
    s_x = s[items][..., :d1]
    xtx = stack.ztz[items][..., :d1, :d1]
    concentration = _t(s_x) @ s_x  # X^T P_A X
    w, v = np.linalg.eigh((xtx - concentration) / (n - q))
    w_min, scale = w[:, 0], np.trace(xtx, axis1=-2, axis2=-1) / (n - q)
    regular = w_min > RCOND_GRAM * scale
    singular = zip(items[~regular].tolist(), w_min[~regular].tolist(), scale[~regular].tolist())
    for r, low, top in singular:
        failed[r] = SingularGram("X^T P_A^perp X", low / top if top > 0.0 else 0.0)
    items, concentration, w, v = items[regular], concentration[regular], w[regular], v[regular]
    if q2 == 0:  # P_A = P_{A_*}: no excluded instrument, so no strength to measure
        g_all[items], min_eig_all[items] = 0.0, 0.0
        return g_all, min_eig_all, failed
    isqrt = (v * (1.0 / np.sqrt(w))[:, None, :]) @ _t(v)
    if stack.q1:
        # A_*^T A_* is a principal block of A^T A, which the stack's pieces found regular
        inc = list(stack.partition.included_exogenous)
        astar_x = stack.atz[items][:, inc, :d1]
        concentration = concentration - _t(astar_x) @ np.linalg.solve(
            stack.ata[items][:, inc][:, :, inc], astar_x
        )
    g = isqrt @ concentration @ isqrt / q2
    g_all[items] = g = 0.5 * (g + _t(g))
    min_eig_all[items] = 0.0 if q2 < d1 else np.linalg.eigvalsh(g)[:, 0]
    return g_all, min_eig_all, failed
