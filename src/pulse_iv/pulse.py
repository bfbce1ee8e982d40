"""The PULSE estimator: one bracket-plus-bisection on the K-class path, fallback
wrapper, and the primal (constrained) definition.

PULSE minimizes the OLS loss over the acceptance region of the
uncorrelatedness test.  Along the K-class path (:class:`~pulse_iv.data.KClassPath`)
the test statistic is monotone in the penalty, so the smallest accepted
penalty ``lambda*`` is found by one bracket-plus-bisection; the estimate is the
path point at ``lambda*``, which stays exact where ``kappa = lambda / (1 + lambda)``
rounds to one.  :func:`primal_solve` states the paper's constrained
formulation, ``argmin l_OLS`` subject to ``l_IV <= t``, on the same path.

The search (:func:`_search`) gives the bits of the exact search, whose every step
asks ``ViewTest.accepts(path.alpha(lam))``, while running that predicate at few
steps:

- *The filter.*  A step is decided by the sign of
  ``gap = scale n l_IV - threshold n l_OLS`` (accepted iff ``gap <= 0``), with both
  losses from :meth:`~pulse_iv.data.KClassPath.losses` in ``O(k)``.  The gap only
  decides; :meth:`~pulse_iv.inference.ViewTest.statistic` stays the one reported
  statistic.
- *The band.*  The exact predicate decides instead where
  ``|gap| <= BAND (scale s_y's_y + threshold y'y)``, where the two forms could
  round to different signs, and where ``n l_OLS`` is within four orders of the
  :data:`~pulse_iv.inference.ZERO_RESIDUAL` guard, so that a step at which the
  exact predicate raises still raises.
- *The endpoint check.*  The exact predicate must accept the final bracket's
  accepted end and reject its rejected end (0 is already rejected exactly).
  Every penalty the filtered run accepted lies at or above the accepted end, and
  every one it rejected at or below the rejected end: bisection moves the ends
  inwards only, and a power of two the bracket phase rejected is a midpoint of
  ``[0, 2^(2^m)]``, so bisection either lies above it or revisits it.  Where the
  exact predicate is monotone, the check therefore proves that it agrees with
  every filtered decision, so the filtered run took the exact run's steps and
  ends on its bits; the accepted end's point is reused as the estimate.  A
  failed check, or a filtered run that raises, runs the exact search.

PULSE is one more K-class kind: ``estimate(view, EstimatorSpec("pulse"), cfg)``
runs :func:`pulse_estimate`, whose :class:`PulseResult` is an
:class:`~pulse_iv.estimators.EstimateResult` reporting ``lambda*`` as
``lambda_used``.  :class:`PulseConfig` is a
:class:`~pulse_iv.inference.TestConfig`, so the statistic at the estimate is
``test_statistic(view, result.alpha, cfg)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

import numpy as np

from .data import GramView, IdentificationClass
from .estimators import EstimateResult, EstimatorSpec, estimate
from .exceptions import NonMonotoneDetected, OutOfDomain, ZeroResidual
from .inference import ZERO_RESIDUAL, TestConfig, ViewTest

_FALLBACK_KINDS = ("tsls", "liml", "fuller")

#: Half-width of the filter's band, relative to ``scale s_y's_y + threshold y'y``.
#: The two forms of the gap differ only by rounding: each sums terms of about the
#: normaliser's size (more where ``||Z alpha||^2`` exceeds ``y'y``) to a few ulps,
#: and the exact point solves a ``k x k`` system to its condition number times an
#: ulp.  Over 600 sampled univariate, e3 and mv-fixed views (n from 20 to 1000)
#: and 160 weak-instrument views with ``lambda*`` up to 1e9, they differed by
#: 1e-16 of the normaliser in the median and 3e-13 at most, so ``1e-9`` leaves
#: over three orders for worse conditioning.  A wider band only runs the exact
#: predicate more often; a narrower one risks a filtered decision that differs,
#: which the endpoint check catches at the cost of the exact search.
BAND = 1e-9


class PulseMessage(Enum):
    """User messages mirroring the estimation-algorithm branches."""

    NONE = "none"
    OLS_ACCEPTED = "ols_accepted"
    TSLS_REJECTED_FALLBACK = "tsls_rejected_fallback"


#: Human-readable warning strings emitted verbatim by the CLI.
MESSAGE_TEXT = {
    PulseMessage.OLS_ACCEPTED: "Warning: The OLS is accepted.",
    PulseMessage.TSLS_REJECTED_FALLBACK: "Warning: TSLS outside interior of acceptance region.",
}


@dataclass(frozen=True)
class PulseConfig(TestConfig):
    """The uncorrelatedness test PULSE searches with (``p_min`` and ``scaling``,
    inherited and validated by :class:`~pulse_iv.inference.TestConfig`), the
    search precision ``1/precision_n`` and the fallback estimator."""

    precision_n: int = 2**20
    fallback: EstimatorSpec = EstimatorSpec("fuller")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.precision_n < 1:
            raise ValueError(f"precision_n must be >= 1, got {self.precision_n}")
        if self.fallback.kind not in _FALLBACK_KINDS:
            raise ValueError(
                f"fallback must be a consistent estimator kind {_FALLBACK_KINDS}, "
                f"got {self.fallback.kind!r}"
            )


@dataclass(kw_only=True)
class PulseResult(EstimateResult):
    """PULSE estimate with the branch taken (``message``).  ``lambda_used`` is the
    penalty that produced it (``inf`` on the fallback branch, where ``kappa_used``
    is ``None``).  Only a fallback fills ``diagnostics``: the fallback's label and
    the TSLS statistic."""

    message: PulseMessage
    diagnostics: dict[str, Any] = field(default_factory=dict)


def _penalty(
    test: ViewTest, precision_n: int
) -> tuple[PulseMessage, float, np.ndarray | None, float | None]:
    """PULSE's branch on the test's view, its penalty, the path point there
    (``None`` on fallback) and the TSLS statistic (when computed):
    over-identified with TSLS on or outside the acceptance region falls back with
    penalty ``inf``; an accepted OLS gives ``0``; otherwise :func:`_search` gives
    the smallest accepted penalty within ``1/precision_n``."""
    view = test.view
    stat_tsls = None
    if view.identification is IdentificationClass.OVER:
        stat_tsls = test.statistic(view.kclass_solve(1.0))
        if stat_tsls >= test.threshold:
            return PulseMessage.TSLS_REJECTED_FALLBACK, math.inf, None, stat_tsls
    ols = view.kclass_solve(0.0)
    if test.accepts(ols):
        return PulseMessage.OLS_ACCEPTED, 0.0, ols, stat_tsls
    lam, alpha = _search(test, 1.0 / precision_n)
    return PulseMessage.NONE, lam, alpha, stat_tsls


def _search(test: ViewTest, width: float) -> tuple[float, np.ndarray]:
    """The exact search's penalty and path point, given that 0 is rejected, by
    the filtered run and endpoint check of the module docstring; the exact
    predicate is ``test.accepts(path.alpha(lam))``."""
    path = test.view.path
    scale, threshold = test.scale, test.threshold
    band = BAND * (scale * path.syy + threshold * path.yty)
    floor = 1e4 * ZERO_RESIDUAL * path.yty

    def exact(lam: float) -> bool:
        return test.accepts(path.alpha(lam))

    def filtered(lam: float) -> bool:
        ols, iv = path.losses(lam)
        gap = scale * iv - threshold * ols
        if abs(gap) <= band or ols <= floor:
            return exact(lam)
        return gap <= 0.0

    try:
        rejected, accepted = _smallest_accepted(filtered, width)
        alpha = path.alpha(accepted)
        if test.accepts(alpha) and (rejected == 0.0 or not exact(rejected)):
            return accepted, alpha
    except (NonMonotoneDetected, ZeroResidual):
        pass
    lam = _smallest_accepted(exact, width)[1]
    return lam, path.alpha(lam)


def _smallest_accepted(accepts: Callable[[float], bool], width: float) -> tuple[float, float]:
    """Smallest accepted penalty within ``width`` (or one ulp), given that 0 is
    rejected: the bracket squares 2, 4, 16, ... until accepted, then bisects
    from 0 to that width or to adjacent doubles.  Returns the final bracket,
    ``(rejected, accepted)``.

    Raises
    ------
    NonMonotoneDetected
        If no penalty below float overflow is accepted.
    """
    rejected, accepted = 0.0, 2.0
    while not accepts(accepted):
        accepted *= accepted
        if math.isinf(accepted):
            raise NonMonotoneDetected(
                "no accepted penalty below float overflow; monotone descent broke down"
            )
    while abs(accepted - rejected) > width:
        mid = 0.5 * (rejected + accepted)
        if mid == rejected or mid == accepted:
            break
        if accepts(mid):
            accepted = mid
        else:
            rejected = mid
    return rejected, accepted


def pulse_estimate(view: GramView, cfg: PulseConfig | None = None) -> PulseResult:
    """PULSE with fallback: total on every input satisfying the rank conditions.

    Branches: (i) over-identified with TSLS on or outside the acceptance
    region falls back to the configured consistent estimator, with
    ``lambda_used = inf``; (ii) an accepted OLS returns exactly the OLS solution,
    with ``lambda_used = 0``; (iii) otherwise the search determines the penalty
    and the K-class path point there is returned.  In branch (iii), which
    under- and just-identified setups always reach when OLS is rejected,
    ``l = lambda_used`` satisfies ``l - lambda* in [0, 1/N]`` with
    ``N = cfg.precision_n`` (one ulp of ``l`` where that is wider), and the
    returned point passes :func:`~pulse_iv.inference.test_statistic`.
    :func:`~pulse_iv.estimators.estimate` calls this for the ``pulse`` kind.

    Raises
    ------
    NonMonotoneDetected
        If the statistic still exceeds the threshold at float overflow,
        signalling numerical breakdown rather than infeasibility.
    """
    cfg = cfg or PulseConfig()
    branch, lam, alpha, stat_tsls = _penalty(ViewTest(view, cfg), cfg.precision_n)
    if branch is PulseMessage.TSLS_REJECTED_FALLBACK:
        return PulseResult(
            alpha=estimate(view, cfg.fallback).alpha,
            lambda_used=lam,
            message=branch,
            diagnostics={"fallback": cfg.fallback.label(), "tsls_statistic": stat_tsls},
        )
    return PulseResult(alpha=alpha, kappa_used=lam / (1.0 + lam), lambda_used=lam, message=branch)


def primal_solve(view: GramView, t: float) -> np.ndarray:
    """Unique minimizer of ``l_OLS`` subject to ``l_IV <= t``.

    Exploits monotonicity of ``l_IV`` along the K-class path: the constraint
    is active at the smallest penalty whose solution has IV loss at most
    ``t``, found to adjacent doubles by bracketing and bisection.

    Raises
    ------
    OutOfDomain
        If ``t`` lies outside ``(inf l_IV, l_IV(OLS)]``, or is NaN.
    """
    t = float(t)
    inf_iv = view.min_iv_loss()
    iv_at_ols = view.iv_loss(view.kclass_solve(0.0))
    if not inf_iv < t <= iv_at_ols * (1.0 + 1e-12) + 1e-300:
        raise OutOfDomain(
            f"constraint bound t={t:g} outside ({inf_iv:g}, {iv_at_ols:g}]"
        )
    if t >= iv_at_ols * (1.0 - 1e-14):
        return view.kclass_solve(0.0)
    path = view.path
    return path.alpha(_smallest_accepted(lambda lam: view.iv_loss(path.alpha(lam)) <= t, 0.0)[1])
