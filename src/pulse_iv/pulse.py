"""The PULSE estimator: one root find on the K-class path, fallback wrapper,
and the primal (constrained) definition.

PULSE minimizes the OLS loss over the acceptance region of the
uncorrelatedness test.  Along the K-class path (:class:`~pulse_iv.data.KClassPath`)
the test statistic is monotone in the penalty, so the smallest accepted
penalty ``lambda*`` is found by one bracket-plus-bisection; the estimate is the
path point at ``lambda*``, which stays exact where ``kappa = lambda / (1 + lambda)``
rounds to one.  :func:`primal_solve` states the paper's constrained
formulation, ``argmin l_OLS`` subject to ``l_IV <= t``, on the same path.

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

from .data import DesignView, IdentificationClass
from .estimators import EstimateResult, EstimatorSpec, estimate
from .exceptions import NonMonotoneDetected, OutOfDomain
from .inference import TestConfig, ViewTest

_FALLBACK_KINDS = ("tsls", "liml", "fuller")


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


def _penalty(test: ViewTest, precision_n: int) -> tuple[PulseMessage, float, float | None]:
    """PULSE's branch on the test's view, its penalty and the TSLS statistic (when
    computed): over-identified with TSLS on or outside the acceptance region falls
    back with penalty ``inf``; an accepted OLS gives ``0``; otherwise the search
    gives the smallest accepted penalty within ``1/precision_n``."""
    view = test.view
    stat_tsls = None
    if view.identification is IdentificationClass.OVER:
        stat_tsls = test.statistic(view.kclass_solve(1.0))
        if stat_tsls >= test.threshold:
            return PulseMessage.TSLS_REJECTED_FALLBACK, math.inf, stat_tsls
    if test.accepts(view.kclass_solve(0.0)):
        return PulseMessage.OLS_ACCEPTED, 0.0, stat_tsls
    path = view.path
    lam = _smallest_accepted(lambda lam: test.accepts(path.alpha(lam)), 1.0 / precision_n)
    return PulseMessage.NONE, lam, stat_tsls


def _smallest_accepted(accepts: Callable[[float], bool], width: float) -> float:
    """Smallest accepted penalty within ``width`` (or one ulp), given that 0 is
    rejected: the bracket squares 2, 4, 16, ... until accepted, then bisects
    from 0 to that width or to adjacent doubles.  Returns the accepted end.

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
    return accepted


def lambda_star_search(view: DesignView, cfg: PulseConfig | None = None) -> float:
    """Smallest penalty whose K-class solution passes the test, within ``1/N``.

    Returns ``math.inf`` when the setup is over-identified and even TSLS sits
    on or outside the acceptance region; in under- and just-identified setups
    the result is always finite.  Otherwise the returned value ``l`` satisfies
    ``l - lambda* in [0, 1/N]`` (one ulp of ``l`` where that is wider) and the
    path point at ``l`` passes :func:`~pulse_iv.inference.test_statistic`.

    Raises
    ------
    NonMonotoneDetected
        If the statistic still exceeds the threshold at float overflow,
        signalling numerical breakdown rather than infeasibility.
    """
    cfg = cfg or PulseConfig()
    return _penalty(ViewTest(view, cfg), cfg.precision_n)[1]


def pulse_estimate(view: DesignView, cfg: PulseConfig | None = None) -> PulseResult:
    """PULSE with fallback: total on every input satisfying the rank conditions.

    Branches: (i) over-identified with TSLS on or outside the acceptance
    region falls back to the configured consistent estimator; (ii) an accepted
    OLS returns exactly the OLS solution; (iii) otherwise the search
    determines the penalty and the K-class path point there is returned.
    :func:`~pulse_iv.estimators.estimate` calls this for the ``pulse`` kind.
    """
    cfg = cfg or PulseConfig()
    branch, lam, stat_tsls = _penalty(ViewTest(view, cfg), cfg.precision_n)
    if branch is PulseMessage.TSLS_REJECTED_FALLBACK:
        return PulseResult(
            alpha=estimate(view, cfg.fallback).alpha,
            lambda_used=lam,
            message=branch,
            diagnostics={"fallback": cfg.fallback.label(), "tsls_statistic": stat_tsls},
        )
    return PulseResult(
        alpha=view.path.alpha(lam), kappa_used=lam / (1.0 + lam), lambda_used=lam, message=branch
    )


def primal_solve(view: DesignView, t: float) -> np.ndarray:
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
    return path.alpha(_smallest_accepted(lambda lam: view.iv_loss(path.alpha(lam)) <= t, 0.0))
