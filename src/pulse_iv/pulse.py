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
asks ``StackTest.accepts(path.alpha(lam))``, while running that predicate at few
steps:

- *The filter.*  A step is decided by the sign of
  ``gap = scale n l_IV - threshold n l_OLS`` (accepted iff ``gap <= 0``), with both
  losses from :meth:`~pulse_iv.data.KClassPath.losses` in ``O(k)``.  The gap only
  decides; :meth:`~pulse_iv.inference.StackTest.statistic` stays the one reported
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

*The stacked route.*  On a :class:`~pulse_iv.data.GramStack`, :func:`pulse_estimate`
takes the branch checks (the TSLS statistic of an over-identified stack, the OLS
solve and its acceptance) as one numpy pass over the stack, and runs the searches
of the items that reach them in lockstep (:func:`_smallest_accepted`): each round
asks the filter once for the next penalty of every item still searching.  The
brackets and the gap stay Python floats, one item at a time, as a numpy pass per
round cost more than it saved on stacks of 5 to 40 items; the
exact predicate runs once per round over the items in the band, and the endpoint
checks once over the stack.  An item whose filtered run fails searches again
exactly, in lockstep with the others that do.  Each item takes the steps it takes
alone, so it gets the bits, and the error, of its own one-view call, which is the
one-item case.

PULSE is one more K-class kind: ``estimate(view, EstimatorSpec("pulse"), cfg)``
runs :func:`pulse_estimate`, whose :class:`PulseResult` is an
:class:`~pulse_iv.estimators.EstimateResult` reporting ``lambda*`` as
``lambda_used``; on a stack, :class:`PulseEstimates` holds each item's.
:class:`PulseConfig` is a :class:`~pulse_iv.inference.TestConfig`, so the
statistic at the estimate is ``test_statistic(view, result.alpha, cfg)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

import numpy as np

from .data import _ONE, Failed, GramStack, GramView, IdentificationClass, only, passed
from .estimators import EstimateResult, Estimates, EstimatorSpec, _number, estimate
from .exceptions import NonMonotoneDetected, OutOfDomain, ZeroResidual
from .inference import ZERO_RESIDUAL, StackTest, TestConfig

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


@dataclass
class PulseEstimates(Estimates):
    """PULSE's :class:`~pulse_iv.estimators.Estimates` on a stack, with each item's
    branch (``messages``) and each fallen-back item's ``diagnostics``; :meth:`result`
    is one item's :class:`PulseResult`."""

    messages: list[PulseMessage]
    diagnostics: dict[int, dict[str, Any]]

    @property
    def message(self) -> PulseMessage:
        """The branch of the stack: the one every item took, else ``NONE``.  A caller
        that tags each call with one branch (``bench/spans.py``) reads this."""
        first = self.messages[0]
        return first if all(m is first for m in self.messages) else PulseMessage.NONE

    def result(self, r: int) -> PulseResult:
        if r in self.failed:
            raise self.failed[r]
        return PulseResult(
            alpha=self.alpha[r], kappa_used=_number(self.kappa[r]),
            lambda_used=_number(self.lam[r]), message=self.messages[r],
            diagnostics=self.diagnostics.get(r, {}),
        )


#: A search predicate: whether each penalty ``lams[j]`` is accepted at the stack's item
#: ``items[j]``, and the error of each item at which it raised.
Predicate = Callable[[list[float], list[int]], tuple[list[bool], Failed]]


def _smallest_accepted(
    accepts: Predicate, width: float, items: list[int]
) -> tuple[dict[int, float], dict[int, float], Failed]:
    """Smallest accepted penalty of each item within ``width`` (or one ulp), given
    that 0 is rejected, searched in lockstep: each round asks ``accepts`` once, for
    the next penalty of every item still searching.  Per item, the bracket squares
    2, 4, 16, ... until accepted, then bisects from 0 to that width or to adjacent
    doubles, on Python floats.  Returns each item's final bracket, ``rejected`` and
    ``accepted``, and the error of each item at which ``accepts`` raised, or
    :class:`NonMonotoneDetected` if no penalty below float overflow is accepted.
    """
    rejected, accepted = dict.fromkeys(items, 0.0), dict.fromkeys(items, 2.0)
    failed: Failed = {}
    live = list(items)
    while live:
        verdicts, raised = accepts([accepted[r] for r in live], live)
        failed.update(raised)
        growing = []
        for r, yes in zip(live, verdicts):
            if yes or r in raised:
                continue
            accepted[r] *= accepted[r]
            if math.isinf(accepted[r]):
                failed[r] = NonMonotoneDetected(
                    "no accepted penalty below float overflow; monotone descent broke down"
                )
            else:
                growing.append(r)
        live = growing
    live = [r for r in items if r not in failed]
    while live:
        asked, lams = [], []
        for r in live:
            low, high = rejected[r], accepted[r]
            mid = 0.5 * (low + high)
            if abs(high - low) > width and mid != low and mid != high:
                asked.append(r)
                lams.append(mid)
        if not asked:
            break
        verdicts, raised = accepts(lams, asked)
        failed.update(raised)
        live = []
        for r, mid, yes in zip(asked, lams, verdicts):
            if r in raised:
                continue
            if yes:
                accepted[r] = mid
            else:
                rejected[r] = mid
            live.append(r)
    return rejected, accepted, failed


#: The errors of a filtered run after which the exact search runs.
_RETRIED = (NonMonotoneDetected, ZeroResidual)


def _search(
    test: StackTest, items: np.ndarray, width: float
) -> tuple[np.ndarray, np.ndarray, Failed]:
    """The exact search's penalty and path point of each item, given that 0 is
    rejected, by the filtered run and endpoint check of the module docstring, for
    all items in lockstep; the exact predicate is ``test.accepts(path.alpha(lam))``,
    run once per round over the items that need it."""
    paths, singular = test.stack.paths
    scale, threshold = test.scale, test.threshold
    band = (BAND * (scale * paths.syy + threshold * paths.yty)).tolist()
    floor = (1e4 * ZERO_RESIDUAL * paths.yty).tolist()
    failed: Failed = {r: singular[r] for r in items[~passed(items, singular)].tolist()}
    retry: set[int] = set()

    def exact(lams: list[float], asked: list[int]) -> tuple[list[bool], Failed]:
        at = np.array(asked, dtype=np.intp)
        alpha, raised = paths.alpha(np.array(lams), at)
        if not raised:
            verdicts, raised = test.accepts(at, alpha)
            return verdicts.tolist(), raised
        ok = passed(at, raised)
        verdicts = np.zeros(len(at), dtype=bool)
        verdicts[ok], rejected = test.accepts(at[ok], alpha[ok])
        return verdicts.tolist(), {**rejected, **raised}

    def filtered(lams: list[float], asked: list[int]) -> tuple[list[bool], Failed]:
        verdicts, near = [], []
        for j, (lam, r) in enumerate(zip(lams, asked)):
            ols, iv = paths.paths[r].losses(lam)
            gap = scale * iv - threshold * ols
            if abs(gap) <= band[r] or ols <= floor[r]:
                near.append(j)
            verdicts.append(gap <= 0.0)
        if not near:
            return verdicts, {}
        checked, raised = exact([lams[j] for j in near], [asked[j] for j in near])
        for j, yes in zip(near, checked):
            verdicts[j] = yes
        return verdicts, raised

    def settle(raised: Failed) -> None:
        """Add the final errors of ``raised`` to ``failed``, and the items whose
        filtered run failed to ``retry``, to be searched again exactly."""
        for r, exc in raised.items():
            if isinstance(exc, _RETRIED):
                retry.add(r)
            else:
                failed[r] = exc

    searched = [r for r in items.tolist() if r not in failed]
    rejected, accepted, raised = _smallest_accepted(filtered, width, searched)
    settle(raised)
    ends = np.array([r for r in searched if r not in raised], dtype=np.intp)
    alpha, raised = paths.alpha(np.array([accepted[r] for r in ends.tolist()]), ends)
    failed.update(raised)
    ends, alpha = ends[passed(ends, raised)], alpha[passed(ends, raised)]
    verdicts, raised = test.accepts(ends, alpha)
    settle(raised)
    checked = {r for r, yes in zip(ends.tolist(), verdicts.tolist()) if yes and r not in raised}
    below = [r for r in ends.tolist() if r in checked and rejected[r] != 0.0]
    verdicts, raised = exact([rejected[r] for r in below], below)
    settle(raised)
    late = {r for r, yes in zip(below, verdicts) if yes} | set(raised)
    found = {r: (accepted[r], point) for r, point in zip(ends.tolist(), alpha)
             if r in checked and r not in late}
    retry.update(r for r in ends.tolist() if r not in found and r not in failed)
    if retry:
        again = sorted(retry)
        _, accepted, raised = _smallest_accepted(exact, width, again)
        failed.update(raised)
        ends = np.array([r for r in again if r not in raised], dtype=np.intp)
        alpha, raised = paths.alpha(np.array([accepted[r] for r in ends.tolist()]), ends)
        failed.update(raised)
        found.update((r, (accepted[r], point)) for r, point in zip(ends.tolist(), alpha)
                     if r not in raised)
    lam, point = np.zeros(len(items)), np.zeros((len(items), test.stack.k))
    for j, r in enumerate(items.tolist()):
        if r in found:
            lam[j], point[j] = found[r]
    return lam, point, failed


def pulse_estimate(
    view: GramView | GramStack, cfg: PulseConfig | None = None
) -> PulseResult | PulseEstimates:
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

    On a :class:`~pulse_iv.data.GramStack` the branch checks run once over the
    stack and the searches in lockstep, with each item's bits and errors, and it
    returns the :class:`PulseEstimates`; a view is the one-item case.

    Raises
    ------
    NonMonotoneDetected
        If the statistic still exceeds the threshold at float overflow,
        signalling numerical breakdown rather than infeasibility.
    """
    if isinstance(view, GramView):
        return _pulse_estimates(GramStack([view]), cfg).result(0)
    return _pulse_estimates(view, cfg)


def _pulse_estimates(stack: GramStack, cfg: PulseConfig | None) -> PulseEstimates:
    cfg = cfg or PulseConfig()
    test = StackTest(stack, cfg)
    alpha, lam = np.zeros((len(stack), stack.k)), np.full(len(stack), math.nan)
    kappa, messages = lam.copy(), [PulseMessage.NONE] * len(stack)
    failed: Failed = {}
    diagnostics: dict[int, dict[str, Any]] = {}

    def kept(items: np.ndarray, raised: Failed, *values: np.ndarray) -> tuple[np.ndarray, ...]:
        failed.update(raised)
        keep = passed(items, raised)
        return (items[keep], *(value[keep] for value in values))

    items = stack.items
    if stack.identification is IdentificationClass.OVER:
        tsls, raised = stack.kclass_solve(np.ones(len(items)), items)
        items, tsls = kept(items, raised, tsls)
        stat, raised = test.statistic(items, tsls)
        items, stat = kept(items, raised, stat)
        back = stat >= test.threshold
        if back.any():
            fallback = estimate(stack.take(items[back]), cfg.fallback)
            for j, (r, stat_tsls) in enumerate(zip(items[back].tolist(), stat[back].tolist())):
                if j in fallback.failed:
                    failed[r] = fallback.failed[j]
                    continue
                alpha[r], lam[r] = fallback.alpha[j], math.inf
                messages[r] = PulseMessage.TSLS_REJECTED_FALLBACK
                diagnostics[r] = {"fallback": cfg.fallback.label(), "tsls_statistic": stat_tsls}
        items = items[~back]
    ols, raised = stack.kclass_solve(np.zeros(len(items)), items)
    items, ols = kept(items, raised, ols)
    accepted, raised = test.accepts(items, ols)
    items, ols, accepted = kept(items, raised, ols, accepted)
    done = items[accepted]
    alpha[done], kappa[done], lam[done] = ols[accepted], 0.0, 0.0
    for r in done.tolist():
        messages[r] = PulseMessage.OLS_ACCEPTED
    items = items[~accepted]
    if items.size:  # else no path is read, as a single OLS-accepted view builds none
        penalty, point, raised = _search(test, items, 1.0 / cfg.precision_n)
        items, penalty, point = kept(items, raised, penalty, point)
        alpha[items], kappa[items], lam[items] = point, penalty / (1.0 + penalty), penalty
    return PulseEstimates(alpha, kappa, lam, failed, messages, diagnostics)


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
    stack = GramStack([view])
    paths, singular = stack.paths
    if singular:
        raise singular[0]

    def within(lams: list[float], asked: list[int]) -> tuple[list[bool], Failed]:
        at = np.array(asked, dtype=np.intp)
        alpha, raised = paths.alpha(np.array(lams), at)
        iv, singular_iv = stack.iv_loss(at, alpha)
        return (iv <= t).tolist(), {**singular_iv, **raised}

    _, accepted, failed = _smallest_accepted(within, 0.0, [0])
    if failed:
        raise failed[0]
    return only(*paths.alpha(np.array([accepted[0]]), _ONE))
