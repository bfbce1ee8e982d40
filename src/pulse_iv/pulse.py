"""The PULSE estimator: the smallest accepted penalty as the root of one polynomial
per design, checked on the K-class path; fallback wrapper, and the primal
(constrained) definition.

PULSE minimizes the OLS loss over the acceptance region of the
uncorrelatedness test.  Along the K-class path (:class:`~pulse_iv.data.PathStack`)
the test statistic is monotone in the penalty, so the smallest accepted
penalty ``lambda*`` is found by one bracket-plus-bisection (:func:`_bisection`:
the accepted end squares 2, 4, 16, ..., then bisects to ``1/N``); the estimate is
the path point at ``lambda*``, which stays exact where ``kappa = lambda / (1 + lambda)``
rounds to one.  :func:`primal_solve` states the paper's constrained
formulation, ``argmin l_OLS`` subject to ``l_IV <= t``, on the same path.

The search (:func:`_search`) gives the bits of the exact search, whose every step
asks ``StackTest.accepts(path.alpha(lam))``, while running that predicate at two
penalties per item:

- *The root.*  At the path point ``c = (b0 + lam b1) / (1 + lam d)``, with
  ``e = b1 - d b0``, ``n l_OLS = n l_OLS(0) + lam^2 sum_i e_i^2 / (1 + lam d_i)^2``
  and ``n l_IV = n l_IV(0) - lam sum_i e_i^2 (2 + lam d_i) / (1 + lam d_i)^2``.  So
  the gap ``scale n l_IV - threshold n l_OLS`` (accepted iff ``<= 0``) times
  ``prod_i (1 + lam d_i)^2`` is a polynomial of degree ``2 m``, ``m`` the number of
  non-zero ``d`` (:func:`_gap_polynomials`), and its smallest positive real root,
  from the eigenvalues of its companion matrix (:func:`_roots`), is ``lambda*``.
  The items of a stack with one ``m`` take one ``eigvals`` call.
- *The bracket.*  The bisection whose every step is decided by ``lam >= root``
  ends on a bracket that depends on the root alone, so each item's is taken in
  closed form, as one numpy pass over the stack's roots (:func:`_brackets`): the
  root rounded up to the bisection's final grid, and one step or one double below
  it.  It asks no predicate.
- *The endpoint check.*  The exact predicate must accept the final bracket's
  accepted end and reject its rejected end (0 is already rejected exactly).
  Every penalty the decided run accepted lies at or above the accepted end, and
  every one it rejected at or below the rejected end: bisection moves the ends
  inwards only, and a power of two the bracket phase rejected is a midpoint of
  ``[0, 2^(2^j)]``, so bisection either lies above it or revisits it.  Where the
  exact predicate is monotone, the check therefore proves that it agrees with
  every decision of the run, whatever made them, so the run took the exact run's
  steps and ends on its bits; the accepted end's point is reused as the estimate.
- *The fallback.*  The exact search runs where the check fails or raises, where
  the polynomial has no positive real root at most 2^512 (above that the bracket
  overflows), and where ``n l_OLS(0)`` is within four orders of the
  :data:`~pulse_iv.inference.ZERO_RESIDUAL` guard: ``l_OLS`` only grows along the
  path, so above that no step the run skipped could raise.  A root only decides
  steps, so a wrong one costs the exact search, never a bit.  It is seldom exact
  enough where ``lambda*`` is about 4e8 or more and the grid's step a few ulps.

*The stacked route.*  On a :class:`~pulse_iv.data.GramStack`, :func:`pulse_estimate`
takes the branch checks (the TSLS statistic of an over-identified stack, the OLS
solve and its acceptance), the polynomials, their roots and brackets, and the
endpoint checks as numpy passes over the stack, with the items as index arrays.
The items that fall back search exactly in lockstep (:func:`_smallest_accepted`):
each round asks the exact predicate once, for the next penalty of every item
still searching.  Each item takes the steps it
takes alone, so it gets the bits, and the error, of its own one-view call, which
is the one-item case.

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
from typing import Any, Callable, Generator, Iterator, Sequence

import numpy as np

from .data import _ONE, Failed, GramStack, GramView, IdentificationClass, _dot, _rows, only, passed
from .estimators import EstimateResult, Estimates, EstimatorSpec, _kclass_points, _number
from .exceptions import NonMonotoneDetected, OutOfDomain, ZeroResidual
from .inference import ZERO_RESIDUAL, StackTest, TestConfig

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
        try:
            width = 1.0 / self.precision_n
        except OverflowError:  # an int that rounds to a float of 2**1024 or more
            width = 0.0
        if not width > 0.0:
            raise ValueError(
                "precision_n must be small enough that 1/precision_n is a positive float"
            )
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
Predicate = Callable[[np.ndarray, np.ndarray], tuple[Sequence[bool], Failed]]


def _bisection(width: float) -> Generator[float, bool, tuple[float, float]]:
    """One item's search for the smallest accepted penalty within ``width`` (or one
    ulp), given that 0 is rejected: it yields each penalty to ask, is sent whether it
    is accepted, and returns the final bracket ``(rejected, accepted)``.  The accepted
    end squares 2, 4, 16, ... until accepted, then the bracket bisects from 0 to that
    width or to adjacent doubles, on Python floats.  Raises
    :class:`NonMonotoneDetected` if no penalty below float overflow is accepted."""
    accepted = 2.0
    while not (yield accepted):
        accepted *= accepted
        if math.isinf(accepted):
            raise NonMonotoneDetected(
                "no accepted penalty below float overflow; monotone descent broke down"
            )
    rejected = 0.0
    while True:
        mid = 0.5 * (rejected + accepted)
        if not (abs(accepted - rejected) > width and mid != rejected and mid != accepted):
            return rejected, accepted
        if (yield mid):
            accepted = mid
        else:
            rejected = mid


def _smallest_accepted(
    accepts: Predicate, width: float, items: list[int]
) -> tuple[dict[int, float], dict[int, float], Failed]:
    """Each item's :func:`_bisection`, searched in lockstep: each round asks
    ``accepts`` once, for the next penalty of every item still searching.  Returns
    each item's final bracket, ``rejected`` and ``accepted``, and the error of each
    item at which ``accepts`` or its search raised."""
    searches = {r: _bisection(width) for r in items}
    asked = {r: next(search) for r, search in searches.items()}
    rejected: dict[int, float] = {}
    accepted: dict[int, float] = {}
    failed: Failed = {}
    while asked:
        live = list(asked)
        verdicts, raised = accepts(np.array(list(asked.values())), np.array(live, dtype=np.intp))
        failed.update(raised)
        asked = {}
        for r, yes in zip(live, verdicts):
            if r in raised:
                continue
            try:
                asked[r] = searches[r].send(bool(yes))
            except StopIteration as stop:
                rejected[r], accepted[r] = stop.value
            except NonMonotoneDetected as exc:
                failed[r] = exc
    return rejected, accepted, failed


#: The largest root whose bracket the bisection reaches: its accepted end squares up
#: to 2^512, and the next square overflows.
_ROOT_MAX = 2.0**512


def _brackets(roots: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """The final bracket ``(rejected, accepted)`` of each root's :func:`_bisection`
    whose every step is decided by ``lam >= root``, for roots in ``(0, 2^512]``.

    The accepted end starts at a power of two and each step halves the bracket, so
    both ends stay on the grid of step ``h = 2^floor(log2 width)`` until the step
    reaches ``h``, or the ends adjacent doubles.  The accepted end is thus the root
    rounded up to that grid, which is the root itself where ``h`` is below its ulp
    (and ``root / h`` may overflow), and the rejected end ``h`` or one double below
    it, whichever is lower (0 where the accepted end is ``h``)."""
    step = math.ldexp(1.0, math.frexp(width)[1] - 1)
    accepted = roots.copy()
    coarse = np.spacing(roots) <= step
    accepted[coarse] = np.ceil(roots[coarse] / step) * step
    return np.minimum(accepted - step, np.nextafter(accepted, 0.0)), accepted


def _gap_polynomials(
    test: StackTest, items: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The gap polynomial (module docstring) of each item at ``items[at]`` with ``m``
    non-zero ``d``, as ascending coefficients ``(len(at), 2 m + 1)``, one ``at`` per
    ``m``; none for an item with no non-zero ``d``, or with ``n l_OLS(0)`` within four
    orders of the :data:`~pulse_iv.inference.ZERO_RESIDUAL` guard."""
    paths, _ = test.stack.paths
    scale, threshold = test.scale, test.threshold
    b0, b1, d = _rows(paths.b0, items), _rows(paths.b1, items), _rows(paths.d, items)
    yty = _rows(paths.yty, items)
    e2 = (b1 - d * b0) ** 2
    ols0 = yty - _dot(b0, b0)
    gap0 = scale * (_rows(paths.syy, items) + _dot(b0, d * b0 - 2.0 * b1)) - threshold * ols0
    rank = (d != 0.0).sum(axis=1)  # an under-identified design's zero d drop out
    rank[ols0 <= 1e4 * ZERO_RESIDUAL * yty] = 0
    for m in sorted(set(rank.tolist()) - {0}):
        at = np.flatnonzero(rank == m)
        dm, em = _rows(d, at)[:, :m], _rows(e2, at)[:, :m]
        drop1, drop2 = 2.0 * scale * em, (scale * dm + threshold) * em
        # prod_i (1 + d_i lam)^2, and sum_i lam (2 scale + (scale d_i + threshold) lam)
        # e_i^2 prod_{j != i} (1 + d_j lam)^2, grown one factor at a time
        pair = np.zeros((2, len(at), 2 * m + 1))
        pair[0, :, 0] = 1.0
        for i in range(m):
            whole = pair[0]
            by1, by2 = drop1[:, i, None] * whole[:, :-1], drop2[:, i, None] * whole[:, :-2]
            for _ in range(2):  # times 1 + d_i lam
                pair[:, :, 1:] += dm[:, i, None] * pair[:, :, :-1]
            pair[1, :, 1:] += by1
            pair[1, :, 2:] += by2
        yield at, _rows(gap0, at)[:, None] * pair[0] - pair[1]


def _roots(test: StackTest, items: np.ndarray) -> np.ndarray:
    """The smallest positive real root of each item's gap polynomial, from the
    eigenvalues of its companion matrix; ``inf`` where it has none, where that matrix
    would overflow, or where :func:`_gap_polynomials` gives no polynomial."""
    roots = np.full(len(items), math.inf)
    for at, poly in _gap_polynomials(test, items):
        lead = poly[:, -1]
        fit = np.abs(poly).max(axis=1) * 2.0**-500 < np.abs(lead)  # no ratio above 2^500
        if not fit.all():
            at, poly, lead = at[fit], poly[fit], lead[fit]
        deg = poly.shape[1] - 1
        companion = np.empty((len(at), deg, deg))
        companion[:] = np.eye(deg, k=-1)
        companion[:, :, -1] = poly[:, :-1] / -lead[:, None]
        try:
            found = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError:  # no convergence: these items search exactly
            continue
        real = found.real
        real[(found.imag != 0.0) | (real <= 0.0)] = math.inf
        roots[at] = real.min(axis=1)
    return roots


#: The errors of the endpoint check after which the exact search runs.
_RETRIED = (NonMonotoneDetected, ZeroResidual)


def _search(
    test: StackTest, items: np.ndarray, width: float
) -> tuple[np.ndarray, np.ndarray, Failed]:
    """The exact search's penalty and path point of each item, given that 0 is
    rejected, by the root, bracket, endpoint check and fallback of the module
    docstring; the exact predicate is ``test.accepts(path.alpha(lam))``, run over
    the stack's endpoints, and per round of the fallback's lockstep search.  The
    items are kept as index arrays of positions in ``items``: ``on``, those still on
    their root's bracket, and ``retry``, those to search exactly."""
    paths, singular = test.stack.paths
    failed: Failed = {r: singular[r] for r in items[~passed(items, singular)].tolist()}
    lam, point = np.zeros(len(items)), np.zeros((len(items), test.stack.k))
    retry: list[np.ndarray] = []

    def exact(lams: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray, Failed]:
        """The exact predicate's verdict at each item's penalty, the path point it
        asks there, and the errors."""
        alpha, raised = paths.alpha(lams, at)
        if not raised:
            verdicts, raised = test.accepts(at, alpha)
            return verdicts, alpha, raised
        ok = passed(at, raised)
        verdicts = np.zeros(len(at), dtype=bool)
        verdicts[ok], rejected = test.accepts(at[ok], alpha[ok])
        return verdicts, alpha, {**rejected, **raised}

    def accepts(lams: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, Failed]:
        verdicts, _, raised = exact(lams, at)
        return verdicts, raised

    def checked(on: np.ndarray, good: np.ndarray, raised: Failed) -> np.ndarray:
        """The positions ``on`` whose endpoint passed its check (``good``, and not
        ``raised``); of the others, those not failed with a final error retry."""
        good &= passed(items[on], raised)
        failed.update((r, exc) for r, exc in raised.items() if not isinstance(exc, _RETRIED))
        out = on[~good]
        retry.append(out[passed(items[out], failed)])
        return good

    on = np.flatnonzero(passed(items, failed))
    roots = _roots(test, items[on])
    bounded = roots <= _ROOT_MAX  # else the bracket overflows, as an infinite root's does
    retry.append(on[~bounded])
    on = on[bounded]
    rejected, accepted = _brackets(roots[bounded], width)
    verdicts, alpha, raised = exact(accepted, items[on])
    keep = checked(on, verdicts, raised)
    on, rejected, accepted, alpha = on[keep], rejected[keep], accepted[keep], alpha[keep]
    below = np.flatnonzero(rejected != 0.0)  # 0 is rejected exactly
    verdicts, _, raised = exact(rejected[below], items[on[below]])
    keep = np.ones(len(on), dtype=bool)
    keep[below] = checked(on[below], ~verdicts, raised)
    on = on[keep]
    lam[on], point[on] = accepted[keep], alpha[keep]
    again = np.sort(np.concatenate(retry))
    if again.size:
        _, found, raised = _smallest_accepted(accepts, width, items[again].tolist())
        failed.update(raised)
        again = again[passed(items[again], raised)]
        lam[again] = [found[r] for r in items[again].tolist()]
        point[again], raised = paths.alpha(lam[again], items[again])
        failed.update(raised)
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

    On a :class:`~pulse_iv.data.GramStack` the branch checks, the roots and the
    endpoint checks run once over the stack, with each item's bits and errors, and
    it returns the :class:`PulseEstimates`; a view is the one-item case, run on its
    cached :attr:`~pulse_iv.data.GramView.stack`.

    Raises
    ------
    NonMonotoneDetected
        If the statistic still exceeds the threshold at float overflow,
        signalling numerical breakdown rather than infeasibility.
    """
    if isinstance(view, GramView):
        return _pulse_estimates(view.stack, cfg).result(0)
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
            point, _, raised = _kclass_points(stack, cfg.fallback, items[back])
            at, point, stat_back = kept(items[back], raised, point, stat[back])
            alpha[at], lam[at] = point, math.inf
            for r, stat_tsls in zip(at.tolist(), stat_back.tolist()):
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
    if items.size:  # else no item searches
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
    stack = view.stack
    paths, singular = stack.paths
    if singular:
        raise singular[0]

    def within(lams: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, Failed]:
        alpha, raised = paths.alpha(lams, at)
        iv, singular_iv = stack.iv_loss(at, alpha)
        return iv <= t, {**singular_iv, **raised}

    _, accepted, failed = _smallest_accepted(within, 0.0, [0])
    if failed:
        raise failed[0]
    return only(*paths.alpha(np.array([accepted[0]]), _ONE))
