"""Single-equation estimators of the K-class family, run through one entry,
:func:`estimate`.

OLS, TSLS, K-class, LIML and Fuller(a) are points of the K-class path, each
picked by a rule for its ``kappa``: ``0``, ``1``, the given value,
:func:`liml_kappa` and :func:`fuller_kappa`.  :func:`estimate` applies the
rule and makes one :meth:`~pulse_iv.data.GramStack.kclass_solve`.  Anchor
regression is given by its penalty ``lambda``, so it is solved in the path's
``lambda`` parametrisation (:meth:`~pulse_iv.data.PathStack.alpha`): that
takes any ``lambda > -1`` and stays exact where ``kappa`` would round towards
one.  PULSE (:mod:`pulse_iv.pulse`) is one more kind.  Every routine is a pure
function of its view's cached Gram products, so it runs on any
:class:`~pulse_iv.data.GramView`, :func:`~pulse_iv.sem.population_moments`
included, apart from LIML's ``kappa``, which reads a ``DesignView``'s rows.

:func:`estimate` also takes a :class:`~pulse_iv.data.GramStack` of one
partition, ``n`` and ``q``: each kind then runs once over the stack, as the
Monte Carlo harness runs it.  The K-class kinds take each item's ``kappa`` by
their rule and make one stacked :meth:`~pulse_iv.data.GramStack.kclass_solve`;
LIML's ``kappa`` is one pass over a stack that keeps its rows, cached on the
stack.  ``anchor``, ``modified-tsls`` and PULSE's branch checks are stacked too.
Each item gets the bits of its own one-view call, and its error is kept per item
in :class:`Estimates`, so a singular item leaves its neighbours' values as they
are.  A view is the one-item case, run on its cached
:attr:`~pulse_iv.data.GramView.stack`, whose error is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np
from numpy.linalg import _umath_linalg

from .data import (
    _ONE, RCOND_GRAM, Failed, GramStack, GramView, IdentificationClass, _rows, _solve, _frozen,
    _t, only, passed, rcond_symmetric,
)
from .exceptions import InfeasibleConstraint, SingularGram

if TYPE_CHECKING:
    from .pulse import PulseConfig

_KINDS = ("ols", "tsls", "kclass", "anchor", "liml", "fuller", "modified-tsls", "pulse")


#: Each kind that takes a value: the value's name, its default, and the
#: exclusive lower bound of its domain (a value must also be finite).  Every
#: other kind in ``_KINDS`` takes no value.
_PARAMS = {
    "kclass": ("kappa", None, -math.inf),
    "anchor": ("lambda", None, -1.0),
    "fuller": ("a", 4.0, 0.0),
}


@dataclass(frozen=True)
class EstimatorSpec:
    """An estimator kind and the one value it takes, parseable from ``kind[:value]``.

    Construction applies ``_PARAMS``, filling in the default and checking the
    domain, so every spec that exists is valid.
    """

    kind: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}; valid: {_KINDS}")
        if self.kind not in _PARAMS:
            if self.value is not None:
                raise ValueError(f"estimator {self.kind!r} takes no parameter")
            return
        name, default, above = _PARAMS[self.kind]
        value = default if self.value is None else float(self.value)
        if value is None:
            raise ValueError(f"{self.kind} requires {name}")
        if not (math.isfinite(value) and value > above):
            bound = "" if above == -math.inf else f" > {above:g}"
            raise ValueError(f"{self.kind} requires a finite {name}{bound}, got {value!r}")
        object.__setattr__(self, "value", value)

    @staticmethod
    def parse(text: str) -> "EstimatorSpec":
        """Parse CLI syntax such as ``ols``, ``kclass:0.6`` or ``fuller:4``.

        A value that is no number is refused with the label, the kind and the
        parameter's name.
        """
        kind, _, value = text.strip().lower().partition(":")
        try:
            number = float(value) if value else None
        except ValueError:
            if kind not in _PARAMS:
                EstimatorSpec(kind, 0.0)  # raises: an unknown kind, or one that takes no value
            raise ValueError(
                f"estimator {text.strip()!r}: {kind} requires a number as its "
                f"{_PARAMS[kind][0]}, got {value!r}"
            ) from None
        return EstimatorSpec(kind, number)

    def label(self) -> str:
        return self.kind if self.value is None else f"{self.kind}:{self.value:g}"


def parse_estimators(labels: Iterable[str]) -> tuple[tuple[str, EstimatorSpec], ...]:
    """Each label of an estimator list with its parsed spec, in order.

    Raises
    ------
    ValueError
        If the list is empty, a label is no valid spec, or two labels parse to
        one estimator (``pulse`` and ``PULSE``, ``fuller`` and ``fuller:4``).
    """
    seen: dict[EstimatorSpec, str] = {}
    for label in labels:
        spec = EstimatorSpec.parse(label)
        if spec in seen:
            raise ValueError(f"estimators repeat {spec.label()}: {seen[spec]!r} and {label!r}")
        seen[spec] = label
    if not seen:
        raise ValueError("empty estimators; name at least one")
    return tuple((label, spec) for spec, label in seen.items())


@dataclass
class EstimateResult:
    """Coefficient vector with the parameter that produced it.

    ``alpha`` is ordered ``[endogenous by input order, included exogenous by
    input order]``.  When both ``kappa_used`` and ``lambda_used`` are present
    they satisfy ``kappa = lambda / (1 + lambda)``; LIML and Fuller report their
    data-driven ``kappa`` as ``kappa_used``.
    """

    alpha: np.ndarray
    kappa_used: float | None = None
    lambda_used: float | None = None

    def __post_init__(self) -> None:
        self.alpha = np.asarray(self.alpha, dtype=float).reshape(-1)
        if not np.all(np.isfinite(self.alpha)):
            raise ValueError("estimate contains non-finite coefficients")


@dataclass
class Estimates:
    """One kind's estimates on a :class:`~pulse_iv.data.GramStack`: each item's
    ``alpha`` (a row of zeros where it failed), ``kappa_used`` and ``lambda_used``
    (NaN for ``None``), and the error of each item that failed.  :meth:`result`
    is one item's :class:`EstimateResult`."""

    alpha: np.ndarray
    kappa: np.ndarray
    lam: np.ndarray
    failed: Failed

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.alpha)):
            raise ValueError("estimate contains non-finite coefficients")

    def result(self, r: int) -> EstimateResult:
        """Item ``r``'s estimate; the error it failed with, raised."""
        if r in self.failed:
            raise self.failed[r]
        return EstimateResult(self.alpha[r], _number(self.kappa[r]), _number(self.lam[r]))


def _number(value: float) -> float | None:
    return None if math.isnan(value) else float(value)


def _unused(stack: GramStack) -> np.ndarray:
    """A ``kappa_used`` or ``lambda_used`` of ``None`` for every item."""
    return np.full(len(stack), math.nan)


def modified_tsls(view: GramView | GramStack) -> EstimateResult | Estimates:
    """Loss-minimal point of the exact moment-condition solution space.

    Solves ``argmin l_OLS`` subject to ``A^T Z alpha = A^T y`` through the KKT
    system of the equality-constrained least-squares problem, falling back to
    the pseudo-inverse (minimum-norm tie-breaking) when the KKT block is
    rank-deficient at the standard threshold.  On a stack the KKT systems are
    checked and solved in one numpy call each; ``pinv`` runs per item.
    """
    if isinstance(view, GramView):
        return modified_tsls(view.stack).result(0)
    stack, failed = view, {}
    if stack.identification is IdentificationClass.OVER:
        failed = {r: InfeasibleConstraint(
            f"exact moment condition infeasible with q2={stack.q2} > d1={stack.d1}"
        ) for r in range(len(stack))}
        return Estimates(np.zeros((len(stack), stack.k)), _unused(stack), _unused(stack), failed)
    k, q = stack.k, stack.q
    kkt = np.zeros((len(stack), k + q, k + q))
    kkt[:, :k, :k] = stack.ztz
    kkt[:, :k, k:] = _t(stack.atz)
    kkt[:, k:, :k] = stack.atz
    rhs = np.concatenate([stack.zty, stack.aty], axis=-1)
    regular = rcond_symmetric(kkt) >= RCOND_GRAM
    sol = np.zeros(rhs.shape)
    sol[regular] = _solve(kkt[regular], rhs[regular])
    for r in np.flatnonzero(~regular).tolist():
        sol[r] = np.linalg.pinv(kkt[r], rcond=RCOND_GRAM) @ rhs[r]
    return Estimates(sol[:, :k], _unused(stack), _unused(stack), failed)


def min_generalized_eigenvalue(w1: np.ndarray, w: np.ndarray) -> float:
    """Smallest eigenvalue of ``W1 W^{-1}`` via Cholesky of ``W``: the one-item case
    of :func:`_min_generalized_eigenvalues`, whose error it raises.

    Factors ``W = L L^T`` and returns the smallest eigenvalue of the
    symmetrized ``L^{-1} W1 L^{-T}``, avoiding the non-symmetric product.
    """
    values, failed = _min_generalized_eigenvalues(np.asarray(w1)[None], np.asarray(w)[None])
    return float(only(values, failed))


def _min_generalized_eigenvalues(w1: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, Failed]:
    """:func:`min_generalized_eigenvalue` of each pair of two ``(R, k, k)`` stacks, and
    :class:`SingularGram` (named ``W``) for each ``W`` that is not positive definite.

    Each ``W`` is factored and solved per item by the ``potrf``/``trtrs`` calls
    that ``scipy.linalg.cholesky``/``solve_triangular`` make, with the same
    finiteness check and arguments (``potrf`` returns ``L`` F-contiguous, so
    ``trtrs`` takes it as is), hence the same bits; no numpy route gives
    ``trtrs``'s bits.  They are called directly to skip those wrappers' per-call
    cost, and imported here so that importing this module (and the CLI) does not
    load ``scipy.linalg``.  The symmetrisation and ``eigvalsh`` are stacked.
    """
    from scipy.linalg.lapack import dpotrf as potrf, dtrtrs as trtrs

    w, w1 = np.asarray_chkfinite(w), np.asarray_chkfinite(w1)
    failed: Failed = {}
    inner = np.zeros(w.shape)
    for r, mat in enumerate(w):
        low, info = potrf(mat, lower=True, clean=True)
        if info > 0:
            failed[r] = SingularGram("W", rcond_symmetric(mat))
            continue
        half, _ = trtrs(low, w1[r], lower=True)
        inner[r], _ = trtrs(low, half.T, lower=True)
    inner = 0.5 * (inner + _t(inner))
    return np.linalg.eigvalsh(inner)[:, 0], failed


def _raise_lstsq_error(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(basis: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(b, m, rcond=None)[0]`` of each pair of an ``(R, n, q)`` stack
    ``basis`` and an ``(R, n, p)`` stack ``rhs``, in one call, with each pair's bits.

    ``np.linalg.lstsq`` takes one matrix, but the LAPACK ``gelsd`` gufunc it wraps,
    in numpy's private ``_umath_linalg`` module, takes a stack.  It is called here
    with the wrapper's own arguments: ``rcond = eps max(n, q)``, the ``ddd->ddid``
    signature, and the error state whose ``invalid`` flag calls a handler that raises
    the wrapper's :class:`~numpy.linalg.LinAlgError`.  So each item makes the same
    ``gelsd`` call with the same workspace.  numpy 1.x splits the gufunc by shape into
    ``lstsq_m`` (``n <= q``) and ``lstsq_n``, and its wrapper passes that error state as
    ``extobj``, which its ufuncs otherwise read from ``np.errstate``."""
    n, q = basis.shape[-2:]
    gelsd = getattr(_umath_linalg, "lstsq", None) or getattr(
        _umath_linalg, "lstsq_m" if n <= q else "lstsq_n"
    )
    with np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return gelsd(basis, rhs, np.finfo(np.float64).eps * max(n, q), signature="ddd->ddid")[0]


def _liml_blocks(stack: GramStack, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cross-product matrices ``W1`` and ``W`` of the LIML eigenproblem of each of
    ``items``, from its rows: ``[y X_*]^T [y X_*]`` less the Gram of its projection on
    the included exogenous ``A_*`` and on all of ``A``.  The Grams, each projection's
    least-squares fit (:func:`_lstsq`) and the projections are one numpy call each
    over the items, with each item's bits."""
    y, x, a = (_rows(arr, items) for arr in stack.rows)
    # [y X_*] column by column: a fancy-indexed n-row temporary here raised the
    # peak RSS of `pulse-iv estimate` on 1e5 rows by 5.6 MB
    m0 = np.empty((len(items), stack.n, 1 + stack.d1))
    m0[..., 0] = y
    for j, i in enumerate(stack.partition.included_endogenous):
        m0[..., 1 + j] = x[..., i]
    gram0 = _t(m0) @ m0

    def residual_gram(basis: np.ndarray) -> np.ndarray:
        if basis.shape[-1] == 0:
            return gram0
        proj = basis @ _lstsq(basis, m0)
        return gram0 - _t(proj) @ proj

    w = residual_gram(a)
    return residual_gram(a[..., list(stack.partition.included_exogenous)]), w


def _liml_kappas(stack: GramStack, items: np.ndarray) -> tuple[np.ndarray, Failed]:
    """LIML's ``kappa`` of each of ``items`` of a stack that keeps its rows, and the
    error of each item that failed, by its index in the stack, in one pass over the
    items (:func:`liml_kappa`).  A stack without rows (of a view other than a
    ``DesignView``, or the Monte Carlo harness's row-free one) gives a TypeError."""
    if stack.rows is None:
        raise TypeError("LIML and Fuller need a DesignView's rows, which this stack does not keep")
    if stack.q2 < 1:
        raise ValueError("LIML requires at least one excluded instrument (q2 >= 1)")
    w1, w = _liml_blocks(stack, items)
    # W <= [y X_*]^T [y X_*], so its smallest eigenvalue is read against that
    # matrix's trace: W's own condition cannot tell rounding residue, left where
    # [y X_*] has no residual degrees of freedom, from a regular W
    low = np.linalg.eigvalsh(w)[:, 0]
    d1, ztz = stack.d1, _rows(stack.ztz, items)
    scale = _rows(stack.yty, items) + np.trace(ztz[:, :d1, :d1], axis1=1, axis2=2)
    regular = low > RCOND_GRAM * scale
    failed: Failed = {
        r: SingularGram("W", lo / sc if sc > 0.0 else 0.0)
        for r, lo, sc in zip(items[~regular].tolist(), low[~regular].tolist(),
                             scale[~regular].tolist())
    }
    at = np.flatnonzero(regular)
    kappa = np.zeros(len(items))
    kappa[at], raised = _min_generalized_eigenvalues(_rows(w1, at), _rows(w, at))
    failed.update((int(items[at[j]]), exc) for j, exc in raised.items())
    return _frozen(kappa)[0], dict(sorted(failed.items()))


def liml_kappa(view: GramView) -> float:
    """Data-driven ``kappa`` of the limited-information ML estimator.

    Smallest eigenvalue of ``W1 W^{-1}`` where ``W`` and ``W1`` are the
    cross products of ``[y X_*]`` after projecting out all exogenous
    variables and only the included ones, respectively.  Always ``>= 1`` up
    to roundoff.  With no included exogenous variables the ``W1`` projection
    is the identity.  :class:`SingularGram` (named ``W``) if the smallest
    eigenvalue of ``W`` is at most ``RCOND_GRAM`` times the trace of
    ``[y X_*]^T [y X_*]``.

    The one-view case of the stacked pass that :func:`estimate` makes once per
    :class:`~pulse_iv.data.GramStack`: each step but the per-item ``potrf`` and
    ``trtrs`` calls is one numpy call over the stack (:func:`_liml_blocks`,
    :func:`_min_generalized_eigenvalues`), and each item gets the bits of this call.
    It runs on the view's :attr:`~pulse_iv.data.GramView.stack`, once: the value, or
    the error, is stored on that stack, so later calls (LIML, Fuller for every
    ``a``, PULSE's fallback) return the value or raise the error again.  A view
    without rows, such as :func:`~pulse_iv.sem.population_moments`, gives a
    TypeError on every call.
    """
    return float(only(*_stack_liml_kappas(view.stack, _ONE)))


def _stack_liml_kappas(stack: GramStack, items: np.ndarray) -> tuple[np.ndarray, Failed]:
    """LIML's ``kappa`` of each of ``items`` and the error of each that failed
    (:func:`_liml_kappas`): read from the stack's cache where it has one, else
    computed, and cached on the stack where ``items`` is every item.  So a kind run
    on part of a stack (PULSE's fallback) pays for LIML on that part alone."""
    cache = vars(stack)  # this module's entry in the stack's instance dict
    if "liml_kappa" in cache:
        kappa, failed = cache["liml_kappa"]
        return _rows(kappa, items), {r: failed[r] for r in items[~passed(items, failed)].tolist()}
    if len(items) < len(stack):
        return _liml_kappas(stack, items)
    cache["liml_kappa"] = _liml_kappas(stack, items)
    return cache["liml_kappa"]


def _fuller_offset(n: int, q: int, a: float) -> float:
    """Fuller's ``a / (n - q)``; requires ``n > q``."""
    if n <= q:
        raise ValueError(f"fuller requires n > q; got n={n}, q={q}")
    return a / (n - q)


def fuller_kappa(view: GramView, a: float) -> float:
    """Fuller adjustment ``kappa_LIML - a / (n - q)``; requires ``n > q`` and rows."""
    EstimatorSpec("fuller", a)  # the spec checks the domain
    return liml_kappa(view) - _fuller_offset(view.n, view.q, a)


#: The ``kappa`` of each K-class kind with a fixed one; ``kclass`` takes its value,
#: and LIML and Fuller read each design's rows.
_FIXED_KAPPA = {"ols": 0.0, "tsls": 1.0}


def estimate(
    view: GramView | GramStack, spec: EstimatorSpec, cfg: PulseConfig | None = None
) -> EstimateResult | Estimates:
    """The estimate of ``spec``'s kind on ``view``; ``cfg`` configures the ``pulse``
    kind (default ``PulseConfig()``) and is not read by any other.

    On a :class:`~pulse_iv.data.GramStack` every kind runs once over the stack,
    with each item's bits and errors, and returns its :class:`Estimates`; a view is
    the one-item case, whose error is raised.

    ``ols``, ``tsls``, ``kclass``, ``liml`` and ``fuller`` are each a rule for
    ``kappa`` (fixed, the spec's value, or :func:`liml_kappa`'s stacked pass)
    feeding one :meth:`~pulse_iv.data.GramStack.kclass_solve`; they report ``kappa_used`` and
    ``lambda_used = kappa / (1 - kappa)`` (``None`` at ``kappa >= 1``).  ``tsls``
    (or any ``kappa = 1``) raises :class:`~pulse_iv.exceptions.UnderIdentified` if
    ``q2 < d1``.  ``anchor`` is given as its ``lambda`` and solved by
    :meth:`~pulse_iv.data.PathStack.alpha`, which takes any ``lambda > -1`` and
    stays exact for large penalties, where ``kappa = lambda / (1 + lambda)``
    rounds towards one.  Every kind but ``liml`` and ``fuller`` reads only the
    Gram products, so on :func:`~pulse_iv.sem.population_moments` it gives the
    population estimand; those two raise :class:`TypeError` on a view without rows.
    """
    if isinstance(view, GramView):
        return _estimates(view.stack, spec, cfg).result(0)
    return _estimates(view, spec, cfg)


def _estimates(stack: GramStack, spec: EstimatorSpec, cfg: PulseConfig | None) -> Estimates:
    if spec.kind == "modified-tsls":
        return modified_tsls(stack)
    if spec.kind == "pulse":
        from .pulse import pulse_estimate  # here, since pulse imports this module for its fallback

        return pulse_estimate(stack, cfg)
    if spec.kind == "anchor":
        alpha = np.zeros((len(stack), stack.k))
        lam = np.full(len(stack), spec.value)
        paths, singular = stack.paths
        items = stack.items[passed(stack.items, singular)]
        alpha[items], failed = paths.alpha(lam[items], items)
        return Estimates(alpha, lam / (1.0 + lam), lam, {**singular, **failed})
    alpha, kappa, failed = _kclass_points(stack, spec, stack.items)
    lam = np.divide(kappa, 1.0 - kappa, out=_unused(stack), where=kappa < 1.0)
    return Estimates(alpha, kappa, lam, failed)


def _kclass_points(
    stack: GramStack, spec: EstimatorSpec, items: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Failed]:
    """The point of the K-class kind ``spec`` (``ols``, ``tsls``, ``kclass``, ``liml``
    or ``fuller``) at each of ``items`` (zeros where it failed), the ``kappa`` the
    kind's rule gives it, and the error of each item that failed, by its index in
    the stack: the rule, then one :meth:`~pulse_iv.data.GramStack.kclass_solve`."""
    if spec.kind in ("liml", "fuller"):
        kappa, failed = _stack_liml_kappas(stack, items)
        failed = dict(failed)
        if spec.kind == "fuller":
            kappa = kappa - _fuller_offset(stack.n, stack.q, spec.value)
    else:
        kappa, failed = np.full(len(items), _FIXED_KAPPA.get(spec.kind, spec.value)), {}
    alpha = np.zeros((len(items), stack.k))
    ok = passed(items, failed)
    alpha[ok], solve_failed = stack.kclass_solve(kappa[ok], items[ok])
    failed.update(solve_failed)
    return alpha, kappa, failed
