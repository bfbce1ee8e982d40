"""Single-equation estimators of the K-class family, run through one entry,
:func:`estimate`.

OLS, TSLS, K-class, LIML and Fuller(a) are points of the K-class path, each
picked by a rule for its ``kappa``: ``0``, ``1``, the given value,
:func:`liml_kappa` and :func:`fuller_kappa`.  :func:`estimate` applies the
rule and makes one :meth:`~pulse_iv.data.GramView.kclass_solve`.  Anchor
regression is given by its penalty ``lambda``, so it is solved in the path's
``lambda`` parametrisation (:meth:`~pulse_iv.data.KClassPath.alpha`): that
takes any ``lambda > -1`` and stays exact where ``kappa`` would round towards
one.  PULSE (:mod:`pulse_iv.pulse`) is one more kind.  Every routine is a pure
function of its view's cached Gram products, so it runs on any
:class:`~pulse_iv.data.GramView`, :func:`~pulse_iv.sem.population_moments`
included, apart from LIML's ``kappa``, which reads a ``DesignView``'s rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .data import RCOND_GRAM, DesignView, GramView, IdentificationClass, rcond_symmetric
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


def modified_tsls(view: GramView) -> EstimateResult:
    """Loss-minimal point of the exact moment-condition solution space.

    Solves ``argmin l_OLS`` subject to ``A^T Z alpha = A^T y`` through the KKT
    system of the equality-constrained least-squares problem, falling back to
    the pseudo-inverse (minimum-norm tie-breaking) when the KKT block is
    rank-deficient at the standard threshold.
    """
    if view.identification is IdentificationClass.OVER:
        raise InfeasibleConstraint(
            f"exact moment condition infeasible with q2={view.q2} > d1={view.d1}"
        )
    k, q = view.k, view.q
    kkt = np.zeros((k + q, k + q))
    kkt[:k, :k] = view.ztz
    kkt[:k, k:] = view.atz.T
    kkt[k:, :k] = view.atz
    rhs = np.concatenate([view.zty, view.aty])
    if rcond_symmetric(kkt) >= RCOND_GRAM:
        sol = np.linalg.solve(kkt, rhs)
    else:
        sol = np.linalg.pinv(kkt, rcond=RCOND_GRAM) @ rhs
    return EstimateResult(alpha=sol[:k])


@functools.cache
def _potrf_trtrs() -> tuple[Any, Any]:
    """The float64 LAPACK routines under ``scipy.linalg.cholesky`` and
    ``solve_triangular``, called directly to skip their per-call wrapper cost.

    Fetched on first use, so importing this module (and the CLI) does not load
    ``scipy.linalg``; only LIML and Fuller pay for it.
    """
    import scipy.linalg

    return tuple(scipy.linalg.get_lapack_funcs(("potrf", "trtrs"), (np.empty((1, 1)),)))


def min_generalized_eigenvalue(w1: np.ndarray, w: np.ndarray) -> float:
    """Smallest eigenvalue of ``W1 W^{-1}`` via Cholesky of ``W``.

    Factors ``W = L L^T`` and returns the smallest eigenvalue of the
    symmetrized ``L^{-1} W1 L^{-T}``, avoiding the non-symmetric product.
    The factor and the triangular solves are the ``potrf``/``trtrs`` calls
    that ``scipy.linalg.cholesky``/``solve_triangular`` make, with the same
    finiteness check and arguments (``potrf`` returns ``L`` F-contiguous, so
    ``trtrs`` takes it as is), hence the same bits.
    """
    potrf, trtrs = _potrf_trtrs()
    low, info = potrf(np.asarray_chkfinite(w), lower=True, clean=True)
    if info > 0:
        raise SingularGram("W", rcond_symmetric(w))
    inner, _ = trtrs(low, np.asarray_chkfinite(w1), lower=True)
    inner, _ = trtrs(low, inner.T, lower=True)
    inner = 0.5 * (inner + inner.T)
    return float(np.linalg.eigvalsh(inner)[0])


def _check_rows(view: GramView) -> None:
    """LIML's ``kappa`` reads data rows, which only a ``DesignView`` has."""
    if not isinstance(view, DesignView):
        raise TypeError(f"LIML and Fuller need a DesignView's rows, not a {type(view).__name__}")


def _liml_blocks(view: DesignView) -> tuple[np.ndarray, np.ndarray]:
    """Cross-product matrices ``W`` and ``W1`` for the LIML eigenproblem."""
    ds, part = view.dataset, view.partition
    # [y X_*] column by column: a fancy-indexed n-row temporary here raised the
    # peak RSS of `pulse-iv estimate` on 1e5 rows by 5.6 MB
    m0 = np.empty((view.n, 1 + view.d1))
    m0[:, 0] = ds.y
    for j, i in enumerate(part.included_endogenous):
        m0[:, 1 + j] = ds.x[:, i]
    gram0 = m0.T @ m0

    def residual_gram(basis: np.ndarray) -> np.ndarray:
        if basis.shape[1] == 0:
            return gram0
        proj = basis @ np.linalg.lstsq(basis, m0, rcond=None)[0]
        return gram0 - proj.T @ proj

    w = residual_gram(ds.a)
    w1 = residual_gram(ds.a[:, list(part.included_exogenous)])  # the included exogenous A_*
    return w1, w


def liml_kappa(view: GramView) -> float:
    """Data-driven ``kappa`` of the limited-information ML estimator.

    Smallest eigenvalue of ``W1 W^{-1}`` where ``W`` and ``W1`` are the
    cross products of ``[y X_*]`` after projecting out all exogenous
    variables and only the included ones, respectively.  Always ``>= 1`` up
    to roundoff.  With no included exogenous variables the ``W1`` projection
    is the identity.

    Computed once per view: the first successful call stores the value on
    ``view``, and later calls (LIML, Fuller for every ``a``, PULSE's fallback)
    return it.  A failure is not stored, so it is raised on every call.  A view
    without rows, such as :func:`~pulse_iv.sem.population_moments`, gives a TypeError.
    """
    _check_rows(view)
    if view.q2 < 1:
        raise ValueError("LIML requires at least one excluded instrument (q2 >= 1)")
    cache = vars(view)  # this module's entry in the view's instance dict
    if "liml_kappa" not in cache:
        w1, w = _liml_blocks(view)
        rcond = rcond_symmetric(w)
        if rcond < RCOND_GRAM:
            raise SingularGram("W", rcond)
        cache["liml_kappa"] = min_generalized_eigenvalue(w1, w)
    return cache["liml_kappa"]


def fuller_kappa(view: GramView, a: float) -> float:
    """Fuller adjustment ``kappa_LIML - a / (n - q)``; requires ``n > q`` and rows."""
    EstimatorSpec("fuller", a)  # the spec checks the domain
    _check_rows(view)
    if view.n <= view.q:
        raise ValueError(f"fuller requires n > q; got n={view.n}, q={view.q}")
    return liml_kappa(view) - a / (view.n - view.q)


#: Each K-class kind's rule for its ``kappa``, from the view and the spec's value.
_KAPPA = {
    "ols": lambda view, value: 0.0,
    "tsls": lambda view, value: 1.0,
    "kclass": lambda view, value: value,
    "liml": lambda view, value: liml_kappa(view),
    "fuller": fuller_kappa,
}


def estimate(
    view: GramView, spec: EstimatorSpec, cfg: PulseConfig | None = None
) -> EstimateResult:
    """The estimate of ``spec``'s kind on ``view``; ``cfg`` configures the ``pulse``
    kind (default ``PulseConfig()``) and is not read by any other.

    ``ols``, ``tsls``, ``kclass``, ``liml`` and ``fuller`` are each a rule for
    ``kappa`` (``_KAPPA``) feeding one :meth:`~pulse_iv.data.GramView.kclass_solve`;
    they report ``kappa_used`` and ``lambda_used = kappa / (1 - kappa)`` (``None``
    at ``kappa >= 1``).  ``tsls`` (or any ``kappa = 1``) raises
    :class:`~pulse_iv.exceptions.UnderIdentified` if ``q2 < d1``.
    ``anchor`` is given as its ``lambda`` and solved by
    :meth:`~pulse_iv.data.KClassPath.alpha`, which takes any ``lambda > -1`` and
    stays exact for large penalties, where ``kappa = lambda / (1 + lambda)``
    rounds towards one.  Every kind but ``liml`` and ``fuller`` reads only the
    Gram products, so on :func:`~pulse_iv.sem.population_moments` it gives the
    population estimand; those two raise :class:`TypeError` on a view without rows.
    """
    if spec.kind == "anchor":
        lam = spec.value
        return EstimateResult(view.path.alpha(lam), kappa_used=lam / (1.0 + lam), lambda_used=lam)
    if spec.kind == "modified-tsls":
        return modified_tsls(view)
    if spec.kind == "pulse":
        from .pulse import pulse_estimate  # here, since pulse imports this module for its fallback

        return pulse_estimate(view, cfg)
    kappa = _KAPPA[spec.kind](view, spec.value)
    alpha = view.kclass_solve(kappa)
    lam = kappa / (1.0 - kappa) if kappa < 1.0 else None
    return EstimateResult(alpha=alpha, kappa_used=kappa, lambda_used=lam)
