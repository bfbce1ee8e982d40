"""Linear SEM construction, sampling, interventions, and exact population math.

Models follow the row-vector convention ``[Y X H] := [Y X H] B + A M + eps``:
entry ``B[j, i]`` is the weight of variable ``j`` in the assignment of
variable ``i``.  Solving for the endogenous block gives the reduced form
``[Y X H] = A Pi + eps Gamma^{-1}`` with ``Gamma = I - B``.

Sampling is reproducible by contract: Gaussians come from the counter-based
Philox generator keyed by ``(seed, stream)`` and are transformed by the
inverse normal CDF applied to offset 53-bit uniforms, so identical seeds give
byte-identical draws on every platform.

Each thread keeps one ``np.random.Philox`` and re-keys it for every stream:
its ``state`` is set to the stream's key (converted by ``_philox_key``, as
``Philox(key=...)`` converts it), a zero counter and an empty buffer, which is
exactly the state of a freshly keyed Philox.  So ``random_raw`` reads the
stream's first 64-bit words, and ``word >> 11`` is the integer that
``philox_generator(seed, stream).integers(0, 2**53)`` draws from that word
(Lemire's bounded method never rejects on a power-of-two range and keeps the
top 53 bits).  No generator or ``SeedSequence`` is built per stream.

:func:`sample_stack` draws one sample per seed as ``(R, n)``, ``(R, n, d)`` and
``(R, n, q)`` stacks, and :func:`sem_sample` is its one-seed case.  Each seed
keeps its own Philox streams; after the draws, every step (the uniform
transform, ``ndtri``, the matmuls and the reduced-form ``solve``) is one numpy
call over the whole stack, elementwise or per matrix, so each item has the bits
that :func:`sem_sample` gives for its seed alone.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np
import scipy.special

from .data import Dataset, GramView, ModelPartition, _reading, _spectral_rcond, RCOND_GRAM
from .exceptions import DataError, NonStationary

SPECTRAL_MARGIN = 1e-8

#: Philox streams under one seed: a sample's anchors and noise, a cell's model.
_A_STREAM = 0
_NOISE_STREAM = 1
MODEL_STREAM = 2


def _mask64(seed: int) -> int:
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def _philox_key(seed: int, stream: int) -> np.ndarray:
    """The uint64 Philox key of ``(seed, stream)``, converted as ``Philox(key=[seed,
    stream])`` converts a list.  Known defect (ROADMAP item 1): that conversion
    goes through float64 for a seed of 2^63 or more, which drops its low bits."""
    return np.asarray([_mask64(seed), _mask64(stream)]).astype(np.uint64)


def philox_generator(seed: int, stream: int) -> np.random.Generator:
    """A fresh generator on the Philox counter stream keyed by ``(seed, stream)``."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, stream)))


_THREAD = threading.local()
_ZEROS = (0, 0, 0, 0)


def _rekeyed_generator(seed: int, stream: int) -> np.random.Generator:
    """This thread's generator, its Philox re-keyed to the state of a fresh one keyed
    by ``(seed, stream)`` (zero counter, empty buffer): it draws what
    ``philox_generator(seed, stream)`` draws, until the next re-key on this thread,
    with no generator built per stream."""
    gen = getattr(_THREAD, "generator", None)
    if gen is None:
        gen = _THREAD.generator = np.random.Generator(np.random.Philox())
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": _philox_key(seed, stream)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _philox_words(seed: int, stream: int, shape: tuple[int, ...]) -> np.ndarray:
    """The first 64-bit words of the Philox stream keyed by ``(seed, stream)``, as
    a uint64 array of ``shape``, from this thread's re-keyed Philox
    (:func:`_rekeyed_generator`)."""
    return _rekeyed_generator(seed, stream).bit_generator.random_raw(shape)


def _gaussians(seed: int | Sequence[int], stream: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal draws of ``shape`` via inverse CDF on the Philox counter
    stream of ``seed``; for a sequence of seeds, their ``(R, *shape)`` stack."""
    one = isinstance(seed, (int, np.integer))
    seeds = [seed] if one else seed
    u = np.empty((len(seeds), *shape))
    for row, s in zip(u, seeds):
        # word >> 11 is the integer philox_generator(s, stream).integers(0, 2**53) draws
        words = _philox_words(s, stream, shape)
        np.right_shift(words, 11, out=words)
        np.add(words, 0.5, out=row)
    u /= float(1 << 53)
    # k = 2^53 - 1 rounds to u = 1.0, where ndtri is inf; the cap moves that k alone
    np.minimum(u, np.nextafter(1.0, 0.0), out=u)
    scipy.special.ndtri(u, out=u)
    return u[0] if one else u


def _psd_root(mat: np.ndarray, name: str) -> np.ndarray:
    """Symmetric PSD square root; small negative eigenvalues are clipped."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} must have finite entries")
    atol = 1e-12 * max(1.0, float(np.abs(mat).max()))
    if not (np.abs(mat - mat.T) <= atol + 1e-5 * np.abs(mat.T)).all():  # np.allclose's test
        raise ValueError(f"{name} must be symmetric")
    w, v = np.linalg.eigh(mat)
    if w.size and w.min() < -1e-10 * max(w.max(), 1.0):
        raise ValueError(f"{name} must be positive semi-definite")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


@dataclass(frozen=True, eq=False)
class InterventionSpec:
    """Replacement law for the exogenous variables under ``do(A := v)``.

    Hard interventions are the degenerate stochastic case with zero
    covariance, so one code path serves both.
    """

    kind: str  # "none" | "hard" | "stochastic"
    mean: np.ndarray | None = None
    cov: np.ndarray | None = None

    @staticmethod
    def none() -> "InterventionSpec":
        return InterventionSpec("none")

    @staticmethod
    def hard(v: np.ndarray | float) -> "InterventionSpec":
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return InterventionSpec("hard", mean=v, cov=np.zeros((v.size, v.size)))

    @staticmethod
    def stochastic(cov: np.ndarray, mean: np.ndarray | None = None) -> "InterventionSpec":
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if mean is None:
            mean = np.zeros(cov.shape[0])
        return InterventionSpec("stochastic", mean=np.asarray(mean, dtype=float), cov=cov)

    def law(self, model: "SemModel") -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of the anchors under this intervention."""
        if self.kind == "none":
            return np.zeros(model.q), model.anchor_cov
        if self.mean.shape[0] != model.q or self.cov.shape != (model.q, model.q):
            raise ValueError(
                f"intervention dimensions do not match q={model.q}: "
                f"mean {self.mean.shape}, cov {self.cov.shape}"
            )
        return self.mean, self.cov


@dataclass(frozen=True, eq=False)
class SemModel:
    """Structural matrices, noise laws and variable roles of a linear SEM.

    ``roles`` labels each endogenous coordinate ``"y"``, ``"x"``, or ``"h"``;
    exactly one coordinate is the target and hidden coordinates are dropped
    from sampled datasets.

    Construction refuses a non-finite entry of ``b``, ``m``, ``noise_cov`` or
    ``anchor_cov``, validates the covariances and keeps their PSD roots:
    ``noise_root`` (of ``noise_cov``) and ``anchor_root`` (of ``anchor_cov``).
    Every draw reuses them.
    """

    b: np.ndarray              # (k, k) structural matrix
    m: np.ndarray              # (q, k) exogenous loading
    noise_cov: np.ndarray      # (k,) diagonal or (k, k) full covariance of eps
    anchor_cov: np.ndarray     # (q, q) covariance of A
    roles: tuple[str, ...]
    noise_root: np.ndarray = field(init=False, repr=False)
    anchor_root: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        m = np.atleast_2d(np.asarray(self.m, dtype=float))
        noise = np.asarray(self.noise_cov, dtype=float)
        anchor = np.atleast_2d(np.asarray(self.anchor_cov, dtype=float))
        for name, entries in (("b", b), ("m", m), ("noise_cov", noise), ("anchor_cov", anchor)):
            if not np.isfinite(entries).all():
                raise ValueError(f"{name} must have finite entries")
        k = b.shape[0]
        if b.shape != (k, k):
            raise ValueError(f"B must be square, got {b.shape}")
        if m.shape[1] != k:
            raise ValueError(f"M must have {k} columns, got {m.shape}")
        roles = tuple(self.roles)
        if len(roles) != k or any(r not in ("y", "x", "h") for r in roles):
            raise ValueError("roles must assign 'y', 'x' or 'h' to every coordinate")
        if roles.count("y") != 1:
            raise ValueError("exactly one coordinate must be the target 'y'")
        if noise.ndim == 1:
            if noise.shape[0] != k or np.any(noise < 0):
                raise ValueError("diagonal noise_cov needs k nonnegative entries")
            noise_full = np.diag(noise)
        else:
            noise_full = np.atleast_2d(noise)
            if noise_full.shape != (k, k):
                raise ValueError(f"noise_cov must be (k,) or (k, k), got {noise.shape}")
        noise_root = _psd_root(noise_full, "noise_cov")
        q = anchor.shape[0]
        if anchor.shape != (q, q):
            raise ValueError(f"anchor_cov must be square, got {anchor.shape}")
        spectrum = np.linalg.eigvalsh(anchor)
        if _spectral_rcond(spectrum) < RCOND_GRAM or spectrum[0] <= 0:
            raise ValueError("anchor_cov must be symmetric positive definite")
        # a B without edges has spectral radius 0: no eigvals call
        rho = float(np.max(np.abs(np.linalg.eigvals(b)))) if b.any() else 0.0
        if rho >= 1.0 - SPECTRAL_MARGIN:
            raise NonStationary(f"spectral radius of B is {rho:.6f} >= 1 - {SPECTRAL_MARGIN:g}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "noise_cov", noise_full)
        object.__setattr__(self, "anchor_cov", anchor)
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "noise_root", noise_root)
        object.__setattr__(self, "anchor_root", _psd_root(anchor, "anchor_cov"))

    @property
    def k(self) -> int:
        return self.b.shape[0]

    @property
    def q(self) -> int:
        return self.m.shape[0]

    @property
    def y_index(self) -> int:
        return self.roles.index("y")

    @property
    def x_indices(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r == "x")

    @property
    def gamma(self) -> np.ndarray:
        """``Gamma = I - B``."""
        return np.eye(self.k) - self.b

    def observed_partition(self) -> ModelPartition:
        """Partition including every observed endogenous regressor, no exogenous."""
        return ModelPartition.all_endogenous(len(self.x_indices))


def draw_noise(model: SemModel, n: int, seed: int | Sequence[int]) -> np.ndarray:
    """The ``(n, k)`` noise matrix; a fixed stream independent of interventions.
    For a sequence of seeds, their ``(R, n, k)`` stack."""
    return _gaussians(seed, _NOISE_STREAM, (n, model.k)) @ model.noise_root.T


def draw_anchors(
    model: SemModel, n: int, seed: int | Sequence[int], iv: InterventionSpec | None = None
) -> np.ndarray:
    """The ``(n, q)`` anchor matrix under the (possibly intervened) law of A.
    For a sequence of seeds, their ``(R, n, q)`` stack."""
    iv = iv or InterventionSpec.none()
    mean, cov = iv.law(model)
    root = model.anchor_root if iv.kind == "none" else _psd_root(cov, "intervention cov")
    return mean + _gaussians(seed, _A_STREAM, (n, model.q)) @ root.T


def reduced_form_solve(model: SemModel, a: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Endogenous matrix ``[Y X H]`` solving the SEM for given ``(A, eps)`` rows, or
    the stack of them for ``(R, n, q)`` and ``(R, n, k)`` stacks."""
    rhs = a @ model.m + eps
    return np.linalg.solve(model.gamma.T, rhs.swapaxes(-1, -2)).swapaxes(-1, -2)


def sample_stack(
    model: SemModel, n: int, seeds: Sequence[int], iv: InterventionSpec | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``n`` i.i.d. rows from the (possibly intervened) SEM for each seed: the
    ``(R, n)``, ``(R, n, d)`` and ``(R, n, q)`` stacks of ``y``, ``x`` and ``a``,
    item ``r`` the bits of ``sem_sample(model, n, seeds[r], iv)``.  ``a`` is
    C-contiguous; ``y`` and ``x`` select rows of the solved ``(R, k, n)`` block, so
    each ``y[r]`` is contiguous and each ``x[r]`` Fortran-ordered, with no
    transposing copy (about 70 us per sample at ``n = 1e4``).

    Each seed keeps its own Philox streams, read from this thread's one Philox
    re-keyed per stream, with the words a fresh ``philox_generator(seed, stream)``
    would draw; no generator is built per seed.

    Hidden coordinates are dropped.  The noise stream does not depend on the
    intervention, so samples with the same seed share their noise rows across
    interventions.  Unlike :func:`sem_sample`, nothing checks the values.
    """
    if n < 1:
        raise ValueError("n must be positive")
    a = draw_anchors(model, n, seeds, iv)
    vt = reduced_form_solve(model, a, draw_noise(model, n, seeds)).swapaxes(-1, -2)
    return vt[:, model.y_index], vt[:, list(model.x_indices)].swapaxes(-1, -2), a


def sem_sample(
    model: SemModel, n: int, seed: int, iv: InterventionSpec | None = None
) -> Dataset:
    """Draw ``n`` i.i.d. rows from the (possibly intervened) SEM: the one-seed
    case of :func:`sample_stack`, as a checked :class:`Dataset`."""
    y, x, a = sample_stack(model, n, [seed], iv)
    return Dataset(y=y[0], x=x[0], a=a[0])


def population_moments(
    model: SemModel,
    iv: InterventionSpec | None = None,
    partition: ModelPartition | None = None,
) -> GramView:
    """Exact second moments of ``(Y, Z, A)`` from the reduced-form algebra, as the
    :class:`~pulse_iv.data.GramView` with ``n = 1`` whose products are expectations
    (``ztz = E[ZZ^T]``, ``ata = E[AA^T]``, ...); no sampling involved.  Every
    Gram-only estimator run on it gives its population estimand.

    ``Z`` stacks the included observed endogenous coordinates first and the
    included exogenous coordinates second, matching the coefficient contract.
    """
    iv = iv or InterventionSpec.none()
    if partition is None:
        partition = model.observed_partition()
    x_obs = list(model.x_indices)
    partition.validate(len(x_obs), model.q)
    mean_a, cov_a = iv.law(model)
    e_aa = cov_a + np.outer(mean_a, mean_a)

    # V = P A + R eps with P = Gamma^{-T} M^T and R = Gamma^{-T}.
    gamma_t = model.gamma.T
    p = np.linalg.solve(gamma_t, model.m.T)
    r = np.linalg.inv(gamma_t)
    e_va = p @ e_aa
    e_vv = p @ e_aa @ p.T + r @ model.noise_cov @ r.T

    sel_x = [x_obs[i] for i in partition.included_endogenous]
    sel_a = list(partition.included_exogenous)
    y = model.y_index

    zz_xx = e_vv[np.ix_(sel_x, sel_x)]
    zz_xa = e_va[np.ix_(sel_x, sel_a)]
    zz_aa = e_aa[np.ix_(sel_a, sel_a)]
    return GramView(
        partition, model.q, 1,
        ztz=np.block([[zz_xx, zz_xa], [zz_xa.T, zz_aa]]),
        zty=np.concatenate([e_vv[sel_x, y], e_va[y, sel_a]]),
        atz=np.hstack([e_va[sel_x, :].T, e_aa[:, sel_a]]),
        aty=e_va[y, :],
        ata=e_aa,
        yty=e_vv[y, y],
    )


def worst_case_mspe(
    model: SemModel, partition: ModelPartition, alpha: np.ndarray, kappa: float
) -> float:
    """Worst interventional MSPE over second moments bounded by ``(1-kappa)^{-1} E[AA^T]``.

    Equals the population ``l_OLS(alpha) + kappa/(1-kappa) * l_IV(alpha)``.
    """
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"kappa must lie in [0, 1), got {kappa}")
    mom = population_moments(model, None, partition)
    base = mom.ols_loss(alpha)
    if kappa == 0.0:
        return base
    return base + kappa / (1.0 - kappa) * mom.iv_loss(alpha)


def wcmspe_curve_e1(gamma_hat: float, x_grid) -> np.ndarray:
    """Closed-form worst-case MSPE of the benchmark one-anchor model.

    For hard interventions of absolute strength up to ``x`` the value is
    ``x^2 (1 - g)^2 + g^2 + 3 (1 - g)``.
    """
    g = float(gamma_hat)
    x = np.asarray(x_grid, dtype=float)
    return x * x * (1.0 - g) ** 2 + g * g + 3.0 * (1.0 - g)


def e1_superiority_interval(
    gamma_mid: float = 1.1, competitors: tuple[float, ...] = (1.25, 1.0)
) -> tuple[float, float]:
    """Range of intervention strengths where ``gamma_mid`` beats every competitor.

    Solves the pairwise quadratic crossings of the closed-form curve in
    ``u = x^2`` and intersects the resulting half-lines.
    """
    lo, hi = 0.0, math.inf

    def coeffs(g: float) -> tuple[float, float]:
        return (1.0 - g) ** 2, g * g + 3.0 * (1.0 - g)

    m_mid, c_mid = coeffs(gamma_mid)
    for other in competitors:
        m_o, c_o = coeffs(other)
        dm, dc = m_mid - m_o, c_mid - c_o
        if dm == 0.0:
            if dc >= 0.0:
                return (0.0, 0.0)
            continue
        u_cross = -dc / dm
        if dm < 0.0:
            # mid grows slower: superior for u above the crossing
            lo = max(lo, math.sqrt(max(u_cross, 0.0)))
        else:
            # mid grows faster: superior for u below the crossing
            if u_cross <= 0.0:
                return (0.0, 0.0)
            hi = min(hi, math.sqrt(u_cross))
    if hi < lo:
        return (0.0, 0.0)
    return (lo, hi)


def round_interval_inward(interval: tuple[float, float], decimals: int = 2) -> tuple[float, float]:
    """Conservative report of a superiority interval: ceil the left end, floor the right.

    Scaled values within 1e-7 of an integer count as that integer, so
    accumulated float noise at a crossing does not move the report.
    """
    scale = 10.0**decimals
    lo, hi = interval
    return (math.ceil(lo * scale - 1e-7) / scale, math.floor(hi * scale + 1e-7) / scale)


def population_pulse_underid(delta2: float, gamma: float, beta: float) -> tuple[float, float]:
    """Closed-form population coefficient of the under-identified benchmark model.

    Returns ``(alpha1*, alpha2*)`` with
    ``alpha2* = (1 + delta2^2) gamma / (1 + (1 + delta2^2) gamma^2)`` and
    ``alpha1* = (1 - alpha2* gamma) beta``.
    """
    s = 1.0 + delta2 * delta2
    alpha2 = s * gamma / (1.0 + s * gamma * gamma)
    alpha1 = (1.0 - alpha2 * gamma) * beta
    return (alpha1, alpha2)


# ---------------------------------------------------------------------------
# Canonical benchmark models
# ---------------------------------------------------------------------------


def e1_model(gamma: float = 1.0, confounding: float = 0.5) -> SemModel:
    """One anchor, one regressor: ``X := A + U_X``, ``Y := gamma X + U_Y``.

    ``(U_X, U_Y)`` are unit-variance with the given correlation, represented
    as correlated noise coordinates.  Population K-class values at
    ``kappa = 0, 3/4, 1`` are ``1.25, 1.1, 1.0`` for the defaults.
    """
    b = np.zeros((2, 2))
    b[1, 0] = gamma  # X -> Y
    m = np.array([[0.0, 1.0]])  # A -> X
    noise = np.array([[1.0, confounding], [confounding, 1.0]])  # (U_Y, U_X)
    return SemModel(b=b, m=m, noise_cov=noise, anchor_cov=np.eye(1), roles=("y", "x"))


def xi_from_r2(r2: float, q: int) -> float:
    """Anchor coefficient with theoretical first-stage R-squared ``r2``.

    Solves ``q xi^2 / (q xi^2 + 1) = r2`` for ``xi >= 0``.
    """
    if not 0.0 < r2 < 1.0:
        raise ValueError(f"r2 must lie in (0, 1), got {r2}")
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    return float(np.sqrt(r2 / (q * (1.0 - r2))))


def univariate_model(q: int, rho: float, r2: float, gamma: float = 1.0) -> SemModel:
    """Weak-instrument study design: ``X := A^T xi + U_X``, ``Y := gamma X + U_Y``.

    ``xi`` is constant across the ``q`` standard-normal anchors and chosen so
    the theoretical first-stage R-squared equals ``r2``;
    ``corr(U_X, U_Y) = rho``.
    """
    xi = xi_from_r2(r2, q)
    b = np.zeros((2, 2))
    b[1, 0] = gamma
    m = np.zeros((q, 2))
    m[:, 1] = xi
    noise = np.array([[1.0, rho], [rho, 1.0]])  # (U_Y, U_X)
    return SemModel(b=b, m=m, noise_cov=noise, anchor_cov=np.eye(q), roles=("y", "x"))


def mv_varying_model(
    xi: np.ndarray, delta: np.ndarray, mu: np.ndarray, sigma_sq: tuple[float, float]
) -> SemModel:
    """Two-anchor, two-regressor design with explicit hidden confounders.

    ``X := xi^T A + delta^T H + N_X``, ``Y := gamma^T X + mu^T H + N_Y`` with
    ``gamma = 0`` and unit-variance ``(N_A, N_H, N_Y)``.
    """
    xi = np.asarray(xi, dtype=float).reshape(2, 2)
    delta = np.asarray(delta, dtype=float).reshape(2, 2)
    mu = np.asarray(mu, dtype=float).reshape(2)
    # coordinates (Y, X1, X2, H1, H2)
    b = np.zeros((5, 5))
    b[3, 0], b[4, 0] = mu[0], mu[1]
    for i in range(2):
        for j in range(2):
            b[3 + i, 1 + j] = delta[i, j]
    m = np.zeros((2, 5))
    for i in range(2):
        for j in range(2):
            m[i, 1 + j] = xi[i, j]
    noise = np.array([1.0, sigma_sq[0], sigma_sq[1], 1.0, 1.0])
    return SemModel(
        b=b, m=m, noise_cov=noise, anchor_cov=np.eye(2), roles=("y", "x", "x", "h", "h")
    )


def mv_fixed_model(xi: np.ndarray, eta: float, phi1: float, phi2: float) -> SemModel:
    """Two-anchor, two-regressor design with a pinned noise correlation triple."""
    xi = np.asarray(xi, dtype=float).reshape(2, 2)
    b = np.zeros((3, 3))
    m = np.zeros((2, 3))
    for i in range(2):
        for j in range(2):
            m[i, 1 + j] = xi[i, j]
    # coordinates (Y, X1, X2); noise (U_Y, U_X1, U_X2)
    noise = np.array([[1.0, phi1, phi2], [phi1, 1.0, eta], [phi2, eta, 1.0]])
    return SemModel(b=b, m=m, noise_cov=noise, anchor_cov=np.eye(2), roles=("y", "x", "x"))


def e3_model(
    eta: float = 1.0,
    delta1: float = 1.0,
    delta2: float = 1.0,
    gamma: float = 1.0,
    beta: float = 1.0,
) -> SemModel:
    """Under-identified benchmark: one anchor, two regressors, one hidden node.

    ``X1 := eta A + delta1 H + e1``, ``Y := beta X1 + delta2 H + e_Y``,
    ``X2 := gamma Y + e2`` with unit-variance independent noise.
    """
    # coordinates (Y, X1, X2, H)
    b = np.zeros((4, 4))
    b[1, 0] = beta
    b[3, 0] = delta2
    b[3, 1] = delta1
    b[0, 2] = gamma
    m = np.zeros((1, 4))
    m[0, 1] = eta
    noise = np.ones(4)
    return SemModel(b=b, m=m, noise_cov=noise, anchor_cov=np.eye(1), roles=("y", "x", "x", "h"))


# ---------------------------------------------------------------------------
# JSON configuration format
# ---------------------------------------------------------------------------


def model_to_json(model: SemModel, iv: InterventionSpec | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "b": model.b.tolist(),
        "m": model.m.tolist(),
        "noise_cov": model.noise_cov.tolist(),
        "anchor_cov": model.anchor_cov.tolist(),
        "roles": list(model.roles),
    }
    if iv is not None and iv.kind != "none":
        block: dict[str, Any] = {"kind": iv.kind, "mean": iv.mean.tolist()}
        if iv.kind == "stochastic":
            block["cov"] = iv.cov.tolist()
        doc["intervention"] = block
    return doc


def intervention_from_json(block: Any, q: int) -> InterventionSpec:
    """Parse an intervention block, ``kind`` ``none``, ``hard`` (needs ``mean``) or
    ``stochastic`` (needs ``cov``; ``mean`` defaults to zero); :class:`DataError` if malformed."""
    if block is None:
        return InterventionSpec.none()
    if not isinstance(block, dict):
        raise DataError(f"intervention block must be a JSON object, got {block!r}")
    kind = block.get("kind")
    try:
        if kind == "hard":
            return InterventionSpec.hard(np.asarray(block["mean"], dtype=float))
        if kind == "stochastic":
            return InterventionSpec.stochastic(
                np.asarray(block["cov"], dtype=float),
                np.asarray(block.get("mean", np.zeros(q)), dtype=float),
            )
    except KeyError as exc:
        raise DataError(f"{kind} intervention missing field {exc}") from None
    if kind == "none":
        return InterventionSpec.none()
    raise DataError(f"unknown intervention kind {kind!r}")


def model_from_json(doc: dict[str, Any]) -> tuple[SemModel, InterventionSpec]:
    try:
        model = SemModel(
            b=np.asarray(doc["b"], dtype=float),
            m=np.asarray(doc["m"], dtype=float),
            noise_cov=np.asarray(doc["noise_cov"], dtype=float),
            anchor_cov=np.asarray(doc["anchor_cov"], dtype=float),
            roles=tuple(doc["roles"]),
        )
    except KeyError as exc:
        raise DataError(f"SEM config missing field {exc}") from None
    return model, intervention_from_json(doc.get("intervention"), model.q)


def load_json(path: str | Path, what: str) -> Any:
    """Read a UTF-8 JSON file; a missing or unreadable file, or invalid JSON, is a
    :class:`DataError`."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} not found: {path}")
    with _reading(path):
        text = path.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON in {path}: {exc}") from None


def load_sem_json(path: str | Path) -> tuple[SemModel, InterventionSpec]:
    return model_from_json(load_json(path, "SEM config"))
