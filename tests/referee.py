"""Exact referee for the K-class family: its points and LIML's ``kappa`` at
``DPS`` significant digits, on mpmath.

The library solves every K-class kind in float64 from a view's six Gram
products ``Z'Z, Z'y, A'Z, A'y, A'A, y'y``.  This module solves the same problems
from the same products in mpmath, far below float64's rounding, so a gap between
the two is the library's own error.  It shares no code with ``pulse_iv``'s
solvers.  Each answer comes with its condition: the size of the error a
backward-stable float64 computation may make, per unit roundoff, so a test
bounds the gap by a dimension constant times ``eps`` times that condition.

Two sources of Gram products:

- :func:`grams_of` takes a view's float products as they are (every double is an
  exact rational); the library's K-class solve reads exactly these.
- :func:`exact_grams` forms them from the view's rows at ``DPS`` digits; LIML's
  ``kappa``, which the library computes from the rows, is a function of these.

mpmath is a test dependency only: import this module after
``pytest.importorskip("mpmath")``.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

#: Significant decimal digits of every referee computation.
DPS = 50


@dataclass(frozen=True)
class Grams:
    """The six Gram products of one partition, as ``DPS``-digit mpmath values.

    ``Z = [X_* A_*]`` holds the ``d1`` included endogenous columns first, so the
    included exogenous block ``A_*`` is ``Z``'s columns from ``d1`` on.
    """

    d1: int
    ztz: mpmath.matrix
    zty: mpmath.matrix
    atz: mpmath.matrix
    aty: mpmath.matrix
    ata: mpmath.matrix
    yty: mpmath.mpf

    @property
    def k(self) -> int:
        return self.ztz.rows


def grams_of(view) -> Grams:
    """A view's float Gram products, converted exactly."""
    with mpmath.workdps(DPS):
        return Grams(
            view.d1,
            mpmath.matrix(view.ztz.tolist()),
            mpmath.matrix(view.zty.tolist()),
            mpmath.matrix(view.atz.tolist()),
            mpmath.matrix(view.aty.tolist()),
            mpmath.matrix(view.ata.tolist()),
            mpmath.mpf(view.yty),
        )


def exact_grams(view) -> Grams:
    """The Gram products of a :class:`~pulse_iv.data.DesignView`'s rows, each
    summed at ``DPS`` digits (a product of two doubles is exact there)."""
    ds, part = view.dataset, view.partition
    z = np.hstack([ds.x[:, list(part.included_endogenous)], ds.a[:, list(part.included_exogenous)]])
    cols = {"y": [ds.y.tolist()], "z": z.T.tolist(), "a": ds.a.T.tolist()}

    def cross(left: str, right: str) -> mpmath.matrix:
        return mpmath.matrix([[mpmath.fdot(u, v) for v in cols[right]] for u in cols[left]])

    with mpmath.workdps(DPS):
        return Grams(
            view.d1, cross("z", "z"), cross("z", "y"), cross("a", "z"), cross("a", "y"),
            cross("a", "a"), cross("y", "y")[0, 0],
        )


def _spectrum(sym: mpmath.matrix) -> list:
    """Eigenvalues of a symmetric matrix, ascending."""
    return sorted(mpmath.eigsy(sym, eigvals_only=True))


def _norm2(mat: mpmath.matrix):
    """Spectral norm."""
    return mpmath.sqrt(_spectrum(mat.T * mat)[-1])


def _cond(sym: mpmath.matrix):
    """Spectral condition number of a symmetric positive definite matrix."""
    eig = _spectrum(sym)
    return eig[-1] / eig[0]


def kclass(g: Grams, kappa: float) -> tuple[mpmath.matrix, mpmath.mpf]:
    """The K-class point at ``kappa``, the solution of
    ``((1 - kappa) Z'Z + kappa Z'P_A Z) alpha = (1 - kappa) Z'y + kappa Z'P_A y``,
    and its absolute condition

    ``cond(A'A) ||K^{-1}|| ((||Z'Z|| + ||Z'A||^2 ||(A'A)^{-1}||) ||alpha||
    + ||Z'y|| + ||Z'A|| ||(A'A)^{-1}|| ||A'y||)``:

    rounding ``A'A``'s inverse (square root) perturbs the projected products by
    ``eps cond(A'A)`` relative to their factors' norms, and a backward-stable
    solve of ``K`` turns a perturbation of ``K`` and of the right-hand side into
    an error in ``alpha`` through ``||K^{-1}||``.
    """
    with mpmath.workdps(DPS):
        kappa = mpmath.mpf(kappa)
        inv_ata = mpmath.inverse(g.ata)
        ztpz = g.atz.T * inv_ata * g.atz
        ztpy = g.atz.T * inv_ata * g.aty
        mat = (1 - kappa) * g.ztz + kappa * ztpz
        alpha = mpmath.lu_solve(mat, (1 - kappa) * g.zty + kappa * ztpy)
        inv_mat_norm = 1 / min(abs(e) for e in _spectrum(mat))
        inv_ata_norm = _spectrum(inv_ata)[-1]
        atz_norm = _norm2(g.atz)
        size = (_norm2(g.ztz) + atz_norm**2 * inv_ata_norm) * mpmath.norm(alpha) + (
            mpmath.norm(g.zty) + atz_norm * inv_ata_norm * mpmath.norm(g.aty)
        )
        return alpha, _cond(g.ata) * inv_mat_norm * size


def _block(rows: int, cols: int, entry) -> mpmath.matrix:
    """The ``rows x cols`` matrix of ``entry(r, c)``."""
    return mpmath.matrix([[entry(r, c) for c in range(cols)] for r in range(rows)])


def liml_kappa(g: Grams) -> tuple[mpmath.mpf, mpmath.mpf]:
    """LIML's ``kappa``, the smallest generalised eigenvalue of ``(W1, W)``, and its
    relative condition ``sqrt(cond(A'A)) ||M'M|| / lambda_min(W)``.

    ``W`` and ``W1`` are the cross products of ``M = [y X_*]`` after projecting
    out all exogenous variables and only the included ones ``A_*`` (none when
    ``q1 = 0``).  Forming a residual against ``A`` in float64 errs by about
    ``eps cond(A) ||M||^2 = eps sqrt(cond(A'A)) ||M'M||`` in ``W`` and ``W1``,
    and the pencil's smallest eigenvalue ``rho`` moves by at most
    ``(||dW1|| + rho ||dW||) / lambda_min(W)``, relative to ``rho >= 1``.
    """
    d1, q1 = g.d1, g.k - g.d1
    with mpmath.workdps(DPS):
        # [y X_*]'M, and B'M for B = A and B = A_*, from blocks of the six products
        mtm = _block(1 + d1, 1 + d1, lambda r, c: (
            g.yty if r == c == 0 else g.zty[max(r, c) - 1] if min(r, c) == 0
            else g.ztz[r - 1, c - 1]
        ))
        atm = _block(g.ata.rows, 1 + d1, lambda r, c: g.atz[r, c - 1] if c else g.aty[r])
        w = mtm - atm.T * mpmath.inverse(g.ata) * atm
        w1 = mtm
        if q1:
            inc_m = _block(q1, 1 + d1, lambda r, c: g.ztz[d1 + r, c - 1] if c else g.zty[d1 + r])
            inc_gram = _block(q1, q1, lambda r, c: g.ztz[d1 + r, d1 + c])
            w1 = mtm - inc_m.T * mpmath.inverse(inc_gram) * inc_m
        low_inv = mpmath.inverse(mpmath.cholesky(w))
        rho = _spectrum(low_inv * w1 * low_inv.T)[0]
        cond = mpmath.sqrt(_cond(g.ata)) * _spectrum(mtm)[-1] / _spectrum(w)[0]
        return rho, cond
