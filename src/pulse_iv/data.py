"""Observed data, model partition, preprocessing, and loss primitives.

The central object is :class:`GramView`: the Gram products of one
:class:`ModelPartition` that every estimator consumes, plus the
:class:`KClassPath` built on them.  :class:`DesignView` builds them from the rows
of a :class:`Dataset`; :func:`~pulse_iv.sem.population_moments` gives the exact
population ones.
All objects are immutable after construction.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .exceptions import DataError, SingularGram, UnderIdentified

#: Reciprocal condition number (min/max singular value) below which a Gram
#: matrix is declared singular.
RCOND_GRAM = 1e-12

#: Largest penalty that :meth:`KClassPath.alpha` solves in ``kappa`` form;
#: rounding ``kappa`` moves a penalty ``lam`` by at most ``lam^2 2^-53 < 2^-33``.
#: It stays as the ``lambda`` form moves estimates by about 1e-15, which adds or
#: drops ``rel_change_*`` rows in cells whose repetitions coincide (ROADMAP 1, 3).
KAPPA_FORM_MAX = 2.0**10


class IdentificationClass(str, Enum):
    """Sign of the identification degree ``q2 - d1``."""

    UNDER = "under"
    JUST = "just"
    OVER = "over"


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def rcond_symmetric(mat: np.ndarray) -> float:
    """Reciprocal condition number of a symmetric matrix via its spectrum."""
    if mat.size == 0:
        return 0.0
    w = np.abs(np.linalg.eigvalsh(mat))
    top = w.max()
    if top == 0.0:
        return 0.0
    return float(w.min() / top)


def checked_solve(name: str, mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``mat @ x = rhs`` after verifying the condition of ``mat``.

    Raises
    ------
    SingularGram
        If the reciprocal condition number of ``mat`` falls below
        :data:`RCOND_GRAM`. The exception names the offending matrix.
    """
    rc = rcond_symmetric(mat)
    if rc < RCOND_GRAM:
        raise SingularGram(name, rc)
    return np.linalg.solve(mat, rhs)


def psd_inverse_sqrt(name: str, mat: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a PSD matrix by eigendecomposition.

    Raises
    ------
    SingularGram
        If the matrix fails the reciprocal-condition check.
    """
    w, v = np.linalg.eigh(mat)
    top = float(w.max()) if w.size else 0.0
    if top <= 0.0 or float(w.min()) / top < RCOND_GRAM:
        raise SingularGram(name, 0.0 if top <= 0.0 else float(w.min()) / top)
    return (v * (1.0 / np.sqrt(w))) @ v.T


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed data matrices.

    Parameters
    ----------
    y : ndarray of shape (n,)
        Response observations.
    x : ndarray of shape (n, d)
        Endogenous regressors.
    a : ndarray of shape (n, q)
        Exogenous (anchor/instrument) variables.
    y_name, x_names, a_names : optional column labels.
    """

    y: np.ndarray
    x: np.ndarray
    a: np.ndarray
    y_name: str = "y"
    x_names: tuple[str, ...] | None = None
    a_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float).reshape(-1)
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        if x.shape[0] != y.shape[0] or a.shape[0] != y.shape[0]:
            raise DataError(
                f"row mismatch: y has {y.shape[0]} rows, x has {x.shape[0]}, a has {a.shape[0]}"
            )
        n, d = x.shape
        q = a.shape[1]
        if n < 1:
            raise DataError("dataset must contain at least one row")
        if d < 1 or q < 1:
            raise DataError("x and a must each contain at least one column")
        if n < max(d, q):
            raise DataError(f"need n >= max(d, q); got n={n}, d={d}, q={q}")
        for name, arr in (("y", y), ("x", x), ("a", a)):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite values in {name}")
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "a", _readonly(a))
        if self.x_names is None:
            object.__setattr__(self, "x_names", tuple(f"x{i + 1}" for i in range(d)))
        if self.a_names is None:
            object.__setattr__(self, "a_names", tuple(f"a{i + 1}" for i in range(q)))
        if len(self.x_names) != d or len(self.a_names) != q:
            raise DataError("column-name tuples do not match matrix shapes")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def q(self) -> int:
        return self.a.shape[1]

    def with_intercept(self) -> "Dataset":
        """Append a constant exogenous column named ``const`` (used by the
        intercept pipeline)."""
        ones = np.ones((self.n, 1))
        return Dataset(
            y=self.y,
            x=self.x,
            a=np.hstack([self.a, ones]),
            y_name=self.y_name,
            x_names=self.x_names,
            a_names=self.a_names + ("const",),
        )


@dataclass(frozen=True)
class CsvSchema:
    """Column-role map binding CSV columns to target/endogenous/exogenous."""

    target: str
    endogenous: tuple[str, ...]
    exogenous: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "endogenous", tuple(self.endogenous))
        object.__setattr__(self, "exogenous", tuple(self.exogenous))
        cols = [self.target, *self.endogenous, *self.exogenous]
        if len(set(cols)) != len(cols):
            raise DataError(f"duplicate column roles in schema: {cols}")
        if not self.endogenous or not self.exogenous:
            raise DataError("schema needs at least one endogenous and one exogenous column")


def load_csv(path: str | Path, schema: CsvSchema) -> Dataset:
    """Load a dataset from a headered CSV file.

    The file must be UTF-8 (a leading byte-order mark is skipped) with a header
    row, decimal points and no thousands separators; missing values are an error.

    The header is read with :mod:`csv` and the data rows with numpy's C parser
    in one call.  A file that parser cannot stand in for (one it rejects or
    warns about, one with no data rows, or one with a quote character, which
    :mod:`csv` would unquote) is read again by :func:`_row_loop`, the
    ``float()``-per-cell row loop.  That loop names the first bad cell and reads
    what ``float()`` accepts but numpy does not, such as ``1_0`` and quoted
    cells.  Both parse a cell with Python's own string-to-double conversion,
    so they give the same bits.

    Raises
    ------
    DataError
        On a missing column, a non-numeric cell (reported with its row and
        column), or too few rows.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    wanted = [schema.target, *schema.endogenous, *schema.exogenous]
    with path.open(newline="", encoding="utf-8-sig") as fh:
        cols = _wanted_columns(csv.reader(fh), path, wanted)
        mat = _fast_rows(fh, cols)
    if mat is None:
        mat = _row_loop(path, wanted)
    nx = len(schema.endogenous)
    return Dataset(
        y=mat[:, 0],
        x=mat[:, 1 : 1 + nx],
        a=mat[:, 1 + nx :],
        y_name=schema.target,
        x_names=schema.endogenous,
        a_names=schema.exogenous,
    )


def _wanted_columns(reader: Iterator[list[str]], path: Path, wanted: list[str]) -> list[int]:
    """Read the header row from ``reader``; the index of each wanted column."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path} is empty") from None
    header = [h.strip() for h in header]
    missing = [c for c in wanted if c not in header]
    if missing:
        raise DataError(f"missing column(s) {missing} in {path}; header is {header}")
    return [header.index(c) for c in wanted]


def _fast_rows(fh: TextIO, cols: list[int]) -> np.ndarray | None:
    """The rest of ``fh`` parsed by ``np.loadtxt``, or ``None`` where only the
    row loop gives the right values or error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mat = np.loadtxt(
                _unquoted(fh),
                delimiter=",",
                usecols=cols,
                ndmin=2,
                comments=None,
                dtype=float,
            )
    except (ValueError, Warning):  # the row loop raises the authoritative error
        return None
    return mat if mat.shape[0] else None


def _unquoted(lines: Iterator[str]) -> Iterator[str]:
    """``lines``, stopped by :class:`ValueError` at the first quote character:
    :mod:`csv` unquotes, while numpy would split a quoted comma into two cells."""
    for line in lines:
        if '"' in line:
            raise ValueError("quoted cell")
        yield line


def _row_loop(path: Path, wanted: list[str]) -> np.ndarray:
    """Reference loader: the wanted columns of every non-blank row, one
    ``float()`` per cell, in ``wanted`` order.

    Raises
    ------
    DataError
        As :func:`load_csv`, naming the first non-numeric cell by data row
        and column.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        idx = dict(zip(wanted, _wanted_columns(reader, path, wanted)))
        rows: list[list[float]] = []
        for i, rec in enumerate(reader, start=1):
            if not rec or all(cell.strip() == "" for cell in rec):
                continue
            parsed = []
            for col in wanted:
                cell = rec[idx[col]].strip() if idx[col] < len(rec) else ""
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"non-numeric value {cell!r} at data row {i}, column {col!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path} contains no data rows")
    return np.asarray(rows, dtype=float)


def _demean(arr: np.ndarray) -> np.ndarray:
    # two passes: the second removes the cancellation residue left when the
    # column offset dwarfs its spread
    out = arr - arr.mean(axis=0)
    return out - out.mean(axis=0)


def center(ds: Dataset) -> Dataset:
    """Subtract the sample mean from every column: target, endogenous and exogenous."""
    if ds.n < 2:
        raise ValueError("centering requires at least two rows")
    return Dataset(
        y=_demean(ds.y), x=_demean(ds.x), a=_demean(ds.a),
        y_name=ds.y_name, x_names=ds.x_names, a_names=ds.a_names,
    )


@dataclass(frozen=True)
class ModelPartition:
    """Declared split of the regressors for a single target equation.

    ``included_endogenous`` indexes columns of ``x`` that enter the target
    equation; ``included_exogenous`` indexes columns of ``a`` that do.  The
    complements are the excluded regressors and the instruments.
    """

    included_endogenous: tuple[int, ...]
    included_exogenous: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        inc_x = tuple(int(i) for i in self.included_endogenous)
        inc_a = tuple(int(i) for i in self.included_exogenous)
        if len(set(inc_x)) != len(inc_x) or len(set(inc_a)) != len(inc_a):
            raise ValueError("partition index sets must be duplicate-free")
        if not inc_x:
            raise ValueError("at least one endogenous regressor must be included")
        object.__setattr__(self, "included_endogenous", inc_x)
        object.__setattr__(self, "included_exogenous", inc_a)

    @property
    def d1(self) -> int:
        return len(self.included_endogenous)

    @property
    def q1(self) -> int:
        return len(self.included_exogenous)

    def validate(self, d: int, q: int) -> None:
        bad_x = [i for i in self.included_endogenous if not 0 <= i < d]
        bad_a = [i for i in self.included_exogenous if not 0 <= i < q]
        if bad_x or bad_a:
            raise ValueError(f"partition indices out of range: x{bad_x}, a{bad_a}")

    def identification_degree(self, q: int) -> int:
        """Degree ``q2 - d1``: negative under-, zero just-, positive over-identified."""
        return (q - self.q1) - self.d1

    def identification_class(self, q: int) -> IdentificationClass:
        deg = self.identification_degree(q)
        if deg < 0:
            return IdentificationClass.UNDER
        if deg == 0:
            return IdentificationClass.JUST
        return IdentificationClass.OVER

    @staticmethod
    def all_endogenous(d: int) -> "ModelPartition":
        """Every endogenous regressor included, no included exogenous."""
        return ModelPartition(tuple(range(d)), ())


class KClassPath:
    """The K-class path of one design: ``alpha(lam)`` minimizes ``l_OLS + lam l_IV``,
    equivalently ``(1 - kappa) l_OLS + kappa l_IV`` at ``kappa = lam / (1 + lam)``.

    In ``kappa`` form it solves ``((1 - kappa) Z^T Z + kappa S^T S) alpha =
    (1 - kappa) Z^T y + kappa S^T s_y`` with ``S = (A^T A)^{-1/2} A^T Z``.  One
    generalised eigendecomposition ``S^T S V = Z^T Z V diag(d)``, ``V^T Z^T Z V = I``,
    gives the ``lambda`` form ``V (b0 + lam b1) / (1 + lam d)`` with ``b0 = V^T Z^T y``,
    ``b1 = V^T S^T s_y``, and each system's condition in ``O(k)``.  Taken as the SVD
    of ``S L^{-T}`` (``Z^T Z = L L^T``), it makes the ``k - q`` zero ``d`` of an
    under-identified design, and their ``b1``, exact zeros.  Penalties in
    ``[0, KAPPA_FORM_MAX]`` use the ``kappa`` form, as the ``lambda`` form moves
    estimates by about 1e-15, which adds or drops ``rel_change_*`` rows in cells
    whose repetitions coincide (ROADMAP items 1 and 3); the others use the
    ``lambda`` form, exact where ``kappa`` rounds towards one.

    With ``y'y`` and ``s_y's_y`` kept too, :meth:`losses` gives both losses at a
    path point in ``O(k)``, without the point: at ``c = (b0 + lam b1) / (1 + lam d)``,
    ``n l_OLS = y'y - 2 c.b0 + c.c`` and ``n l_IV = s_y's_y - 2 c.b1 + sum_i d_i c_i^2``.
    """

    def __init__(
        self, ztz: np.ndarray, zty: np.ndarray, s: np.ndarray, sy: np.ndarray, yty: float
    ):
        self.ztz, self.zty, self.sts, self.sty = ztz, zty, s.T @ s, s.T @ sy
        self.yty, self.syy = float(yty), float(sy @ sy)
        k = ztz.shape[0]
        low = np.linalg.cholesky(ztz)
        u, sig, rt = np.linalg.svd(np.linalg.solve(low, s.T).T)
        r = sig.size
        self.v = np.linalg.solve(low.T, rt.T)
        self.d = np.zeros(k)
        self.d[:r] = sig * sig
        self.b0 = self.v.T @ zty
        self.b1 = np.zeros(k)
        self.b1[:r] = sig * (u[:, :r].T @ sy)
        # Python floats: at k of a few, a numpy call costs more than the sum
        self._terms = tuple(zip(self.b0.tolist(), self.b1.tolist(), self.d.tolist()))

    def losses(self, lam: float) -> tuple[float, float]:
        """``(n l_OLS, n l_IV)`` at the point at penalty ``lam``, in ``O(k)`` from the
        eigenbasis; they agree with :meth:`GramView.ols_loss` and
        :meth:`GramView.iv_loss` of :meth:`alpha` up to rounding, not bit for bit."""
        ols, iv = self.yty, self.syy
        for b0, b1, d in self._terms:
            c = (b0 + lam * b1) / (1.0 + lam * d)
            ols += c * (c - 2.0 * b0)
            iv += c * (d * c - 2.0 * b1)
        return ols, iv

    def alpha(self, lam: float) -> np.ndarray:
        """The point at penalty ``lam > -1``, any size up to overflow."""
        if 0.0 <= lam <= KAPPA_FORM_MAX:
            return self.kclass(lam / (1.0 + lam))
        return self.v @ ((self.b0 + lam * self.b1) / (1.0 + lam * self.d))

    def kclass(self, kappa: float) -> np.ndarray:
        """The point at ``kappa``; :class:`SingularGram` if its system is
        numerically singular, which below one needs ``1 - kappa < 1e-12``."""
        den = (1.0 - kappa) + kappa * self.d  # the system's spectrum in the V basis
        if np.abs(den).min() <= RCOND_GRAM * np.abs(den).max():
            raise SingularGram("Z^T P_A Z" if kappa == 1.0 else "Z^T (I - kappa P_A^perp) Z")
        mat = (1.0 - kappa) * self.ztz + kappa * self.sts
        return np.linalg.solve(mat, (1.0 - kappa) * self.zty + kappa * self.sty)


class GramView:
    """The six cross products of ``(y, Z, A)`` under one partition, and all that is
    computed from them alone: identification, condition numbers, both losses, the
    cached :class:`KClassPath` and its solves.  Construction only stores the products;
    the condition numbers, the whitened pieces and the path are each computed
    on first read and cached.

    ``Z = [X_* A_*]`` stacks the included endogenous regressors first and the
    included exogenous regressors second; this ordering is the cross-module
    coefficient contract.  The losses divide by ``n``: the row count of a sample
    (:class:`DesignView`), or 1 for exact population moments
    (:func:`~pulse_iv.sem.population_moments`), whose products are expectations.
    Each K-class solve is ``O((d1+q1)^3)``, independent of the sample size.
    """

    def __init__(
        self, partition: ModelPartition, q: int, n: int, ztz: np.ndarray, zty: np.ndarray,
        atz: np.ndarray, aty: np.ndarray, ata: np.ndarray, yty: float,
    ):
        self.partition, self.q, self.n = partition, q, n
        self.d1, self.q1, self.q2 = partition.d1, partition.q1, q - partition.q1
        self.k = self.d1 + self.q1
        self.ztz, self.zty, self.atz, self.aty, self.ata = map(_readonly, (ztz, zty, atz, aty, ata))
        self.yty = float(yty)

    @cached_property
    def rcond_ztz(self) -> float:
        """Reciprocal condition number of ``Z^T Z``, computed on first read."""
        return rcond_symmetric(self.ztz)

    @cached_property
    def rcond_ata(self) -> float:
        """Reciprocal condition number of ``A^T A``, computed on first read."""
        return rcond_symmetric(self.ata)

    @property
    def identification(self) -> IdentificationClass:
        return self.partition.identification_class(self.q)

    @property
    def identification_degree(self) -> int:
        return self.partition.identification_degree(self.q)

    @cached_property
    def iv_pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """Whitened cross products ``S = (A^T A)^{-1/2} A^T Z`` and ``s_y``;
        :class:`SingularGram` (not cached) if ``A^T A`` is singular."""
        isqrt = psd_inverse_sqrt("A^T A", self.ata)
        return isqrt @ self.atz, isqrt @ self.aty

    def ols_loss(self, alpha: np.ndarray) -> float:
        """Mean squared residual ``n^{-1} ||y - Z alpha||^2``."""
        alpha = self._check_alpha(alpha)
        val = (self.yty - 2.0 * (alpha @ self.zty) + alpha @ self.ztz @ alpha) / self.n
        return max(float(val), 0.0)

    def iv_loss(self, alpha: np.ndarray) -> float:
        """Projected mean squared residual ``n^{-1} (y - Z alpha)^T P_A (y - Z alpha)``."""
        alpha = self._check_alpha(alpha)
        s, sy = self.iv_pieces
        r = sy - s @ alpha
        return max(float(r @ r) / self.n, 0.0)

    def _check_alpha(self, alpha: np.ndarray) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=float).reshape(-1)
        if alpha.shape[0] != self.k:
            raise ValueError(f"coefficient vector must have length {self.k}, got {alpha.shape[0]}")
        return alpha

    @cached_property
    def path(self) -> KClassPath:
        """The cached K-class path; :class:`SingularGram` (not cached) if ``A^T A``
        or ``Z^T Z`` is singular."""
        s, sy = self.iv_pieces
        if self.rcond_ztz < RCOND_GRAM:
            raise SingularGram("Z^T Z", self.rcond_ztz)
        return KClassPath(self.ztz, self.zty, s, sy, self.yty)

    def kclass_solve(self, kappa: float) -> np.ndarray:
        """Closed-form K-class solution, the minimizer of ``(1 - kappa) l_OLS + kappa l_IV``:
        :attr:`path` in ``kappa`` form, equal to its ``lambda`` form
        ``V (b0 + lam b1) / (1 + lam d)`` at ``lam = kappa / (1 - kappa)``.
        ``kappa = 1`` is TSLS and raises :class:`UnderIdentified` if
        ``q2 < d1``; :class:`SingularGram` marks a singular Gram or K-class matrix.
        ``kappa = 0`` is OLS, which solves ``Z^T Z alpha = Z^T y`` directly (the
        same bits as the path) and so needs no regular ``A^T A``.
        """
        kappa = float(kappa)
        if kappa == 0.0:
            if self.rcond_ztz < RCOND_GRAM:
                raise SingularGram("Z^T Z", self.rcond_ztz)
            return np.linalg.solve(self.ztz, self.zty)
        if kappa == 1.0 and self.q2 < self.d1:
            raise UnderIdentified(
                f"TSLS (kappa=1) undefined with q2={self.q2} < d1={self.d1}; use modified_tsls"
            )
        return self.path.kclass(kappa)

    def min_iv_loss(self) -> float:
        """Infimum of the IV loss: zero unless the setup is over-identified."""
        if self.identification is IdentificationClass.OVER:
            return self.iv_loss(self.kclass_solve(1.0))
        return 0.0


class DesignView(GramView):
    """A :class:`GramView` built from the rows of a :class:`Dataset`, which it keeps
    as ``dataset`` (``Z = [X_* A_*]`` is its columns under ``partition``), with
    ``coef_names``."""

    def __init__(self, dataset: Dataset, partition: ModelPartition | None = None):
        if partition is None:
            partition = ModelPartition.all_endogenous(dataset.d)
        partition.validate(dataset.d, dataset.q)
        self.dataset = dataset
        x_star = dataset.x[:, list(partition.included_endogenous)]
        a_star = dataset.a[:, list(partition.included_exogenous)]  # (n, 0) when q1 = 0
        z = np.hstack([x_star, a_star])
        self.coef_names = tuple(dataset.x_names[i] for i in partition.included_endogenous) + tuple(
            dataset.a_names[i] for i in partition.included_exogenous
        )
        a, y = dataset.a, dataset.y
        super().__init__(
            partition, dataset.q, dataset.n,
            ztz=z.T @ z, ata=a.T @ a, atz=a.T @ z, zty=z.T @ y, aty=a.T @ y, yty=y @ y,
        )

    # bench/spans.py counts K-class solves by wrapping this class's own entry, which
    # its self-test asserts is found; once it wraps GramView's, the alias can go.
    kclass_solve = GramView.kclass_solve
