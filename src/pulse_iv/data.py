"""Observed data, model partition, preprocessing, and loss primitives.

The central object is :class:`GramStack`: the Gram products of a stack of designs
under one :class:`ModelPartition`, which every estimator consumes, with the
condition numbers, whitened pieces and K-class paths (:class:`PathStack`) built
on them in one numpy pass each.  :meth:`GramStack.from_rows` builds one from
sampled rows.  A :class:`GramView` holds one design's products, and runs every
routine on its cached one-item stack; :class:`DesignView` builds them from the
rows of a :class:`Dataset`, and :func:`~pulse_iv.sem.population_moments` gives
the exact population ones.
All objects are immutable after construction.
"""

from __future__ import annotations

import csv
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .exceptions import DataError, PulseIVError, SingularGram, UnderIdentified

#: Reciprocal condition number (min/max singular value) below which a Gram
#: matrix is declared singular.
RCOND_GRAM = 1e-12

#: Largest penalty that :meth:`PathStack.alpha` solves in ``kappa`` form;
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


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, made read-only in place: the stacks whose slices views cache."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _t(mat: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack (or of one matrix)."""
    return mat.swapaxes(-1, -2)


def _mv(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``mat @ vec`` for each matrix and vector of two stacks: the matrix-vector
    product of one ``matmul`` call, whose bits per item are those of the 2-D call."""
    return (mat @ vec[..., None])[..., 0]


def _dot(vec: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``vec @ other`` for each pair of vectors of two stacks, as a ``(1, n)`` by ``(n, 1)``
    ``matmul``: it has the bits of the 1-D ``vec @ other``, where ``einsum`` does not."""
    return (vec[..., None, :] @ other[..., None])[..., 0, 0]


def _solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(mat, rhs)`` for each system of a stack with one right-hand side,
    with the bits of the 2-D call (both make one ``gesv`` call per system)."""
    return np.linalg.solve(mat, rhs[..., None])[..., 0]


#: What a stacked routine reports for the items it could not compute: each one's error,
#: by its index in the stack.  The routine's values at those items are placeholders.
Failed = dict[int, PulseIVError]

#: The item of a one-view stack, as the single-view routines pass it.
_ONE = np.zeros(1, dtype=np.intp)


def _rows(arr: np.ndarray, items: np.ndarray) -> np.ndarray:
    """``arr[items]``; ``arr`` itself where ``items`` is every row, as the items a
    routine runs on are always a sorted subset of its stack's."""
    return arr if len(items) == len(arr) else arr[items]


def passed(items: np.ndarray, failed: Failed) -> np.ndarray:
    """The mask of ``items`` that are not in ``failed``."""
    if not failed:
        return np.ones(len(items), dtype=bool)
    return np.array([r not in failed for r in items.tolist()], dtype=bool)


def only(values: np.ndarray, failed: Failed):
    """The value of a one-item stacked routine, or its item's error, raised."""
    if failed:
        raise next(iter(failed.values()))
    return values[0]


def rcond_symmetric(mat: np.ndarray) -> float | np.ndarray:
    """Reciprocal condition number of a symmetric matrix via its spectrum; of each
    matrix of a stack, as an array of the leading shape."""
    return _spectral_rcond(np.linalg.eigvalsh(mat) if mat.shape[-1] else np.zeros(mat.shape[:-1]))


def _spectral_rcond(spectrum: np.ndarray) -> float | np.ndarray:
    """:func:`rcond_symmetric` of a symmetric matrix from its ``eigvalsh`` spectrum
    (0 for an empty one); of each spectrum of a stack, as an array."""
    if spectrum.shape[-1] == 0:
        return 0.0 if spectrum.ndim == 1 else np.zeros(spectrum.shape[:-1])
    w = np.abs(spectrum)
    top = w.max(axis=-1)
    rc = np.divide(w.min(axis=-1), top, out=np.zeros_like(top), where=top != 0.0)
    return float(rc) if rc.ndim == 0 else rc


def _inverse_sqrts(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric inverse square roots of a stack of PSD matrices by eigendecomposition:
    each matrix's reciprocal condition (0 where its top eigenvalue is not positive),
    the mask of those that pass :data:`RCOND_GRAM`, and the roots of those, stacked."""
    w, v = np.linalg.eigh(mats)
    top = w.max(axis=-1)
    rc = np.divide(w.min(axis=-1), top, out=np.zeros_like(top), where=top > 0.0)
    ok = rc >= RCOND_GRAM
    w, v = w[ok], v[ok]
    return rc, ok, (v * (1.0 / np.sqrt(w))[..., None, :]) @ _t(v)


def _scattered(mask: np.ndarray, arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Stacks computed for the items where ``mask`` is true, as read-only stacks of
    every item with zeros at the others."""
    if mask.all():
        return tuple(arrays)
    full = [np.zeros((len(mask), *arr.shape[1:])) for arr in arrays]
    for out, arr in zip(full, arrays):
        out[mask] = arr
    return _frozen(*full)


def _iv_pieces(
    ata: np.ndarray, atz: np.ndarray, aty: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The whitened pieces ``S = (A^T A)^{-1/2} A^T Z`` and ``s_y = (A^T A)^{-1/2} A^T y``
    of a stack of designs (:attr:`GramStack.pieces`): the reciprocal condition of
    each ``A^T A``, the mask of those that pass, and ``S`` and ``s_y`` of every item,
    stacked and read-only, with zeros where ``A^T A`` fails."""
    rc, ok, isqrt = _inverse_sqrts(ata)
    at = np.flatnonzero(ok)
    return (rc, ok, *_scattered(ok, _frozen(isqrt @ _rows(atz, at), _mv(isqrt, _rows(aty, at)))))


def _gram_products(y: np.ndarray, z: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, ...]:
    """``Z^T Z, Z^T y, A^T Z, A^T y, A^T A, y^T y`` of each design of ``(R, n)``,
    ``(R, n, k)`` and ``(R, n, q)`` stacks, read-only.  Each is one ``matmul``
    call whose bits per item are those of the 2-D call."""
    zt, at = _t(z), _t(a)
    return _frozen(zt @ z, _mv(zt, y), at @ z, _mv(at, y), at @ a, _dot(y, y))


def _path_arrays(
    ztz: np.ndarray, zty: np.ndarray, s: np.ndarray, sy: np.ndarray, yty: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The K-class path of each design of a stack of ``Z^T Z``, ``Z^T y``, ``S``, ``s_y``
    and ``y^T y``: the arrays :data:`_PATH_FIELDS` names, those computed here
    read-only.  One numpy call per step over the whole stack; ``cholesky``,
    ``solve``, ``svd`` and ``matmul`` give each item the bits of its own call.  Each
    ``Z^T Z`` must be positive definite."""
    st = _t(s)
    low = np.linalg.cholesky(ztz)
    u, sig, rt = np.linalg.svd(_t(np.linalg.solve(low, st)))
    r = sig.shape[-1]
    v = np.linalg.solve(_t(low), _t(rt))
    d, b1 = np.zeros(zty.shape), np.zeros(zty.shape)
    d[..., :r] = sig * sig
    b1[..., :r] = sig * _mv(_t(u[..., :r]), sy)
    return (ztz, zty, yty, *_frozen(st @ s, _mv(st, sy), _dot(sy, sy), v, d, _mv(_t(v), zty), b1))


def _check_shapes(n: int, x_shape: tuple[int, ...], a_shape: tuple[int, ...]) -> None:
    """:class:`Dataset`'s checks on the rows of ``y`` and the ``(n, d)`` and ``(n, q)``
    shapes of ``x`` and ``a``."""
    if x_shape[0] != n or a_shape[0] != n:
        raise DataError(f"row mismatch: y has {n} rows, x has {x_shape[0]}, a has {a_shape[0]}")
    d, q = x_shape[1], a_shape[1]
    if n < 1:
        raise DataError("dataset must contain at least one row")
    if d < 1 or q < 1:
        raise DataError("x and a must each contain at least one column")
    if n < max(d, q):
        raise DataError(f"need n >= max(d, q); got n={n}, d={d}, q={q}")


def _checked_rows(y: np.ndarray, x: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(R, n)``, ``(R, n, d)`` and ``(R, n, q)`` stacks of samples as float arrays,
    checked as :class:`Dataset` checks each sample, with its :class:`DataError` for
    the first sample that fails.  The finiteness check is one pass per array."""
    y, x, a = (np.asarray(arr, dtype=float) for arr in (y, x, a))
    if y.ndim != 2 or x.ndim != 3 or a.ndim != 3 or not len(y) == len(x) == len(a):
        raise ValueError(
            f"need (R, n), (R, n, d) and (R, n, q) stacks; got {y.shape}, {x.shape}, {a.shape}"
        )
    _check_shapes(y.shape[1], x.shape[1:], a.shape[1:])
    arrays = {"y": y, "x": x, "a": a}
    if not all(np.isfinite(arr).all() for arr in arrays.values()):
        finite = {
            name: np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
            for name, arr in arrays.items()
        }
        first = int(np.argmin(finite["y"] & finite["x"] & finite["a"]))
        name = next(name for name, ok in finite.items() if not ok[first])
        raise DataError(f"non-finite values in {name}")
    return y, x, a


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed data matrices.

    The constructor copies ``y``, ``x`` and ``a`` into read-only float arrays, so
    changing a caller's array later changes nothing here.  :func:`center` and
    :meth:`with_intercept` hand over arrays that they have just built, or that
    another dataset holds read-only, without that copy (:meth:`_adopt`).

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
        self._keep(*(np.array(arr, dtype=float) for arr in (self.y, self.x, self.a)))

    @classmethod
    def _adopt(cls, y: np.ndarray, x: np.ndarray, a: np.ndarray, *, y_name: str,
               x_names: tuple[str, ...], a_names: tuple[str, ...]) -> "Dataset":
        """A dataset of float arrays that no caller can change: each one just built by
        this module, or held read-only by another dataset.  Checked as the
        constructor checks its copies, and kept as they are."""
        ds = object.__new__(cls)
        for name, value in (("y_name", y_name), ("x_names", x_names), ("a_names", a_names)):
            object.__setattr__(ds, name, value)
        ds._keep(y, x, a)
        return ds

    def _keep(self, y: np.ndarray, x: np.ndarray, a: np.ndarray) -> None:
        """Check the float arrays ``y``, ``x`` and ``a`` and the names, and keep the
        arrays, made read-only in place."""
        y, x, a = y.reshape(-1), np.atleast_2d(x), np.atleast_2d(a)
        _check_shapes(y.shape[0], x.shape, a.shape)
        d, q = x.shape[1], a.shape[1]
        arrays = {"y": y, "x": x, "a": a}
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise DataError(f"non-finite values in {name}")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
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
        intercept pipeline).  The new dataset shares ``y`` and ``x`` with this one."""
        return Dataset._adopt(
            self.y, self.x, np.hstack([self.a, np.ones((self.n, 1))]),
            y_name=self.y_name, x_names=self.x_names, a_names=self.a_names + ("const",),
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
    in one call.  A regular file with no quote character anywhere is handed to
    numpy by path, which it reads in chunks; from any other file (one with a
    quote, or a pipe) the lines after the header are fed to numpy one at a time
    up to the first quote.  A file that parser cannot stand in for (one it
    rejects or warns about, one with no data rows, or one with a quote in a data
    row, which :mod:`csv` would unquote) is read again by :func:`_row_loop`, the
    ``float()``-per-cell row loop.  That loop names the first bad cell and reads
    what ``float()`` accepts but numpy does not, such as ``1_0`` and quoted
    cells.  Both parse a cell with Python's own string-to-double conversion,
    so they give the same bits.

    Raises
    ------
    DataError
        On a file that cannot be read or is not UTF-8, a missing column, a
        non-numeric cell (reported with its row and column), or too few rows.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    wanted = [schema.target, *schema.endogenous, *schema.exogenous]
    with _reading(path), path.open(newline="", encoding="utf-8-sig") as fh:
        cols = _wanted_columns(csv.reader(fh), path, wanted)
        if path.is_file() and not _has_quote(path):
            # one header line; numpy reads a path in chunks, not line by line
            mat = _fast_rows(path, cols, skiprows=1, encoding="utf-8-sig")
        else:  # a header that may span lines, or a pipe that can be read only once
            mat = _fast_rows(_unquoted(fh), cols)
    if mat is None:  # numpy's decoding error, too, is the row loop's to report
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


@contextmanager
def _reading(path: Path) -> Iterator[None]:
    """Report an ``OSError`` (such as a directory's) or a ``UnicodeDecodeError``
    raised while reading ``path`` as a :class:`DataError`: input files are UTF-8."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


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


#: Bytes :func:`_has_quote` reads at a time.
_SCAN_BYTES = 1 << 20


def _has_quote(path: Path) -> bool:
    """Whether the file holds a ``"``, read in blocks of :data:`_SCAN_BYTES`."""
    with path.open("rb") as fh:
        while block := fh.read(_SCAN_BYTES):
            if b'"' in block:  # in UTF-8 this byte is a quote and nothing else
                return True
    return False


def _fast_rows(source: Path | Iterator[str], cols: list[int], **options) -> np.ndarray | None:
    """The data rows of ``source`` parsed by ``np.loadtxt``, or ``None`` where
    only the row loop gives the right values or error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mat = np.loadtxt(
                source,
                delimiter=",",
                usecols=cols,
                ndmin=2,
                comments=None,
                dtype=float,
                **options,
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
    with _reading(path), path.open(newline="", encoding="utf-8-sig") as fh:
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
    out -= out.mean(axis=0)
    return out


def center(ds: Dataset) -> Dataset:
    """Subtract the sample mean from every column: target, endogenous and exogenous.
    The centred arrays are built once and kept, not copied again."""
    if ds.n < 2:
        raise ValueError("centering requires at least two rows")
    return Dataset._adopt(
        _demean(ds.y), _demean(ds.x), _demean(ds.a),
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


def _partition_for(d: int, q: int, partition: ModelPartition | None) -> ModelPartition:
    """``partition``, checked against ``d`` and ``q``; every endogenous regressor if ``None``."""
    if partition is None:
        partition = ModelPartition.all_endogenous(d)
    partition.validate(d, q)
    return partition


def _z(x: np.ndarray, a: np.ndarray, partition: ModelPartition) -> np.ndarray:
    """``Z = [X_* A_*]`` of each sample of a stack (``A_*`` has no column when ``q1 = 0``)."""
    return np.concatenate(
        [x[..., list(partition.included_endogenous)], a[..., list(partition.included_exogenous)]],
        axis=-1,
    )


#: The arrays of a path, in the order :func:`_path_arrays` returns them.
_PATH_FIELDS = ("ztz", "zty", "yty", "sts", "sty", "syy", "v", "d", "b0", "b1")


class PathStack:
    """The K-class paths of a stack of designs with ``k`` coefficients each, as
    ``(R, ...)`` arrays (:data:`_PATH_FIELDS`), with their stacked point routines.  An
    item without a path holds zeros, which no routine may be asked for.

    A design's path ``alpha(lam)`` minimizes ``l_OLS + lam l_IV``, equivalently
    ``(1 - kappa) l_OLS + kappa l_IV`` at ``kappa = lam / (1 + lam)``.  In ``kappa``
    form it solves ``((1 - kappa) Z^T Z + kappa S^T S) alpha = (1 - kappa) Z^T y +
    kappa S^T s_y`` with ``S = (A^T A)^{-1/2} A^T Z``.  One generalised
    eigendecomposition ``S^T S V = Z^T Z V diag(d)``, ``V^T Z^T Z V = I``, gives the
    ``lambda`` form ``V (b0 + lam b1) / (1 + lam d)`` with ``b0 = V^T Z^T y``,
    ``b1 = V^T S^T s_y``, and each system's condition in ``O(k)``.  Taken as the SVD
    of ``S L^{-T}`` (``Z^T Z = L L^T``), it makes the ``k - q`` zero ``d`` of an
    under-identified design, and their ``b1``, exact zeros.  Penalties in
    ``[0, KAPPA_FORM_MAX]`` use the ``kappa`` form, as the ``lambda`` form moves
    estimates by about 1e-15, which adds or drops ``rel_change_*`` rows in cells
    whose repetitions coincide (ROADMAP items 1 and 8); the others use the
    ``lambda`` form, exact where ``kappa`` rounds towards one.

    With ``y'y`` and ``s_y's_y`` kept too, both losses along the path are rational in
    ``lam``, without the point: at ``c = (b0 + lam b1) / (1 + lam d)``,
    ``n l_OLS = y'y - 2 c.b0 + c.c`` and ``n l_IV = s_y's_y - 2 c.b1 + sum_i d_i c_i^2``;
    PULSE finds ``lambda*`` as a root of the polynomial they give (:mod:`pulse_iv.pulse`).
    """

    def __init__(self, *arrays: np.ndarray):
        for name, arr in zip(_PATH_FIELDS, arrays, strict=True):
            setattr(self, name, arr)

    def kclass(self, kappa: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, Failed]:
        """The point at ``kappa[i]`` of each item ``items[i]``; :class:`SingularGram`
        where its system is numerically singular, which below one needs
        ``1 - kappa < 1e-12``."""
        kap, rest = kappa[:, None], 1.0 - kappa[:, None]
        den = np.abs(rest + kap * _rows(self.d, items))  # each system's spectrum in the V basis
        bad = den.min(axis=-1) <= RCOND_GRAM * den.max(axis=-1)
        if bad.any():
            alpha = np.zeros((len(items), self.d.shape[-1]))
            alpha[~bad], _ = self.kclass(kappa[~bad], items[~bad])
            return alpha, {
                r: SingularGram("Z^T P_A Z" if kk == 1.0 else "Z^T (I - kappa P_A^perp) Z")
                for r, kk in zip(items[bad].tolist(), kappa[bad].tolist())
            }
        mat = rest[..., None] * _rows(self.ztz, items) + kap[..., None] * _rows(self.sts, items)
        return _solve(mat, rest * _rows(self.zty, items) + kap * _rows(self.sty, items)), {}

    def alpha(self, lam: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, Failed]:
        """The point at penalty ``lam[i] > -1`` of each item ``items[i]``, any size up to
        overflow: in ``kappa`` form (:meth:`kclass`) up to :data:`KAPPA_FORM_MAX`, else in
        ``lambda`` form."""
        kform = (0.0 <= lam) & (lam <= KAPPA_FORM_MAX)
        if kform.all():
            return self.kclass(lam / (1.0 + lam), items)
        alpha, failed = np.zeros((len(items), self.d.shape[-1])), {}
        if kform.any():
            kl = lam[kform]
            alpha[kform], failed = self.kclass(kl / (1.0 + kl), items[kform])
        rest, lr = items[~kform], lam[~kform][:, None]
        point = (self.b0[rest] + lr * self.b1[rest]) / (1.0 + lr * self.d[rest])
        alpha[~kform] = _mv(self.v[rest], point)
        return alpha, failed


class GramView:
    """The six cross products of ``(y, Z, A)`` under one partition, and all that is
    computed from them alone: identification, condition numbers, both losses and the
    K-class solves.  Construction only stores the products.  Every routine runs on
    :attr:`stack`, the view as a one-item :class:`GramStack`, which is built on first
    read with the condition number of ``Z^T Z``, the whitened pieces and the K-class
    path, and keeps each one's error.

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
    def stack(self) -> "GramStack":
        """This view's products as a one-item :class:`GramStack`, built on first read;
        a :class:`DesignView`'s keeps its dataset's rows, as views of them."""
        ds = getattr(self, "dataset", None)
        rows = None if ds is None else (ds.y[None], ds.x[None], ds.a[None])
        products = (self.ztz, self.zty, self.atz, self.aty, self.ata, np.array(self.yty))
        return GramStack(self.partition, self.q, self.n, *_frozen(*(arr[None] for arr in products)),
                         rows=rows)

    @property
    def rcond_ztz(self) -> float:
        """Reciprocal condition number of ``Z^T Z``: :attr:`stack`'s."""
        return float(self.stack.rcond_ztz[0])

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

    def ols_loss(self, alpha: np.ndarray) -> float:
        """Mean squared residual ``n^{-1} ||y - Z alpha||^2``: :meth:`GramStack.ols_loss`
        of this view alone."""
        return float(self.stack.ols_loss(_ONE, self._check_alpha(alpha)[None])[0])

    def iv_loss(self, alpha: np.ndarray) -> float:
        """Projected mean squared residual ``n^{-1} (y - Z alpha)^T P_A (y - Z alpha)``:
        :meth:`GramStack.iv_loss` of this view alone."""
        return float(only(*self.stack.iv_loss(_ONE, self._check_alpha(alpha)[None])))

    def _check_alpha(self, alpha: np.ndarray) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=float).reshape(-1)
        if alpha.shape[0] != self.k:
            raise ValueError(f"coefficient vector must have length {self.k}, got {alpha.shape[0]}")
        return alpha

    def kclass_solve(self, kappa: float) -> np.ndarray:
        """Closed-form K-class solution, the minimizer of ``(1 - kappa) l_OLS + kappa l_IV``:
        :meth:`GramStack.kclass_solve` of this view alone."""
        return only(*self.stack.kclass_solve(np.array([float(kappa)]), _ONE))

    def min_iv_loss(self) -> float:
        """Infimum of the IV loss: zero unless the setup is over-identified."""
        if self.identification is IdentificationClass.OVER:
            return self.iv_loss(self.kclass_solve(1.0))
        return 0.0


class DesignView(GramView):
    """A :class:`GramView` built from the rows of a :class:`Dataset`, which it keeps
    as ``dataset`` (``Z = [X_* A_*]`` is its columns under ``partition``), with
    ``coef_names``.  :meth:`GramStack.from_rows` builds the same products and stack
    for many samples at once."""

    def __init__(self, dataset: Dataset, partition: ModelPartition | None = None):
        partition = _partition_for(dataset.d, dataset.q, partition)
        y, x, a = dataset.y[None], dataset.x[None], dataset.a[None]
        ztz, zty, atz, aty, ata, yty = (g[0] for g in _gram_products(y, _z(x, a, partition), a))
        self.dataset = dataset
        self.coef_names = tuple(dataset.x_names[i] for i in partition.included_endogenous) + tuple(
            dataset.a_names[i] for i in partition.included_exogenous
        )
        super().__init__(partition, dataset.q, dataset.n, ztz, zty, atz, aty, ata, yty)

    # bench/spans.py counts K-class solves by wrapping this class's own entry, which
    # its self-test asserts is found; once it wraps GramView's, the alias can go.
    kclass_solve = GramView.kclass_solve


def _at(mask: np.ndarray, values: np.ndarray) -> Iterator[tuple[int, float]]:
    """Each index where ``mask`` is true, with the value there."""
    return zip(np.flatnonzero(mask).tolist(), values[mask].tolist())


class GramStack:
    """Designs of one partition, sample size and anchor count, as one stack: the Gram
    core's routines run once over the stack, one numpy call per step, and give each
    item the bits of its own view's call.  A view's method of the same name is the
    one-item case, run on its :attr:`~GramView.stack`.

    A stack is built from its ``(R, ...)`` Gram products, which the caller must not
    change: :attr:`rcond_ztz`, the whitened :attr:`pieces` and the K-class
    :attr:`paths` are each one numpy pass over the stack, with the error of each item
    whose ``A^T A`` or ``Z^T Z`` is singular.  ``rows``, each item's ``y``, ``x`` and
    ``a`` rows or ``None``, stay for the estimators that read them (LIML).
    :meth:`from_rows` builds a stack from sampled rows.  A stack is never sliced
    or joined: a routine takes the indices of the items it runs on (``items``) and
    returns its values for each, and a :data:`Failed` entry for each item that
    raised, at which its value is a placeholder.
    """

    def __init__(
        self, partition: ModelPartition, q: int, n: int, ztz: np.ndarray, zty: np.ndarray,
        atz: np.ndarray, aty: np.ndarray, ata: np.ndarray, yty: np.ndarray,
        rows: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        self.partition, self.q, self.n = partition, q, n
        self.d1, self.q1, self.q2 = partition.d1, partition.q1, q - partition.q1
        self.k = self.d1 + self.q1
        self.identification = partition.identification_class(q)
        self.items = np.arange(len(ztz))
        self.ztz, self.zty, self.atz, self.aty, self.ata, self.yty = ztz, zty, atz, aty, ata, yty
        self.rows = rows
        self.rcond_ztz = rc_ztz = _frozen(rcond_symmetric(ztz))[0]
        rc_ata, ok, s, sy = _iv_pieces(ata, atz, aty)
        failed: Failed = {r: SingularGram("A^T A", c) for r, c in _at(~ok, rc_ata)}
        self.pieces = s, sy, failed
        good = ok & (rc_ztz >= RCOND_GRAM)
        failed = {**failed, **{r: SingularGram("Z^T Z", c) for r, c in _at(ok & ~good, rc_ztz)}}
        at = np.flatnonzero(good)
        arrays = _path_arrays(*(_rows(arr, at) for arr in (ztz, zty, s, sy, yty)))
        self.paths = PathStack(*_scattered(good, arrays)), dict(sorted(failed.items()))

    @classmethod
    def from_rows(
        cls, y: np.ndarray, x: np.ndarray, a: np.ndarray, partition: ModelPartition | None = None
    ) -> "GramStack":
        """The stack of the samples of ``(R, n)``, ``(R, n, d)`` and ``(R, n, q)``
        stacks, as :func:`~pulse_iv.sem.sample_stack` draws them: item ``r`` has the
        bits of ``DesignView(Dataset(y[r], x[r], a[r]), partition)`` in every product,
        condition number, whitened piece and path, and its error where ``A^T A`` or
        ``Z^T Z`` is singular.  The stack keeps read-only views of the rows, which
        the caller must not change.

        Raises
        ------
        DataError
            As :class:`Dataset` does, for the first sample that fails its checks.
        """
        y, x, a = _checked_rows(y, x, a)
        partition = _partition_for(x.shape[-1], a.shape[-1], partition)
        grams = _gram_products(y, _z(x, a, partition), a)
        rows = _frozen(y.view(), x.view(), a.view())
        return cls(partition, a.shape[-1], a.shape[-2], *grams, rows=rows)

    def __len__(self) -> int:
        return len(self.items)

    def ols_loss(self, items: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """Mean squared residual ``n^{-1} ||y - Z alpha||^2`` of each item at its row of
        ``alpha``."""
        row = alpha[:, None, :]
        val = _rows(self.yty, items) - 2.0 * (row @ _rows(self.zty, items)[..., None])[:, 0, 0]
        val = (val + (row @ _rows(self.ztz, items) @ alpha[..., None])[:, 0, 0]) / self.n
        return np.maximum(val, 0.0)  # no -0.0 to keep: y'y - 2 a.Z'y is not one

    def iv_loss(self, items: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, Failed]:
        """Projected mean squared residual ``n^{-1} (y - Z alpha)^T P_A (y - Z alpha)``
        of each item at its row of ``alpha``; :class:`SingularGram` where ``A^T A`` is
        singular."""
        s, sy, failed = self.pieces
        res = _rows(sy, items) - _mv(_rows(s, items), alpha)
        if failed:
            failed = {r: failed[r] for r in items[~passed(items, failed)].tolist()}
        return _dot(res, res) / self.n, failed  # a sum of squares: never below zero

    def kclass_solve(self, kappa: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, Failed]:
        """Closed-form K-class solution of each item at ``kappa[i]``, the minimizer of
        ``(1 - kappa) l_OLS + kappa l_IV``: the item's path (:attr:`paths`) in
        ``kappa`` form (:meth:`PathStack.kclass`), equal to its ``lambda`` form
        ``V (b0 + lam b1) / (1 + lam d)`` at ``lam = kappa / (1 - kappa)``.
        ``kappa = 1`` is TSLS and fails with :class:`UnderIdentified` if ``q2 < d1``;
        :class:`SingularGram` marks a singular Gram or K-class matrix.  ``kappa = 0``
        is OLS, which solves ``Z^T Z alpha = Z^T y`` directly (the same bits as the
        path) and so needs no regular ``A^T A``.
        """
        alpha = np.zeros((len(items), self.k))
        failed: Failed = {}
        ols = kappa == 0.0
        if ols.any():
            at = items[ols]
            rc = _rows(self.rcond_ztz, at)
            singular = rc < RCOND_GRAM
            if singular.any():
                failed.update(
                    (r, SingularGram("Z^T Z", c))
                    for r, c in zip(at[singular].tolist(), rc[singular].tolist())
                )
            at, solved = at[~singular], np.flatnonzero(ols)[~singular]
            alpha[solved] = _solve(_rows(self.ztz, at), _rows(self.zty, at))
            if ols.all():
                return alpha, failed
        rest = np.flatnonzero(~ols)
        if self.q2 < self.d1:
            tsls = kappa[rest] == 1.0
            failed.update((r, UnderIdentified(
                f"TSLS (kappa=1) undefined with q2={self.q2} < d1={self.d1}; use modified_tsls"
            )) for r in items[rest[tsls]].tolist())
            rest = rest[~tsls]
        paths, singular_paths = self.paths
        if singular_paths:
            on_path = passed(items[rest], singular_paths)
            failed.update((r, singular_paths[r]) for r in items[rest[~on_path]].tolist())
            rest = rest[on_path]
        alpha[rest], path_failed = paths.kclass(kappa[rest], items[rest])
        failed.update(path_failed)
        return alpha, failed
