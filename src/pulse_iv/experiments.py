"""Monte Carlo experiment runner and performance metrics.

Designs: a univariate weak-instrument grid, two multivariate confounding
studies, a distributional-robustness path study, and an under-identified
convergence study.  Every run is deterministic given the master seed: cells
and repetitions own derived counter-based streams and metric reductions sum
in repetition order (see :func:`summarize_stacks`).
"""

from __future__ import annotations

import atexit
import csv
import io
import json
import os
import signal
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from functools import cache, cached_property, partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import __version__
from .data import (
    RCOND_GRAM, GramStack, IdentificationClass, _checked_rows, _frozen, _gram_products,
    _partition_for, _z, rcond_symmetric,
)
from .designs import _EVERY_DESIGN_READS, _GRID_DESIGNS, DESIGNS
from .estimators import EstimatorSpec, estimate, parse_estimators
from .exceptions import DataError, SingularGram
from .inference import TestConfig, _weak_instrument_arrays
from .pulse import PulseConfig
from .sem import (
    MODEL_STREAM,
    SemModel,
    _rekeyed_generator,
    e1_model,
    e3_model,
    mv_fixed_model,
    mv_varying_model,
    population_pulse_underid,
    sample_stack,
    sem_sample,  # not called here: bench/spans.py wraps this name (ROADMAP item 2)
    univariate_model,
    wcmspe_curve_e1,
    xi_from_r2,
)

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF

#: Declared grids of the univariate study; other values need the extension flag.
UNIVARIATE_DECLARED = {
    "q": (1, 2, 3, 4, 5, 10, 20, 30),
    "rho": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    "r2": (0.0001, 0.001, 0.01, 0.1, 0.3),
    "n": (50, 100, 150),
}

#: Noise triples (eta, phi1, phi2) of the fixed-confounding study.
FIXED_NOISE_DECLARED = (
    (0.80, 0.19, 0.19),
    (0.20, 0.15, 0.15),
    (0.80, 0.47, 0.47),
    (0.20, 0.39, 0.39),
    (0.80, 0.76, 0.76),
    (0.20, 0.62, 0.62),
)

#: Default sample sizes of the under-identified convergence study.
UNDERID_N = (100, 1000, 10000)

#: Reference hard-intervention strength for the robustness path study.
ROBUSTNESS_REFERENCE_X = 2.0

#: Default sample size of the robustness path study.
ROBUSTNESS_N = 2000


def cell_seed(master_seed: int, cell_index: int, rep_index: int) -> int:
    """Derived 64-bit stream seed: golden-ratio cell offset, XOR repetition.

    Known defect: ``sem._philox_key`` converts a seed of 2^63 or more through
    float64, which drops the low 11 bits that carry ``rep_index``; nearly every
    repetition of such a cell (about half of all cells) draws the same sample.
    See ROADMAP item 1.
    """
    return ((master_seed + _GOLDEN * cell_index) ^ rep_index) & _MASK


def relative_change(metric_competitor: float, metric_pulse: float) -> float:
    """Signed relative change ``(competitor - pulse) / pulse``; positive favours PULSE."""
    if metric_pulse == 0.0:
        raise ZeroDivisionError("relative change undefined for a zero reference metric")
    if metric_pulse < 0.0:
        raise ValueError("reference metric must be positive")
    return (metric_competitor - metric_pulse) / metric_pulse


class MseOrder(str, Enum):
    """Verdict of the PSD partial order between two MSE matrices."""

    A_LESS_OR_EQUAL = "a<=b"
    B_LESS_OR_EQUAL = "b<=a"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def mse_partial_order(mse_a: np.ndarray, mse_b: np.ndarray) -> MseOrder:
    """Compare MSE matrices in the PSD cone with a Monte Carlo noise floor of
    ``1e-9`` times the larger trace."""
    a = np.atleast_2d(np.asarray(mse_a, dtype=float))
    b = np.atleast_2d(np.asarray(mse_b, dtype=float))
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"MSE matrices must be square and same shape; got {a.shape}, {b.shape}")
    return _mse_orders(a[None], b[None])[0]


def _mse_orders(mse_as: np.ndarray, mse_bs: np.ndarray) -> list[MseOrder]:
    """:func:`mse_partial_order` of each pair of matrices of the ``(P, k, k)`` stacks
    ``mse_as`` and ``mse_bs``, in one numpy pass: stacked ``eigvalsh`` and ``trace``
    give each pair its own noise floor and the bits of its own call."""
    for name, mats in (("mse_a", mse_as), ("mse_b", mse_bs)):
        flipped = mats.transpose(0, 2, 1)
        atol = 1e-10 * np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))[:, None, None]
        with np.errstate(invalid="ignore"):  # np.allclose's test, with each matrix's own atol
            close = (np.abs(mats - flipped) <= atol + 1e-5 * np.abs(flipped)) & np.isfinite(flipped)
        if not (close | (mats == flipped)).all():
            raise ValueError(f"{name} must be symmetric")
    traces = [np.trace(mats, axis1=1, axis2=2) for mats in (mse_as, mse_bs)]
    tol = 1e-9 * np.maximum(np.maximum(*traces), 1e-300)
    diff = mse_bs - mse_as
    flipped = diff.transpose(0, 2, 1)
    sym = np.concatenate([0.5 * (diff + flipped), 0.5 * (-diff - flipped)])
    psd = np.linalg.eigvalsh(sym)[:, 0] >= -np.concatenate([tol, tol])  # b - a, then a - b
    verdicts = (
        MseOrder.INCOMPARABLE, MseOrder.B_LESS_OR_EQUAL, MseOrder.A_LESS_OR_EQUAL, MseOrder.EQUAL
    )
    return [verdicts[i] for i in (2 * psd[: len(diff)] + psd[len(diff):]).tolist()]


def rho_norm_multivariate(mu: np.ndarray, delta: np.ndarray, sigma_sq: tuple[float, float]) -> float:
    """Confounding strength ``||rho||`` of the varying-confounding design."""
    mu = np.asarray(mu, dtype=float).reshape(2)
    delta = np.asarray(delta, dtype=float).reshape(2, 2)
    inner = delta.T @ delta + np.diag(sigma_sq)
    rc = rcond_symmetric(inner)
    if rc < RCOND_GRAM:
        raise SingularGram("delta^T delta + diag(sigma^2)", rc)
    val = float(mu @ delta @ np.linalg.solve(inner, delta.T @ mu))
    return float(np.sqrt(max(val, 0.0) / (mu @ mu + 1.0)))


@dataclass
class EstimatorMetrics:
    """Monte Carlo summary of one estimator within one grid cell."""

    n_used: int
    bias: np.ndarray
    mse: np.ndarray
    variance: np.ndarray
    trace_mse: float
    det_mse: float
    rmse: float
    iqr: np.ndarray
    median_abs_error: float


def summarize_estimates(estimates: np.ndarray, target: np.ndarray) -> EstimatorMetrics:
    """Bias/MSE summaries from stacked per-repetition estimates."""
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    return summarize_stacks(est[None], target)[0]


def summarize_stacks(stacks: np.ndarray, target: np.ndarray) -> list[EstimatorMetrics]:
    """:func:`summarize_estimates` of each estimator of an ``(E, R, k)`` stack of
    per-repetition estimates, in one numpy pass over the stack.  ``target`` is the
    estimand of all of them, or an ``(E, k)`` stack of one per estimator, so that
    one pass summarizes the estimators of many cells.

    Each estimator's summary has the bits of its own call: repetition order
    fixes the bits of every sum.  A bias sums each coordinate's errors row
    after row (numpy's pairwise summation where ``k`` is 1); an MSE entry sums
    one contiguous product vector, pairwise.
    """
    stacks = np.asarray(stacks, dtype=float)
    n_used, k = stacks.shape[1:]
    err = stacks - np.asarray(target, dtype=float).reshape(-1, 1, k)
    mean_err = np.sum(err, axis=1) / n_used
    rows, cols = np.triu_indices(k)
    by_coord = np.ascontiguousarray(err.transpose(0, 2, 1))  # (E, k, R)
    upper = np.sum(by_coord[:, rows] * by_coord[:, cols], axis=2) / n_used
    mse = np.empty((len(stacks), k, k))
    mse[:, rows, cols] = mse[:, cols, rows] = upper
    variance = mse - mean_err[:, :, None] * mean_err[:, None, :]
    quart = np.quantile(stacks, [0.25, 0.75], axis=1, method="linear")
    trace_mse = np.trace(mse, axis1=1, axis2=2)
    det_mse = np.linalg.det(mse)
    median_abs_error = np.median(np.linalg.norm(err, axis=2), axis=1)
    return [
        EstimatorMetrics(n_used, *each)
        for each in zip(
            mean_err, mse, variance, trace_mse.tolist(), det_mse.tolist(),
            np.sqrt(trace_mse).tolist(), quart[1] - quart[0], median_abs_error.tolist(),
        )
    ]


@dataclass
class CellResult:
    """All per-cell outputs: parameters, per-estimator metrics, diagnostics."""

    params: dict[str, Any]
    metrics: dict[str, EstimatorMetrics]
    failures: dict[str, dict[str, int]]
    weak: dict[str, float] = field(default_factory=dict)
    pairwise: dict[str, dict[str, Any]] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentConfig:
    """Design name, grids, repetition count and seeding for one experiment."""

    design: str
    repetitions: int = 1000
    master_seed: int = 0
    p_min: float = 0.05
    estimators: tuple[str, ...] | None = None
    q_values: tuple[int, ...] | None = None
    rho_values: tuple[float, ...] | None = None
    r2_values: tuple[float, ...] | None = None
    n_values: tuple[int, ...] | None = None
    n_models: int = 100
    sample_size: int = 50
    noise_triples: tuple[tuple[float, float, float], ...] | None = None
    allow_extensions: bool = False

    def __post_init__(self) -> None:
        if self.design not in DESIGNS:
            valid = ", ".join(DESIGNS)
            raise ValueError(f"unknown design {self.design!r}; valid designs: {valid}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        if self.n_models < 1:
            raise ValueError("n_models must be positive")
        if self.n_values is not None and any(n < 1 for n in self.n_values):
            raise ValueError(f"n_values must be positive, got {list(self.n_values)}")
        TestConfig(p_min=self.p_min)  # raises on p_min outside (0, 1)
        if self.estimators:  # an empty list is refused below, with the other empty fields
            parse_estimators(self.estimators)
        empty = [f for f in _SEQUENCE_FIELDS if getattr(self, f) is not None and not getattr(self, f)]
        if empty:
            raise ValueError(f"empty {', '.join(empty)}; give a value, or null for the default")
        if self.design == "robustness-e1" and self.n_values is not None and len(self.n_values) > 1:
            raise ValueError(f"robustness-e1 takes one n, got n_values {list(self.n_values)}")
        if self.design == "univariate" and not self.allow_extensions:
            grids = {
                "q": self.q_values,
                "rho": self.rho_values,
                "r2": self.r2_values,
                "n": self.n_values,
            }
            for name, values in grids.items():
                if values is None:
                    continue
                extras = [v for v in values if v not in UNIVARIATE_DECLARED[name]]
                if extras:
                    raise ValueError(
                        f"{name} values {extras} outside the declared grid "
                        f"{UNIVARIATE_DECLARED[name]}; set allow_extensions=True to proceed"
                    )
        reads = _EVERY_DESIGN_READS + _GRID_DESIGNS[self.design].reads
        unread = [
            f.name for f in fields(self)
            if f.name not in reads and getattr(self, f.name) != f.default
        ]
        if unread:
            raise ValueError(
                f"design {self.design} does not read {', '.join(unread)}; "
                "leave it out or at its default"
            )
        for eta, phi1, phi2 in self.noise_triples or ():
            try:
                if not abs(eta) < 1.0:  # rho_norm divides by 1 - eta^2
                    raise ValueError("|eta| must be < 1")
                mv_fixed_model(np.zeros((2, 2)), eta, phi1, phi2)
            except ValueError as exc:
                raise ValueError(f"noise triple {[eta, phi1, phi2]}: {exc}") from None
        source, n, q = _smallest_n_largest_q(self)
        if n <= q:
            raise ValueError(
                f"{source} gives {self.design} a cell with n={n} and q={q}; "
                "every cell needs n > q"
            )

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_json(doc: Any) -> "ExperimentConfig":
        """The config a parsed JSON document describes; lists become tuples.

        Raises
        ------
        DataError
            If ``doc`` is not an object, lacks ``design``, has a key that is not
            a field, has a value of the wrong type, or describes no valid config.
        """
        if not isinstance(doc, dict):
            raise DataError(f"experiment config must be a JSON object, got {doc!r}")
        kinds = {f.name: _SEQUENCE_FIELDS.get(f.name, f.type) for f in fields(ExperimentConfig)}
        unknown = sorted(set(doc) - set(kinds))
        if unknown:
            raise DataError(f"unknown experiment config key(s) {unknown}; valid: {sorted(kinds)}")
        if "design" not in doc:
            raise DataError("experiment config missing field 'design'")
        kwargs: dict[str, Any] = {}
        for key, value in doc.items():
            kind = kinds[key]
            if key not in _SEQUENCE_FIELDS:
                if not _json_is(value, kind):
                    raise DataError(f"experiment config {key!r} must be {kind}, got {value!r}")
            elif value is not None:
                if not isinstance(value, (list, tuple)) or not all(_json_is(v, kind) for v in value):
                    raise DataError(
                        f"experiment config {key!r} must be a list of {kind} or null, got {value!r}"
                    )
                value = tuple(tuple(v) if kind == "triple" else v for v in value)
            kwargs[key] = value
        try:
            return ExperimentConfig(**kwargs)
        except ValueError as exc:
            raise DataError(f"experiment config: {exc}") from None


#: Element kind of each sequence field of :class:`ExperimentConfig` (all may be null).
_SEQUENCE_FIELDS = {
    "estimators": "str",
    "q_values": "int",
    "rho_values": "float",
    "r2_values": "float",
    "n_values": "int",
    "noise_triples": "triple",
}


def _smallest_n_largest_q(cfg: ExperimentConfig) -> tuple[str, int, int]:
    """The field that sets a design's sample sizes, the smallest sample size ``n``
    and the largest instrument count ``q`` among its cells.  No design has more
    than ``q + 1`` regressors, so ``n > q`` also gives ``n >= d``."""
    if cfg.design == "robustness-e1":
        return "n_values", (cfg.n_values or (ROBUSTNESS_N,))[0], 1
    if cfg.design == "univariate":
        n_grid = cfg.n_values or UNIVARIATE_DECLARED["n"]
        return "n_values", min(n_grid), max(cfg.q_values or UNIVARIATE_DECLARED["q"])
    if cfg.design == "underid-e3":
        return "n_values", min(cfg.n_values or UNDERID_N), 1
    return "sample_size", cfg.sample_size, 2  # mv-random and mv-fixed


def _json_is(value: Any, kind: str) -> bool:
    """Whether a JSON value is a ``str``, ``int``, ``float`` (an int counts),
    ``bool`` or ``triple`` (three floats); booleans are not numbers."""
    if kind == "triple":
        return isinstance(value, (list, tuple)) and len(value) == 3 and all(
            _json_is(v, "float") for v in value
        )
    if kind == "bool":
        return isinstance(value, bool)
    types = {"str": str, "int": int, "float": (int, float)}[kind]
    return isinstance(value, types) and not isinstance(value, bool)


@dataclass
class ExperimentResult:
    """Cells, canonical CSV rows, their rendered CSV text, and the manifest.

    ``rows`` holds one dict per CSV line, keyed by ``columns``.  For a grid design
    it is built from ``cells`` on first read, once, and kept; ``csv_text`` is
    rendered without it.  ``robustness-e1`` has no cells: its rows, one per
    repetition and ``kappa``, are set as they are built."""

    design: str
    config: ExperimentConfig
    cells: list[CellResult]
    columns: list[str]
    csv_text: str

    @cached_property
    def rows(self) -> list[dict[str, Any]]:
        params = self.columns[:-4]  # then estimator, metric, value and repetitions_used
        rows: list[dict[str, Any]] = []
        for cell in self.cells:
            values = [cell.params[name] for name in params]
            rows += [dict(zip(self.columns, (*values, *line))) for line in _cell_lines(cell)]
        return rows

    def manifest(self) -> dict[str, Any]:
        return {
            "design": self.design,
            "master_seed": self.config.master_seed,
            "config": self.config.to_json(),
            "columns": self.columns,
            "library_version": __version__,
        }


@dataclass(frozen=True, eq=False)
class _Cell:
    """One grid cell: its CSV parameters, the constructor of its model with the
    model's draws bound, its ``shape`` (sample size ``n``, anchor count ``q``,
    regressor count ``d`` and SEM coordinate count ``k`` of the model) and the
    estimand.  The step builds the model, in the process that samples the cell; the
    reduction reads only ``params`` and ``target``, and the chunking only ``shape``."""

    params: dict[str, Any]
    build: Callable[[], SemModel]
    shape: tuple[int, int, int, int]
    target: np.ndarray


class _Chunk(NamedTuple):
    """Repetitions of consecutive cells of one shape, all the step needs, as data:
    ``parts`` holds, in cell order, each cell's index, the constructor of its model
    and the repetitions ``reps`` of it in the chunk."""

    parts: tuple[tuple[int, Callable[[], SemModel], range], ...]
    n: int
    specs: tuple[EstimatorSpec, ...]
    master_seed: int
    p_min: float


class _Outputs(NamedTuple):
    """The step's outputs for ``R`` repetitions (a chunk's, or those of one cell in
    it), as arrays with a row per repetition: each estimator's ``alpha`` (``(R, E,
    k)``, NaN where it raised) and the class name of the error it raised (``(R, E)``,
    ``""`` where it did not); then ``weak_instrument_stat``'s smallest eigenvalue
    (``(R,)``) and ``G_n`` (``(R, d1, d1)``), NaN where it raised."""

    alpha: np.ndarray
    errors: np.ndarray
    min_eig: np.ndarray
    g: np.ndarray


def _joined(outputs: list[_Outputs]) -> _Outputs:
    """The outputs of consecutive runs of repetitions, as one."""
    if len(outputs) == 1:
        return outputs[0]
    return _Outputs(*(np.concatenate(arrays) for arrays in zip(*outputs)))


#: Sampled values (``n`` rows of ``q`` anchors and ``k`` SEM coordinates) per sampling
#: slice of a chunk whose estimators read no rows (:func:`_row_free_stack`).  A
#: repetition with more is a slice of its own: at ``n = 1e4`` (``underid-e3``) a whole
#: chunk ran at 4.8 ms per repetition in slices of 40 against 4.5 ms one at a time
#: (median of 5 runs of 40 repetitions, 2-core Xeon, numpy 2.4.6), and one slice per
#: repetition there keeps the sampling threads busy.
STACK_ELEMENTS = 2**16

#: Sampled values per stack of a chunk whose estimators read rows (:func:`_stacks`),
#: sampled and built in one numpy pass per step.  Each such stack pays a fixed cost
#: of a few ms: at ``n = 150``, ``q = 10`` a chunk of 3 repetitions took 3.0-3.7 ms
#: against 21-22 ms for 75, each one stack (sampling and the univariate design's
#: estimators; 2-core machine, numpy 2.4.6).  This budget holds 145 of them, and 54
#: at ``q = 30``; :data:`STACK_ELEMENTS` held 36 and 13.  A stack runs on from one
#: cell of a chunk to the next; only this budget and a chunk's end cut it.
ROW_STACK_ELEMENTS = 2**18


#: The name of :func:`_in_order`'s helper threads.
SAMPLER_THREAD = "pulse-iv-sampler"


#: One slice of :func:`_slice_plan`: ``(model, seeds)`` parts, in order.
_Slice = tuple[tuple[SemModel, Sequence[int]], ...]


def _per_stack(budget: int, n: int, q: int, k: int) -> int:
    """Repetitions of ``n`` rows of ``q`` anchors and ``k`` SEM coordinates in one stack
    of up to ``budget`` sampled values; at least one."""
    return max(1, budget // (n * (q + k)))


def _slice_plan(
    models: Sequence[SemModel], n: int, seeds: Sequence[Sequence[int]], budget: int
) -> list[_Slice]:
    """The slices of the samples of each model at its seeds, in order: each slice the
    ``(model, seeds)`` parts of up to ``budget`` sampled values, run on from one
    model's seeds to the next's."""
    per_stack = _per_stack(budget, n, models[0].q, models[0].k)
    plan: list[_Slice] = []
    parts: list[tuple[SemModel, Sequence[int]]] = []
    room = per_stack
    for model, own in zip(models, seeds):
        start = 0
        while start < len(own):
            taken = own[start : start + room]
            parts.append((model, taken))
            start, room = start + len(taken), room - len(taken)
            if not room:
                plan.append(tuple(parts))
                parts, room = [], per_stack
    if parts:
        plan.append(tuple(parts))
    return plan


def _sampled(parts: _Slice, n: int) -> tuple[np.ndarray, ...]:
    """The ``y``, ``x`` and ``a`` rows of one slice of :func:`_slice_plan`: one
    :func:`~pulse_iv.sem.sample_stack` call per model, joined in order."""
    samples = [sample_stack(model, n, taken) for model, taken in parts]
    return samples[0] if len(samples) == 1 else tuple(np.concatenate(arr) for arr in zip(*samples))


@contextmanager
def _ctrl_c_held() -> Iterator[None]:
    """Hold back Ctrl-C on the main thread, the one it reaches, until the block ends,
    then hand it to the SIGINT handler, which raises ``KeyboardInterrupt``.  Where
    Ctrl-C is ignored or ends the process, nothing is held."""
    handler = signal.getsignal(signal.SIGINT)
    if threading.current_thread() is not threading.main_thread() or not callable(handler):
        yield
        return
    held: list[tuple[int, Any]] = []
    signal.signal(signal.SIGINT, lambda *caught: held.append(caught))
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, handler)
        if held:
            handler(*held[0])


def _in_order(fn: Callable[[Any], Any], items: Sequence[Any], threads: int) -> list[Any]:
    """``[fn(item) for item in items]``, computed on this thread and up to ``threads -
    1`` helper threads, each taking the next item from a shared counter.  It raises
    the error of the first item, in order, that fails, as the loop would: the items
    are taken in order, so every item before a failed one has been taken and runs to
    its end.  After an item fails, or after Ctrl-C reaches this thread, no thread
    starts another item, and every helper has been joined when this returns or
    raises: Ctrl-C is held back while the helpers are started and joined."""
    helpers = min(threads, len(items)) - 1
    results: list[Any] = [None] * len(items)
    errors: dict[int, BaseException] = {}
    lock, stop = threading.Lock(), threading.Event()
    order = iter(range(len(items)))

    def work() -> None:
        while True:
            with lock:
                i = None if stop.is_set() else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # Ctrl-C too: raised below, after the joins
                with lock:
                    errors[i] = exc
                    stop.set()
                return

    started: list[threading.Thread] = []
    try:
        with _ctrl_c_held():
            for _ in range(helpers):
                helper = threading.Thread(target=work, name=SAMPLER_THREAD, daemon=True)
                helper.start()
                started.append(helper)
        work()
    finally:
        with _ctrl_c_held():
            stop.set()  # also after a Ctrl-C outside ``fn``
            for helper in started:
                helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def _stacks(
    models: Sequence[SemModel], n: int, seeds: Sequence[Sequence[int]]
) -> Iterator[GramStack]:
    """The stack of each slice of :func:`_slice_plan` of :data:`ROW_STACK_ELEMENTS`
    values, sampled as it is read, which keeps its rows; item ``r`` of each has the
    bits of ``DesignView(sem_sample(model, n, seed))``."""
    plan = _slice_plan(models, n, seeds, ROW_STACK_ELEMENTS)
    return (GramStack.from_rows(*_sampled(parts, n)) for parts in plan)


def _row_free_stack(
    models: Sequence[SemModel], n: int, seeds: Sequence[Sequence[int]], threads: int = 1
) -> GramStack:
    """One stack of every slice of :func:`_slice_plan` of :data:`STACK_ELEMENTS` values,
    without rows: each slice's Gram products, its rows then dropped, joined.  Each
    item has the bits of its item of :func:`_stacks` in every product, piece and path,
    and its error.  The slices are sampled on this thread and up to ``threads - 1``
    helpers (:func:`_in_order`): sampling at a large ``n`` spends nearly all of its
    time in numpy loops that release the GIL, and each thread reads its streams from
    a Philox of its own."""
    partition = _partition_for(len(models[0].x_indices), models[0].q, None)

    def products(parts: _Slice) -> tuple[np.ndarray, ...]:
        y, x, a = _checked_rows(*_sampled(parts, n))
        return _gram_products(y, _z(x, a, partition), a)

    sliced = _in_order(products, _slice_plan(models, n, seeds, STACK_ELEMENTS), threads)
    grams = _frozen(*(np.concatenate(arrays) for arrays in zip(*sliced)))
    return GramStack(partition, models[0].q, n, *grams)


def _reads_rows(model: SemModel, specs: tuple[EstimatorSpec, ...], pulse_cfg: PulseConfig) -> bool:
    """Whether an estimator of ``specs`` reads a view's rows on ``model``'s samples, as
    LIML's ``kappa`` does for ``liml``, ``fuller`` and the fallback of an
    over-identified PULSE."""
    kinds = {spec.kind for spec in specs}
    over = model.observed_partition().identification_class(model.q) is IdentificationClass.OVER
    if "pulse" in kinds and over:
        kinds.add(pulse_cfg.fallback.kind)
    return not kinds.isdisjoint(("liml", "fuller"))


def _run_chunk(chunk: _Chunk, threads: int = 1) -> _Outputs:
    """The step: build each part's model, sample each repetition of ``chunk`` with
    its cell's model, fit every estimator on it and return the outputs, a row per
    repetition in part order (:func:`_parts` splits them): a worker sends back four
    arrays per chunk, not four per part.
    The samples are built into stacks that run across parts, each one
    :class:`GramStack` that ``G_n`` (``weak_instrument_stat``'s arrays) and each
    estimator run over at once, with each repetition's bits and errors.  Where it
    runs does not matter: each repetition draws from its own stream.

    A chunk whose estimators read no rows (``underid-e3``) is one row-free stack,
    whose slices are sampled on this thread and up to ``threads - 1`` helper
    threads (:func:`_row_free_stack`); a worker process passes 1, as the pool
    already runs one worker per CPU.  A chunk whose estimators read rows (the
    univariate and mv designs, and any chunk with ``liml`` or ``fuller``) is
    sampled and estimated slice by slice on this thread: its slices are small, and
    BLAS threads already keep the cores busy."""
    pulse_cfg = PulseConfig(p_min=chunk.p_min)
    models = [build() for _, build, _ in chunk.parts]
    seeds = [
        [cell_seed(chunk.master_seed, index, rep) for rep in reps] for index, _, reps in chunk.parts
    ]
    if _reads_rows(models[0], chunk.specs, pulse_cfg):
        stacks: Iterable[GramStack] = _stacks(models, chunk.n, seeds)
    else:
        # one row-free stack for the chunk: a large n, sampled one repetition at a
        # time, is still estimated in one stack, while at most one slice's rows live
        # per sampling thread
        stacks = [_row_free_stack(models, chunk.n, seeds, threads)]
    outputs = []
    for stack in stacks:
        g, min_eig, _ = _weak_instrument_arrays(stack)
        fits = [estimate(stack, spec, pulse_cfg) for spec in chunk.specs]
        alpha = np.stack([fit.alpha for fit in fits], axis=1)
        errors = np.full(alpha.shape[:2], "", dtype=object)
        for e, fit in enumerate(fits):
            alpha[list(fit.failed), e] = np.nan
            errors[list(fit.failed), e] = [type(exc).__name__ for exc in fit.failed.values()]
        outputs.append(_Outputs(alpha, errors, min_eig, g))
    return _joined(outputs)


def _parts(chunk: _Chunk, outputs: _Outputs) -> list[_Outputs]:
    """Each part's outputs of a chunk's :func:`_run_chunk` outputs, as views."""
    stops = np.cumsum([len(reps) for _, _, reps in chunk.parts]).tolist()
    return [
        _Outputs(*(arr[start:stop] for arr in outputs)) for start, stop in zip([0, *stops], stops)
    ]


def _by_count(mask: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The rows of a 2-D ``mask`` grouped by their count of true entries: each count
    but 0, in order of its first row, with the indices of its rows."""
    counts = mask.sum(axis=1)
    found, first = np.unique(counts, return_index=True)
    return [(int(c), np.flatnonzero(counts == c)) for c in found[np.argsort(first)] if c]


def _taken(values: np.ndarray, mask: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """``values[r][mask[r]]`` of each row ``r`` of ``rows``, each with ``count`` true
    entries, as one ``(len(rows), count, ...)`` array, in order."""
    return values[rows][mask[rows]].reshape(len(rows), count, *values.shape[2:])


def _reduce_cells(
    batch: list[tuple[_Cell, list[_Outputs]]], estimators: tuple[tuple[str, EstimatorSpec], ...]
) -> list[CellResult]:
    """The reduction: the metrics of each cell of ``batch`` from its outputs, joined
    in repetition order, so the sums and their bits do not depend on where the
    repetitions ran.  Every cell of a batch has the same number of repetitions.

    The batch's outputs are joined once and reduced in array passes over all of its
    cells: the masks of the estimates made, the failure counts and the ``G_n``
    sums (a ``cumsum`` along the repetition axis, which adds in repetition order).
    One :func:`summarize_stacks` call per count of repetitions used, one
    :func:`_mse_orders` call and one ``eigvalsh`` of the mean ``G_n`` serve every
    cell, and each cell keeps the bits of its own reduction.  Python assembles the
    result objects and takes each pair's :func:`relative_change`."""
    if not batch:
        return []
    labels = [label for label, _ in estimators]
    out = _joined([part for _, parts in batch for part in parts])
    cells, width = len(batch), len(labels)
    reps, k = len(out.alpha) // cells, out.alpha.shape[2]
    # one item per cell and estimator, in cell then estimator order, of the cell's reps
    alpha = out.alpha.reshape(cells, reps, width, k).transpose(0, 2, 1, 3).reshape(-1, reps, k)
    errors = out.errors.reshape(cells, reps, width).transpose(0, 2, 1).reshape(-1, reps)
    made = ~np.isnan(alpha[..., 0])

    failures: list[dict[str, dict[str, int]]] = [{} for _ in batch]
    for item in np.flatnonzero(~made.all(axis=1)).tolist():
        c, e = divmod(item, width)
        failures[c][labels[e]] = dict(Counter(errors[item][~made[item]].tolist()))

    summaries: list[EstimatorMetrics | None] = [None] * len(alpha)
    targets = np.array([cell.target for cell, _ in batch])
    for used, items in _by_count(made):  # one numpy pass per count of estimates made
        stacks = _taken(alpha, made, items, used)
        for item, met in zip(items.tolist(), summarize_stacks(stacks, targets[items // width])):
            summaries[item] = met
    metrics = [
        {
            label: met for label, met in zip(labels, summaries[c * width : (c + 1) * width])
            if met is not None
        }
        for c in range(cells)
    ]

    pulse_label = next((label for label, spec in estimators if spec.kind == "pulse"), None)
    pairs = [
        (c, label) for c, cell in enumerate(metrics) if pulse_label in cell
        for label in cell if label != pulse_label
    ]
    pairwise: list[dict[str, dict[str, Any]]] = [{} for _ in batch]
    if pairs:
        refs = [metrics[c][pulse_label] for c, _ in pairs]
        mets = [metrics[c][label] for c, label in pairs]
        orders = _mse_orders(np.array([m.mse for m in refs]), np.array([m.mse for m in mets]))
        for (c, label), ref, met, order in zip(pairs, refs, mets, orders):
            entry: dict[str, Any] = {"mse_order_vs_pulse": order.value}
            for scalar in ("rmse", "trace_mse", "det_mse"):
                ref_val = getattr(ref, scalar)
                if ref_val > 0:
                    entry[f"rel_change_{scalar}_vs_pulse"] = relative_change(
                        getattr(met, scalar), ref_val
                    )
            pairwise[c][label] = entry

    min_eig = out.min_eig.reshape(cells, reps)
    g = out.g.reshape(cells, reps, *out.g.shape[1:])
    found = ~np.isnan(min_eig)  # the repetitions where weak_instrument_stat ran
    mean_eig, used_g, mean_g = np.zeros(cells), np.zeros(cells), np.zeros((cells, *g.shape[2:]))
    for used, rows in _by_count(found):
        mean_eig[rows] = np.mean(_taken(min_eig, found, rows, used), axis=1)
        # cumsum adds the G_n matrices one after another, in repetition order
        mean_g[rows] = np.cumsum(_taken(g, found, rows, used), axis=1)[:, -1] / used
        used_g[rows] = used
    low = np.zeros(cells)
    if used_g.any():  # one eigvalsh pass over the mean G_n of the cells, in cell order
        low[used_g > 0] = np.linalg.eigvalsh(mean_g[used_g > 0])[:, 0]
    weak = [
        {"mean_min_eig_gn": eig, "min_eig_mean_gn": lowest, "gn_repetitions": used} if used else {}
        for eig, lowest, used in zip(mean_eig.tolist(), low.tolist(), used_g.tolist())
    ]
    return [
        CellResult(cell.params, *each)
        for (cell, _), each in zip(batch, zip(metrics, failures, weak, pairwise))
    ]


@cache
def _metric_names(k: int) -> tuple[str, ...]:
    """The metric of each CSV line of an estimator with ``k`` coordinates, in order."""
    return (
        *(f"{name}_{i}" for i in range(k) for name in ("bias", "iqr")),
        *(f"{name}_{i}{j}" for i in range(k) for j in range(i, k) for name in ("mse", "var")),
        "trace_mse", "det_mse", "rmse", "median_abs_error",
    )


def _cell_lines(cell: CellResult) -> list[tuple[str, str, Any, int]]:
    """A cell's ``(estimator, metric, value, repetitions_used)`` lines in CSV order."""
    lines: list[tuple[str, str, Any, int]] = []
    for label in sorted(cell.metrics):
        met = cell.metrics[label]
        bias, iqr, mse, variance = (
            a.tolist() for a in (met.bias, met.iqr, met.mse, met.variance)
        )
        k = len(bias)
        values = [v for i in range(k) for v in (bias[i], iqr[i])]
        values += [v for i in range(k) for j in range(i, k) for v in (mse[i][j], variance[i][j])]
        values += (met.trace_mse, met.det_mse, met.rmse, met.median_abs_error)
        reps = met.n_used
        lines += [(label, name, value, reps) for name, value in zip(_metric_names(k), values)]
    for label in sorted(cell.failures):
        reps = cell.metrics[label].n_used if label in cell.metrics else 0
        for cause, count in sorted(cell.failures[label].items()):
            lines.append((label, f"excluded_{cause}", count, reps))
    for label in sorted(cell.pairwise):
        for metric, value in sorted(cell.pairwise[label].items()):
            lines.append((label, metric, value, cell.metrics[label].n_used))
    reps_weak = int(cell.weak.get("gn_repetitions", 0))
    for metric in ("mean_min_eig_gn", "min_eig_mean_gn"):
        if metric in cell.weak:
            lines.append(("_instruments", metric, cell.weak[metric], reps_weak))
    return lines


class _CsvFields(dict):
    """The one CSV renderer, with the bytes of ``csv.writer``'s default dialect: each
    distinct string's field is rendered once, by ``csv.writer`` itself, and kept,
    so a string that needs quoting is quoted as it would quote it.  A float is
    written as ``repr`` and an int as ``str``, as ``csv`` writes them."""

    def __missing__(self, text: str) -> str:
        out = io.StringIO()
        csv.writer(out).writerow(("", text))  # not alone: a lone empty field is quoted
        field = self[text] = out.getvalue()[1:-2]
        return field

    def field(self, value: str | float | int) -> str:
        if isinstance(value, str):
            return self[value]
        return repr(value) if isinstance(value, float) else str(value)

    def line(self, values: Iterable[str | float | int]) -> str:
        """One CSV line of two or more ``values``, with its ``\\r\\n``."""
        return ",".join(map(self.field, values)) + "\r\n"

    def cell(self, params: Iterable[Any], lines: list[tuple[str, str, Any, int]]) -> str:
        """The CSV lines of one cell: on each, the cell's parameters (the string field
        of each one's ``str``), then one of its :func:`_cell_lines`."""
        prefix = "".join(f"{self[str(value)]}," for value in params)
        field = self.field
        return "".join([
            f"{prefix}{self[label]},{self[metric]},{field(value)},{reps}\r\n"
            for label, metric, value, reps in lines
        ])


def _model_rng(cfg: ExperimentConfig, cell_index: int) -> np.random.Generator:
    """The draws of ``philox_generator(cell_seed(master_seed, cell_index, 0),
    MODEL_STREAM)``, from this thread's re-keyed Philox
    (:func:`~pulse_iv.sem._rekeyed_generator`): read them before the next re-key on
    this thread."""
    return _rekeyed_generator(cell_seed(cfg.master_seed, cell_index, 0), MODEL_STREAM)


def _cells(cfg: ExperimentConfig) -> list[_Cell]:
    """The cells of a grid design in cell-index order."""
    if cfg.design == "univariate":
        return [
            _Cell({"q": q, "rho": rho, "r2": r2, "n": n}, partial(univariate_model, q, rho, r2),
                  (n, q, 1, 2), np.ones(1))
            for q in (cfg.q_values or UNIVARIATE_DECLARED["q"])
            for rho in (cfg.rho_values or UNIVARIATE_DECLARED["rho"])
            for r2 in (cfg.r2_values or UNIVARIATE_DECLARED["r2"])
            for n in (cfg.n_values or UNIVARIATE_DECLARED["n"])
        ]
    if cfg.design == "underid-e3":
        target = np.array(population_pulse_underid(1.0, 1.0, 1.0))
        return [_Cell({"n": n}, e3_model, (n, 1, 2, 4), target) for n in cfg.n_values or UNDERID_N]
    cells: list[_Cell] = []
    if cfg.design == "mv-random":
        for idx in range(cfg.n_models):
            rng = _model_rng(cfg, idx)
            sigma_sq = tuple(rng.uniform(0.1, 1.0, size=2))
            xi = rng.uniform(-2.0, 2.0, size=(2, 2))
            delta = rng.uniform(-2.0, 2.0, size=(2, 2))
            mu = rng.uniform(-2.0, 2.0, size=2)
            params = {"model_index": idx, "rho_norm": rho_norm_multivariate(mu, delta, sigma_sq)}
            build = partial(mv_varying_model, xi, delta, mu, sigma_sq)
            cells.append(_Cell(params, build, (cfg.sample_size, 2, 2, 5), np.zeros(2)))
        return cells
    for eta, phi1, phi2 in cfg.noise_triples or FIXED_NOISE_DECLARED:  # mv-fixed
        rho_norm = float(
            np.sqrt((phi1**2 + phi2**2 - 2 * eta * phi1 * phi2) / (1.0 - eta**2))
        )
        for _ in range(cfg.n_models):
            idx = len(cells)
            xi = _model_rng(cfg, idx).uniform(-2.0, 2.0, size=(2, 2))
            params = {
                "eta": eta, "phi1": phi1, "phi2": phi2, "rho_norm": rho_norm, "model_index": idx,
            }
            build = partial(mv_fixed_model, xi, eta, phi1, phi2)
            cells.append(_Cell(params, build, (cfg.sample_size, 2, 2, 3), np.zeros(2)))
    return cells


#: Repetitions per chunk sent to a worker.  A chunk holds consecutive cells of one
#: shape: a cell with more repetitions than a chunk has room for is split, and a
#: chunk ends where the shape changes.  A serial run takes chunks of up to this
#: many, a cell's repetitions, or as many as one row-reading stack holds
#: (:data:`ROW_STACK_ELEMENTS`), whichever is most: its stacks keep their size, and a
#: study of many small cells of one shape is reduced in few batches.
CHUNK_REPS = 100

#: Worker environment: one BLAS thread each.  Workers that kept the BLAS threads a
#: serial study uses to fill the cores would compete with each other for them.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: The worker count and process pool that later calls with that count reuse.
_WORKERS: tuple[int, Any] | None = None


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _chunks(
    cells: list[_Cell], specs: tuple[EstimatorSpec, ...], cfg: ExperimentConfig, size: int,
    budget: int = 0,
) -> list[_Chunk]:
    """Every repetition of ``cells``, in cell and repetition order, in chunks of
    consecutive cells of one shape, each of up to ``size`` repetitions, or of as many
    as one stack of ``budget`` sampled values holds (:func:`_per_stack`) where that
    is more."""
    groups: list[list[tuple[int, Callable[[], SemModel], range]]] = []
    room = 0
    for index, cell in enumerate(cells):
        if groups and cells[groups[-1][-1][0]].shape != cell.shape:
            room = 0  # a chunk ends where the shape changes
        start = 0
        while start < cfg.repetitions:
            if not room:
                n, q, _, k = cell.shape
                groups.append([])
                room = max(size, _per_stack(budget, n, q, k))
            stop = min(start + room, cfg.repetitions)
            groups[-1].append((index, cell.build, range(start, stop)))
            start, room = stop, room - (stop - start)
    return [
        _Chunk(tuple(parts), cells[parts[0][0]].shape[0], specs, cfg.master_seed, cfg.p_min)
        for parts in groups
    ]


def _pooled(n: int, chunks: Iterable[_Chunk]) -> Iterator[_Outputs]:
    """Each chunk's outputs, in chunk order, from a pool of ``n`` worker processes,
    started first if there is none or not of ``n``.  Each worker is a fresh
    interpreter (a ``spawn`` start: a fork would copy this process's running BLAS
    threads) that ignores Ctrl-C, which this process handles.  The pool starts its
    workers inside ``map``, so they read the one-BLAS-thread environment set only
    around that call.  A lost worker breaks the pool: it is shut down, not respawned."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    global _WORKERS
    if _WORKERS is None or _WORKERS[0] != n:
        shutdown_workers()
        _WORKERS = n, ProcessPoolExecutor(
            n, mp_context=multiprocessing.get_context("spawn"),
            initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN),
        )
    try:
        saved = {name: os.environ.get(name) for name in _ONE_BLAS_THREAD}
        os.environ.update(_ONE_BLAS_THREAD)
        try:
            answers = _WORKERS[1].map(_run_chunk, chunks)
        except (OSError, ValueError) as exc:
            # a worker that stops at start can close the pool's pipes, and with them
            # the descriptors the next worker's start passes on ("bad value(s) in
            # fds_to_keep")
            raise BrokenProcessPool("an experiment worker stopped as it started") from exc
        finally:
            for name, value in saved.items():
                if value is None:
                    del os.environ[name]
                else:
                    os.environ[name] = value
        # closing this generator early cancels the chunks not yet started
        yield from answers
    except BrokenProcessPool:
        shutdown_workers()
        raise


def shutdown_workers() -> None:
    """Stop the worker processes of :func:`run_experiment` and wait for them to
    exit; a chunk still running finishes first.  Runs at interpreter exit; the
    next call with ``threads > 1`` starts new ones."""
    global _WORKERS
    workers, _WORKERS = _WORKERS, None
    if workers is not None:
        workers[1].shutdown(cancel_futures=True)


atexit.register(shutdown_workers)


def _step_replaced() -> bool:
    """Whether a function the step calls was replaced in this process, as a
    test's monkeypatch or a tracer does.  A worker imports the package afresh
    and would run the original, so the step then runs here."""
    return any(globals()[name] is not fn for name, fn in _STEP_FUNCTIONS.items())


_STEP_FUNCTIONS = {
    name: globals()[name]
    for name in ("_run_chunk", "sample_stack", "_weak_instrument_arrays", "estimate")
}


def _chunk_outputs(
    cells: list[_Cell], specs: tuple[EstimatorSpec, ...], cfg: ExperimentConfig, threads: int
) -> Iterator[tuple[_Chunk, _Outputs]]:
    """Each chunk with its outputs, in chunk order: from workers in chunks of up to
    ``CHUNK_REPS`` repetitions, one per chunk up to ``threads`` and the CPU count,
    or from this process where that leaves one or a step function was replaced, in
    chunks of up to ``CHUNK_REPS`` repetitions, a cell's, or one row-reading stack's
    (:data:`ROW_STACK_ELEMENTS`), whichever is most."""
    chunks = _chunks(cells, specs, cfg, CHUNK_REPS)
    n = min(threads, len(chunks), _cpu_count())
    if n <= 1 or _step_replaced():
        size = max(CHUNK_REPS, cfg.repetitions)
        for chunk in _chunks(cells, specs, cfg, size, ROW_STACK_ELEMENTS):
            yield chunk, _run_chunk(chunk, _cpu_count())
        return
    answers = _pooled(n, chunks)
    try:
        yield from zip(chunks, answers)
    finally:
        answers.close()


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Execute a design and return cells, canonical CSV rows and their CSV text.

    Deterministic for a fixed ``master_seed``, and the same bytes for every
    ``threads``: each repetition draws from its own stream, and each cell is
    reduced in this process in repetition order.  The repetitions run in chunks of
    consecutive cells of one shape ``(n, q, d, k)``, whose samples are estimated in
    stacks that run across cells.  This process reduces the cells that each chunk
    completes, in array passes over all of them (:func:`_reduce_cells`), and
    renders their CSV lines in cell order by formatting (:class:`_CsvFields`), so
    a pooled study is bound by its workers; the result's ``rows`` are built from
    its cells when first read.
    ``threads = 1`` runs every chunk here, of up to ``CHUNK_REPS`` repetitions, one
    cell's, or one row-reading stack's (:data:`ROW_STACK_ELEMENTS`), whichever is
    most; a chunk whose estimators read no rows (``underid-e3``) has its slices
    sampled on one thread per CPU, this one and helper threads that are joined
    before its stack is estimated.
    ``threads = N > 1`` runs the chunks of a grid
    design, of up to ``CHUNK_REPS`` repetitions, on worker processes, while this
    process reduces the cells of those that have come back.  It starts at most N
    workers, and no more than there are chunks or CPUs; where that leaves one,
    the repetitions run here.  They run
    here too when a function the step calls has been replaced in this process
    (a test's monkeypatch, a tracer), since a worker would run the original.  The
    workers are a standard-library process pool with ``spawn`` starts, so a
    script that calls this with ``threads > 1`` at top level needs an
    ``if __name__ == "__main__":`` guard: each worker imports the script's main
    module afresh.  The workers start on first use and serve later calls with
    the same count, until :func:`shutdown_workers` or interpreter exit: starting
    them costs more than a short study (about 0.5 s, against about 0.05 s serially
    and 0.03 s on two started workers for the benchmark's ``mc-mv-parallel`` grid
    on a 2-CPU machine).  A call stopped by an error or
    Ctrl-C drops its chunks that have not started; one that is running finishes
    and its answer is discarded, so exit waits for at most one chunk per worker.
    Each worker runs one BLAS thread and samples on one thread, as workers that
    kept their BLAS threads would compete for the cores.  A serial study of the
    small-``n`` designs that read rows gains nothing from BLAS threads either.
    While LIML's per-item loop left scipy's OpenBLAS pool at two threads, the
    benchmark's ``mc-univariate`` study took about 63 ms of CPU for 31 ms of wall
    time on a 2-core machine, its second core spinning in that pool; with the pool
    at one thread in that loop (``estimators._one_scipy_blas_thread``), its CPU
    time is about its wall time.
    ``robustness-e1`` always runs here, its slices sampled on one thread per CPU.

    Raises
    ------
    ValueError
        If ``threads`` is below 1.
    concurrent.futures.process.BrokenProcessPool
        A ``RuntimeError``: if a worker process stops.  The workers are then
        shut down, not replaced; the next call starts new ones.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if cfg.design == "robustness-e1":
        return _run_robustness_e1(cfg)
    param_names, default_estimators, _ = _GRID_DESIGNS[cfg.design]
    estimators = parse_estimators(cfg.estimators or default_estimators)
    cells = _cells(cfg)
    columns = [*param_names, "estimator", "metric", "value", "repetitions_used"]
    fields = _CsvFields()
    text = [fields.line(columns)]
    results: list[CellResult] = []
    pending: dict[int, list[_Outputs]] = {}  # the parts of a cell split across chunks
    outputs = _chunk_outputs(cells, tuple(spec for _, spec in estimators), cfg, threads)
    try:
        for chunk, outs in outputs:
            # reduced and rendered while the workers run later chunks
            done = []
            for (index, _, reps), out in zip(chunk.parts, _parts(chunk, outs)):
                pending.setdefault(index, []).append(out)
                if reps.stop == cfg.repetitions:
                    done.append(index)
            batch = [(cells[index], pending.pop(index)) for index in done]
            for result in _reduce_cells(batch, estimators):
                params = [result.params[name] for name in param_names]
                text.append(fields.cell(params, _cell_lines(result)))
                results.append(result)
    finally:
        outputs.close()  # a stopped call leaves no answer in flight for the next
    return ExperimentResult(cfg.design, cfg, results, columns, "".join(text))


def _run_robustness_e1(cfg: ExperimentConfig) -> ExperimentResult:
    """Path study: K-class estimates of the benchmark model and their worst-case MSPE."""
    n = (cfg.n_values or (ROBUSTNESS_N,))[0]
    kappas = (0.0, 0.75, 1.0)
    model = e1_model()
    rows: list[dict[str, Any]] = []
    seeds = [cell_seed(cfg.master_seed, 0, rep) for rep in range(cfg.repetitions)]
    stack = _row_free_stack([model], n, [seeds], _cpu_count())  # K-class reads no rows
    fits = [stack.kclass_solve(np.full(len(stack), kappa), stack.items) for kappa in kappas]
    for r in stack.items.tolist():
        for kappa, (alpha, failed) in zip(kappas, fits):
            if r in failed:
                raise failed[r]
            est = float(alpha[r, 0])
            wc = float(wcmspe_curve_e1(est, [ROBUSTNESS_REFERENCE_X])[0])
            rows.append({"rep": r, "kappa": kappa, "estimate": est, "wcmspe": wc})
    columns = list(_GRID_DESIGNS[cfg.design].columns)
    fields = _CsvFields()
    text = "".join(map(fields.line, [columns, *(row.values() for row in rows)]))
    result = ExperimentResult(cfg.design, cfg, [], columns, text)
    result.rows = rows  # one per repetition and kappa, kept as built
    return result


def write_result(result: ExperimentResult, outdir: str | Path) -> tuple[Path, Path]:
    """Write ``<design>.csv``, the text :func:`run_experiment` rendered, and
    ``manifest.json``; returns both paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"{result.design}.csv"
    csv_path.write_text(result.csv_text, encoding="utf-8", newline="")
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(
        json.dumps(result.manifest(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return csv_path, manifest_path
