"""Monte Carlo experiment runner and performance metrics.

Designs: a univariate weak-instrument grid, two multivariate confounding
studies, a distributional-robustness path study, and an under-identified
convergence study.  Every run is deterministic given the master seed: cells
and repetitions own derived counter-based streams and metric reductions use
numpy's pairwise summation in repetition order.
"""

from __future__ import annotations

import atexit
import csv
import itertools
import json
import os
import sys
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, NoReturn

import numpy as np

from . import __version__
from .data import DesignView, checked_solve
from .estimators import EstimatorSpec, estimate
from .exceptions import DataError, PulseIVError
from .inference import TestConfig, weak_instrument_stat
from .pulse import PulseConfig
from .sem import (
    MODEL_STREAM,
    SemModel,
    e1_model,
    e3_model,
    mv_fixed_model,
    mv_varying_model,
    philox_generator,
    population_pulse_underid,
    sem_sample,
    univariate_model,
    wcmspe_curve_e1,
    xi_from_r2,
)

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF

DESIGNS = ("univariate", "mv-random", "mv-fixed", "robustness-e1", "underid-e3")

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

    Known defect: ``sem_sample`` hands a seed of 2^63 or more to Philox as a
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
    for name, mat in (("mse_a", a), ("mse_b", b)):
        if not np.allclose(mat, mat.T, atol=1e-10 * max(1.0, float(np.abs(mat).max()))):
            raise ValueError(f"{name} must be symmetric")
    tol = 1e-9 * max(float(np.trace(a)), float(np.trace(b)), 1e-300)
    diff = b - a
    a_le = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0]) >= -tol
    b_le = float(np.linalg.eigvalsh(0.5 * (-diff - diff.T))[0]) >= -tol
    if a_le and b_le:
        return MseOrder.EQUAL
    if a_le:
        return MseOrder.A_LESS_OR_EQUAL
    if b_le:
        return MseOrder.B_LESS_OR_EQUAL
    return MseOrder.INCOMPARABLE


def rho_norm_multivariate(mu: np.ndarray, delta: np.ndarray, sigma_sq: tuple[float, float]) -> float:
    """Confounding strength ``||rho||`` of the varying-confounding design."""
    mu = np.asarray(mu, dtype=float).reshape(2)
    delta = np.asarray(delta, dtype=float).reshape(2, 2)
    inner = delta.T @ delta + np.diag(sigma_sq)
    dtm = delta.T @ mu
    val = float(mu @ delta @ checked_solve("delta^T delta + diag(sigma^2)", inner, dtm))
    return float(np.sqrt(max(val, 0.0) / (mu @ mu + 1.0)))


def _pairwise_sum(arr: np.ndarray) -> np.ndarray:
    # numpy reduces float64 sums pairwise for contiguous axes; fixing the
    # repetition order therefore fixes the bits of the result.
    return np.sum(np.ascontiguousarray(arr), axis=0)


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
    target = np.asarray(target, dtype=float).reshape(-1)
    n_used, k = est.shape
    err = est - target
    mean_err = _pairwise_sum(err) / n_used
    mse = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            mse[i, j] = mse[j, i] = float(_pairwise_sum(err[:, i] * err[:, j])) / n_used
    variance = mse - np.outer(mean_err, mean_err)
    quart = np.quantile(est, [0.25, 0.75], axis=0, method="linear")
    trace_mse = float(np.trace(mse))
    return EstimatorMetrics(
        n_used=n_used,
        bias=mean_err,
        mse=mse,
        variance=variance,
        trace_mse=trace_mse,
        det_mse=float(np.linalg.det(mse)),
        rmse=float(np.sqrt(trace_mse)),
        iqr=quart[1] - quart[0],
        median_abs_error=float(np.median(np.linalg.norm(err, axis=1))),
    )


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
        seen: dict[EstimatorSpec, str] = {}
        for label in self.estimators or ():
            spec = EstimatorSpec.parse(label)  # raises on a label that is no valid spec
            if spec in seen:
                raise ValueError(
                    f"estimators repeat {spec.label()}: {seen[spec]!r} and {label!r}"
                )
            seen[spec] = label
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
    """Cells (or per-repetition rows), canonical CSV rows, and the manifest."""

    design: str
    config: ExperimentConfig
    cells: list[CellResult]
    rows: list[dict[str, Any]]
    columns: list[str]

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
    """One grid cell: its CSV parameters, the model, the sample size and the estimand."""

    params: dict[str, Any]
    model: SemModel
    n: int
    target: np.ndarray


class _Design(NamedTuple):
    """A design's CSV parameter columns, its default estimators, and the
    :class:`ExperimentConfig` fields it reads besides :data:`_EVERY_DESIGN_READS`.

    ``robustness-e1`` runs no estimators and writes one row per repetition and
    ``kappa``, so its ``columns`` are all of its CSV columns.
    """

    columns: tuple[str, ...]
    estimators: tuple[str, ...]
    reads: tuple[str, ...]


#: The config fields every design reads.
_EVERY_DESIGN_READS = ("design", "repetitions", "master_seed")

#: Every design; :meth:`ExperimentConfig.__post_init__` refuses a field that
#: its design does not read unless it is left at its default.
_GRID_DESIGNS: dict[str, _Design] = {
    "univariate": _Design(
        ("q", "rho", "r2", "n"),
        ("ols", "tsls", "fuller:1", "fuller:4", "pulse"),
        ("estimators", "p_min", "q_values", "rho_values", "r2_values", "n_values",
         "allow_extensions"),
    ),
    "mv-random": _Design(
        ("model_index", "rho_norm"),
        ("ols", "fuller:1", "fuller:4", "pulse"),
        ("estimators", "p_min", "n_models", "sample_size"),
    ),
    "mv-fixed": _Design(
        ("eta", "phi1", "phi2", "rho_norm", "model_index"),
        ("ols", "fuller:1", "fuller:4", "pulse"),
        ("estimators", "p_min", "n_models", "sample_size", "noise_triples"),
    ),
    "robustness-e1": _Design(("rep", "kappa", "estimate", "wcmspe"), (), ("n_values",)),
    "underid-e3": _Design(("n",), ("pulse", "modified-tsls"), ("estimators", "p_min", "n_values")),
}


class _Chunk(NamedTuple):
    """Repetitions ``reps`` of the cell at ``index``: all the step needs, as data."""

    model: SemModel
    n: int
    index: int
    reps: range
    specs: tuple[EstimatorSpec, ...]
    master_seed: int
    p_min: float


#: One repetition's outputs: per estimator its ``alpha``, or the class name of the
#: error it raised; then ``(min_eigenvalue, g_matrix)`` of ``weak_instrument_stat``,
#: or ``None`` where it raised.
_RepOutput = tuple[tuple[Any, ...], tuple[float, np.ndarray] | None]


def _run_chunk(chunk: _Chunk) -> Iterator[_RepOutput]:
    """The step: sample each repetition of ``chunk``, fit every estimator on it and
    yield its outputs.  Where it runs does not matter: each repetition draws from
    its own stream."""
    pulse_cfg = PulseConfig(p_min=chunk.p_min)
    for rep in chunk.reps:
        ds = sem_sample(chunk.model, chunk.n, cell_seed(chunk.master_seed, chunk.index, rep))
        view = DesignView(ds)
        try:
            report = weak_instrument_stat(view)
            weak = (report.min_eigenvalue, report.g_matrix)
        except PulseIVError:
            weak = None
        alphas = []
        for spec in chunk.specs:
            try:
                alphas.append(estimate(view, spec, pulse_cfg).alpha)
            except PulseIVError as exc:
                alphas.append(type(exc).__name__)
        yield tuple(alphas), weak


def _reduce_cell(
    cell: _Cell, estimators: tuple[tuple[str, EstimatorSpec], ...], outputs: Iterable[_RepOutput]
) -> CellResult:
    """The reduction: a cell's metrics from its repetitions' outputs, consumed in
    repetition order, so the sums and their bits do not depend on where the
    repetitions ran."""
    collected: dict[str, list[np.ndarray]] = {label: [] for label, _ in estimators}
    failures: dict[str, dict[str, int]] = {label: {} for label, _ in estimators}
    min_eigs: list[float] = []
    g_sum: np.ndarray | None = None
    g_count = 0

    for alphas, weak in outputs:
        if weak is not None:
            min_eig, g_matrix = weak
            min_eigs.append(min_eig)
            g_sum = g_matrix if g_sum is None else g_sum + g_matrix
            g_count += 1
        for (label, _), alpha in zip(estimators, alphas):
            if isinstance(alpha, str):
                failures[label][alpha] = failures[label].get(alpha, 0) + 1
            else:
                collected[label].append(alpha)

    metrics = {
        label: summarize_estimates(np.vstack(stack), cell.target)
        for label, stack in collected.items()
        if stack
    }

    weak: dict[str, float] = {}
    if min_eigs:
        weak["mean_min_eig_gn"] = float(np.mean(min_eigs))
        weak["min_eig_mean_gn"] = float(np.linalg.eigvalsh(g_sum / g_count)[0])
        weak["gn_repetitions"] = float(g_count)

    pairwise: dict[str, dict[str, Any]] = {}
    pulse_label = next((label for label, spec in estimators if spec.kind == "pulse"), None)
    if pulse_label in metrics:
        ref = metrics[pulse_label]
        for label, met in metrics.items():
            if label == pulse_label:
                continue
            entry: dict[str, Any] = {
                "mse_order_vs_pulse": mse_partial_order(ref.mse, met.mse).value,
            }
            for scalar in ("rmse", "trace_mse", "det_mse"):
                ref_val = getattr(ref, scalar)
                if ref_val > 0:
                    entry[f"rel_change_{scalar}_vs_pulse"] = relative_change(
                        getattr(met, scalar), ref_val
                    )
            pairwise[label] = entry

    return CellResult(
        params=cell.params,
        metrics=metrics,
        failures={k: v for k, v in failures.items() if v},
        weak=weak,
        pairwise=pairwise,
    )


def _metric_rows(cell: CellResult, param_names: tuple[str, ...]) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []

    def base(estimator: str, metric: str, value: Any, reps: int) -> dict[str, Any]:
        row = {name: cell.params.get(name) for name in param_names}
        row.update(
            {"estimator": estimator, "metric": metric, "value": value, "repetitions_used": reps}
        )
        return row

    for label in sorted(cell.metrics):
        met = cell.metrics[label]
        k = met.bias.shape[0]
        for i in range(k):
            rows.append(base(label, f"bias_{i}", float(met.bias[i]), met.n_used))
            rows.append(base(label, f"iqr_{i}", float(met.iqr[i]), met.n_used))
        for i in range(k):
            for j in range(i, k):
                rows.append(base(label, f"mse_{i}{j}", float(met.mse[i, j]), met.n_used))
                rows.append(base(label, f"var_{i}{j}", float(met.variance[i, j]), met.n_used))
        rows.append(base(label, "trace_mse", met.trace_mse, met.n_used))
        rows.append(base(label, "det_mse", met.det_mse, met.n_used))
        rows.append(base(label, "rmse", met.rmse, met.n_used))
        rows.append(base(label, "median_abs_error", met.median_abs_error, met.n_used))
    for label in sorted(cell.failures):
        reps = cell.metrics[label].n_used if label in cell.metrics else 0
        for cause, count in sorted(cell.failures[label].items()):
            rows.append(base(label, f"excluded_{cause}", count, reps))
    for label in sorted(cell.pairwise):
        for metric, value in sorted(cell.pairwise[label].items()):
            rows.append(base(label, metric, value, cell.metrics[label].n_used))
    reps_weak = int(cell.weak.get("gn_repetitions", 0))
    for metric in ("mean_min_eig_gn", "min_eig_mean_gn"):
        if metric in cell.weak:
            rows.append(base("_instruments", metric, cell.weak[metric], reps_weak))
    return rows


def _model_rng(cfg: ExperimentConfig, cell_index: int) -> np.random.Generator:
    return philox_generator(cell_seed(cfg.master_seed, cell_index, 0), MODEL_STREAM)


def _cells(cfg: ExperimentConfig) -> list[_Cell]:
    """The cells of a grid design in cell-index order."""
    if cfg.design == "univariate":
        return [
            _Cell({"q": q, "rho": rho, "r2": r2, "n": n}, univariate_model(q, rho, r2), n, np.ones(1))
            for q in (cfg.q_values or UNIVARIATE_DECLARED["q"])
            for rho in (cfg.rho_values or UNIVARIATE_DECLARED["rho"])
            for r2 in (cfg.r2_values or UNIVARIATE_DECLARED["r2"])
            for n in (cfg.n_values or UNIVARIATE_DECLARED["n"])
        ]
    if cfg.design == "underid-e3":
        target = np.array(population_pulse_underid(1.0, 1.0, 1.0))
        model = e3_model()
        return [_Cell({"n": n}, model, n, target) for n in cfg.n_values or UNDERID_N]
    cells: list[_Cell] = []
    if cfg.design == "mv-random":
        for idx in range(cfg.n_models):
            rng = _model_rng(cfg, idx)
            sigma_sq = tuple(rng.uniform(0.1, 1.0, size=2))
            xi = rng.uniform(-2.0, 2.0, size=(2, 2))
            delta = rng.uniform(-2.0, 2.0, size=(2, 2))
            mu = rng.uniform(-2.0, 2.0, size=2)
            params = {"model_index": idx, "rho_norm": rho_norm_multivariate(mu, delta, sigma_sq)}
            model = mv_varying_model(xi, delta, mu, sigma_sq)
            cells.append(_Cell(params, model, cfg.sample_size, np.zeros(2)))
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
            model = mv_fixed_model(xi, eta, phi1, phi2)
            cells.append(_Cell(params, model, cfg.sample_size, np.zeros(2)))
    return cells


#: Repetitions per chunk sent to a worker; a cell with more is split.
CHUNK_REPS = 100

#: Chunks queued on each worker while the parent waits for the oldest one.
_QUEUE_DEPTH = 2

#: Worker environment: one BLAS thread each.  Serial studies already keep about
#: two cores busy through BLAS threads, so workers that kept theirs would fight.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class _Workers:
    """Worker processes that run :func:`_run_chunk` on pickled chunks: each is a
    fresh interpreter with this process's ``sys.path`` and one BLAS thread,
    reading chunks on stdin, answering on stdout and exiting at end of input."""

    def __init__(self, n: int):
        import subprocess

        code = f"import sys; sys.path[:] = {sys.path!r}; from pulse_iv.experiments import _serve; _serve()"
        env = {**os.environ, **_ONE_BLAS_THREAD}
        self.procs = [
            subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, env=env)
            for _ in range(n)
        ]

    def map(self, chunks: Iterable[_Chunk]) -> Iterator[list[_RepOutput]]:
        """Each chunk's outputs, in chunk order.  Chunk ``j`` runs on worker
        ``j % n``, and at most ``_QUEUE_DEPTH`` chunks wait on each worker.  A
        pickled chunk is a few KB, far below a pipe's buffer, so a send never
        blocks on a worker that is itself blocked until its answer is read."""
        import pickle

        # a worker stays in ``in_flight`` from before its chunk is sent until its
        # answer has been read, so a stop at any point sees what is still owed
        in_flight: deque[Any] = deque()
        try:
            for proc, chunk in zip(itertools.cycle(self.procs), chunks):
                in_flight.append(proc)
                try:
                    pickle.dump(chunk, proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
                    proc.stdin.flush()
                except OSError as exc:  # a broken pipe: the worker stopped
                    _worker_failed(proc, exc)
                if len(in_flight) == _QUEUE_DEPTH * len(self.procs):
                    yield self._receive(in_flight)
            while in_flight:
                yield self._receive(in_flight)
        finally:
            if in_flight:  # stopped early: answers still on their way would be read as the next call's
                shutdown_workers(kill=True)

    @staticmethod
    def _receive(in_flight: deque[Any]) -> list[_RepOutput]:
        """The answer of the oldest worker in ``in_flight``, which leaves it once read."""
        import pickle

        proc = in_flight[0]
        try:
            ok, value = pickle.load(proc.stdout)
        except Exception as exc:  # end of stream or a garbled answer: the worker stopped
            _worker_failed(proc, exc)
        in_flight.popleft()
        if not ok:
            raise value
        return value

    def close(self, kill: bool = False) -> None:
        for proc in self.procs:
            if kill:
                proc.kill()
            for stream in (proc.stdin, proc.stdout):
                try:
                    stream.close()
                except OSError:  # the pipe of a worker that died
                    pass
        for proc in self.procs:
            proc.wait()


_WORKERS: _Workers | None = None


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _workers(n: int) -> _Workers:
    """The running workers, started first if there are none or not ``n``."""
    global _WORKERS
    if _WORKERS is None or len(_WORKERS.procs) != n:
        shutdown_workers()
        _WORKERS = _Workers(n)
    return _WORKERS


def _worker_failed(proc: Any, cause: Exception) -> NoReturn:
    shutdown_workers(kill=True)
    raise RuntimeError(
        f"experiment worker {proc.pid} stopped with exit status {proc.returncode}; "
        "its error, if any, is on stderr above"
    ) from cause


def shutdown_workers(kill: bool = False) -> None:
    """Stop the worker processes of :func:`run_experiment` and wait for them to
    exit; ``kill`` stops them mid-chunk.  Runs at interpreter exit; the next call
    with ``threads > 1`` starts new ones."""
    global _WORKERS
    workers, _WORKERS = _WORKERS, None
    if workers is not None:
        workers.close(kill)


atexit.register(shutdown_workers)


def _serve() -> None:
    """A worker's loop: answer each pickled chunk on stdin with ``(True, outputs)``,
    or ``(False, error)`` if the step raised; return at end of input."""
    import pickle
    import signal
    import traceback

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C and stops its workers
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # nothing but answers may reach the answer stream
    while True:
        try:
            chunk = pickle.load(stdin)
        except EOFError:
            return
        try:
            answer = (True, list(_run_chunk(chunk)))
        except Exception as exc:  # the parent raises it in turn; its traceback goes to stderr
            traceback.print_exc()
            answer = (False, exc)
        pickle.dump(answer, stdout, protocol=pickle.HIGHEST_PROTOCOL)
        stdout.flush()


def _step_replaced() -> bool:
    """Whether a function the step calls was replaced in this process, as a
    test's monkeypatch or a tracer does.  A worker imports the package afresh
    and would run the original, so the step then runs here."""
    return any(globals()[name] is not fn for name, fn in _STEP_FUNCTIONS.items())


_STEP_FUNCTIONS = {
    name: globals()[name] for name in ("_run_chunk", "sem_sample", "weak_instrument_stat", "estimate")
}


def _cell_outputs(
    cells: list[_Cell], specs: tuple[EstimatorSpec, ...], cfg: ExperimentConfig, threads: int
) -> Iterator[Iterable[_RepOutput]]:
    """Each cell's repetition outputs, in cell order: from workers in chunks of
    ``CHUNK_REPS``, one per chunk up to ``threads`` and the CPU count, or from
    this process where that leaves one or a step function was replaced."""
    def chunk(index: int, reps: range) -> _Chunk:
        cell = cells[index]
        return _Chunk(cell.model, cell.n, index, reps, specs, cfg.master_seed, cfg.p_min)

    starts = range(0, cfg.repetitions, CHUNK_REPS)
    n = min(threads, len(cells) * len(starts), _cpu_count())
    if n <= 1 or _step_replaced():
        for index in range(len(cells)):
            yield _run_chunk(chunk(index, range(cfg.repetitions)))
        return
    answers = _workers(n).map(
        chunk(index, range(start, min(start + CHUNK_REPS, cfg.repetitions)))
        for index in range(len(cells))
        for start in starts
    )
    try:
        for _ in cells:
            yield itertools.chain.from_iterable(itertools.islice(answers, len(starts)))
    finally:
        answers.close()


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Execute a design and return cells plus canonical CSV rows.

    Deterministic for a fixed ``master_seed``, and the same bytes for every
    ``threads``: each repetition draws from its own stream, and each cell is
    reduced in this process in repetition order.  ``threads = 1`` runs every
    repetition here.  ``threads = N > 1`` runs the repetitions of a grid design
    on worker processes, in chunks of up to ``CHUNK_REPS`` repetitions of one
    cell, while this process reduces each cell as its chunks come back.  It
    starts at most N workers, and no more than there are chunks or CPUs; where
    that leaves one, the repetitions run here.  They run here too when a
    function the step calls has been replaced in this process (a test's
    monkeypatch, a tracer), since a worker would run the original.  The
    workers start on first use and serve later calls with the same count,
    until :func:`shutdown_workers` or interpreter exit: starting them costs
    more than a short study (about 0.5 s against 0.3 s for the benchmark's
    ``mc-mv-parallel`` grid).  Each runs one BLAS thread: a serial study
    already keeps about two cores busy through BLAS threads, so workers that
    kept theirs would compete for the cores and run slower than serial.
    ``robustness-e1`` always runs here.

    Raises
    ------
    ValueError
        If ``threads`` is below 1.
    RuntimeError
        If a worker process stops; the workers are then stopped too.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if cfg.design == "robustness-e1":
        return _run_robustness_e1(cfg)
    param_names, default_estimators, _ = _GRID_DESIGNS[cfg.design]
    estimators = tuple((e, EstimatorSpec.parse(e)) for e in cfg.estimators or default_estimators)
    cells = _cells(cfg)
    outputs = _cell_outputs(cells, tuple(spec for _, spec in estimators), cfg, threads)
    try:
        results = [_reduce_cell(cell, estimators, out) for cell, out in zip(cells, outputs)]
    finally:
        outputs.close()  # a stopped call leaves no answer in flight for the next

    rows = [row for cell in results for row in _metric_rows(cell, param_names)]
    columns = [*param_names, "estimator", "metric", "value", "repetitions_used"]
    return ExperimentResult(cfg.design, cfg, results, rows, columns)


def _run_robustness_e1(cfg: ExperimentConfig) -> ExperimentResult:
    """Path study: K-class estimates of the benchmark model and their worst-case MSPE."""
    n = (cfg.n_values or (ROBUSTNESS_N,))[0]
    kappas = (0.0, 0.75, 1.0)
    model = e1_model()
    rows: list[dict[str, Any]] = []
    for rep in range(cfg.repetitions):
        ds = sem_sample(model, n, cell_seed(cfg.master_seed, 0, rep))
        view = DesignView(ds)
        for kappa in kappas:
            est = float(view.kclass_solve(kappa)[0])
            wc = float(wcmspe_curve_e1(est, [ROBUSTNESS_REFERENCE_X])[0])
            rows.append({"rep": rep, "kappa": kappa, "estimate": est, "wcmspe": wc})
    return ExperimentResult(cfg.design, cfg, [], rows, list(_GRID_DESIGNS[cfg.design].columns))


def write_result(result: ExperimentResult, outdir: str | Path) -> tuple[Path, Path]:
    """Write ``<design>.csv`` and ``manifest.json``; returns both paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"{result.design}.csv"
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=result.columns)
        writer.writeheader()
        for row in result.rows:
            writer.writerow({k: _fmt_cell(row.get(k)) for k in result.columns})
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(
        json.dumps(result.manifest(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return csv_path, manifest_path


def _fmt_cell(value: Any) -> Any:
    if isinstance(value, float):
        return repr(value)
    return value
