"""Command-line front door: estimate on CSV data, simulate, run experiments.

Exit codes: 0 success, 2 usage error, 3 data error (an output path that
cannot be written among them), 4 numerical failure, 5 dual infeasibility
when no fallback was requested.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from . import __version__
from .data import CsvSchema, DesignView, ModelPartition, center, load_csv
from .designs import DESIGNS
from .estimators import EstimateResult, EstimatorSpec, estimate, parse_estimators
from .exceptions import DataError, PulseIVError, SingularGram
from .inference import (
    ANDERSON_RUBIN, PLAIN, TestResult, test_statistic, weak_instrument_stat,
)
from .pulse import MESSAGE_TEXT, PulseConfig, PulseMessage, PulseResult

USAGE_ERROR, DATA_ERROR, NUMERIC_ERROR, INFEASIBLE_ERROR = 2, 3, 4, 5


def _round10(value: float) -> float:
    return float(f"{value:.10g}")


def _csv_list(text: str) -> list[str]:
    return [c.strip() for c in text.split(",") if c.strip()]


@contextmanager
def _writing(path: str | Path) -> Iterator[None]:
    """Report an ``OSError`` raised while writing ``path`` as a data error."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulse-iv",
        description="K-class / PULSE estimation, SEM simulation, and experiments",
    )
    parser.add_argument("--version", action="version", version=f"pulse-iv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_schema_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--data", required=True, help="CSV file with a header row")
        p.add_argument("--target", required=True, help="response column")
        p.add_argument("--endogenous", required=True, help="comma-separated endogenous columns")
        p.add_argument(
            "--included-exogenous",
            default="",
            help="comma-separated exogenous columns entering the target equation",
        )
        p.add_argument(
            "--instruments",
            required=True,
            help="comma-separated excluded exogenous columns (the instruments)",
        )
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--center",
            action="store_true",
            default=None,
            help="mean-center every column and fit no intercept (default)",
        )
        group.add_argument(
            "--intercept",
            action="store_true",
            default=None,
            help="append a constant column to both the regressors and the exogenous set",
        )

    est = sub.add_parser("estimate", help="fit estimators on CSV data")
    add_schema_flags(est)
    est.add_argument(
        "--estimator",
        default="pulse",
        help="comma-separated list: ols|tsls|kclass:K|anchor:L|liml|fuller[:A]|pulse|modified-tsls",
    )
    est.add_argument("--pmin", type=float, default=0.05, help="test level (default 0.05)")
    est.add_argument(
        "--scaling", choices=("ar", "plain"), default="ar", help="test scaling scheme"
    )
    est.add_argument(
        "--precision", type=int, default=2**20, help="binary-search precision parameter N"
    )
    est.add_argument(
        "--fallback",
        default="fuller",
        help="PULSE fallback estimator (tsls|liml|fuller[:A]) or 'none'",
    )
    est.add_argument("--json", dest="json_out", help="also write a JSON report to this file")

    sim = sub.add_parser("simulate", help="sample a linear SEM to CSV")
    sim.add_argument("--sem", required=True, help="SEM config JSON")
    sim.add_argument("--n", required=True, type=int, help="number of rows")
    sim.add_argument("--seed", required=True, type=int, help="sampling seed")
    sim.add_argument("--intervene", help="intervention JSON overriding the config block")
    sim.add_argument("--out", required=True, help="output CSV path")

    exp = sub.add_parser("experiment", help="run a Monte Carlo experiment design")
    exp.add_argument("--config", help="experiment config JSON")
    exp.add_argument("--design", help=f"one of: {', '.join(DESIGNS)}")
    exp.add_argument("--reps", type=int, help="repetitions per cell")
    exp.add_argument("--seed", type=int, help="master seed")
    exp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes that run the repetitions (default 1: run them in this "
        "process), at most one per chunk and per CPU; the output does not depend on it",
    )
    exp.add_argument("--out", required=True, help="output directory")

    diag = sub.add_parser("diagnose", help="weak-instrument and identification diagnostics")
    add_schema_flags(diag)

    return parser


def _load_view(args: argparse.Namespace) -> tuple[DesignView, bool]:
    schema = CsvSchema(
        target=args.target,
        endogenous=tuple(_csv_list(args.endogenous)),
        exogenous=tuple(_csv_list(args.included_exogenous) + _csv_list(args.instruments)),
    )
    ds = load_csv(args.data, schema)
    n_included = len(_csv_list(args.included_exogenous))
    use_intercept = bool(args.intercept)
    if use_intercept:
        ds = ds.with_intercept()
        included_exo = tuple(range(n_included)) + (ds.q - 1,)
    else:
        if ds.n < 2:
            raise DataError(f"centering requires at least two rows; {args.data} has {ds.n}")
        ds = center(ds)
        included_exo = tuple(range(n_included))
    partition = ModelPartition(
        included_endogenous=tuple(range(ds.d)), included_exogenous=included_exo
    )
    return DesignView(ds, partition), use_intercept


def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return "-" if value is None else "inf"
    return f"{value:.4f}"


def cmd_estimate(args: argparse.Namespace) -> int:
    view, use_intercept = _load_view(args)
    scaling = ANDERSON_RUBIN if args.scaling == "ar" else PLAIN
    fallback_spec = None if args.fallback == "none" else EstimatorSpec.parse(args.fallback)
    # the test every row reports, and PULSE's search: checked whichever estimators run
    cfg = PulseConfig(
        p_min=args.pmin,
        scaling=scaling,
        precision_n=args.precision,
        fallback=fallback_spec or EstimatorSpec("fuller"),
    )

    rows: list[tuple[str, EstimateResult, TestResult | None, str]] = []
    for label, spec in parse_estimators(_csv_list(args.estimator)):
        res = estimate(view, spec, cfg)
        try:
            test = test_statistic(view, res.alpha, cfg)
        except SingularGram:  # the test needs a regular A^T A, which OLS does not
            test = None
        message = res.message if isinstance(res, PulseResult) else None
        if message is PulseMessage.TSLS_REJECTED_FALLBACK and fallback_spec is None:
            print(MESSAGE_TEXT[message])
            print("error: dual representation infeasible and no fallback requested", file=sys.stderr)
            return INFEASIBLE_ERROR
        if message in MESSAGE_TEXT:
            print(MESSAGE_TEXT[message])
        rows.append((label, res, test, "" if message is None else message.value))

    coef_names = view.coef_names
    print(f"data: {args.data}  n={view.n}  d1={view.d1}  q1={view.q1}  q={view.q}")
    print(f"identification: {view.identification.value} (degree {view.identification_degree})")
    header = ["estimator", *coef_names, "kappa", "lambda", "test", "threshold", "message"]
    table = [header] + [
        [label, *(_fmt(float(v)) for v in res.alpha), _fmt(res.kappa_used),
         _fmt(res.lambda_used), _fmt(test and test.statistic), _fmt(test and test.threshold),
         message]
        for label, res, test, message in rows
    ]
    # each column as wide as its longest cell, and at least 12
    widths = [max(12, *(len(cell) for cell in column)) for column in zip(*table)]
    for cells in table:
        print("  ".join(f"{cell:>{width}}" for cell, width in zip(cells, widths)))

    try:
        weak = weak_instrument_stat(view)
        print(
            f"weak instruments: min eig G_n = {weak.min_eigenvalue:.4f} "
            f"(rule-of-thumb >10: {'pass' if weak.rule_of_thumb_pass else 'fail'})"
        )
    except PulseIVError as exc:
        weak = None
        print(f"weak instruments: unavailable ({exc})")

    if args.json_out:
        doc = {
            "data": str(args.data),
            "n": view.n,
            "coefficients": list(coef_names),
            "identification": view.identification.value,
            "centering": "none" if use_intercept else "all",
            "intercept": use_intercept,
            "scaling": scaling,
            "p_min": args.pmin,
            "estimates": [
                {
                    "estimator": label,
                    "alpha": {nm: _round10(float(v)) for nm, v in zip(coef_names, res.alpha)},
                    "kappa": None if res.kappa_used is None else _round10(float(res.kappa_used)),
                    "lambda": None if res.lambda_used is None else (
                        "inf" if math.isinf(res.lambda_used) else _round10(float(res.lambda_used))
                    ),
                    "test_statistic": test and _round10(test.statistic),
                    "threshold": test and _round10(test.threshold),
                    "accepted": test and test.accepted,
                    "message": message,
                }
                for label, res, test, message in rows
            ],
        }
        if weak is not None:
            doc["weak_instruments"] = {
                "g_matrix": [[_round10(float(v)) for v in r] for r in weak.g_matrix],
                "min_eigenvalue": _round10(weak.min_eigenvalue),
                "rule_of_thumb_pass": weak.rule_of_thumb_pass,
            }
        with _writing(args.json_out):
            Path(args.json_out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


def _write_rows(fh: TextIO, table: np.ndarray, block: int = 4096) -> None:
    """Write each row of ``table`` as a CSV line of ``%.17g`` cells, formatting
    ``block`` rows with one ``%``."""
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, len(table), block):
        rows = table[start : start + block]
        fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))


def cmd_simulate(args: argparse.Namespace) -> int:
    from .sem import intervention_from_json, load_json, load_sem_json, model_to_json, sem_sample

    model, iv = load_sem_json(args.sem)
    if args.intervene:
        iv = intervention_from_json(load_json(args.intervene, "intervention file"), model.q)
    ds = sem_sample(model, args.n, args.seed, iv)
    out = Path(args.out)
    header = list(ds.a_names) + list(ds.x_names) + [ds.y_name]
    with _writing(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            _write_rows(fh, np.column_stack([ds.a, ds.x, ds.y]))
    manifest = {
        "seed": args.seed,
        "n": args.n,
        "sem": model_to_json(model, iv),
        "columns": header,
        "library_version": __version__,
    }
    manifest_path = Path(str(out) + ".manifest.json")
    with _writing(manifest_path):
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(f"wrote {ds.n} rows to {out}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import ExperimentConfig, run_experiment, write_result
    from .sem import load_json

    if bool(args.config) == bool(args.design):
        print("error: provide exactly one of --config or --design", file=sys.stderr)
        return USAGE_ERROR
    if args.workers < 1:
        print(f"error: --workers must be at least 1, got {args.workers}", file=sys.stderr)
        return USAGE_ERROR
    if args.config:
        cfg = ExperimentConfig.from_json(load_json(args.config, "experiment config"))
    else:
        cfg = ExperimentConfig(design=args.design)
    if args.reps is not None:
        cfg = replace(cfg, repetitions=args.reps)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    with _writing(args.out):  # before any cell runs
        Path(args.out).mkdir(parents=True, exist_ok=True)
    result = run_experiment(cfg, threads=args.workers)
    with _writing(args.out):
        csv_path, manifest_path = write_result(result, args.out)
    print(f"wrote {csv_path} and {manifest_path}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    view, _ = _load_view(args)
    print(f"n={view.n}  d1={view.d1}  q1={view.q1}  q2={view.q2}  q={view.q}")
    print(
        f"identification: {view.identification.value} (degree {view.identification_degree})"
    )
    print(f"rcond(Z^T Z) = {view.rcond_ztz:.3e}   rcond(A^T A) = {view.rcond_ata:.3e}")
    report = weak_instrument_stat(view)
    print("G_n =")
    for row in report.g_matrix:
        print("  " + "  ".join(f"{v:12.4f}" for v in row))
    print(f"min eigenvalue = {report.min_eigenvalue:.4f}")
    print(f"rule-of-thumb (>10): {'pass' if report.rule_of_thumb_pass else 'fail'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "estimate": cmd_estimate,
        "simulate": cmd_simulate,
        "experiment": cmd_experiment,
        "diagnose": cmd_diagnose,
    }
    try:
        return handlers[args.command](args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except PulseIVError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def run() -> int:
    """The program's entry, as ``pulse-iv`` and as ``python -m pulse_iv.cli``:
    :func:`main`, then ``gc.freeze()``, so the interpreter's shutdown skips its
    full collections over numpy's and scipy's objects.  A caller of
    :func:`main` keeps its own ``gc`` state."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
