"""pulse-iv benchmark: Monte Carlo throughput and CLI latency, traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-univariate [--seed 7] [--seconds 22] [--trace 0|1]

Prints a table of every metric with its unit, then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced calls and reports the per-layer metrics.  A
results file with the environment record goes to ``.bench_run/results/``.
See ``bench/README.md`` for the workloads and the metric glossary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mc-univariate", "mc-underid", "mc-mv-parallel", "cli-estimate")
#: Default length of the timed loop; the same as ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 22

END_TO_END = (
    ("reps_per_s", "1/s"),
    ("estimate_s_p50", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
#: Per-layer metrics in report order; the unit follows from the name suffix.
PER_LAYER = (
    "sem.sample_calls", "sem.sample_busy_s", "sem.sample_ms_p50",
    "data.view_calls", "data.view_busy_s", "data.kclass_solves", "data.kclass_solve_us_p50",
    "data.load_csv_ms", "data.center_ms",
    "estimators.ols_calls", "estimators.ols_busy_s", "estimators.tsls_calls", "estimators.tsls_busy_s",
    "estimators.fuller_calls", "estimators.fuller_busy_s", "estimators.liml_calls",
    "estimators.liml_busy_s", "estimators.modified_tsls_calls", "estimators.modified_tsls_busy_s",
    "estimators.failed",
    "pulse.calls", "pulse.busy_s", "pulse.ms_p50", "pulse.kclass_solves_per_call",
    "pulse.branch_search", "pulse.branch_ols_accepted", "pulse.branch_fallback", "pulse.failed",
    "inference.weak_calls", "inference.weak_busy_s", "inference.test_busy_s",
    "experiments.summarize_busy_s", "experiments.write_busy_s", "experiments.self_s",
    "experiments.excluded_reps", "experiments.digest_match", "experiments.parallel_efficiency",
    "cli.import_s", "cli.self_ms", "cli.exit_nonzero",
    "trace.overhead_frac",
)


def layer_unit(name: str) -> str:
    for suffix, unit in (("_busy_s", "s"), ("_self_s", "s"), ("_import_s", "s"), ("_ms_p50", "ms"),
                         ("_us_p50", "us"), ("_ms", "ms"), ("_frac", "ratio"),
                         ("_efficiency", "ratio"), ("_per_call", "count"), ("digest_match", "bool")):
        if name.replace(".", "_").endswith(suffix):
            return unit
    return "count"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=7, help="workload seed (default 7, the reference seed)")
    p.add_argument("--seconds", type=int, default=RUN_SECONDS,
                   help=f"length of the timed loop (default {RUN_SECONDS})")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-reference", action="store_true",
                   help="rewrite the workload's committed reference outputs at seed 7 and exit")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def environment(seed: int) -> dict:
    """Machine and library versions, the BLAS thread setting as found, the commit and the seed."""
    import numpy
    import scipy

    def build_blas(module) -> str | None:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError, ValueError):
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": build_blas(numpy),
        "openblas_scipy": build_blas(scipy),
        "openblas_runtime": _openblas_runtime(),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PULSE_THREADS")
        },
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def _openblas_runtime() -> list[dict]:
    """Config string and thread count of each OpenBLAS loaded in this process."""
    import ctypes

    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    entry.update(config=config().decode(), threads=int(threads()))
                    break
            if "config" in entry:
                break
        found.append(entry)
    return found


def _git_sha() -> str | None:
    """HEAD read from ``.git`` without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pulse_iv").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for p in (75, 90, 95, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(values, n=100, method="inclusive")[p - 1])
    return best


def summarize(workload, timing, tally) -> tuple[dict, dict, list[str]]:
    """Calibrated metric values, the same in raw wall time, and the printed table."""
    from workloads import CliWorkload

    def figures(call_s: list[float], setup_s: list[float]) -> dict:
        return {
            "reps_per_s": statistics.median(timing.reps_per_call / s for s in call_s),
            "estimate_s_p50": statistics.median(call_s),
            "peak_rss_mb": timing.peak_rss_mb,
            "setup_s": statistics.median(setup_s),
        }

    metrics = figures(timing.calls.calibrated, timing.setups.calibrated)
    raw = figures(timing.calls.wall, timing.setups.wall)
    calls = "estimate processes" if isinstance(workload, CliWorkload) else "study calls"
    tail = tail_percentile(timing.calls.calibrated)
    timed = f"median of {len(timing.calls.wall)} {calls}" + (f"; p{tail[0]} {tail[1]:.4g} s" if tail else "")
    notes = {
        "reps_per_s": f"{timing.reps_per_call} repetition(s) per call; {timed}",
        "estimate_s_p50": timed,
        "peak_rss_mb": ("median over estimate processes" if calls == "estimate processes"
                        else "a fresh process running one study"),
        "setup_s": f"median of {len(timing.setups.wall)} fresh set-ups",
    }
    lines = [f"  {'metric':<34} {'calibrated':>14} {'raw wall':>12} {'unit':<6} detail"]
    lines += [
        f"  {name:<34} {metrics[name]:>14.6g} {raw[name]:>12.6g} {unit:<6} {notes[name]}"
        for name, unit in END_TO_END
    ]
    lines.append(
        f"  {'failed_frac':<34} {tally.failed_frac:>14.6g} {'':>12} {'ratio':<6} "
        f"{tally.failed} failed of {tally.attempted} attempted"
    )
    lines += [f"  {name:<34} {timing.layer[name]:>14.6g} {'':>12} {layer_unit(name)}"
              for name in PER_LAYER if name in timing.layer]
    return metrics, raw, lines


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "pulse_iv" / "__init__.py").is_file():
        print(f"error: no pulse_iv sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports pulse_iv from SRC
    from checks import Tally

    workload = workloads.WORKLOADS[args.workload]

    out_dir = ROOT / ".bench_run"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        if args.update_reference:
            for path in workload.write_reference(workdir):
                print(f"wrote {path.relative_to(ROOT)}")
            return 0
        if args.trace:
            timing = workload.run_traced(tally, workdir, args.seed)
        else:
            timing = workload.run(tally, workdir, args.seed, float(args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, raw, lines = summarize(workload, timing, tally)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        workloads.write_spans(results_dir / f"{stem}.spans.jsonl.gz", timing.recorded)
        reported = {k: {"value": timing.layer.get(k, 0.0), "unit": layer_unit(k)} for k in PER_LAYER}
    else:
        reported = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "metrics": {**metrics, "failed_frac": tally.failed_frac},
        "raw_wall_metrics": raw,
        "per_layer": {k: timing.layer.get(k, 0.0) for k in PER_LAYER} if args.trace else {},
        "call_wall_s": timing.calls.wall,
        "call_calibrated_s": timing.calls.calibrated,
        "reps_per_call": timing.reps_per_call,
        "setup_wall_s": timing.setups.wall,
        "setup_calibrated_s": timing.setups.calibrated,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }
    results_path = results_dir / f"{stem}.json"
    results_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"pulse-iv benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds}  trace={args.trace}")
    print("\n".join(lines))
    for problem in tally.problems[:20]:
        print(f"  problem: {problem}")
    print(f"results: {results_path.relative_to(ROOT)}")
    if not all(math.isfinite(m["value"]) for m in reported.values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
