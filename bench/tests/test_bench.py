"""The benchmark's own checks, at tiny sizes: span self time, the reference
check, and repeatable counts.  Run with ``python -m pytest bench/tests``."""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibrated
import checks
import run
import spans
import workloads
from checks import Tally

BENCH = Path(__file__).resolve().parents[1]


def _span(sid, parent, start, end, name="x"):
    return spans.Span(sid, parent, 0, name, start, end, thread=1)


def test_self_time_subtracts_the_union_of_child_intervals():
    recorded = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),  # grandchild: counts against 2, not 1
        _span(4, 1, 3.5, 5.5),  # overlaps 2, as a pool worker's span can
        _span(5, 1, 5.0, 6.0),
    ]
    own = spans.self_times(recorded)
    assert own[1] == pytest.approx(10.0 - 5.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(2.0)


def test_recorder_links_nested_calls_and_restores_the_originals():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", lambda: 1)
    outer = recorder.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["outer"]
    assert top.parent is None
    assert [s.parent for s in by_name["inner"]] == [top.id, top.id]

    import pulse_iv.data
    import pulse_iv.experiments

    original = pulse_iv.experiments.sem_sample
    restore, missing = spans.install(spans.SpanRecorder())
    assert missing == []
    assert pulse_iv.experiments.sem_sample is not original
    restore()
    assert pulse_iv.experiments.sem_sample is original
    assert "__wrapped__" not in vars(pulse_iv.data.DesignView.kclass_solve)


def _perturbed(csv_bytes: bytes, factor: float) -> bytes:
    rows = checks.parse_csv(csv_bytes)
    col = rows[0].index("value")
    row = next(r for r in rows[1:] if r[rows[0].index("metric")] == "rmse")
    value = float(row[col])
    return csv_bytes.replace(repr(value).encode(), repr(value * factor).encode(), 1)


def test_perturbed_reference_output_is_a_counted_failure():
    w = workloads.WORKLOADS["mc-univariate"]
    ref_csv, ref_manifest = w.reference()

    tally = Tally()
    assert w.check_reference(tally, ref_csv, ref_manifest)
    assert (tally.attempted, tally.failed) == (2, 0)

    # within the tolerance: not a failure, but no longer byte-identical
    assert not w.check_reference(tally, _perturbed(ref_csv, 1 + 1e-9), ref_manifest)
    assert tally.failed == 0

    assert not w.check_reference(tally, _perturbed(ref_csv, 1 + 1e-3), ref_manifest)
    assert (tally.attempted, tally.failed) == (6, 1)
    assert tally.failed_frac == pytest.approx(1 / 6)


def test_perturbed_cli_report_and_table_are_caught():
    ref = workloads.REFERENCE_DIR / "cli-estimate"
    report, table = (ref / "report.json").read_bytes(), (ref / "stdout.txt").read_bytes()
    assert checks.compare_table(table, table) == []
    assert workloads._compare_report(report, report) == []
    doc = checks.load_json(report)
    doc["estimates"][-1]["alpha"]["x1"] *= 1 + 1e-3
    import json

    assert workloads._compare_report(json.dumps(doc).encode(), report)
    pulse_line = next(line for line in table.decode().splitlines() if line.split()[:1] == ["pulse"])
    alpha = pulse_line.split()[1]
    bumped = table.decode().replace(pulse_line, pulse_line.replace(alpha, f"{float(alpha) + 0.01:.4f}"))
    assert checks.compare_table(bumped.encode(), table)


@pytest.mark.parametrize(
    "name, changes",
    [
        ("mc-univariate", {"repetitions": 2, "traced_calls": 2}),
        ("mc-mv-parallel", {"repetitions": 2, "traced_calls": 1, "grid": (("n_models", 1), ("sample_size", 50))}),
    ],
)
def test_count_metrics_repeat_for_a_fixed_seed(tmp_path, name, changes):
    w = dataclasses.replace(workloads.WORKLOADS[name], **changes)
    runs = [w.trace(Tally(), tmp_path / str(i), seed=3)[2] for i in range(2)]
    counts = [{k: layer[k] for k in run.PER_LAYER if run.layer_unit(k) == "count" and k in layer}
              for layer in runs]
    assert counts[0]["pulse.calls"] > 0
    assert counts[0] == counts[1]


def test_calibrated_time_follows_wall_time_when_a_fixed_cost_is_added():
    """Adding a fixed cost to the timed call, pure-Python or BLAS-threaded,
    leaves the calibration factor (calibrated / wall) as it was, so ratios of
    calibrated times follow ratios of wall times."""

    def python_loop(n):
        total = 0.0
        for i in range(n):
            total += i

    matrix = np.random.default_rng(0).random((300, 300))

    def blas(n):
        python_loop(n)
        for _ in range(10):
            matrix @ matrix

    timer = calibrated.Timer()
    for _ in range(6):
        for fn, n in ((python_loop, 300_000), (python_loop, 600_000), (blas, 300_000)):
            timer.time(fn, n)
    factor = [statistics.median(c / w for c, w in zip(timer.calibrated[k::3], timer.wall[k::3]))
              for k in range(3)]
    assert factor[1] == pytest.approx(factor[0], rel=0.2)
    assert factor[2] == pytest.approx(factor[0], rel=0.2)
    wall = [statistics.median(timer.wall[k::3]) for k in range(2)]
    cal = [statistics.median(timer.calibrated[k::3]) for k in range(2)]
    assert cal[1] / cal[0] == pytest.approx(wall[1] / wall[0], rel=0.2)


def test_fresh_study_process_writes_the_same_outputs_as_the_timed_call(tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS["mc-mv-parallel"], repetitions=2,
                            grid=(("n_models", 1), ("sample_size", 50)))
    _, csv_path, manifest_path = w.study(5, tmp_path / "in-process")
    child = workloads.run_child([sys.executable, "-c", w.study_code(5, "fresh")], tmp_path,
                                tmp_path / "stdout.txt")
    assert child.exit_code == 0
    assert child.max_rss_kib > 0
    assert (tmp_path / "fresh" / csv_path.name).read_bytes() == csv_path.read_bytes()
    assert (tmp_path / "fresh" / manifest_path.name).read_bytes() == manifest_path.read_bytes()


def test_child_peak_memory_is_its_own_not_the_benchmarks(tmp_path):
    ballast = np.ones(200 * 1024 * 1024 // 8)  # the benchmark process grows by 200 MiB
    child = workloads.run_child([sys.executable, "-c", "pass"], tmp_path, tmp_path / "stdout.txt")
    assert child.exit_code == 0
    assert 0 < child.max_rss_kib / 1024 < 100
    big = "b = bytearray(150 * 1024 * 1024); b[::4096] = b'x' * len(b[::4096])"
    nested = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {big!r}], check=True)"
    child = workloads.run_child([sys.executable, "-c", nested], tmp_path, tmp_path / "stdout.txt")
    assert child.exit_code == 0
    assert 150 < child.max_rss_kib / 1024 < 200  # a descendant's peak counts
    del ballast


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-underid", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
