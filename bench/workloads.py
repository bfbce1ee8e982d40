"""The benchmark's four workloads: inputs from the seed, the timed operation,
and the checks on its outputs.

All workloads are closed loops with one client: each call starts when the
previous one has returned.  The program sees only the generated inputs (an
``ExperimentConfig`` with a master seed, or a CSV file).
"""

from __future__ import annotations

import atexit
import gzip
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from pulse_iv import experiments, sem
from pulse_iv.experiments import ExperimentConfig

import checks
import spans
from calibrated import Timer, process_s
from checks import Tally

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 7
#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUPS = 3
#: A child process that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0


def master_seed(seed: int, call: int) -> int:
    """Master seed of the ``call``-th timed call; call 0 uses the seed itself."""
    return seed + 1_000_003 * call


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Child:
    exit_code: int
    max_rss_kib: int


class Spawner:
    """The small process that starts every child and reports its peak memory
    (``spawner.py``); started on first use, stopped when the benchmark exits."""

    def __init__(self) -> None:
        self._proc: subprocess.Popen | None = None

    def run(self, argv: list[str], cwd: Path, stdout: Path) -> Child:
        if self._proc is None:
            self._proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "spawner.py")], env=child_env(),
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            atexit.register(self.close)
        request = [argv, str(cwd), str(stdout), str(cwd / "stderr.txt"), CHILD_TIMEOUT_S]
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        exit_code, max_rss_kib = json.loads(self._proc.stdout.readline())
        return Child(exit_code, max_rss_kib)

    def close(self) -> None:
        if self._proc is not None:
            self._proc.stdin.close()
            self._proc.wait()
            self._proc = None


_SPAWNER = Spawner()


def run_child(argv: list[str], cwd: Path, stdout: Path) -> Child:
    """Run a process to its exit through the spawner; returns its exit code and
    its own peak memory, not the benchmark's."""
    return _SPAWNER.run(argv, cwd, stdout)


def timed(fn, *args, **kwargs) -> tuple[float, Any]:
    """Wall seconds of one call, for traced/untraced pairs whose ratio cancels drift."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


@dataclass
class Timing:
    """What a run measured, before it becomes the printed metrics."""

    calls: Timer  # the timed calls: studies, or estimate processes
    reps_per_call: int  # Monte Carlo repetitions per call; 1 for a CLI process
    setups: Timer
    peak_rss_mb: float
    layer: dict[str, float]
    recorded: list[spans.Span]


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McWorkload:
    """One ``run_experiment`` plus ``write_result`` call per operation."""

    name: str
    design: str
    repetitions: int
    threads: int
    grid: tuple[tuple[str, Any], ...]
    traced_calls: int

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            design=self.design, repetitions=self.repetitions, master_seed=seed, **dict(self.grid)
        )

    def setup_code(self) -> str:
        """Source of a set-up process: import only the program and build the
        grid's models, the set-up a study pays before its first repetition."""
        cfg = self.config(REFERENCE_SEED)
        if self.design == "univariate":
            build = (f"[sem.univariate_model(q, rho, r2) for q in {cfg.q_values!r}"
                     f" for rho in {cfg.rho_values!r} for r2 in {cfg.r2_values!r}]")
        elif self.design == "underid-e3":
            build = "[sem.e3_model()]"
        else:
            build = (f"rng = np.random.default_rng({cfg.master_seed})\n"
                     "[sem.mv_fixed_model(rng.uniform(-2.0, 2.0, size=(2, 2)), *triple)"
                     " for triple in experiments.FIXED_NOISE_DECLARED"
                     f" for _ in range({cfg.n_models})]")
        return "import numpy as np\nfrom pulse_iv import experiments, sem\n" + build + "\n"

    def study_code(self, seed: int, outdir: str) -> str:
        """Source of a process that sets up and runs one study, as ``study`` does."""
        cfg = json.dumps(self.config(seed).to_json())
        return (self.setup_code() + "import json\n"
                f"cfg = experiments.ExperimentConfig.from_json(json.loads({cfg!r}))\n"
                f"experiments.write_result(experiments.run_experiment(cfg, threads={self.threads}), {outdir!r})\n")

    def study(self, seed: int, outdir: Path, threads: int | None = None) -> tuple[int, Path, Path]:
        """The timed operation: one study, run and written; returns repetitions and output paths."""
        cfg = self.config(seed)
        result = experiments.run_experiment(cfg, threads=threads or self.threads)
        csv_path, manifest_path = experiments.write_result(result, outdir)
        return len(result.cells) * cfg.repetitions, csv_path, manifest_path

    # -- checks ---------------------------------------------------------------

    def reference(self) -> tuple[bytes, bytes]:
        ref = REFERENCE_DIR / self.name
        return (ref / f"{self.design}.csv").read_bytes(), (ref / "manifest.json").read_bytes()

    def check_study(self, tally: Tally, seed: int, study: tuple[int, Path, Path]) -> int:
        """Count estimator-repetitions and the output check; returns exclusions."""
        reps, csv_bytes, manifest = study[0], study[1].read_bytes(), study[2].read_bytes()
        ref_csv, ref_manifest = self.reference()
        rows = checks.parse_csv(csv_bytes)
        metric = rows[0].index("metric") if rows else 0
        excluded = sum(int(float(r[metric + 1])) for r in rows[1:] if r[metric].startswith("excluded_"))
        estimators = {r[metric - 1] for r in checks.parse_csv(ref_csv)[1:]} - {"_instruments"}
        tally.operations(reps * len(estimators), excluded, f"{self.name} seed {seed}: excluded repetitions")
        want = checks.load_json(ref_manifest)
        want["master_seed"] = want["config"]["master_seed"] = seed
        tally.check(
            f"{self.name} seed {seed} output",
            checks.compare_csv_shape(csv_bytes, ref_csv)
            + checks.compare_json(checks.load_json(manifest), want),
        )
        return excluded

    def check_reference(self, tally: Tally, csv_bytes: bytes, manifest: bytes) -> bool:
        """Values against the committed reference; returns whether bytes match."""
        ref_csv, ref_manifest = self.reference()
        tally.check(f"{self.name} reference CSV", checks.compare_csv(csv_bytes, ref_csv))
        tally.check(
            f"{self.name} reference manifest",
            checks.compare_json(checks.load_json(manifest), checks.load_json(ref_manifest)),
        )
        return csv_bytes == ref_csv and manifest == ref_manifest

    def write_reference(self, workdir: Path) -> list[Path]:
        _, csv_path, manifest_path = self.study(REFERENCE_SEED, workdir / "reference")
        ref = REFERENCE_DIR / self.name
        ref.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(csv_path, ref / csv_path.name)
        shutil.copyfile(manifest_path, ref / manifest_path.name)
        return [ref / csv_path.name, ref / manifest_path.name]

    # -- runs -----------------------------------------------------------------

    def setup(self, tally: Tally, workdir: Path) -> Timer:
        timer = Timer(process_s)
        argv = [sys.executable, "-c", self.setup_code()]
        children = [timer.time(run_child, argv, workdir, workdir / "setup.out") for _ in range(SETUPS)]
        tally.operations(len(children), sum(c.exit_code != 0 for c in children), "set-up exit status")
        return timer

    def peak_rss_mb(self, tally: Tally, workdir: Path, seed: int, reps: int) -> float:
        """Peak memory of a fresh process that runs the run's first study: the
        largest peak of it and its waited-for descendants (a maximum, not a
        sum).  Its outputs are checked too."""
        s = master_seed(seed, 0)
        child = run_child([sys.executable, "-c", self.study_code(s, "rss")], workdir, workdir / "rss.out")
        tally.operations(1, int(child.exit_code != 0), "peak-memory study exit status")
        if child.exit_code == 0:
            out = workdir / "rss"
            self.check_study(tally, s, (reps, out / f"{self.design}.csv", out / "manifest.json"))
        return child.max_rss_kib / 1024.0

    def _reference_study(self, tally: Tally, outdir: Path) -> float:
        # also the warm-up: caches fill and lazy set-up finishes before timing
        _, csv_path, manifest_path = self.study(REFERENCE_SEED, outdir)
        return float(self.check_reference(tally, csv_path.read_bytes(), manifest_path.read_bytes()))

    def run(self, tally: Tally, workdir: Path, seed: int, seconds: float) -> Timing:
        setups = self.setup(tally, workdir)
        outdir = workdir / "out"
        digest = self._reference_study(tally, outdir)
        calls = Timer()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            s = master_seed(seed, len(calls.wall))
            study = calls.time(self.study, s, outdir)
            self.check_study(tally, s, study)
        rss = self.peak_rss_mb(tally, workdir, seed, study[0])
        return Timing(calls, study[0], setups, rss, {"experiments.digest_match": digest}, [])

    def run_traced(self, tally: Tally, workdir: Path, seed: int) -> Timing:
        setups = self.setup(tally, workdir)
        outdir = workdir / "out"
        digest = self._reference_study(tally, outdir)
        calls, reps, layer, recorded = self.trace(tally, outdir, seed)
        layer["experiments.digest_match"] = digest
        return Timing(calls, reps, setups, self.peak_rss_mb(tally, workdir, seed, reps), layer, recorded)

    def trace(self, tally: Tally, outdir: Path, seed: int) -> tuple[Timer, int, dict, list[spans.Span]]:
        """Pair an untraced and a traced call on the same inputs, taking turns
        at going first, so the trace overhead is measured on equal work; on a
        pool workload also time the same grid serially for the parallel
        efficiency."""
        recorder = spans.SpanRecorder()
        plain = Timer()
        overhead, serial_share = [], []
        excluded = 0
        missing: list[str] = []
        for i in range(self.traced_calls):
            s = master_seed(seed, i)
            for traced_turn in (i % 2 == 1, i % 2 == 0):
                if not traced_turn:
                    self.check_study(tally, s, plain.time(self.study, s, outdir))
                    continue
                recorder.request = i
                restore, missing = spans.install(recorder)
                try:
                    wall, study = timed(self.study, s, outdir)
                finally:
                    restore()
                excluded += self.check_study(tally, s, study)
            overhead.append(wall / plain.wall[-1] - 1.0)
            if self.threads > 1:
                serial_share.append(timed(self.study, s, outdir, threads=1)[0] / plain.wall[-1])
        tally.problems += [f"trace: entry point {name} not found" for name in missing]
        layer = spans.layer_metrics(recorder.spans)
        layer.update(
            {
                "experiments.excluded_reps": excluded,
                "experiments.parallel_efficiency": (
                    statistics.median(serial_share) / self.threads if serial_share else 0.0
                ),
                "trace.overhead_frac": statistics.median(overhead),
            }
        )
        return plain, study[0], layer, recorder.spans


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliWorkload:
    """Fresh ``pulse-iv estimate`` processes on one simulated CSV."""

    name: str
    q: int
    rho: float
    r2: float
    n: int
    estimators: str
    traced_calls: int

    def estimate_args(self) -> list[str]:
        instruments = ",".join(f"a{i + 1}" for i in range(self.q))
        return ["estimate", "--data", "data.csv", "--target", "y", "--endogenous", "x1",
                "--instruments", instruments, "--estimator", self.estimators, "--json", "report.json"]

    def _simulate(self, sem_json: Path, seed: int, outdir: Path) -> Child:
        outdir.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, "-m", "pulse_iv.cli", "simulate", "--sem", str(sem_json),
                "--n", str(self.n), "--seed", str(seed), "--out", "data.csv"]
        return run_child(argv, outdir, outdir / "simulate.out")

    def setup(self, tally: Tally, workdir: Path, seed: int) -> tuple[Timer, Path, Path]:
        """Simulate the reference input (seed 7) once and the run's input twice;
        every simulate is a set-up sample."""
        sem_json = workdir / "sem.json"
        model = sem.univariate_model(self.q, self.rho, self.r2)
        sem_json.write_text(json.dumps(sem.model_to_json(model)), encoding="utf-8")
        ref_dir, run_dir = workdir / "ref", workdir / "run"
        timer = Timer(process_s)
        children = [timer.time(self._simulate, sem_json, REFERENCE_SEED, ref_dir)]
        first = None
        for _ in range(SETUPS - 1):
            children.append(timer.time(self._simulate, sem_json, seed, run_dir))
            data = (run_dir / "data.csv").read_bytes()
            if first is not None:
                tally.check("simulate repeat", [] if data == first else ["CSV bytes differ between two simulates"])
            first = data
        bad = [c for c in children if c.exit_code != 0]
        tally.operations(len(children), len(bad), "simulate exit status")
        return timer, ref_dir, run_dir

    def estimate(self, cwd: Path, traced_spans: Path | None = None) -> Child:
        if traced_spans is None:
            argv = [sys.executable, "-m", "pulse_iv.cli", *self.estimate_args()]
        else:
            argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(traced_spans), *self.estimate_args()]
        return run_child(argv, cwd, cwd / "stdout.txt")

    @staticmethod
    def outputs(cwd: Path) -> tuple[bytes, bytes]:
        report = cwd / "report.json"
        return (report.read_bytes() if report.exists() else b"", (cwd / "stdout.txt").read_bytes())

    def check_reference(self, tally: Tally, ref_dir: Path) -> bool:
        child = self.estimate(ref_dir)
        tally.operations(1, int(child.exit_code != 0), "reference estimate exit status")
        report, stdout = self.outputs(ref_dir)
        ref = REFERENCE_DIR / self.name
        want_report, want_stdout = (ref / "report.json").read_bytes(), (ref / "stdout.txt").read_bytes()
        data_digest = hashlib.sha256((ref_dir / "data.csv").read_bytes()).hexdigest()
        want_digest = (ref / "data.sha256").read_text(encoding="utf-8").strip()
        tally.check("reference report.json", _compare_report(report, want_report))
        tally.check("reference stdout", checks.compare_table(stdout, want_stdout))
        return report == want_report and stdout == want_stdout and data_digest == want_digest

    def check_oracle(self, tally: Tally, run_dir: Path, report: bytes) -> None:
        """OLS and TSLS recomputed here from the CSV; PULSE must be accepted."""
        problems: list[str] = []
        try:
            doc = checks.load_json(report)
            by_name = {e["estimator"]: e for e in doc["estimates"]}
            table = np.loadtxt(run_dir / "data.csv", delimiter=",", skiprows=1)
            a, x, y = table[:, : self.q], table[:, self.q], table[:, self.q + 1]
            a, x, y = a - a.mean(axis=0), x - x.mean(), y - y.mean()
            x_hat = a @ np.linalg.solve(a.T @ a, a.T @ x)
            for label, want in (("ols", (x @ y) / (x @ x)), ("tsls", (x_hat @ y) / (x_hat @ x))):
                got = by_name[label]["alpha"]["x1"]
                if not checks.close(got, float(want)):
                    problems.append(f"{label} alpha {got} vs recomputed {want}")
            pulse = by_name["pulse"]
            if not pulse["accepted"] and pulse["message"] != "tsls_rejected_fallback":
                problems.append(f"pulse estimate not accepted: {pulse}")
        except (KeyError, ValueError, TypeError) as exc:
            problems.append(f"report unreadable: {exc!r}")
        tally.check("estimate vs recomputed OLS/TSLS", problems)

    def write_reference(self, workdir: Path) -> list[Path]:
        _, ref_dir, _ = self.setup(Tally(), workdir, REFERENCE_SEED)
        self.estimate(ref_dir)
        report, stdout = self.outputs(ref_dir)
        ref = REFERENCE_DIR / self.name
        ref.mkdir(parents=True, exist_ok=True)
        (ref / "report.json").write_bytes(report)
        (ref / "stdout.txt").write_bytes(stdout)
        digest = hashlib.sha256((ref_dir / "data.csv").read_bytes()).hexdigest()
        (ref / "data.sha256").write_text(digest + "\n", encoding="utf-8")
        return [ref / "report.json", ref / "stdout.txt", ref / "data.sha256"]

    def run(self, tally: Tally, workdir: Path, seed: int, seconds: float) -> Timing:
        setups, ref_dir, run_dir = self.setup(tally, workdir, seed)
        digest = self.check_reference(tally, ref_dir)
        calls = Timer(process_s)
        children: list[Child] = []
        first: tuple[bytes, bytes] | None = None
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            children.append(calls.time(self.estimate, run_dir))
            first = self._check_run(tally, children[-1], run_dir, first)
        self.check_oracle(tally, run_dir, first[0])
        rss = statistics.median(c.max_rss_kib for c in children) / 1024.0
        return Timing(calls, 1, setups, rss, {"experiments.digest_match": float(digest)}, [])

    def _check_run(self, tally: Tally, child: Child, run_dir: Path,
                   first: tuple[bytes, bytes] | None) -> tuple[bytes, bytes]:
        """Exit status, and outputs identical to the first run on the same input."""
        out = self.outputs(run_dir)
        problems = [] if child.exit_code == 0 else [f"exit code {child.exit_code}"]
        if first is not None and out != first:
            problems.append("outputs differ from the first run on the same input")
        tally.check("estimate run", problems)
        return out if first is None else first

    def run_traced(self, tally: Tally, workdir: Path, seed: int) -> Timing:
        setups, ref_dir, run_dir = self.setup(tally, workdir, seed)
        digest = self.check_reference(tally, ref_dir)
        plain = Timer(process_s)
        plain_children: list[Child] = []
        overhead, imports, all_spans = [], [], []
        first: tuple[bytes, bytes] | None = None
        missing: set[str] = set()
        exit_nonzero = 0
        for i in range(self.traced_calls):
            spans_path = workdir / f"spans-{i}.json"
            for traced_turn in (i % 2 == 1, i % 2 == 0):
                if traced_turn:
                    wall, child = timed(self.estimate, run_dir, spans_path)
                else:
                    child = plain.time(self.estimate, run_dir)
                    plain_children.append(child)
                first = self._check_run(tally, child, run_dir, first)
                exit_nonzero += child.exit_code != 0
            overhead.append(wall / plain.wall[-1] - 1.0)
            if not spans_path.exists():
                tally.problems.append(f"trace: no spans from traced process {i}")
                continue
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            imports.append(doc["import_s"])
            all_spans += [_span_from_row(row, i) for row in doc["spans"]]
            missing.update(doc["missing"])
        tally.problems += [f"trace: entry point {name} not found" for name in sorted(missing)]
        self.check_oracle(tally, run_dir, first[0])
        layer = spans.layer_metrics(all_spans)
        layer.update(
            {
                "experiments.digest_match": float(digest),
                "cli.import_s": statistics.median(imports) if imports else 0.0,
                "cli.exit_nonzero": exit_nonzero,
                "trace.overhead_frac": statistics.median(overhead),
            }
        )
        rss = statistics.median(c.max_rss_kib for c in plain_children) / 1024.0
        return Timing(plain, 1, setups, rss, layer, all_spans)


def _span_from_row(row: list, request: int) -> spans.Span:
    # ids restart in every process; the offset keeps them unique across processes
    offset = request * 1_000_000_000
    sid, parent, _, name, start, end, thread, tag, failed = row
    return spans.Span(sid + offset, None if parent is None else parent + offset, request,
                      name, start, end, thread, tag, failed)


def _compare_report(report: bytes, want: bytes) -> list[str]:
    try:
        return checks.compare_json(checks.load_json(report), checks.load_json(want))
    except ValueError as exc:
        return [f"report unreadable: {exc}"]


def write_spans(path: Path, recorded: list[spans.Span]) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for row in spans.span_rows(recorded):
            fh.write(json.dumps(row) + "\n")


WORKLOADS: dict[str, McWorkload | CliWorkload] = {
    w.name: w
    for w in (
        McWorkload(
            name="mc-univariate",
            design="univariate",
            repetitions=25,
            threads=1,
            grid=(("q_values", (2, 10)), ("rho_values", (0.9,)), ("r2_values", (0.01, 0.1, 0.3)),
                  ("n_values", (150,))),
            traced_calls=10,
        ),
        McWorkload(
            name="mc-underid",
            design="underid-e3",
            repetitions=40,
            threads=1,
            grid=(("n_values", (100, 1000, 10000)),),
            traced_calls=10,
        ),
        McWorkload(
            name="mc-mv-parallel",
            design="mv-fixed",
            repetitions=5,
            threads=2,
            grid=(("n_models", 8), ("sample_size", 50)),
            traced_calls=6,
        ),
        CliWorkload(
            name="cli-estimate",
            q=5,
            rho=0.5,
            r2=0.1,
            n=100_000,
            estimators="ols,tsls,liml,fuller:4,pulse",
            traced_calls=4,
        ),
    )
}
