"""In-memory span recorder and the patches that trace pulse_iv's layer entry points.

The benchmark wraps the public functions each layer exposes, from outside the
package: every call records its name, start, end, parent span, request id and
thread.  Nothing inside ``src/`` knows about it.  ``install`` returns an undo
callable so traced and untraced calls can alternate in one process.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float
    thread: int
    tag: str = ""
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory.

    A span opened on a thread with no open span of its own (a pool worker)
    hangs under the innermost open span of the thread that created the
    recorder, which is the call that is waiting for the pool.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        return self._local.__dict__.setdefault("stack", [])

    def wrap(
        self,
        name: str | Callable[[tuple, dict], str],
        fn: Callable,
        tag: Callable[[Any], str] | None = None,
    ) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span_id = next(self._ids)
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            stack.append(span_id)
            label = name(args, kwargs) if callable(name) else name
            result_tag, failed = "", False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if tag is not None:
                    result_tag = tag(result)
                return result
            except Exception:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, parent, self.request, label, start, end,
                         threading.get_ident(), result_tag, failed)
                )

        traced.__wrapped__ = fn
        return traced


def _estimator_name(args: tuple, kwargs: dict) -> str:
    spec = kwargs["spec"] if "spec" in kwargs else args[1]
    return "estimators." + spec.kind.replace("-", "_")


_BRANCHES = {"none": "search", "ols_accepted": "ols_accepted", "tsls_rejected_fallback": "fallback"}


def _pulse_branch(result: Any) -> str:
    return _BRANCHES.get(result.message.value, result.message.value)


def install(recorder: SpanRecorder) -> tuple[Callable[[], None], list[str]]:
    """Route every pulse_iv reference to a layer entry point through ``recorder``.

    Returns the undo callable and the entry points that were not found (a
    later version of the package may rename one; the benchmark then reports
    it instead of failing).
    """
    from pulse_iv import cli, data, estimators, experiments, inference, pulse, sem

    functions = [
        (sem, "sem_sample", "sem.sample", None),
        (data, "load_csv", "data.load_csv", None),
        (data, "center", "data.center", None),
        (estimators, "estimate", _estimator_name, None),
        (pulse, "pulse_estimate", "pulse", _pulse_branch),
        (inference, "weak_instrument_stat", "inference.weak", None),
        (inference, "test_statistic", "inference.test", None),
        (experiments, "run_experiment", "experiments.run", None),
        (experiments, "summarize_estimates", "experiments.summarize", None),
        (experiments, "write_result", "experiments.write", None),
        (cli, "main", "cli.main", None),
    ]
    methods = [
        (data.DesignView, "__init__", "data.view"),
        (data.DesignView, "kclass_solve", "data.kclass_solve"),
    ]
    modules = [m for key, m in sys.modules.items() if key == "pulse_iv" or key.startswith("pulse_iv.")]
    undo: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    for home, attr, name, tag in functions:
        original = getattr(home, attr, None)
        if original is None:
            missing.append(f"{home.__name__}.{attr}")
            continue
        traced = recorder.wrap(name, original, tag)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, traced)
    for cls, attr, name in methods:
        original = cls.__dict__.get(attr)
        if original is None:
            missing.append(f"{cls.__name__}.{attr}")
            continue
        undo.append((cls, attr, original))
        setattr(cls, attr, recorder.wrap(name, original))

    def restore() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore, missing


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children on different threads may overlap; their union is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = s.duration - covered
    return out


ESTIMATOR_KINDS = ("ols", "tsls", "fuller", "liml", "modified_tsls")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts, self times and medians; a layer not called reads 0."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def busy(name: str) -> float:
        return sum(own[s.id] for s in by_name.get(name, ()))

    def p50(name: str, scale: float) -> float:
        durations = [s.duration for s in by_name.get(name, ())]
        return statistics.median(durations) * scale if durations else 0.0

    pulse_spans = by_name.get("pulse", [])
    pulse_ids = {s.id for s in pulse_spans}
    solves_in_pulse = sum(1 for s in by_name.get("data.kclass_solve", ()) if s.parent in pulse_ids)
    branches = defaultdict(int)
    for s in pulse_spans:
        branches[s.tag] += 1

    m: dict[str, float] = {
        "sem.sample_calls": calls("sem.sample"),
        "sem.sample_busy_s": busy("sem.sample"),
        "sem.sample_ms_p50": p50("sem.sample", 1e3),
        "data.view_calls": calls("data.view"),
        "data.view_busy_s": busy("data.view"),
        "data.kclass_solves": calls("data.kclass_solve"),
        "data.kclass_solve_us_p50": p50("data.kclass_solve", 1e6),
        "data.load_csv_ms": p50("data.load_csv", 1e3),
        "data.center_ms": p50("data.center", 1e3),
    }
    for kind in ESTIMATOR_KINDS:
        m[f"estimators.{kind}_calls"] = calls(f"estimators.{kind}")
        m[f"estimators.{kind}_busy_s"] = busy(f"estimators.{kind}")
    m["estimators.failed"] = sum(1 for s in spans if s.name.startswith("estimators.") and s.failed)
    m.update(
        {
            "pulse.calls": len(pulse_spans),
            "pulse.busy_s": busy("pulse"),
            "pulse.ms_p50": p50("pulse", 1e3),
            "pulse.kclass_solves_per_call": solves_in_pulse / len(pulse_spans) if pulse_spans else 0.0,
            "pulse.branch_search": branches["search"],
            "pulse.branch_ols_accepted": branches["ols_accepted"],
            "pulse.branch_fallback": branches["fallback"],
            "pulse.failed": sum(1 for s in pulse_spans if s.failed),
            "inference.weak_calls": calls("inference.weak"),
            "inference.weak_busy_s": busy("inference.weak"),
            "inference.test_busy_s": busy("inference.test"),
            "experiments.summarize_busy_s": busy("experiments.summarize"),
            "experiments.write_busy_s": busy("experiments.write"),
            "experiments.self_s": busy("experiments.run"),
        }
    )
    cli_self = [own[s.id] for s in by_name.get("cli.main", ())]
    m["cli.self_ms"] = statistics.median(cli_self) * 1e3 if cli_self else 0.0
    return m


def span_rows(spans: list[Span]) -> list[list]:
    """Compact rows for the spans file: id, parent, request, name, start, end, thread, tag, failed."""
    return [
        [s.id, s.parent, s.request, s.name, s.start, s.end, s.thread, s.tag, s.failed]
        for s in spans
    ]
