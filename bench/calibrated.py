"""Calibrated time: wall time scaled by the speed of a fixed job run beside it.

The box the benchmark was built on is shared, and its speed drifts by up to 2x
over minutes as other tenants come and go; no run length averages that out.
So every timed sample is bracketed by a fixed calibration job and also
reported as

    calibrated = wall * reference / mean(job before, job after)

which is the time the sample would have taken with the box at the speed where
the job takes ``reference``.  Two jobs match the two kinds of sample:

- ``loop_s``, in process, for calls made inside the benchmark process: the
  kinds of numpy and scipy calls one Monte Carlo repetition makes (Philox
  draws, inverse normal CDF, centred Gram products, small solves, an
  eigenvalue check, quantiles);
- ``process_s``, for samples that are whole processes: a fresh interpreter
  that imports numpy and parses CSV text, which also pays for
  process start, imports and page faults as an ``estimate`` process does.

Neither job runs pulse_iv code, so a change to the program moves the
calibrated time as it moves the wall time, on one condition: the program must
leave the process as fast for the job as it found it.  The in-process job runs
right after each study, so a change that, say, leaves BLAS threads spinning
or the heap fragmented after a call would slow the job and move the
calibrated time against the wall time; the raw wall figures are kept beside
the calibrated ones for that reason.  The benchmark's tests check that a fixed
pure-Python or BLAS-threaded cost added to the timed call leaves the
calibration factor unchanged.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Any, Callable

import numpy as np
import scipy.special

_PROCESS_CODE = """
import csv, io, random
import numpy
rng = random.Random(0)
text = "\\n".join(",".join(repr(rng.gauss(0.0, 1.0)) for _ in range(7)) for _ in range(2000))
numpy.asarray([[float(c) for c in rec] for rec in csv.reader(io.StringIO(text))])
"""


def loop_s() -> float:
    """Wall time of 60 synthetic repetitions on 150 rows."""
    start = time.perf_counter()
    eye = np.eye(2)
    for i in range(60):
        z = scipy.special.ndtri(np.random.Generator(np.random.Philox(key=[i, 5])).random((150, 3)))
        a, y = z[:, :2] - z[:, :2].mean(axis=0), z[:, 2]
        ata, aty = a.T @ a, a.T @ y
        for k in range(25):
            np.linalg.solve(ata + (k / 25.0) * eye, aty)
        np.linalg.eigvalsh(ata)
        np.quantile(z, [0.25, 0.75], axis=0)
    return time.perf_counter() - start


def process_s() -> float:
    """Wall time of a fresh interpreter running a fixed import-and-parse job."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _PROCESS_CODE], check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


#: Fixed reference times: the scale of a calibrated second for each job.
REFERENCE_S = {loop_s: 0.040, process_s: 0.25}


class Timer:
    """Times samples in wall and calibrated seconds; consecutive samples share
    the calibration job between them."""

    def __init__(self, job: Callable[[], float] = loop_s) -> None:
        self.wall: list[float] = []
        self.calibrated: list[float] = []
        self._job = job
        self._before: float | None = None

    def time(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        if self._before is None:
            self._before = self._job()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        after = self._job()
        self.wall.append(wall)
        self.calibrated.append(wall * 2.0 * REFERENCE_S[self._job] / (self._before + after))
        self._before = after
        return result
