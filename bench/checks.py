"""Output checks: values against a reference within a tolerance, and a tally of
attempted and failed operations.

The tolerance is tied to the PULSE search precision: ``lambda_star_search``
returns a penalty within ``1/N`` of the smallest accepted one (default
``N = 2**20``), so a change that keeps that contract may move an estimate, and
every metric reduced from it, by a small multiple of ``1/N``.  Closed-form
estimators move far less.  Values further apart than ``TOLERANCE`` relative to
``1 + |reference|`` are a failure; identical bytes are reported separately.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any

PRECISION_N = 2**20
TOLERANCE = 16.0 / PRECISION_N
#: The CLI table prints 4 decimals, so a value may round one unit either way.
TABLE_ROUNDING = 1.0001e-4


@dataclass
class Tally:
    """Operations attempted and failed in one run, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, what: str, problems: list[str]) -> None:
        """Count one checked output; it fails when ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:5])

    def operations(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def close(value: float, reference: float, slack: float = 0.0) -> bool:
    if math.isnan(reference) or math.isinf(reference):
        return value == reference or (math.isnan(value) and math.isnan(reference))
    return abs(value - reference) <= TOLERANCE * (1.0 + abs(reference)) + slack


def _cells_close(got: str, want: str, slack: float = 0.0) -> bool:
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return got == want
    return close(a, b, slack)


def parse_csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def compare_csv(data: bytes, reference: bytes) -> list[str]:
    """Cell-by-cell: numbers within the tolerance, other cells equal."""
    got, want = parse_csv(data), parse_csv(reference)
    if len(got) != len(want):
        return [f"{len(got)} rows, reference has {len(want)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(got, want)):
        if len(row) != len(ref) or not all(_cells_close(a, b) for a, b in zip(row, ref)):
            problems.append(f"row {i}: {row} vs reference {ref}")
    return problems


def compare_csv_shape(data: bytes, reference: bytes) -> list[str]:
    """Same rows as the reference except in the ``value`` column, whose cells
    must be finite numbers where the reference has numbers.  Used for seeds
    that have no committed reference.

    ``rel_change_*`` rows are optional: the harness omits one when the PULSE
    metric it divides by is zero, which depends on the data.
    """
    got, want = parse_csv(data), parse_csv(reference)
    if not got or not want or got[0] != want[0]:
        return ["header differs from the reference"]
    value, metric = want[0].index("value"), want[0].index("metric")

    def split(rows: list[list[str]]) -> tuple[list[list[str]], list[list[str]]]:
        kept: list[list[str]] = []
        optional: list[list[str]] = []
        for r in rows:
            (optional if len(r) > metric and r[metric].startswith("rel_change_") else kept).append(r)
        return kept, optional

    got_rows, got_optional = split(got[1:])
    want_rows, _ = split(want[1:])
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} rows, reference has {len(want_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(got_rows, want_rows), start=1):
        same_keys = len(row) == len(ref) and all(
            _cells_close(a, b) for j, (a, b) in enumerate(zip(row, ref)) if j != value
        )
        number = _number(row[value]) if same_keys else None
        if not same_keys or (_number(ref[value]) is not None and not _finite(number)):
            problems.append(f"row {i}: {row} vs reference {ref}")
    problems += [f"optional row {r} not finite" for r in got_optional if not _finite(_number(r[value]))]
    return problems


def _finite(x: float | None) -> bool:
    return x is not None and math.isfinite(x)


def compare_json(got: Any, want: Any, path: str = "$") -> list[str]:
    """Recursive comparison: numbers within the tolerance, everything else equal."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got} vs {sorted(want)}"]
        return [p for k in want for p in compare_json(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} vs {want!r}"]
        return [p for i, (a, b) in enumerate(zip(got, want)) for p in compare_json(a, b, f"{path}[{i}]")]
    if _is_number(got) and _is_number(want):
        return [] if close(float(got), float(want)) else [f"{path}: {got!r} vs {want!r}"]
    return [] if got == want else [f"{path}: {got!r} vs {want!r}"]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_table(text: bytes, reference: bytes) -> list[str]:
    """Whitespace-separated tokens: numbers within the tolerance plus one unit
    of the printed rounding, other tokens equal."""
    got = [line.split() for line in text.decode("utf-8").splitlines()]
    want = [line.split() for line in reference.decode("utf-8").splitlines()]
    if len(got) != len(want):
        return [f"{len(got)} lines, reference has {len(want)}"]
    return [
        f"line {i}: {' '.join(a)!r} vs {' '.join(b)!r}"
        for i, (a, b) in enumerate(zip(got, want))
        if len(a) != len(b) or not all(_cells_close(x, y, TABLE_ROUNDING) for x, y in zip(a, b))
    ]


def load_json(data: bytes) -> Any:
    return json.loads(data.decode("utf-8"))
