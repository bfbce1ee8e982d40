"""Run one ``pulse-iv`` command in this fresh process with its layer calls traced.

Usage: ``python bench/cli_child.py SPANS_JSON ARGS...``, with ``src`` on
``PYTHONPATH``.  Writes the spans, the time ``import pulse_iv.cli`` took and
any entry point that could not be traced to SPANS_JSON, then exits with the
command's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import spans


def main() -> int:
    out = Path(sys.argv[1])
    start = time.perf_counter()
    import pulse_iv.cli

    import_s = time.perf_counter() - start
    recorder = spans.SpanRecorder()
    restore, missing = spans.install(recorder)
    try:
        return pulse_iv.cli.main(sys.argv[2:])
    finally:
        restore()
        doc = {"import_s": import_s, "missing": missing, "spans": spans.span_rows(recorder.spans)}
        out.write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
