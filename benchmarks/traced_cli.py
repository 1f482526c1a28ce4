"""``python -m bermanpir.cli`` with the span tracer installed.

Usage: ``python traced_cli.py SPANS_PATH CLI_ARGS...``.

Installs the wrappers, runs ``bermanpir.cli.main`` on the remaining
arguments inside one root span, and saves the spans plus the per-layer
summary (``SPANS_PATH`` and ``SPANS_PATH.json``) even when the command
fails, so failed operations still show where their time went.
"""

from __future__ import annotations

import json
import sys
import time

T_START = time.perf_counter()

import bermanpir.cli  # noqa: E402

T_IMPORTED = time.perf_counter()

import tracer as tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span(tracing.OP):
            return bermanpir.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.save(spans_path)
        with open(spans_path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"start": T_START, "imported": T_IMPORTED,
                       "layers": tracing.summarize(tracer.arrays())}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
