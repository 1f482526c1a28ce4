"""One ``verify_sweep`` pass in a fresh interpreter.

Usage: ``python sweep_child.py RESULT_PATH TRACE(0|1) [SPANS_PATH]``.

Runs ``checks.iter_verification_cases(5, 3)`` and times each ``next()``
(one case = one operation).  Between cases, at least every 0.2 s, it runs
the host-speed probe.  Writes a JSON result with per-case kind, status,
milliseconds and start time, the probes (end time, seconds), the
enumeration count, a digest of the case list, and, when traced, the
per-layer summary (spans saved to SPANS_PATH).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time

T_START = time.perf_counter()

import bermanpir  # noqa: E402
from bermanpir import checks  # noqa: E402

T_IMPORTED = time.perf_counter()

import tracer as tracing  # noqa: E402
from hostspeed import probe  # noqa: E402

N_MAX, M_MAX = 5, 3
PROBE_EVERY_S = 0.2


def main() -> int:
    result_path, traced = sys.argv[1], sys.argv[2] == "1"
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    cases = []
    digest = hashlib.sha256()
    probes = [probe()]
    last_probe = time.perf_counter()
    it = checks.iter_verification_cases(N_MAX, M_MAX)
    while True:
        t0 = time.perf_counter()
        try:
            with tracer.span(tracing.OP) if traced else contextlib.nullcontext():
                case = next(it)
        except StopIteration:
            break
        ms = (time.perf_counter() - t0) * 1e3
        cases.append((case.name.split(" ")[0], case.ok, ms, t0))
        digest.update(json.dumps([case.name, case.ok, case.detail]).encode() + b"\n")
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = time.perf_counter()
    probes.append(probe())
    if traced:
        tracer.uninstall()
    result = {
        "start": T_START,
        "imported": T_IMPORTED,
        "module": bermanpir.__file__,
        "cases": cases,
        "enumerated": len(checks._case_builders(N_MAX, M_MAX)),
        "digest": digest.hexdigest(),
        "probes": probes,
    }
    if traced:
        tracer.save(sys.argv[3])
        result["layers"] = tracing.summarize(tracer.arrays())
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
