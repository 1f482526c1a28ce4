"""Long-lived library process for the ``retrieve_wide`` workload.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It
imports ``bermanpir``, derives the scheme once cold, reports that it is
ready, then serves one request per stdin line (closed loop: the driver
sends the next request only after reading the reply).  Requests and
replies are single JSON lines:

* ``{"seed": s, "demand": d, "trace": bool}`` -> one ``run_retrieval`` plus
  its output checks, with a host-speed probe just before and after it;
* ``{"pinned": true}`` -> SHA-256 of the transcript JSON for a fixed op;
* ``{"finish": true, "spans": path}`` -> per-layer summary; spans saved.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time

T_START = time.perf_counter()

import numpy as np  # noqa: E402

import bermanpir  # noqa: E402
from bermanpir import pir  # noqa: E402
from bermanpir.berman import BermanParams  # noqa: E402

T_IMPORTED = time.perf_counter()

import tracer as tracing  # noqa: E402
from hostspeed import probe  # noqa: E402

STORAGE = "DBer(2,1,6)"
RETRIEVAL = "DBer(2,2,6)"
FILES = 256
PINNED = (0, 0)  # (seed, demand) of the digest op


def config(seed: int):
    return pir.SchemeConfig(BermanParams.parse(STORAGE), BermanParams.parse(RETRIEVAL), FILES, seed)


def expected_file(seed: int, demand: int, b: int, k_c: int) -> tuple[int, ...]:
    """The demanded file, redrawn from the documented stream order: M file
    matrices first, each one row-major uint8 bit draw from Philox(seed)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    for f in range(FILES):
        bits = rng.integers(0, 2, size=(b, k_c), dtype=np.uint8)
        if f == demand:
            weights = 1 << np.arange(k_c, dtype=np.uint64)
            return tuple(int(w) for w in (bits.astype(np.uint64) * weights).sum(axis=1))
    raise ValueError("demand out of range")


def check(tr, seed: int, demand: int) -> str:
    """Empty string when every output check passes, else the first failure."""
    if not tr.reconstructed_ok:
        return "reconstructed_ok is false"
    want = expected_file(seed, demand, tr.b, tr.recovered_file.cols)
    if tr.recovered_file.row_words != want or tr.stored_file.row_words != want:
        return "recovered file differs from the stored file"
    if tr.achieved_rate != tr.r_pir:
        return f"achieved rate {tr.achieved_rate} != R_pir {tr.r_pir}"
    return ""


def main() -> int:
    derive_start = time.perf_counter()
    pir.derive_scheme(config(0))
    ready = time.perf_counter()
    tracer = tracing.Tracer()
    out = sys.stdout
    out.write(json.dumps({
        "ready": ready,
        "start": T_START,
        "imported": T_IMPORTED,
        "derive_s": ready - derive_start,
        "module": bermanpir.__file__,
    }) + "\n")
    out.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("finish"):
            tracer.save(req["spans"])
            reply = {"layers": tracing.summarize(tracer.arrays())}
        elif req.get("pinned"):
            seed, demand = PINNED
            tr = pir.run_retrieval(config(seed), demand)
            reply = {"digest": hashlib.sha256(tr.to_json().encode()).hexdigest()}
        else:
            seed, demand, traced = req["seed"], req["demand"], req["trace"]
            tr, reason = None, ""
            before = probe()
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                with tracer.span(tracing.OP) if traced else contextlib.nullcontext():
                    tr = pir.run_retrieval(config(seed), demand)
            except Exception as exc:  # a failed op is reported, not fatal
                reason = f"{type(exc).__name__}: {exc}"
            finally:
                ms = (time.perf_counter() - t0) * 1e3
                if traced:
                    tracer.uninstall()
            reply = {"ms": ms, "t0": t0, "probes": [before, probe()], "completed": tr is not None}
            if tr is not None:
                reason = check(tr, seed, demand)
                reply["downloaded_bits"] = tr.downloaded_bits
            reply["reason"] = reason
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
