"""bermanpir benchmark: three closed-loop workloads with output checks.

Usage (from the root of a checkout)::

    python3 benchmarks/run.py --workload retrieve_wide --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py            # every workload, default seed and length

Workloads (one client, closed loop: the next operation starts only after
the previous one has finished; at most one child process at a time, no
worker threads, ``BERMAN_PIR_THREADS`` removed from every child's
environment):

* ``retrieve_wide``: one long-lived library process runs ``run_retrieval``
  on DBer(2,1,6) x DBer(2,2,6) with 256 files (a 5632 x 64 query matrix).
  Each op takes a seed-derived ``seed`` and ``demand``.
* ``simulate_ladder``: one op is ``python -m bermanpir.cli simulate`` on one
  of 20 fixed code pairs with a seed-derived ``--seed``, in a fresh
  interpreter.  The run goes through the ladder in whole passes.  Five pairs
  fail on the parent code (a RecursionError or a hang in the schedule
  search); they stay in the ladder and count as failed ops.
* ``verify_sweep``: ``checks.iter_verification_cases(5, 3)`` in a fresh
  interpreter per sweep; one op is one case.  Deterministic: the seed is
  ignored.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` each op is run once untraced and once with the span
tracer installed, and the last line carries the per-layer metrics derived
from the traced spans (normalised per pass: one op for ``retrieve_wide``,
one ladder pass, one sweep) and the tracing overhead.  A detailed report
is written to ``.bench_run/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from hostspeed import factor, probe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_run")
PY = sys.executable
THREADS_ENV = "BERMAN_PIR_THREADS"

SETUP_REPS = 7
LADDER_DEADLINE_S = 6.0  # twice the slowest passing pair (about 3 s)
SWEEP_DEADLINE_S = 120.0
WORKER_DEADLINE_S = 60.0
MIN_RETRIEVALS = 20
MIN_PASSES = {0: 2, 1: 1}  # whole ladder passes / sweeps, untraced and traced

#: Tail percentile per workload: the highest of 50/75/90/95/99 that keeps at
#: least ten samples beyond it at the workload's minimum sample count
#: (20 retrievals, 2 x 20 ladder ops, 2 x 708 cases).
TAIL_PERCENTILE = {"retrieve_wide": 50, "simulate_ladder": 75, "verify_sweep": 99}

LADDER = (
    ("DBer(3,0,3)", "DBer(3,1,3)"),
    ("DBer(2,1,5)", "DBer(2,1,5)"),
    ("DBer(2,1,6)", "DBer(2,2,6)"),
    ("DBer(2,2,6)", "DBer(2,2,6)"),
    ("DBer(2,1,7)", "DBer(2,2,7)"),
    ("DBer(2,1,8)", "DBer(2,1,8)"),
    ("DBer(3,0,5)", "DBer(3,1,5)"),
    ("DBer(4,0,4)", "DBer(4,1,4)"),
    ("Ber(3,1,3)", "DBer(3,0,3)"),
    ("Ber(5,1,2)", "DBer(5,0,2)"),
    ("Ber(6,1,2)", "DBer(6,1,2)"),
    ("Ber(2,2,8)", "DBer(2,1,8)"),
    ("DBer(3,1,3)", "Ber(3,1,3)"),
    ("DBer(6,0,2)", "Ber(6,1,2)"),
    ("DBer(4,0,4)", "Ber(4,1,4)"),
    # Known schedule-search defects: RecursionError or no answer.
    ("DBer(2,1,8)", "DBer(2,2,8)"),
    ("DBer(2,2,8)", "DBer(2,2,8)"),
    ("Ber(5,1,3)", "DBer(5,0,3)"),
    ("DBer(4,1,3)", "DBer(4,1,3)"),
    ("Ber(4,1,3)", "DBer(4,0,3)"),
)
PINNED_PAIR = LADDER[0]

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_fraction", "ratio"),
    ("peak_rss_mb", "MB"),
)

# (metric, layer, field, unit); field "count_a"/"count_b" are the layer's
# counts (see tracer.COUNTERS), "ratio" is count_b / count_a.
LAYER_METRICS = (
    ("gf2.BitMatrix.column_word.calls", "gf2.BitMatrix.column_word", "calls", "count"),
    ("gf2.BitMatrix.column_word.self_ms", "gf2.BitMatrix.column_word", "self_ms", "ms"),
    ("gf2.BitMatrix.column_word.bits_scanned", "gf2.BitMatrix.column_word", "count_a", "bits"),
    ("pir.respond_all.self_ms", "pir.respond_all", "self_ms", "ms"),
    ("gf2.BitMatrix.left_mul.calls", "gf2.BitMatrix.left_mul", "calls", "count"),
    ("gf2.BitMatrix.left_mul.self_ms", "gf2.BitMatrix.left_mul", "self_ms", "ms"),
    ("gf2.BitMatrix.left_mul.row_xors", "gf2.BitMatrix.left_mul", "count_a", "count"),
    ("pir.gen_queries.self_ms", "pir.gen_queries", "self_ms", "ms"),
    ("pir.run_retrieval.self_ms", "pir.run_retrieval", "self_ms", "ms"),
    ("pir.encode_storage.self_ms", "pir.encode_storage", "self_ms", "ms"),
    ("gf2.BitMatrix.matmul.self_ms", "gf2.BitMatrix.matmul", "self_ms", "ms"),
    ("pir.decode_iteration.self_ms", "pir.decode_iteration", "self_ms", "ms"),
    ("pir.reconstruct_file.self_ms", "pir.reconstruct_file", "self_ms", "ms"),
    ("gf2.invert_columns.calls", "gf2.invert_columns", "calls", "count"),
    ("gf2.invert_columns.self_ms", "gf2.invert_columns", "self_ms", "ms"),
    ("gf2.BitMatrix.mul_vector.self_ms", "gf2.BitMatrix.mul_vector", "self_ms", "ms"),
    ("pir.derive_scheme.calls", "pir.derive_scheme", "calls", "count"),
    ("pir.derive_scheme.self_ms", "pir.derive_scheme", "self_ms", "ms"),
    ("pir.derive_scheme.total_ms", "pir.derive_scheme", "total_ms", "ms"),
    ("cli.main.self_ms", "cli.main", "self_ms", "ms"),
    ("pir.verify_privacy_rank.calls", "pir.verify_privacy_rank", "calls", "count"),
    ("pir.verify_privacy_rank.self_ms", "pir.verify_privacy_rank", "self_ms", "ms"),
    ("pir.verify_privacy_rank.subsets", "pir.verify_privacy_rank", "count_a", "count"),
    ("pir.verify_privacy_rank.sampled_calls", "pir.verify_privacy_rank", "count_b", "count"),
    ("star.star_codes.calls", "star.star_codes", "calls", "count"),
    ("star.star_codes.self_ms", "star.star_codes", "self_ms", "ms"),
    ("star.star_codes.products", "star.star_codes", "count_a", "count"),
    ("star.star_codes.useful_ratio", "star.star_codes", "ratio", "ratio"),
    ("gf2.row_reduce.calls", "gf2.row_reduce", "calls", "count"),
    ("gf2.row_reduce.self_ms", "gf2.row_reduce", "self_ms", "ms"),
    ("gf2.nullspace_basis.self_ms", "gf2.nullspace_basis", "self_ms", "ms"),
    ("codes.LinearCode.from_generator.self_ms", "codes.LinearCode.from_generator", "self_ms", "ms"),
    ("codes.LinearCode.dual.self_ms", "codes.LinearCode.dual", "self_ms", "ms"),
    ("codes.LinearCode.contains.self_ms", "codes.LinearCode.contains", "self_ms", "ms"),
    ("codes.LinearCode.min_distance_bruteforce.calls", "codes.LinearCode.min_distance_bruteforce", "calls", "count"),
    ("codes.LinearCode.min_distance_bruteforce.self_ms", "codes.LinearCode.min_distance_bruteforce", "self_ms", "ms"),
    ("codes.LinearCode.min_distance_bruteforce.codewords", "codes.LinearCode.min_distance_bruteforce", "count_a", "count"),
    ("berman.build.calls", "berman.build", "calls", "count"),
    ("berman.build.misses", "berman.build", "count_b", "count"),
    ("berman.build.self_ms", "berman.build", "self_ms", "ms"),
    ("berman.transitivity_witness.self_ms", "berman.transitivity_witness", "self_ms", "ms"),
)
CHECK_KINDS = ("dimension", "distance", "containment", "duality", "star", "reed-muller", "transitivity")
# Per-layer metrics that do not come from the span summary's fields.
EXTRA_LAYER_METRICS = (
    ("cli.derive_per_simulate", "ratio"),
    ("process.startup_ms", "ms"),
    ("pir.downloaded_bits", "bits"),
    *((f"checks.{k}.{f}", u) for k in CHECK_KINDS for f, u in (("cases", "count"), ("ms", "ms"))),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
)


# ---------------------------------------------------------------------------
# Child processes.


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop(THREADS_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    return env


def reap(proc: subprocess.Popen, timeout: float | None) -> tuple[bool, float]:
    """Wait for ``proc`` up to ``timeout`` seconds (killing it after that).

    Returns (timed_out, peak RSS in MB) and sets ``proc.returncode``.
    """
    fd = os.pidfd_open(proc.pid)
    try:
        timed_out = not select.select([fd], [], [], timeout)[0]
    finally:
        os.close(fd)
    if timed_out:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return timed_out, usage.ru_maxrss / 1024.0


def run_child(argv: list[str], timeout: float, tmp: str) -> dict:
    """Run one child to completion with stdout/stderr in ``tmp``."""
    out_path, err_path = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=tmp)
        try:
            timed_out, rss = reap(proc, timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - spawned
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {"rc": proc.returncode, "timed_out": timed_out, "seconds": seconds,
            "spawned": spawned, "rss_mb": rss, "stdout": stdout, "stderr": stderr}


def failure_reason(res: dict, deadline: float) -> str:
    if res["timed_out"]:
        return f"passed the {deadline:g} s deadline"
    if res["rc"] != 0:
        lines = [ln for ln in res["stderr"].strip().splitlines() if ln.strip()]
        return f"exit {res['rc']}: {lines[-1] if lines else 'no stderr'}"
    return ""


def import_setup(obs: dict, tmp: str) -> None:
    """Set-up of the fresh-interpreter workloads: interpreter start plus
    ``import bermanpir``, repeated, each between two host-speed probes."""
    for _ in range(SETUP_REPS):
        obs["probes"].append(probe())
        res = run_child([PY, "-c", "import bermanpir"], 60.0, tmp)
        if res["rc"] != 0:
            raise RuntimeError(f"import bermanpir failed: {res['stderr'][-400:]}")
        obs["setup"].append({"s": res["seconds"], "t0": res["spawned"]})
        obs["probes"].append(probe())


class Worker:
    """The long-lived ``retrieve_worker.py`` process, spoken to over pipes."""

    def __init__(self, tmp: str) -> None:
        self.spawned = time.perf_counter()
        self.err = open(os.path.join(tmp, "worker.stderr"), "wb")
        self.proc = subprocess.Popen(
            [PY, os.path.join(BENCH_DIR, "retrieve_worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err,
            env=child_env(), cwd=tmp,
        )
        self.buf = b""
        try:
            self.hello = self._read(WORKER_DEADLINE_S)
        except BaseException:
            self.close(kill=True)
            raise
        self.ready_s = time.perf_counter() - self.spawned

    def _read(self, timeout: float) -> dict:
        fd = self.proc.stdout.fileno()
        end = time.perf_counter() + timeout
        while b"\n" not in self.buf:
            left = end - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError("retrieve worker did not answer in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise EOFError("retrieve worker exited")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def ask(self, request: dict, timeout: float = WORKER_DEADLINE_S) -> dict:
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def close(self, kill: bool = False) -> float:
        """Stop the worker and return its peak RSS in MB."""
        try:
            if kill:
                self.proc.kill()
            self.proc.stdin.close()
        except OSError:
            pass
        _, rss = reap(self.proc, 30.0)
        self.proc.stdout.close()
        self.err.close()
        return rss


# ---------------------------------------------------------------------------
# Workloads.  Each fills a dict of raw observations for ``end_to_end`` and
# ``per_layer``: every op's raw time and start, and the host-speed probes
# taken around the ops, from which ``apply_scale`` derives each op's factor.


def new_obs(workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed, "setup": [], "ops": [], "wrong": [],
            "failures": {}, "wall_s": 0.0, "probes": [], "probe_s": 0.0, "rss_mb": 0.0, "passes": 0,
            "layers": {}, "startup_ms": [], "downloaded_bits": [], "digests": {},
            "derive_calls": 0, "simulates_ok": 0, "check_kinds": {}}


def record(obs: dict, label: str, mode: str, ms: float, t0: float | None, reason: str,
           wrong: bool) -> None:
    """One finished op that started at ``t0`` (None: a time fixed by a
    deadline, which is not scaled).  ``reason`` is empty for a passing op;
    ``wrong`` marks an op that ran to completion but failed a check."""
    obs["ops"].append({"label": label, "mode": mode, "ms": ms, "t0": t0, "ok": not reason})
    if reason and wrong:
        obs["wrong"].append(reason)


def retrieve_wide(seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    from retrieve_worker import FILES

    obs = new_obs("retrieve_wide", seed)
    rng = random.Random(seed)
    worker = None
    try:
        for i in range(SETUP_REPS):
            obs["probes"].append(probe())
            worker = Worker(tmp)
            obs["setup"].append({"s": worker.ready_s, "t0": worker.spawned})
            obs["probes"].append(probe())
            check_module(worker.hello["module"])
            obs["startup_ms"].append((worker.hello["imported"] - worker.spawned) * 1e3)
            if i < SETUP_REPS - 1:
                obs["rss_mb"] = max(obs["rss_mb"], worker.close())
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds or len(obs["ops"]) < MIN_RETRIEVALS:
            req = {"seed": rng.getrandbits(64), "demand": rng.randrange(FILES)}
            for mode in MODES[trace]:
                sent = time.perf_counter()
                try:
                    reply = worker.ask({**req, "trace": mode == "traced"})
                except (TimeoutError, EOFError) as exc:
                    took = time.perf_counter() - sent
                    reply = {"ms": took * 1e3, "t0": None, "probes": [], "completed": False,
                             "reason": f"worker: {exc}"}
                    obs["rss_mb"] = max(obs["rss_mb"], worker.close(kill=True))
                    worker = Worker(tmp)
                obs["probes"] += reply["probes"]
                obs["probe_s"] += sum(d for _, d in reply["probes"])
                reason = reply["reason"]
                record(obs, "run_retrieval", mode, reply["ms"], reply["t0"], reason,
                       reply["completed"])
                if reason:
                    obs["failures"][reason] = obs["failures"].get(reason, 0) + 1
                else:
                    obs["downloaded_bits"].append(reply["downloaded_bits"])
            obs["passes"] += 1
        obs["wall_s"] = time.perf_counter() - t0
        obs["digests"]["pinned_transcript_sha256"] = worker.ask({"pinned": True})["digest"]
        if trace:
            spans = os.path.join(spans_dir("retrieve_wide"), "worker.npz")
            obs["layers"] = worker.ask({"finish": True, "spans": spans})["layers"]
        obs["rss_mb"] = max(obs["rss_mb"], worker.close())
        worker = None
    finally:
        if worker is not None:
            worker.close(kill=True)
    return obs


def ladder_check(res: dict, storage: str, retrieval: str, out_path: str) -> tuple[str, dict]:
    """Check one ``simulate`` op; returns (failure reason, summary)."""
    from bermanpir.berman import BermanParams
    from bermanpir.pir import closed_form_triple

    summary = json.loads(res["stdout"])
    with open(out_path, encoding="utf-8") as fh:
        transcript = json.load(fh)
    t, _, _ = closed_form_triple(BermanParams.parse(storage), BermanParams.parse(retrieval))
    if summary.get("reconstructed_ok") is not True or transcript.get("reconstructed_ok") is not True:
        return "reconstructed_ok is not true", summary
    if summary.get("privacy_rank_ok") is not True:
        return "privacy_rank_ok is not true", summary
    if summary.get("achieved_rate") != summary.get("theoretical_rate"):
        return f"achieved rate {summary.get('achieved_rate')} != {summary.get('theoretical_rate')}", summary
    if summary.get("t") != t:
        return f"t {summary.get('t')} != closed form {t}", summary
    if len(transcript.get("iterations", ())) != summary.get("S"):
        return "transcript iteration count != S", summary
    return "", summary


def simulate_argv(storage: str, retrieval: str, seed: int, out_path: str) -> list[str]:
    return ["simulate", "--storage", storage, "--retrieval", retrieval, "--files", "1",
            "--seed", str(seed), "--format", "json", "--out", out_path]


def simulate_ladder(seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    obs = new_obs("simulate_ladder", seed)
    rng = random.Random(seed)
    import_setup(obs, tmp)
    schedules = hashlib.sha256()
    out_path = os.path.join(tmp, "transcript.json")
    sdir = spans_dir("simulate_ladder") if trace else ""
    t0 = time.perf_counter()
    while obs["passes"] < MIN_PASSES[trace] or time.perf_counter() - t0 < seconds:
        for storage, retrieval in LADDER:
            pair = f"{storage}x{retrieval}"
            args = simulate_argv(storage, retrieval, rng.getrandbits(32), out_path)
            for mode in MODES[trace]:
                if os.path.exists(out_path):
                    os.remove(out_path)
                spans = os.path.join(sdir, f"{len(obs['ops'])}.npz")
                argv = ([PY, "-m", "bermanpir.cli", *args] if mode == "untraced"
                        else [PY, os.path.join(BENCH_DIR, "traced_cli.py"), spans, *args])
                before = probe()
                res = run_child(argv, LADDER_DEADLINE_S, tmp)
                after = probe()
                obs["probes"] += [before, after]
                obs["probe_s"] += before[1] + after[1]
                obs["rss_mb"] = max(obs["rss_mb"], res["rss_mb"])
                reason = failure_reason(res, LADDER_DEADLINE_S)
                completed = not reason
                if completed:
                    try:
                        reason, summary = ladder_check(res, storage, retrieval, out_path)
                    except (OSError, ValueError) as exc:
                        reason = f"unreadable output: {exc}"
                # A hang's time is the deadline, not host speed, so it is not scaled.
                start = None if res["timed_out"] else res["spawned"]
                record(obs, pair, mode, res["seconds"] * 1e3, start, reason, completed)
                if reason:
                    obs["failures"][pair] = reason
                else:
                    obs["downloaded_bits"].append(summary["S"] * summary["servers"])
                    if obs["passes"] == 0 and mode == "untraced":
                        schedules.update(schedule_record(storage, retrieval, out_path))
                if mode == "traced" and os.path.exists(spans + ".json"):
                    with open(spans + ".json", encoding="utf-8") as fh:
                        traced = json.load(fh)
                    obs["layers"] = merge_layers(obs["layers"], traced["layers"])
                    obs["startup_ms"].append((traced["imported"] - res["spawned"]) * 1e3)
                    if not reason:
                        obs["derive_calls"] += traced["layers"]["pir.derive_scheme"]["calls"]
                        obs["simulates_ok"] += 1
        obs["passes"] += 1
    obs["wall_s"] = time.perf_counter() - t0
    obs["digests"]["schedules_sha256"] = schedules.hexdigest()
    storage, retrieval = PINNED_PAIR
    res = run_child([PY, "-m", "bermanpir.cli", *simulate_argv(storage, retrieval, 0, out_path)],
                    LADDER_DEADLINE_S, tmp)
    if res["rc"] == 0:
        with open(out_path, "rb") as fh:
            obs["digests"]["pinned_transcript_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    else:
        obs["wrong"].append(f"pinned op failed: {failure_reason(res, LADDER_DEADLINE_S)}")
    return obs


def schedule_record(storage: str, retrieval: str, out_path: str) -> bytes:
    """The seed-independent part of a transcript: derived sizes and, per
    iteration, the recovered coordinates and their stripes."""
    with open(out_path, encoding="utf-8") as fh:
        tr = json.load(fh)
    iterations = [[it["J"], it["assignments"]] for it in tr["iterations"]]
    return json.dumps([storage, retrieval, tr["derived"], iterations], sort_keys=True).encode()


def verify_sweep(seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    obs = new_obs("verify_sweep", seed)
    import_setup(obs, tmp)
    result_path = os.path.join(tmp, "sweep.json")
    sdir = spans_dir("verify_sweep") if trace else ""
    t0 = time.perf_counter()
    while obs["passes"] < MIN_PASSES[trace] or time.perf_counter() - t0 < seconds:
        for mode in MODES[trace]:
            if os.path.exists(result_path):
                os.remove(result_path)
            argv = [PY, os.path.join(BENCH_DIR, "sweep_child.py"), result_path]
            argv += ["1", os.path.join(sdir, f"{obs['passes']}.npz")] if mode == "traced" else ["0"]
            res = run_child(argv, SWEEP_DEADLINE_S, tmp)
            obs["rss_mb"] = max(obs["rss_mb"], res["rss_mb"])
            reason = failure_reason(res, SWEEP_DEADLINE_S)
            if reason:
                record(obs, "sweep", mode, res["seconds"] * 1e3, None, reason, wrong=False)
                obs["failures"][f"sweep {obs['passes']} {mode}"] = reason
                continue
            with open(result_path, encoding="utf-8") as fh:
                sweep = json.load(fh)
            check_module(sweep["module"])
            obs["startup_ms"].append((sweep["imported"] - res["spawned"]) * 1e3)
            obs["probes"] += sweep["probes"]
            obs["probe_s"] += sum(d for _, d in sweep["probes"])
            for kind, ok, ms, start in sweep["cases"]:
                record(obs, kind, mode, ms, start, "" if ok else f"case failed: {kind}", wrong=True)
                if mode == "traced":
                    tally = obs["check_kinds"].setdefault(kind, [0, 0.0])
                    tally[0] += 1
                    tally[1] += ms
            missing = sweep["enumerated"] - len(sweep["cases"])
            if missing:
                obs["wrong"].append(f"{len(sweep['cases'])} cases run, {sweep['enumerated']} enumerated")
            prev = obs["digests"].setdefault("case_list_sha256", sweep["digest"])
            if prev != sweep["digest"]:
                obs["wrong"].append("case list differs between sweeps")
            if mode == "traced":
                obs["layers"] = merge_layers(obs["layers"], sweep["layers"])
        obs["passes"] += 1
    obs["wall_s"] = time.perf_counter() - t0
    return obs


WORKLOADS = {
    "retrieve_wide": retrieve_wide,
    "simulate_ladder": simulate_ladder,
    "verify_sweep": verify_sweep,
}
MODES = {False: ("untraced",), True: ("untraced", "traced")}


# ---------------------------------------------------------------------------
# Metrics.


def merge_layers(a: dict, b: dict) -> dict:
    if not a:
        return {k: dict(v) for k, v in b.items()}
    return {k: {f: a[k][f] + b[k][f] for f in a[k]} for k in a}


def spans_dir(workload: str) -> str:
    path = os.path.join(OUT_DIR, f"spans-{workload}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def check_module(path: str) -> None:
    """Refuse to measure a ``bermanpir`` imported from outside the checkout."""
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise RuntimeError(f"bermanpir was imported from {path}, not from {SRC}")


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def apply_scale(obs: dict) -> None:
    """Give every op and set-up its host-speed factor from nearby probes."""
    probes = sorted(tuple(p) for p in obs["probes"])
    for op in obs["ops"]:
        t0 = op["t0"]
        op["scale"] = 1.0 if t0 is None else factor(probes, t0, t0 + op["ms"] / 1e3)
    for run in obs["setup"]:
        run["scale"] = factor(probes, run["t0"], run["t0"] + run["s"])


def end_to_end(obs: dict, scaled: bool = True) -> dict:
    """The six end-to-end metrics, host-speed scaled (or raw)."""
    ops = [op for op in obs["ops"] if op["mode"] == "untraced"]
    use = (lambda f: f) if scaled else (lambda f: 1.0)
    lat = [op["ms"] * use(op["scale"]) for op in ops]
    ok = sum(op["ok"] for op in ops)
    # Timed phase minus probe time: op time scaled per op, the rest (process
    # start between sweeps, harness bookkeeping) by the run's median factor.
    rest_s = obs["wall_s"] - obs["probe_s"] - sum(op["ms"] for op in obs["ops"]) / 1e3
    busy_s = sum(lat) / 1e3 + rest_s * use(statistics.median(op["scale"] for op in ops))
    return {
        "setup_s": statistics.median(run["s"] * use(run["scale"]) for run in obs["setup"]),
        "ops_per_s": ok / busy_s,
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": percentile(lat, TAIL_PERCENTILE[obs["workload"]]),
        "ok_fraction": ok / len(ops),
        "peak_rss_mb": obs["rss_mb"],
    }


def per_layer(obs: dict) -> dict:
    passes = max(obs["passes"], 1)
    layers = obs["layers"]
    out = {}
    for name, layer, field, _ in LAYER_METRICS:
        rec = layers.get(layer)
        if rec is None:
            out[name] = 0.0
        elif field == "ratio":
            out[name] = rec["count_b"] / rec["count_a"] if rec["count_a"] else 0.0
        else:
            out[name] = rec[field] / passes
    out["cli.derive_per_simulate"] = (
        obs["derive_calls"] / obs["simulates_ok"] if obs["simulates_ok"] else 0.0)
    out["process.startup_ms"] = statistics.median(obs["startup_ms"]) if obs["startup_ms"] else 0.0
    bits = obs["downloaded_bits"]
    out["pir.downloaded_bits"] = statistics.mean(bits) if bits else 0.0
    for kind in CHECK_KINDS:
        cases, ms = obs["check_kinds"].get(kind, (0, 0.0))
        out[f"checks.{kind}.cases"] = cases / passes
        out[f"checks.{kind}.ms"] = ms / passes
    rate = {}
    for mode in ("untraced", "traced"):
        ops = [op for op in obs["ops"] if op["mode"] == mode]
        busy_s = sum(op["ms"] * op["scale"] for op in ops) / 1e3
        rate[mode] = sum(op["ok"] for op in ops) / busy_s if busy_s else 0.0
    out["trace.ops_per_s_untraced"] = rate["untraced"]
    out["trace.ops_per_s_traced"] = rate["traced"]
    out["trace.overhead_pct"] = (rate["untraced"] / rate["traced"] - 1.0) * 100.0 if rate["traced"] else 0.0
    return out


def environment(cpu: int) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        f"{THREADS_ENV}_set_in_parent": THREADS_ENV in os.environ,
        f"{THREADS_ENV}_passed_to_children": False,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, cpu: int) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        obs = WORKLOADS[name](seed, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    apply_scale(obs)
    if trace:
        units = {m: u for m, _, _, u in LAYER_METRICS} | dict(EXTRA_LAYER_METRICS)
        values = per_layer(obs)
    else:
        units = dict(END_TO_END)
        values = end_to_end(obs)
    ok = sum(op["ok"] for op in obs["ops"])
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not obs["wrong"], "attempted": len(obs["ops"]), "failed": len(obs["ops"]) - ok,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "unscaled": {} if trace else end_to_end(obs, scaled=False),
        "tail_percentile": TAIL_PERCENTILE[name],
        "samples": sum(op["mode"] == "untraced" for op in obs["ops"]),
        "passes": obs["passes"], "wall_s": obs["wall_s"], "probe_s": obs["probe_s"],
        "setup_runs": obs["setup"], "failures": obs["failures"], "wrong_outputs": obs["wrong"],
        "digests": obs["digests"], "environment": environment(cpu), "ops": obs["ops"],
        "probes": obs["probes"],
    }
    with open(os.path.join(OUT_DIR, f"{name}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bermanpir", "__init__.py")):
        sys.stderr.write(f"no bermanpir sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One vCPU for this process and every child, so each probe measures the
    # vCPU the timed op runs on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), cpu) for n in names]
    for rep in reports:
        print(f"# {rep['workload']} seed={rep['seed']} passes={rep['passes']} "
              f"attempted={rep['attempted']} failed={rep['failed']} correct={rep['correct']} "
              f"samples={rep['samples']} tail=p{rep['tail_percentile']}")
        for k, m in rep["metrics"].items():
            print(f"{rep['workload']}.{k} = {m['value']:.6g} {m['unit']}")
        if rep["unscaled"]:
            print("  unscaled: " + ", ".join(f"{k}={v:.6g}" for k, v in rep["unscaled"].items()))
        for what, why in rep["failures"].items():
            print(f"  failed: {what}: {why}")
        for why in rep["wrong_outputs"]:
            print(f"  wrong output: {why}")
        for what, digest in rep["digests"].items():
            print(f"  digest {what}: {digest}")
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in reports for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
