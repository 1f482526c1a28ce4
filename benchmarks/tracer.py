"""Span tracer for the benchmark's traced runs.

Wraps public functions of the ``bermanpir`` modules from outside the
library: each wrapper records one span (layer id, start, end, parent span)
plus up to two counts, into flat arrays kept in memory.  Per-layer metrics
are derived from the spans afterwards (self time = duration minus the time
covered by direct child spans).  ``uninstall`` restores every original, so
untraced operations run with no wrappers at all.

Every name is patched where its caller looks it up: ``codes`` imports
``row_reduce`` by name, so the wrapper is also bound as ``codes.row_reduce``;
``pir`` and ``star`` import ``build`` by name, and so on.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from math import comb

import numpy as np

# (layer name, module that defines it, attribute path, extra modules that
# import the name directly, kind).  kind: "func", "method" or "classmethod".
LAYERS = (
    ("gf2.BitMatrix.column_word", "gf2", "BitMatrix.column_word", (), "method"),
    ("gf2.BitMatrix.left_mul", "gf2", "BitMatrix.left_mul", (), "method"),
    ("gf2.BitMatrix.mul_vector", "gf2", "BitMatrix.mul_vector", (), "method"),
    ("gf2.BitMatrix.matmul", "gf2", "BitMatrix.__matmul__", (), "method"),
    ("gf2.row_reduce", "gf2", "row_reduce", ("codes",), "func"),
    ("gf2.nullspace_basis", "gf2", "nullspace_basis", ("codes",), "func"),
    ("gf2.invert_columns", "gf2", "invert_columns", ("codes", "pir"), "func"),
    ("codes.LinearCode.from_generator", "codes", "LinearCode.from_generator", (), "classmethod"),
    ("codes.LinearCode.dual", "codes", "LinearCode.dual", (), "method"),
    ("codes.LinearCode.contains", "codes", "LinearCode.contains", (), "method"),
    ("codes.LinearCode.min_distance_bruteforce", "codes", "LinearCode.min_distance_bruteforce", (), "method"),
    ("berman.build", "berman", "build", ("pir", "star"), "func"),
    ("berman.transitivity_witness", "berman", "transitivity_witness", (), "func"),
    ("star.star_codes", "star", "star_codes", ("pir",), "func"),
    ("pir.derive_scheme", "pir", "derive_scheme", ("cli",), "func"),
    ("pir.run_retrieval", "pir", "run_retrieval", ("cli",), "func"),
    ("pir.encode_storage", "pir", "encode_storage", (), "func"),
    ("pir.gen_queries", "pir", "gen_queries", (), "func"),
    ("pir.respond_all", "pir", "respond_all", (), "func"),
    ("pir.decode_iteration", "pir", "decode_iteration", (), "func"),
    ("pir.reconstruct_file", "pir", "reconstruct_file", (), "func"),
    ("pir.verify_privacy_rank", "pir", "verify_privacy_rank", ("cli",), "func"),
    ("cli.main", "cli", "main", (), "func"),
)

#: Root span of one benchmark operation, opened by the benchmark's driver.
OP = "op"
NAMES = (OP,) + tuple(layer[0] for layer in LAYERS)


def _count_column_word(args, kwargs, result):
    return args[0].rows, 0  # rows scanned for one column


def _count_left_mul(args, kwargs, result):
    return args[1].word.bit_count(), 0  # row XORs


def _count_min_distance(args, kwargs, result):
    return (1 << args[0].dimension) - 1, 0  # codewords enumerated


def _count_star(args, kwargs, result):
    c, d = args[0], args[1]
    return c.dimension * d.dimension, result.dimension  # products formed, useful


def _count_privacy(args, kwargs, result):
    code, t = args[0], args[1]
    sample = kwargs.get("sample")
    if t == 0:
        return 0, 0
    total = comb(code.length, t)
    if sample is None and total <= 100_000:
        return total, 0  # exhaustive
    return (sample if sample is not None else 10_000), 1  # sampled


COUNTERS = {
    "gf2.BitMatrix.column_word": _count_column_word,
    "gf2.BitMatrix.left_mul": _count_left_mul,
    "codes.LinearCode.min_distance_bruteforce": _count_min_distance,
    "star.star_codes": _count_star,
    "pir.verify_privacy_rank": _count_privacy,
}


class Tracer:
    """In-memory span recorder.  One instance per traced process."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.count_a = array("d")
        self.count_b = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def open(self, layer_id: int) -> int:
        idx = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.count_a.append(0.0)
        self.count_b.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, a: float = 0.0, b: float = 0.0) -> None:
        self.end[idx] = time.perf_counter()
        self.count_a[idx] = a
        self.count_b[idx] = b
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, NAMES.index(name))

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        """``fn`` with a span around each call; an ``lru_cache`` function
        also gets its cache misses during the call as its second count."""
        layer_id = NAMES.index(name)
        counter = COUNTERS.get(name)
        tracer = self
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(layer_id)
            misses = cache_info().misses if cache_info else 0
            a = b = 0.0
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    a, b = counter(args, kwargs, result)
                if cache_info:
                    b = cache_info().misses - misses
                return result
            finally:
                tracer.close(idx, a, b)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module, attr, importers, kind in LAYERS:
            mod = importlib.import_module(f"bermanpir.{module}")
            if kind == "func":
                original = getattr(mod, attr)
                wrapped = self._wrap(name, original)
                for owner in (mod, *(importlib.import_module(f"bermanpir.{m}") for m in importers)):
                    self._saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapped)
            else:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                self._saved.append((cls, meth, raw))
                if kind == "classmethod":
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "count_a": np.frombuffer(self.count_a, dtype=np.float64).copy(),
            "count_b": np.frombuffer(self.count_b, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(NAMES), **self.arrays())


class _Span:
    def __init__(self, tracer: Tracer, layer_id: int) -> None:
        self.tracer = tracer
        self.layer_id = layer_id

    def __enter__(self):
        self.idx = self.tracer.open(self.layer_id)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def summarize(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per-layer calls, total and self milliseconds, and count sums."""
    layer = spans["layer"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child_time = np.zeros(len(layer))
    has_parent = parent >= 0
    if has_parent.any():
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(layer))
    self_time = dur - child_time
    out = {}
    for i, name in enumerate(NAMES):
        sel = layer == i
        out[name] = {
            "calls": float(sel.sum()),
            "total_ms": float(dur[sel].sum() * 1e3),
            "self_ms": float(self_time[sel].sum() * 1e3),
            "count_a": float(spans["count_a"][sel].sum()),
            "count_b": float(spans["count_b"][sel].sum()),
        }
    return out

