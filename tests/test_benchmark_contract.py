"""The benchmark's import contract: every library name that
``benchmarks/tracer.py`` patches, and the verify-case enumeration that
``benchmarks/sweep_child.py`` counts, must stay where they are looked up;
the ``retrieve_wide`` worker's output check must accept a correct run."""

import importlib.util
from pathlib import Path

from bermanpir import checks, pir
from bermanpir.berman import BermanParams

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = load("bench_tracer", "tracer.py").Tracer()
    tracer.install()
    try:
        patched = list(tracer._saved)
        assert patched
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
        assert len(checks._case_builders(5, 3)) == 708
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)


def test_a_traced_retrieval_records_every_protocol_stage():
    # A retrieval runs each stage through its public function, so every
    # stage's layer records a call and its self time is the stage's own.
    bench_tracer = load("bench_tracer", "tracer.py")
    layers = [f"pir.{stage}" for stage in
              ("encode_storage", "gen_queries", "respond_all", "decode_iteration", "reconstruct_file")]
    assert set(layers) <= set(bench_tracer.NAMES)
    config = pir.SchemeConfig(BermanParams.parse("DBer(2,1,6)"), BermanParams.parse("DBer(2,2,6)"), files=2, seed=1)
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        pir.run_retrieval(config, 1)
    finally:
        tracer.uninstall()
    summary = bench_tracer.summarize(tracer.arrays())
    assert {layer: summary[layer]["calls"] >= 1 for layer in layers} == dict.fromkeys(layers, True)


def test_retrieve_worker_accepts_a_correct_run(monkeypatch):
    # The worker imports its sibling modules ``tracer`` and ``hostspeed``.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    worker = load("bench_retrieve_worker", "retrieve_worker.py")
    tr = pir.run_retrieval(worker.config(5), 17)
    assert worker.check(tr, 5, 17) == ""
