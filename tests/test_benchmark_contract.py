"""The benchmark's import contract: every library name that
``benchmarks/tracer.py`` patches, and the verify-case enumeration that
``benchmarks/sweep_child.py`` counts, must stay where they are looked up."""

import importlib.util
from pathlib import Path

from bermanpir import checks

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        patched = list(tracer._saved)
        assert patched
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
        assert len(checks._case_builders(5, 3)) == 708
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
