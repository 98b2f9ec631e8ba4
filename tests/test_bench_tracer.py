"""The benchmark's tracer (bench/tracer.py) wraps fdq functions under the
module attributes their callers look up. A rename in fdq stops the traced
benchmark run, and the benchmark's own tests run outside this suite, so
this checks here that every trace target still exists."""

import importlib.util
import pathlib
import sys

import fdq.miner
from fdq.relation import Relation

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    intersect, with_rows = fdq.miner.intersect, Relation.with_rows
    tracer = module.Tracer()
    tracer.install()  # raises LookupError naming any target that is gone
    try:
        assert fdq.miner.intersect is not intersect
        assert Relation.with_rows is not with_rows
    finally:
        tracer.uninstall()
    assert fdq.miner.intersect is intersect
    assert Relation.with_rows is with_rows
