"""The benchmark's tracer (bench/tracer.py) wraps fdq functions under the
module attributes their callers look up. A rename in fdq stops the traced
benchmark run, and a changed call signature breaks its counters; the
benchmark's own tests run outside this suite, so this checks here that
every trace target still exists and that the counters read what they did
on a short session."""

import importlib.util
import pathlib
import sys

import fdq.miner
from fdq.cli import Session, run_command
from fdq.relation import Relation

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists(monkeypatch):
    module = load_tracer(monkeypatch)
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


# mining over four determinant attributes leaves the queries' other
# determinants for them to group
SESSION = (
    "LOAD 'iowa.csv' AS IOWA",
    'MINEFD fs AS SELECT LHS -> RHS WHERE LHS LIKE {"Category", "BtlVol", "Pack", '
    '"Vendor"} FROM IOWA',
    'SELECT * FROM IOWA WHERE HOLDS ("Category", "BtlVol" -> "CategoryName" '
    'ON ["BtlVol" >= 750])',
    'SELECT * FROM IOWA WHERE NOT HOLDS ("Address" -> "Zip")',
    'SELECT * FROM IOWA WHERE "Address" VIOLATES ("Address", "Vendor" -> "Zip")',
    'SELECT DEPENDENT (["Zip", "Date"]) FROM IOWA',
)


def test_counters_of_a_short_session(monkeypatch):
    tracer = load_tracer(monkeypatch).Tracer()
    session = Session(data_dir=str(ROOT / "data"))
    tracer.install()
    try:
        for statement in SESSION:
            session, _ = run_command(session, statement)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # the miner's 8 products; the singles of the 4 determinants mined over,
    # then of Address, Zip and Date, 10 rows each
    assert {name: metrics[name] for name in PINNED} == PINNED


PINNED = {
    "partition.intersect.calls": 8,
    "partition.intersect.rows_in": 125,
    "partition.pli_of.calls": 7,
    "partition.pli_of.rows_in": 70,
    "miner.products": 8,
}
