"""Work counters of two of the benchmark's workloads (seed 1): `mine_lattice`,
whose time is mostly the lattice walk, and `query_scan`, whose time is the
row queries. The tables and scripts come from the benchmark's own
generator (bench/workloads.py), so a change to the walk that builds more
partition products, scores more dependents or reads more rows, or a change
to the queries that groups more columns, fails here, with no stopwatch."""

import hashlib
import importlib.util
import pathlib
import sys

from work import MiningWork, value_id_builds

import fdq.cli
import fdq.partition
from fdq.miner import MiningSpec, mine_fds
from fdq.relation import load_csv

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def generate(name, workdir, monkeypatch):
    """The workload's tables, written to `workdir`, and its statements."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.generate(name, 1, str(workdir))


def test_mine_lattice_products_are_pinned(tmp_path, monkeypatch):
    workload = generate("mine_lattice", tmp_path, monkeypatch)
    relation = load_csv(tmp_path / workload.tables["L"].csv_name, name="L")
    work = MiningWork(monkeypatch)
    # (products, entries, dependents pair_errors scores, rows read) of the
    # workload's two MINEFDs, on one snapshot as in its session. Scoring
    # every candidate with pair_errors and keying kept scores by their
    # bound reads (117, 16, 551, 182 298) and (16, 39, 142, 193 045): the
    # walk builds 12 more products, so that most candidates are scored from
    # their pair counts, and the second MINEFD reuses the first's exact scores
    counts = []
    for bound in (0.0, 0.01):
        work.reset()
        mined = mine_fds(relation, MiningSpec(error_threshold=bound))
        counts.append((work.products, len(mined.entries), work.scored, work.rows))
    assert counts == [(129, 16, 132, 133_142), (16, 39, 11, 49_194)]


# sha256 of each statement's output, the same since before value ids
QUERY_SCAN_OUTPUTS = [
    "7e49a1f93e480ac4e483767c8365f55dda723c68de9b4e3a036f9cda8466ab8b",
    "d58008bde5a1bae1cf50b55ffc79b534d74508051e203f85bee0b142693ca3c0",
    "c5e2334086b39692d293772a0c217ebc43c46a4d67c6f60c91e6a2fbde15ce28",
    "fea256231bdc3ece3288c301bb1aa93456c25c08bf403f273f9f690d6ee129bf",
    "980640dd279bc1473abb83d97bb2cceb58b4d07728e7e2ff402fe7f626070df0",
    "0f194d6c487ad6afb73919e71b793035874054c1cf28ee992fc7336bff64d386",
    "ce9ec81b0c6f64ee55986092d6f0872b24fd9d7773f2d456c3f923a8e94964c9",
    "c5e2334086b39692d293772a0c217ebc43c46a4d67c6f60c91e6a2fbde15ce28",
    "6857f407cec91ba142e1a363a41919c64f772573830c69bf2fc493b0133df22b",
    "650f338a7f1c6c22f248ec4f8ae5d7d9da7c96e1188e6ba28d6245aafc06672f",
]


def test_query_scan_groupings_are_pinned(tmp_path, monkeypatch):
    workload = generate("query_scan", tmp_path, monkeypatch)
    grouped = []
    real_pli_of = fdq.partition.pli_of

    def pli_of(relation, attribute):
        grouped.append((relation.attribute_names[attribute],))
        return real_pli_of(relation, attribute)

    monkeypatch.setattr(fdq.partition, "pli_of", pli_of)
    coded = value_id_builds(monkeypatch)
    session = fdq.cli.Session(data_dir=str(tmp_path))
    digests = []
    for statement in workload.statements:
        session, output = fdq.cli.run_command(session, statement.text)
        digests.append(hashlib.sha256(output.encode()).hexdigest())
    assert digests == QUERY_SCAN_OUTPUTS
    # the partitions grouped: the determinants' singles, one each. Building
    # every dependent's partition for its ids grouped 8 (CategoryName for
    # approximate HOLDS, Address, Pack and Sale for DEPENDENT)
    assert grouped == [("Store",), ("Category",), ("Zip",), ("Vendor",)]
    # every column's value ids, once: the dependents' and the singles'
    assert len(coded) == len(set(coded)) == 8
