"""Work counters of the benchmark's `mine_lattice` workload (seed 1), the
one whose time is mostly the lattice walk. The table comes from the
benchmark's own generator (bench/workloads.py), so a change to the walk
that builds more partition products, scores more dependents or reads more
rows fails here, with no stopwatch."""

import importlib.util
import pathlib
import sys

from work import MiningWork

from fdq.miner import MiningSpec, mine_fds
from fdq.relation import load_csv

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def test_mine_lattice_products_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    workload = module.generate("mine_lattice", 1, str(tmp_path))
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
