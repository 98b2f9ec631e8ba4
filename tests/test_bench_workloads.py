"""Work counters of the benchmark's `mine_lattice` workload (seed 1), the
one whose time is mostly the lattice walk. The table comes from the
benchmark's own generator (bench/workloads.py), so a change to the walk
that builds more partition products fails here, with no stopwatch."""

import importlib.util
import pathlib
import sys

import fdq.miner
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
    products = []
    real = fdq.miner.intersect

    def counting(a, b):
        products.append(a.covered)
        return real(a, b)

    monkeypatch.setattr(fdq.miner, "intersect", counting)
    # (products, entries) of the workload's two MINEFDs, on one snapshot
    # as in its session; 221 and 18 products if the nodes that hold an
    # attribute their subset determines exactly were built
    counts = []
    for bound in (0.0, 0.01):
        products.clear()
        mined = mine_fds(relation, MiningSpec(error_threshold=bound))
        counts.append((len(products), len(mined.entries)))
    assert counts == [(117, 16), (16, 39)]
