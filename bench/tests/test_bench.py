"""Self-tests of the benchmark, on the inputs it measures.

    python3 -m pytest -q bench/tests

Runs use `--seconds 0`, so each is the warm-up plus the minimum number of
iterations; the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.dont_write_bytecode = True
BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from verify import Checker  # noqa: E402

WORKLOADS = ("mine_lattice", "query_scan", "repair_loop")
COUNTERS = (
    "miner.products",
    "miner.fds_emitted",
    "partition.intersect.calls",
    "partition.build_pli.calls",
    "partition.pli_of.calls",
    "partition.violating_rows.calls",
    "partition.error_measure.calls",
    "query.value_distance.calls",
    "setexpr.eval_subset_expr.calls",
    "cli.render.bytes",
)
# counters each workload must move, and those its control role keeps at 0
MOVED = {
    "mine_lattice": (
        "miner.products", "miner.fds_emitted", "partition.intersect.calls",
        "partition.build_pli.calls", "setexpr.eval_subset_expr.calls",
        "fdstore.save_fdset.bytes", "cli.render.bytes",
    ),
    "query_scan": (
        "partition.pli_of.calls", "partition.violating_rows.calls",
        "partition.error_measure.calls", "query.value_distance.calls",
        "cli.render.bytes",
    ),
    "repair_loop": (
        "miner.products", "partition.intersect.calls", "partition.build_pli.calls",
        "partition.pli_of.calls", "relation.with_rows.calls", "cli.render.bytes",
    ),
}
FLAT = {
    "mine_lattice": (
        "partition.violating_rows.calls", "query.value_distance.calls",
        "relation.with_rows.calls",
    ),
    "query_scan": (
        "miner.products", "partition.intersect.calls", "partition.build_pli.calls",
        "setexpr.eval_subset_expr.calls", "fdstore.save_fdset.bytes",
        "relation.with_rows.calls",
    ),
    "repair_loop": ("query.value_distance.calls", "partition.error_measure.calls"),
}


def _child(workload: str, workdir: str, *flags: str) -> dict:
    cmd = [
        sys.executable, "-B", os.path.join(BENCH_DIR, "child.py"),
        "--workload", workload, "--seed", "5", "--workdir", workdir,
        "--spawned-at", repr(time.monotonic()), *flags,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
        "--seed", "5", "--seconds", "0", "--trace", str(trace),
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly_on_one_seed(workload, tmp_path):
    first = _child(workload, str(tmp_path), "--trace")["layers"]
    second = _child(workload, str(tmp_path), "--trace")["layers"]
    for name in COUNTERS:
        assert first[name] == second[name], name
    for name in MOVED[workload]:
        assert first[name] > 0, name
    for name in FLAT[workload]:
        assert first[name] == 0, name


def test_a_missing_trace_target_stops_the_traced_run(monkeypatch):
    monkeypatch.setitem(tracer.LAYERS, "cli.gone", [("fdq.cli", "no_such_function")])
    with pytest.raises(LookupError, match="fdq.cli.no_such_function"):
        tracer.Tracer().install()


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit_and_nothing_fails(workload):
    spec = _benchmark_json()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stderr
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_runner():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _outputs(workload, workdir):
    """Run the script in-process, untraced; returns the session and outputs."""
    import fdq.cli

    session = fdq.cli.Session(data_dir=workdir)
    outputs = []
    for stmt in workload.statements:
        session, output = fdq.cli.run_command(session, stmt.text)
        outputs.append(output)
    return session, outputs


def _tampered(name, tmp_path, tamper):
    workload = workloads.generate(name, 5, str(tmp_path))
    session, outputs = _outputs(workload, str(tmp_path))
    assert Checker(workload, str(tmp_path), session).run(outputs) == []
    tamper(workload, outputs)
    return Checker(workload, str(tmp_path), session).run(outputs)


def _first(workload, op):
    return next(s.check for s in workload.statements if s.check and s.check["op"] == op)


def test_a_false_planted_dependency_is_a_failure(tmp_path):
    def tamper(workload, outputs):
        _first(workload, "mine")["planted"].append([["c00"], "c08"])

    assert _tampered("mine_lattice", tmp_path, tamper)


def test_a_wrong_row_expectation_is_a_failure(tmp_path):
    def tamper(workload, outputs):
        check = _first(workload, "rows")
        check["mode"] = "not_holds" if check["mode"] == "holds" else "holds"

    assert _tampered("query_scan", tmp_path, tamper)


def test_a_missed_typo_is_a_failure(tmp_path):
    def tamper(workload, outputs):
        i = next(k for k, s in enumerate(workload.statements) if s.kind == "violates")
        header, dashes, *rows, count = outputs[i].split("\n")
        outputs[i] = "\n".join([header, dashes, count])  # drop every returned row

    assert _tampered("query_scan", tmp_path, tamper)


def test_a_wrong_update_expectation_is_a_failure(tmp_path):
    def tamper(workload, outputs):
        _first(workload, "update")["value"] = "99999"

    assert _tampered("repair_loop", tmp_path, tamper)


def test_changed_bytes_between_iterations_are_failures():
    base = {"statements": 2, "digests": ["a", "b"], "raised": {}, "failures": []}
    changed = dict(base, digests=["a", "c"])
    raised = dict(base, raised={"0": "Boom"}, digests=[None, "b"])
    attempted, failed, reasons = run.count_failures([base, changed, raised])
    assert (attempted, failed) == (6, 2)
    assert "differs" in reasons[0] and "raised" in reasons[1]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("query_scan", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
