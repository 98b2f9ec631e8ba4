"""fdq benchmark: seeded workloads timed per statement and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fdq is imported from its `src/`, and
nothing else is needed beyond the standard library. A run repeats
iterations, each a fresh interpreter (bench/child.py) that generates the
workload from the seed and feeds its script to fdq one statement at a
time, until `--seconds` have passed (at least MIN_ITERATIONS, at most
LIMIT_S in all). The first iteration warms the file cache and checks
every output; every metric is taken over the iterations after it, as
their median except for `script_p90_s`.

`script_p90_s`, the end-to-end script time, is the 90th percentile of the
iterations' script times. On a shared host the iteration times mix a
steady slow plateau (the host busy) with faster stretches whose share
changes from run to run; the median flips between the two, the 90th
percentile tracks the plateau. The median is still reported per layer,
as `script_s`.

With `--trace 0` it reports the end-to-end metrics, from untraced
iterations only. With `--trace 1` it alternates traced and untraced
iterations and reports the per-layer metrics: layer times and counters
from the traced ones, statement-class times from the untraced ones, and
`trace.overhead_frac` from the two together.

Outputs are checked once (bench/verify.py), and every later iteration
must render the same bytes. The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
line before it records the host (nproc, Python, git SHA, load average).
Scratch files go to `.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

MIN_ITERATIONS = 3  # per kind: untraced, and traced when tracing
LIMIT_S = 150.0  # no iteration starts once this much of the run has passed

END_TO_END = {  # name -> unit
    "script_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
STATEMENT_CLASSES = ("load", "minefd", "select", "violates", "dependent", "update", "fdset")
LAYER_METRICS = {  # name -> unit; the layers named after fdq's modules
    "partition.intersect.s": "s",
    "partition.intersect.calls": "count",
    "partition.intersect.rows_in": "rows",
    "miner.products": "count",
    "miner.fds_emitted": "count",
    "miner.products_per_fd": "ratio",
    "miner.mine_fds.self_s": "s",
    "partition.build_pli.s": "s",
    "partition.build_pli.calls": "count",
    "relation.load_csv.s": "s",
    "partition.pli_of.s": "s",
    "partition.pli_of.calls": "count",
    "partition.pli_of.rows_in": "rows",
    "partition.violating_rows.s": "s",
    "partition.violating_rows.calls": "count",
    "relation.eval_row_predicate.s": "s",
    "partition.error_measure.s": "s",
    "partition.error_measure.calls": "count",
    "query.eval_dependent.self_s": "s",
    "query.eval_violates.self_s": "s",
    "query.value_distance.s": "s",
    "query.value_distance.calls": "count",
    "query.eval_holds.self_s": "s",
    "query.eval_not_holds.self_s": "s",
    "query.execute.self_s": "s",
    "query.parse.s": "s",
    "cli.render.s": "s",
    "cli.render.bytes": "bytes",
    "cli.run_command.self_s": "s",
    "relation.with_rows.s": "s",
    "fdstore.parse_fdml.s": "s",
    "fdstore.eval_fdml.s": "s",
    "fdstore.diff_fdsets.s": "s",
    "fdstore.save_fdset.s": "s",
    "fdstore.save_fdset.bytes": "bytes",
    "fdstore.import_fdset.s": "s",
    "setexpr.eval_subset_expr.calls": "count",
}
PER_LAYER = {
    "script_s": "s",
    **{f"{c}_s": "s" for c in STATEMENT_CLASSES},
    **LAYER_METRICS,
    "trace.overhead_frac": "ratio",
}


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_child(args, workdir: str, trace: bool, verify: bool, budget: float) -> dict:
    cmd = [
        sys.executable, "-B", os.path.join(BENCH_DIR, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", workdir,
    ]
    cmd += ["--trace"] * trace + ["--verify"] * verify
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            capture_output=True, text=True, env=env, timeout=budget, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"iteration still running after {budget:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"iteration failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def iterate(args, workdir: str) -> list[dict]:
    """Run iterations until --seconds have passed and the minimum is met.

    The first, verifying iteration is not counted towards the minimum.
    """
    started = time.monotonic()
    done: list[dict] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        traced = [r for r in done[1:] if r["traced"]]
        plain = [r for r in done[1:] if not r["traced"]]
        enough = len(plain) >= MIN_ITERATIONS and (
            not args.trace or len(traced) >= MIN_ITERATIONS
        )
        if enough and elapsed >= args.seconds:
            return done
        if elapsed + longest > LIMIT_S:
            if plain and (traced or not args.trace):
                return done
            raise SystemExit(f"no measured iteration within {LIMIT_S:.0f} s")
        trace = bool(args.trace) and len(done) % 2 == 1
        t0 = time.monotonic()
        result = run_child(args, workdir, trace, not done, 175.0 - elapsed)
        longest = max(longest, time.monotonic() - t0)
        result["traced"] = trace
        done.append(result)


def count_failures(results: list[dict]) -> tuple[int, int, list[str]]:
    """Statements attempted and failed over all iterations, with reasons.

    A statement fails when it raises, when the first iteration's checks
    reject its output, or when its output differs from the first
    iteration's bytes.
    """
    reference = results[0]["digests"]
    attempted = failed = 0
    reasons = []
    for k, r in enumerate(results):
        bad = {int(i): f"raised {msg}" for i, msg in r["raised"].items()}
        bad.update({i: msg for i, msg in r["failures"]})
        for i, digest in enumerate(r["digests"]):
            if digest != reference[i] and i not in bad:
                bad[i] = "output differs from the first iteration"
        attempted += r["statements"]
        failed += len(bad)
        reasons += [f"iteration {k} statement {i}: {msg}" for i, msg in sorted(bad.items())]
    return attempted, failed, reasons


def summarize(args, results: list[dict]) -> dict[str, float]:
    results = results[1:]  # the warm-up iteration
    plain = [r for r in results if not r["traced"]]
    median = statistics.median
    if not args.trace:
        return {
            "script_p90_s": statistics.quantiles(
                [r["script_s"] for r in plain], n=10, method="inclusive"
            )[8],
            "setup_s": median(r["setup_s"] for r in plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
    traced = [r for r in results if r["traced"]]
    metrics = {"script_s": median(r["script_s"] for r in plain)}
    for c in STATEMENT_CLASSES:
        metrics[f"{c}_s"] = median(r["classes"].get(c, 0.0) for r in plain)
    for name in LAYER_METRICS:
        metrics[name] = median(r["layers"].get(name, 0) for r in traced)
    metrics["trace.overhead_frac"] = (
        median(r["script_s"] for r in traced) / metrics["script_s"] - 1
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mine_lattice", "query_scan", "repair_loop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fdq", "__init__.py")):
        print(f"no fdq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    results = iterate(args, workdir)
    attempted, failed, reasons = count_failures(results)
    for reason in reasons:
        print(reason, file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = summarize(args, results)
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
        "iterations": len(results),
        "planted_checked": results[0].get("planted_checked", 0),
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "iterations": results}, fh)
    for name in os.listdir(workdir):  # keep the record, drop the bulky inputs
        if name.endswith((".csv", ".fdset")):
            os.remove(os.path.join(workdir, name))
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
