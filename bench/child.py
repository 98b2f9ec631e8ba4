"""One benchmark iteration in a fresh interpreter.

    python3 -B bench/child.py --workload NAME --seed N --workdir DIR \
        --spawned-at T [--trace] [--verify]

Imports fdq from the checkout's `src/`, generates the workload's inputs,
then feeds the script statement by statement through
`fdq.cli.split_statements` and `fdq.cli.run_command`, the path `fdq exec`
takes minus argument parsing and printing. One session, one statement at
a time: a closed loop with a single client. Every statement is timed from
outside. `--trace` swaps the per-layer wrappers in first; `--verify`
checks the outputs afterwards, outside the timed region. The result is
one JSON line on stdout.

`--spawned-at` is the parent's `time.monotonic()` just before it started
this process; set-up time runs from there to the first statement. On
Linux the monotonic clock is system-wide, so the two readings compare.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

sys.dont_write_bytecode = True
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC_DIR)
    import fdq.cli

    if not os.path.abspath(fdq.cli.__file__).startswith(SRC_DIR + os.sep):
        print(f"fdq imported from {fdq.cli.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.generate(args.workload, args.seed, args.workdir)
    script = ";\n".join(s.text for s in workload.statements) + ";\n"
    texts = fdq.cli.split_statements(script)
    if len(texts) != len(workload.statements):
        print("statement splitting disagrees with the script", file=sys.stderr)
        return 2
    session = fdq.cli.Session(data_dir=args.workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    first_statement = time.monotonic()
    times, digests, outputs, raised = [], [], [], {}
    for i, text in enumerate(texts):
        start = time.perf_counter()
        try:
            session, output = fdq.cli.run_command(session, text)
        except Exception as exc:  # a statement that fails is counted, not fatal
            output = None
            raised[i] = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        digests.append(
            None if output is None else hashlib.sha256(output.encode()).hexdigest()
        )
        if args.verify:
            outputs.append(output)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    classes: dict[str, float] = {}
    for stmt, seconds in zip(workload.statements, times):
        classes[stmt.kind] = classes.get(stmt.kind, 0.0) + seconds
    result = {
        "setup_s": first_statement - args.spawned_at,
        "script_s": sum(times),
        "classes": classes,
        "peak_rss_mb": peak_rss_mb,
        "statements": len(texts),
        "digests": digests,
        "raised": raised,
        "failures": [],
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(os.path.join(args.workdir, "trace.json"))
        result["layers"] = tracer.metrics()
    if args.verify:
        from verify import Checker

        checker = Checker(workload, args.workdir, session)
        result["failures"] = checker.run(outputs)
        result["planted_checked"] = checker.planted_checked
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
