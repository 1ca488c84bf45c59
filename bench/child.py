"""One measuring process of the benchmark: a warm-up operation, then timed
operations until the time is up.  Started by run.py; prints one JSON line.

    python3 bench/child.py --workload NAME --seed N --seconds S
                           --work-dir DIR [--traced]

Every operation is checked against the pinned artifact digests, and one
more, untimed, after the timed ones is checked against the oracle.
Operations are timed in CPU seconds of this single-threaded process, and
the wall seconds are kept for the printed report.  Untraced, a reference
sample (see reference.py) runs after every operation, so each operation's
CPU time can be read against the host's speed at that moment.  With
--traced, operations alternate between plain and wrapped (see spans.py):
the wrapped ones give the per-layer metrics, and each wrapped one against
the plain one before it gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(CHECKOUT, "src")
sys.path.insert(0, SRC)

import looptest  # noqa: E402  (path set above)
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import COUNTS, Tracer, explorer_counts  # noqa: E402

if not os.path.abspath(looptest.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"looptest was imported from {looptest.__file__}, "
                     f"not from {SRC}")


def measure(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(workload, args.seed)
    workloads.write_inputs(inputs, args.work_dir)
    oracles = workloads.load_oracles(CHECKOUT)
    want = workloads.expected(workload, args.seed, workloads.load_pins())
    tracer = Tracer() if args.traced else None

    out = {"attempted": 0, "failed": 0, "errors": [], "op_cpu_s": [],
           "op_wall_s": [], "ref_cpu_s": [], "traced_cpu_s": [],
           "layers": [], "info": {}}

    def attempt(traced: bool = False, oracle: bool = False):
        """Run, time and check one operation; returns its (CPU, wall)
        seconds, or None when it failed."""
        out["attempted"] += 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        wall = time.perf_counter()
        cpu = time.process_time()
        try:
            if traced:
                result = tracer.run(workloads.run_operation, workload, inputs)
            else:
                result = workloads.run_operation(workload, inputs)
        except Exception:  # an exception or budget abort fails the operation
            out["failed"] += 1
            out["errors"].append(traceback.format_exc(limit=3))
            return None
        finally:
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - wall
            if traced:
                tracer.uninstall()
        problems = workloads.check_result(result, want, inputs.suite_text)
        if oracle:
            oracle_problems, positions = workloads.oracle_check(result,
                                                                oracles)
            problems += oracle_problems
            out["info"]["lasso_positions"] = {
                "tests": len(positions),
                "mean": sum(positions) / len(positions),
                "min": min(positions), "max": max(positions)}
            out["info"]["digests"] = workloads.digests(result)
        if problems:
            out["failed"] += 1
            out["errors"].extend(problems)
            return None
        if traced:
            out["layers"].append(tracer.metrics())
        return cpu, wall

    attempt()  # warm-up
    if inputs.suite_text is not None:
        out["info"]["input_digest"] = workloads.sha256(inputs.suite_text)

    deadline = time.perf_counter() + args.seconds
    before = None if args.traced else reference.sample_cpu_s()
    while True:
        timed = attempt()
        if args.traced:
            wrapped = attempt(traced=True)
            if timed and wrapped:
                out["op_cpu_s"].append(timed[0])
                out["traced_cpu_s"].append(wrapped[0])
        else:
            # Each operation is read against the reference samples taken
            # just before and just after it.
            after = reference.sample_cpu_s()
            if timed:
                out["op_cpu_s"].append(timed[0])
                out["op_wall_s"].append(timed[1])
                out["ref_cpu_s"].append((before + after) / 2)
            before = after
        if time.perf_counter() >= deadline:
            break

    if tracer is not None:
        out["info"]["absent"] = tracer.absent
        per_depth, _ = explorer_counts(tracer.explorer)
        out["info"]["states_per_depth"] = per_depth
        counts = [{k: m[k] for k in COUNTS if k in m} for m in out["layers"]]
        if any(c != counts[0] for c in counts):
            out["errors"].append("per-layer counts differ between operations")
        with open(os.path.join(args.work_dir, "spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(tracer.span_records(), handle)
    # Read before the oracle check, whose own memory is not the program's.
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempt(oracle=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
