"""The looptest benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all`` of them in turn) in fresh single-threaded
child processes and prints human-readable lines, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones:

  op_s         seconds of one operation in a warm process, scaled to a
               fixed host speed (see below)
  setup_s      seconds of a fresh interpreter importing looptest and
               loading the workload's .clm and .ltl files, scaled the same
               way
  peak_rss_mb  peak resident set of the measuring child (ru_maxrss)

op_s is the median over the timed operations of their CPU seconds over
those of the reference loop of reference.py run next to each, times that
loop's nominal seconds; setup_s likewise, with the reference loop run in
each probe interpreter after its set-up.  The raw seconds are printed as
``op_cpu_s``, ``op_wall_s`` and ``setup_cpu_s``.  The failed fraction is
``failed / attempted``.  With ``--trace 1`` the metrics are the per-layer
ones of spans.py plus ``trace.overhead_frac``.
See DESIGN.md for why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

import reference
from spans import COUNTS
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
WORK_ROOT = os.path.join(BENCH_DIR, ".work")
SETUP_REPEATS = 40
SETUP_TIMEOUT_S = 30
# A child may exceed its measuring time by a warm-up operation, the oracle
# check and one overrunning operation.
CHILD_SLACK_S = 60

# After the set-up proper, the probe takes a reference sample and prints its
# CPU seconds and those of everything after the set-up.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import looptest
model = looptest.load_model(sys.argv[2])
looptest.load_reqs(sys.argv[3], model)
import time
start = time.process_time()
sys.path.insert(0, sys.argv[4])
import reference
print(reference.sample_cpu_s(), time.process_time() - start)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # Fixed string hashing, so dict and set layouts repeat between runs.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, seconds: float, work_dir: str,
              traced: bool) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", work_dir]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=child_env(), cwd=CHECKOUT,
                          timeout=seconds + CHILD_SLACK_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    if not child["op_cpu_s"]:
        errors = list(dict.fromkeys(child["errors"]))
        raise RuntimeError(f"{workload}: no operation completed; "
                           f"{len(errors)} distinct errors, the first: "
                           f"{errors[:3]}")
    return child


def measure_setup(work_dir: str) -> dict:
    """CPU seconds of SETUP_REPEATS fresh interpreters, with the reference
    sample each took after its set-up, after one untimed start that leaves
    the bytecode cache warm."""
    # -S: looptest needs nothing from site-packages, whose start-up hooks
    # belong to the machine, not to the program.
    cmd = [sys.executable, "-S", "-c", SETUP_CODE,
           os.path.join(CHECKOUT, "src"),
           os.path.join(work_dir, "model.clm"),
           os.path.join(work_dir, "reqs.ltl"), BENCH_DIR]
    out = {"cpu": [], "ref": []}
    for i in range(SETUP_REPEATS + 1):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        probe = subprocess.run(cmd, check=True, env=child_env(),
                               cwd=CHECKOUT, stdout=subprocess.PIPE,
                               text=True, timeout=SETUP_TIMEOUT_S)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        ref, tail = (float(x) for x in probe.stdout.split())
        if i:
            out["cpu"].append(after.ru_utime + after.ru_stime
                              - before.ru_utime - before.ru_stime - tail)
            out["ref"].append(ref)
    return out


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summary(name: str, values: list, unit: str) -> str:
    """Median, quartiles, and the highest percentile with at least ten
    samples above it, when there is one."""
    q1, med, q3 = quartiles(values)
    text = f"{name} median={med:.4f} q1={q1:.4f} q3={q3:.4f}"
    n = len(values)
    pct = 100 * (n - 10) // n
    if pct >= 1:
        text += f" p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.4f}"
    return f"{text} n={n} {unit}"


def end_to_end(workload: str, seed: int, seconds: float, work_dir: str):
    child = run_child(workload, seed, seconds, work_dir, traced=False)
    setup = measure_setup(work_dir)
    report(workload, child)
    op_s = reference.scaled_s(child["op_cpu_s"], child["ref_cpu_s"])
    setup_s = reference.scaled_s(setup["cpu"], setup["ref"])
    print(f"{workload} op_s {op_s:.4f} s at reference speed")
    print(f"{workload} {summary('op_cpu_s', child['op_cpu_s'], 's')}")
    print(f"{workload} {summary('op_wall_s', child['op_wall_s'], 's')}")
    print(f"{workload} {summary('ref_cpu_s', child['ref_cpu_s'], 's')}")
    print(f"{workload} setup_s {setup_s:.4f} s at reference speed")
    print(f"{workload} {summary('setup_cpu_s', setup['cpu'], 's')}")
    print(f"{workload} {summary('setup_ref_cpu_s', setup['ref'], 's')}")
    rss = child["peak_rss_kb"] / 1024
    print(f"{workload} peak_rss_mb {rss:.1f} MB")
    metrics = {"op_s": {"value": op_s, "unit": "s"},
               "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return child, metrics


def per_layer(workload: str, seed: int, seconds: float, work_dir: str):
    traced = run_child(workload, seed, seconds, work_dir, traced=True)
    report(workload, traced)
    info = traced["info"]
    for target in info.get("absent", []):
        print(f"{workload} absent: {target} (its metrics are left out)")
    if info.get("states_per_depth"):
        print(f"{workload} states per depth: {info['states_per_depth']}")
    metrics = {}
    layers = traced["layers"]
    for name in layers[0]:
        if name in COUNTS:  # equal in every operation, as the child checks
            value = layers[0][name]
        else:
            value = statistics.median(m[name] for m in layers)
        unit = ("1/s" if name.endswith("_per_s") else
                "s" if name.endswith("_s") else "count")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{workload} {name} {value} {unit}")
    # Each wrapped operation against the plain one run just before it.
    overhead = statistics.median(
        t / p for t, p in zip(traced["traced_cpu_s"], traced["op_cpu_s"])) - 1
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    print(f"{workload} trace.overhead_frac {overhead:.4f} over "
          f"{len(traced['op_cpu_s'])} pairs")
    spans = os.path.join(WORK_ROOT, f"{workload}-{seed}.spans.json")
    os.replace(os.path.join(work_dir, "spans.json"), spans)
    print(f"{workload} spans of the last traced operation: "
          f"{os.path.relpath(spans, CHECKOUT)}")
    return traced, metrics


def report(workload: str, child: dict):
    info = child["info"]
    lasso = info.get("lasso_positions")
    if lasso:
        print(f"{workload} lasso positions over {lasso['tests']} tests: "
              f"mean={lasso['mean']:.1f} min={lasso['min']} "
              f"max={lasso['max']}")
    if "input_digest" in info:
        print(f"{workload} replay suite sha256 {info['input_digest']}")
    for name, digest in info.get("digests", {}).items():
        print(f"{workload} {name} sha256 {digest}")
    for error in child["errors"]:
        print(f"{workload} FAILED: {error}")
    print(f"{workload} failed_frac {child['failed']}/{child['attempted']} = "
          f"{child['failed'] / child['attempted']:.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/looptest/__init__.py", "tests/oracles.py")
               if not os.path.isfile(os.path.join(CHECKOUT, p))]
    if missing:
        print(f"error: {', '.join(missing)} not found under {CHECKOUT}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = per_layer if args.trace else end_to_end
    os.makedirs(WORK_ROOT, exist_ok=True)
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        work_dir = tempfile.mkdtemp(prefix=f"{name}-{args.seed}-",
                                    dir=WORK_ROOT)
        try:
            child, found = run(name, args.seed, args.seconds, work_dir)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        attempted += child["attempted"]
        failed += child["failed"]
        correct = correct and not child["errors"]
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
