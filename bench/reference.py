"""The host-speed yardstick of the benchmark.

On a shared host the CPU seconds of the same work drift by a quarter and
more between minutes, because other tenants contend for the cores and
caches.  The benchmark therefore runs a fixed reference loop next to every
timed piece of work, in the same process, and reports the work's CPU time
as a multiple of the loop's.  Multiplied by REFERENCE_S, that multiple is
given in seconds at a fixed host speed: the seconds the work would take on
a host where one reference sample takes REFERENCE_S of CPU time.  Both
the operations and the set-up of the benchmark are timed this way.
"""

from __future__ import annotations

import statistics
import time

# CPU seconds of one reference sample (REFERENCE_PASSES passes of
# reference_loop) that the reported seconds are scaled to; about what it
# took on the 2-vCPU host the baseline in DESIGN.md was measured on.
REFERENCE_S = 0.040
REFERENCE_PASSES = 3


def reference_loop() -> int:
    """Fixed pure-Python work: a breadth-first search over a synthetic
    graph of 11,339 tuple states, the kind of work the explorer does.  It
    does not touch the program, so its CPU time only follows the host."""
    seen = {(0, 0, 0): None}
    frontier = [(0, 0, 0)]
    while frontier:
        layer = []
        for state in frontier:
            a, b, c = state
            for succ in (((a + 1) % 29, b, c), (a, (b + a) % 23, c),
                         (a, b, (c + b + 1) % 17)):
                if succ not in seen:
                    seen[succ] = state
                    layer.append(succ)
        frontier = layer
    return len(seen)


def sample_cpu_s() -> float:
    """CPU seconds of one reference sample, in this process."""
    start = time.process_time()
    for _ in range(REFERENCE_PASSES):
        reference_loop()
    return time.process_time() - start


def scaled_s(work_cpu_s: list, ref_cpu_s: list) -> float:
    """Median over the pieces of work of their CPU seconds over those of
    the reference sample taken around them, in seconds at REFERENCE_S."""
    return REFERENCE_S * statistics.median(
        work / ref for work, ref in zip(work_cpu_s, ref_cpu_s))
