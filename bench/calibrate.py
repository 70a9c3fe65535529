"""A fixed pure-Python reference loop that tracks the machine's speed.

On a shared virtual machine the same code runs up to about 1.5 times slower
for minutes at a time, from contention outside the process.  The benchmark
times this loop between items (and inside each set-up probe) and scales its
time metrics by REFERENCE_S over the loop's mean time in the same run, so a
run in a slow period reads about the same as one in a fast period.  The loop
uses no crystalminor code, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

# the loop's time on the machine the bounds were set on
REFERENCE_S = 0.0005
# how often a run times the loop between items
EVERY_S = 0.02


def chunk() -> int:
    """Dict and tuple traffic, the kind of work the program does most."""
    acc = 0
    for _ in range(8):
        table: dict = {}
        for i in range(200):
            key = (i & 31, i % 7)
            table[key] = table.get(key, 0) + i
            acc += len(table)
    return acc


def time_chunk() -> int:
    start = time.perf_counter_ns()
    chunk()
    return time.perf_counter_ns() - start


def slowness(ref_ns: list[int]) -> float:
    """Mean loop time over REFERENCE_S: 1.0 at the reference speed."""
    return sum(ref_ns) / len(ref_ns) / 1e9 / REFERENCE_S
