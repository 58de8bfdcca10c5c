"""Reference loop sampler: the speed of this CPU, measured while commands run.

Runs until its standard input closes.  Every SAMPLE_EVERY_S seconds it times
one fixed reference loop by its own thread CPU time and prints
``<perf_counter at end> <cpu seconds>``.  The benchmark pins itself and all
its children to one CPU, so the samples see the speed that CPU had while
each command ran; thread CPU time is not inflated by the command taking
turns on the CPU.

The loop looks up random keys in a ~50 MB dict.  On a shared machine the
program's slow spells come with cache and memory contention, which a loop
that stays in the first-level cache barely feels; random lookups in a large
table slow down in those spells as the program does (measured: identical ``simulate`` runs
whose wall times ranged over 50% had ratios to this loop within 3%
standard deviation, against 10% for a pure arithmetic loop).
"""

import random
import select
import sys
import time

SAMPLE_EVERY_S = 0.15


def reference_loop(table: dict[str, int], keys: list[str]) -> float:
    t0 = time.thread_time()
    acc = 0
    for key in keys:
        acc += table[key]
    return time.thread_time() - t0


def main() -> int:
    table = {f"10.{i >> 16}.{(i >> 8) & 255}.{i & 255}": i for i in range(400_000)}
    keys = random.Random(0).sample(sorted(table), 6_000)
    while not select.select([sys.stdin], [], [], SAMPLE_EVERY_S)[0]:
        cpu = reference_loop(table, keys)
        sys.stdout.write(f"{time.perf_counter()!r} {cpu!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
