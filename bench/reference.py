"""A fixed pure-Python loop that shows the machine's current speed.

The shared machine's speed drifts by a third within seconds, for CPU
time as much as for wall time.  The runner times this loop just before
and just after each command, and the command's own process times one
round of it every ``child.SAMPLE_EVERY_S`` while the command runs; the
command's times are then scaled by ``ROUND_S`` over the mean round time.
The loop resembles the package's hot paths (a row sweep over bitmask
states in tuple-keyed dicts, then building and sorting dicts) but calls
nothing of the package, so no change to the program moves it.
"""

from __future__ import annotations

import time

# a round's median time on the machine where the bounds were set (2-core
# Intel Xeon, Python 3.11.7): a scaled time is the time the command would
# take there at that speed
ROUND_S = 0.0044


def round_s(rounds: int) -> float:
    """Mean time of one round of the loop over ``rounds`` rounds."""
    start = time.perf_counter()
    for _ in range(rounds):
        layer = {(0, 0): 0}
        for _ in range(9):
            nxt: dict[tuple[int, int], int] = {}
            for (c, u), cost in sorted(layer.items()):
                for c2 in range(16):
                    if c2 & u != u:
                        continue
                    key = (c2, 15 & ~(c2 | c2 << 1 & 15 | c2 >> 1 | c))
                    cand = cost + c2.bit_count()
                    if key not in nxt or cand < nxt[key]:
                        nxt[key] = cand
            layer = nxt
        for _ in range(3):
            sorted({(i & 63, i >> 6): i for i in range(2000)})
    return (time.perf_counter() - start) / rounds
