"""Host-speed calibration: a fixed pure-Python block timed beside every operation.

On a shared host the same pure-Python work runs up to about 1.9 times
slower for seconds to minutes at a time, because of load from other
tenants. Fastest-of-repeats cannot remove a slow phase that lasts the
whole run. So every operation is followed by calibration blocks, and the
times of a pass are scaled to a host on which one block takes REFERENCE_S:

    reference seconds = measured seconds * REFERENCE_S / mean block time

where the mean is over all the blocks of the pass, and those run just
before its first operation. The load stalls the
process for stretches of a few milliseconds; the blocks are hit by them
as often as the operations are, so the mean block time, not the median,
follows the slowdown. A block builds the product set of two fixed sets
of Heisenberg-style keys, the same tuple, hash and set work the package
does, and calls nothing from the package, so a change to the package
cannot change a block's time.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

CAL_SEED = 20100936
# a round figure near one block's time on a 2-core x86_64 host; it only sets the scale
REFERENCE_S = 0.8e-3
# blocks after an operation: at least one, and together at least this share of its time
SHARE = 0.10

_rng = random.Random(CAL_SEED)
_P = [tuple(_rng.randrange(-9, 10) for _ in range(3)) for _ in range(24)]
_Q = [tuple(_rng.randrange(-9, 10) for _ in range(3)) for _ in range(24)]


def _mul(p, q):
    x1, y1, z1 = p
    x2, y2, z2 = q
    return (x1 + x2, y1 + y2, z1 + z2 + x1 * y2)


def block() -> float:
    """Seconds for one calibration block, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        perf = time.perf_counter
        t0 = perf()
        for _ in range(4):
            len({_mul(a, b) for a in _P for b in _Q})
        return perf() - t0
    finally:
        if enabled:
            gc.enable()


def after_op(op_seconds: float) -> list[float]:
    """The blocks run after an operation that took op_seconds."""
    times = [block()]
    while sum(times) < SHARE * op_seconds:
        times.append(block())
    return times


def blocks(count: int) -> list[float]:
    return [block() for _ in range(count)]


def to_reference(seconds: float, block_times: list[float]) -> float:
    return seconds * REFERENCE_S / statistics.fmean(block_times)


def scale(op_times: list[float], block_times: list[float]) -> list[float]:
    """A pass's operation times in reference seconds, scaled by the mean of its blocks."""
    return [to_reference(seconds, block_times) for seconds in op_times]
