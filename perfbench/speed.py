"""The reference loop that tracks the machine's momentary speed.

On a shared host the same work takes up to 1.5 times longer from one
second to the next.  Timing this fixed loop right before and right after a
unit of work, on the same core, measures how fast the machine ran; the
benchmark scales the unit's timings by ``NOMINAL_REFERENCE_S`` over the
loop's time, i.e. to what they would have been at nominal speed.
"""

from time import perf_counter

#: Seconds ``reference_loop`` takes at nominal speed: about its median on
#: the 2-core x86-64 VM the bounds in BENCHMARK.json were set on
#: (Python 3.11).
NOMINAL_REFERENCE_S = 0.025


def reference_loop():
    """Run a fixed pure-Python integer loop that shares no code with
    charrank and return how many seconds it took."""
    start = perf_counter()
    ways = [1] + [0] * 4000
    for v in range(1, 46):
        for w in range(v, 4001):
            ways[w] = (ways[w] + ways[w - v]) & 0xFFFFFFFF
    return perf_counter() - start


def speed_factor(before, after):
    """The factor that scales work timed between two runs of the reference
    loop to nominal speed."""
    return 2 * NOMINAL_REFERENCE_S / (before + after)
