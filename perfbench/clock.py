"""Times scaled to the machine's nominal speed.

On a shared 2-core x86-64 virtual machine, load from other tenants changes
the speed of pure-Python code by up to 1.8x, for up to a minute at a time.
A fixed pure-Python reference computation, timed right before and right
after a piece of work, tells how fast the machine ran during it; the
piece's time is scaled by NOMINAL_REFERENCE_S over the faster of the two
reference times. So reported times read as seconds at the speed at which
the reference takes NOMINAL_REFERENCE_S (about its fastest time on such a
machine with Python 3.11), and a slow spell of the machine does not read
as a slow program. The reference takes about a millisecond and one
preemption can double it; taking the faster of the two keeps a single
disturbed reference from making the piece read fast.
"""

from __future__ import annotations

from time import perf_counter

# The reference is a line-level LCS table over two fixed lists of short
# strings, the kind of work sbcr's hot loops do, written out here so that it
# never changes with sbcr.
_REFERENCE_A = tuple(f"line {i % 7} = {i % 5};" for i in range(40))
_REFERENCE_B = tuple(f"line {i % 6} = {i % 5};" for i in range(40))
REFERENCE_ROUNDS = 14
NOMINAL_REFERENCE_S = 0.0014


def reference_seconds() -> float:
    """Wall time of the fixed reference work."""
    start = perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        row = [0] * (len(_REFERENCE_B) + 1)
        for x in _REFERENCE_A:
            prev = 0
            for j, y in enumerate(_REFERENCE_B, start=1):
                cur = row[j]
                if x == y:
                    row[j] = prev + 1
                elif row[j - 1] > cur:
                    row[j] = row[j - 1]
                prev = cur
    return perf_counter() - start


class Stopwatch:
    """Times the named pieces of one pass at nominal speed.

    Consecutive pieces share the reference run between them. When a
    TimedResolver is given, the record latencies it collects during a piece
    are scaled with that piece.
    """

    def __init__(self, timed=None):
        self.timed = timed
        self.phases: dict[str, float] = {}
        self._reference = reference_seconds()

    def run(self, name: str, fn, *args, **kwargs):
        mark = len(self.timed.latencies_ms) if self.timed is not None else 0
        before = self._reference
        start = perf_counter()
        result = fn(*args, **kwargs)
        elapsed = perf_counter() - start
        self._reference = reference_seconds()
        scale = NOMINAL_REFERENCE_S / min(before, self._reference)
        self.phases[name] = elapsed * scale
        if self.timed is not None:
            self.timed.latencies_ms[mark:] = [(rid, ms * scale) for rid, ms in self.timed.latencies_ms[mark:]]
        return result
