"""Host-speed calibration for the benchmark's timings.

The machines this benchmark runs on are small shares of busy hosts whose
speed switches, every few seconds, between a fast and a slow state about
1.8 times apart (a fixed pure-Python loop took 13 or 24 ms), and the
share of time spent slow moves from minute to minute.  CPU time moves
with wall time, so this is slower execution, not waiting.  To compare two
commits the benchmark reports each timing in reference seconds: the time
measured, multiplied by the host's mean speed while it was measured,
where speed is REF_CHUNK_S over the time a fixed calibration chunk took.

The speed is sampled during the timed work itself: while a `Sampler` is
active a SIGALRM handler runs one chunk every PERIOD_S, in the same
thread, between two bytecodes of whatever is being timed.  The time spent
in the handler is subtracted from the timed interval.  The chunk is work
of the program's own kind (products of sparse polynomials held as dicts
of exponent tuples with `Fraction` coefficients), written here and
independent of `homdeg`, so a change to the program cannot change it.
"""

import signal
import statistics
import time
from fractions import Fraction

REF_CHUNK_S = 0.001
ROUNDS = 12
PERIOD_S = 0.02
_A = {(i, 3 - i % 4, i % 3): Fraction(i + 1, 7) for i in range(6)}
_B = {(i % 2, i, 1): Fraction(2 - i, 3) for i in range(5)}


def _work():
    acc = {}
    for _ in range(ROUNDS):
        for ea, ca in _A.items():
            for eb, cb in _B.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                acc[e] = acc.get(e, 0) + ca * cb
    return acc


class Sampler:
    """Samples the host's speed every PERIOD_S while active.

    `samples` holds (start, seconds) of each chunk, in order.  Use
    `sample()` to add one at a boundary of the timed work, and `interval`
    to turn a timed interval into reference seconds."""

    def __init__(self):
        self.samples = []
        self._saved = None
        self._busy = False

    def sample(self):
        self._busy = True
        t0 = time.perf_counter()
        _work()
        self.samples.append((t0, time.perf_counter() - t0))
        self._busy = False

    def _tick(self, signum, frame):
        if not self._busy:  # a tick during a boundary sample is dropped
            self.sample()

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def interval(self, t0, t1, first, after=1):
        """(seconds spent outside the sampler in [t0, t1], the same in
        reference seconds).  Samples from index `first`, taken before t0,
        to the `after`-th one taken after t1 measure the host's speed over
        the interval."""
        inside, speeds = 0.0, []
        for start, took in self.samples[first:]:
            speeds.append(REF_CHUNK_S / took)
            if start >= t1:
                after -= 1
                if not after:
                    break
            elif start >= t0:
                inside += took
        own = t1 - t0 - inside
        return own, own * statistics.fmean(speeds)
