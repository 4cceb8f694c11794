"""Host-speed calibration: job times rescaled to a fixed reference speed.

The benchmark's host is a shared virtual machine whose speed steps between
states a few seconds long: the same job takes 45 ms in one state and 77 ms
in the next, in one process, with CPU time equal to wall time.  A fixed
calibration kernel, run between jobs every `EVERY` seconds, slows down and
speeds up with it.  Each job's time is multiplied by `REF_S` over the median
calibration sample taken within `HALF_WIDTH` seconds of that job, which
gives its time at the reference speed: the speed at which one sample takes
`REF_S` seconds.

The kernel is plain Python that does the kind of work the engine does
(binary words, sorting, prefix tests, dicts, sets, tuples, small objects,
union-find), so that host states slow both alike.  It never calls the
package under test: a change to the engine changes the jobs' times and not
the reference they are measured against.

This module imports nothing beyond `time` and `bisect`, so that the fresh
set-up processes that import it before `cantorenv` still load every module
the package needs cold.
"""

from __future__ import annotations

import bisect
import time

REF_S = 0.004  # seconds one sample takes at the reference speed
EVERY = 0.1  # seconds between samples during a timed loop
HALF_WIDTH = 0.5  # seconds either side of a job whose samples set its speed
AT_LEAST = 7  # samples per job, taken from the nearest ones when too few lie within


class _Cell:
    __slots__ = ("word", "key")

    def __init__(self, word, key):
        self.word = word
        self.key = key


# 512 depth-9 words in a fixed scrambled order (multiplication by 205 mod 512)
_WORDS = [format(i * 205 % 512, "09b") for i in range(512)]


def kernel() -> int:
    """Fixed work, a few milliseconds long; returns a checksum."""
    out = 0
    for rep in range(2):
        words = sorted(_WORDS, key=lambda w: w[rep:] + w[:rep])
        seen = set()
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                x = parent[x]
            return x

        for w in words:
            if w.startswith("01") or w[:4] in seen:
                seen.add(w[1:])
            cell = _Cell(w, (len(w), w[-3:], w[:4]))
            parent[find(w)] = find(cell.word[:-1] or "e")
            out += cell.key[1].count("1")
        out += len(seen) + len({find(w) for w in words[:64]})
    # integer arithmetic, which host states slow less than the object work
    # above: the two together slow down about as much as the engine's jobs
    x = out
    for i in range(13000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return x


def sample() -> float:
    """Seconds one run of the kernel takes now, its caches warm."""
    kernel()  # the job before it may have left the caches cold
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def factor(samples) -> float:
    """Reference speed over the speed the samples were taken at."""
    return REF_S / _median(samples)


class HostClock:
    """Calibration samples interleaved with the jobs of one process."""

    def __init__(self):
        self.times = []  # when each sample started
        self.samples = []  # how long it took
        self._next = 0.0

    def tick(self) -> None:
        """Between two jobs: take a sample when `EVERY` seconds have passed."""
        now = time.perf_counter()
        if now >= self._next:
            self.times.append(now)
            self.samples.append(sample())
            self._next = now + EVERY

    def factors(self, stamps) -> list[float]:
        """The rescaling factor of a job started at each of `stamps`."""
        if not self.samples:
            raise ValueError("no calibration samples were taken")
        n = len(self.times)
        out = []
        for t in stamps:
            lo = bisect.bisect_left(self.times, t - HALF_WIDTH)
            hi = bisect.bisect_right(self.times, t + HALF_WIDTH)
            while hi - lo < min(AT_LEAST, n):
                # widen toward the nearer of the two neighbouring samples
                if hi == n or (lo > 0 and t - self.times[lo - 1] <= self.times[hi] - t):
                    lo -= 1
                else:
                    hi += 1
            out.append(factor(self.samples[lo:hi]))
        return out

    def speed(self) -> float:
        """Median host speed over the run, relative to the reference."""
        return factor(self.samples)
