"""Host-speed calibration, interleaved with the work it corrects.

On a shared host the same Python code runs up to about twice as fast in one
minute as in the next, because of what other tenants run; a median over
repetitions cannot remove spells that last longer than a run.  So while a
repetition runs, a SIGALRM timer interrupts it every ``PERIOD_S`` seconds of
wall time and runs a fixed piece of pure-Python work, the chunk, and times
it.  The chunk depends on nothing in circleops: its time follows the host,
and the package can move it only through what it leaves in the caches.

A repetition's times are then reported in reference seconds: the measured
work time multiplied by ``REF_CHUNK_S`` over the mean chunk time observed
while that work ran, or around it for an interval too short to hold
``MIN_CHUNKS`` chunks.  ``REF_CHUNK_S`` is near the chunk's time in the
fastest spells of the 2-vCPU Intel Xeon sandbox the benchmark was tuned on,
so there a reference second is about a wall-clock second.  The chunk's own
time is taken out of every measured interval through ``clock``.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

PERIOD_S = 0.01
REF_CHUNK_S = 0.00035
MIN_CHUNKS = 20


def _chunk() -> int:
    """Dict, tuple, string, integer and float work, like the package's own."""
    table = {}
    acc = 0.0
    for i in range(600):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i * i
        acc += (i + 0.5) ** 0.5
        table[str(i % 23)] = len(table)
    return len(table) + int(acc)


class HostSpeed:
    def __init__(self):
        self.spent = 0.0  # seconds inside the chunk since start()
        self.times = []  # each chunk's time, in order
        self.running = False

    def start(self):
        self.running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self):
        # A tick already due may still run after this; it must not re-arm
        # the timer, and an alarm must not reach the default action, which
        # ends the process.
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _tick(self, signum, frame):
        if not self.running:
            return
        # A garbage collection started inside the chunk would walk the
        # package's heap and bill it to the host.
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _chunk()
        dt = perf_counter() - t0
        if collecting:
            gc.enable()
        self.spent += dt
        self.times.append(dt)
        # Re-armed only now, so one chunk never interrupts another.
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def clock(self) -> float:
        """Wall time without the time spent in the chunk."""
        return perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.times)

    def scale(self, start: int, end: int) -> float:
        """Reference seconds per measured second between two marks.

        An interval that saw fewer than ``MIN_CHUNKS`` chunks, such as one
        short item, is judged by ``MIN_CHUNKS`` chunks around it, half before
        and half after, as far as they have run.
        """
        short = max(0, MIN_CHUNKS - (end - start))
        seen = self.times[max(0, start - short // 2):end + short - short // 2]
        if not seen:
            raise RuntimeError("no calibration chunk ran; the interval is too short")
        return REF_CHUNK_S * len(seen) / sum(seen)
