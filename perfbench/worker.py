"""One repetition of one workload, in a fresh single-threaded interpreter.

Usage: worker.py WORKLOAD SEED MODE, with MODE one of ``setup`` (import and
generate the inputs, then stop), ``untraced`` or ``traced``.  Prints one JSON
object: ``ready``, the CLOCK_MONOTONIC time at which the inputs existed, with
the calibration time spent and the host-speed scale up to then, and for a
measured repetition the verdict time, per-item latencies, failures, the
output digest, peak RSS and, when traced, the spans and counters.  Times of
the measured phase are in reference seconds (see ``hostspeed``); the raw
verdict time and the scale are reported beside them.  The package is
imported from the checkout's ``src/`` and nowhere else.
"""

import os
import sys

from hostspeed import HostSpeed

# Started before anything else, so set-up is calibrated too.
SPEED = HostSpeed()
SPEED.start()

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import circleops  # noqa: E402  (the whole package, as the CLI imports it)
from spans import Tracer, Untraced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_DETAILS = 5


class Context:
    """What a workload's items report to: calls, counters, checks, failures."""

    def __init__(self, tracer):
        self.call = tracer.call
        self.count = tracer.count
        self.traced = tracer.enabled
        self.item = None
        self.wrong = []
        self.errors = []
        self.refused = []
        self.hasher = None

    def problems(self) -> int:
        return len(self.wrong) + len(self.errors) + len(self.refused)

    def check(self, ok, what):
        """Record a disagreement with the reference; the item fails."""
        if not ok:
            self.wrong.append(f"item {self.item}: {what}")

    def refuse(self, text, reason):
        """The program declined the item itself, as its CLI would exit 1."""
        self.refused.append((text, reason))

    def digest(self, text):
        """Fold one canonical output text into the run's digest."""
        if self.hasher is None:
            self.hasher = hashlib.sha256()
        self.hasher.update(text.encode())
        self.hasher.update(b"\n")


def measure(workload, items, tracer):
    ctx = Context(tracer)
    latencies = []
    failed = 0
    clock, mark = SPEED.clock, SPEED.mark
    first = mark()
    start = clock()
    for i, x in enumerate(items):
        tracer.begin_item(i)
        ctx.item = i
        before = ctx.problems()
        m0, t0 = mark(), clock()
        try:
            tracer.call("bench.item", workload.run, ctx, x)
        except Exception:
            ctx.errors.append(f"item {i}: {traceback.format_exc(limit=3)}")
        latencies.append((clock() - t0, m0, mark()))
        failed += ctx.problems() != before
    verdict = clock() - start
    scale = SPEED.scale(first, mark())
    out = {
        "verdict_s": verdict * scale,
        "raw_verdict_s": verdict,
        "scale": scale,
        "item_s": [t * SPEED.scale(m0, m1) for t, m0, m1 in latencies],
        "attempted": len(items),
        "failed": failed,
        "wrong": len(ctx.wrong),
        "errors": len(ctx.errors),
        "details": (ctx.wrong + ctx.errors)[:MAX_DETAILS],
        "refused": len(ctx.refused),
        "first_refused": ctx.refused[0] if ctx.refused else None,
        "digest": ctx.hasher and ctx.hasher.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer.enabled:
        out["layers"] = tracer.layers(scale)
        out["counts"] = dict(tracer.counts)
        out["spans"] = tracer.spans
    return out


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    if not os.path.abspath(circleops.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"circleops was imported from {circleops.__file__}, not {SRC}")
    workload = WORKLOADS[name]
    items = workload.inputs(seed)
    result = {"ready": time.monotonic(), "setup_calib_s": SPEED.spent,
              "setup_scale": SPEED.scale(0, SPEED.mark()),
              "seeded": workload.seeded, "why": " ".join(workload.__doc__.split())}
    if mode != "setup":
        tracer = Tracer(SPEED.clock) if mode == "traced" else Untraced()
        result.update(measure(workload, items, tracer))
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    finally:
        SPEED.stop()
