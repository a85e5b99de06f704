"""Time-to-verdict benchmark for circleops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (operad, categories, homology or render) for about S
seconds.  Each repetition runs in a fresh interpreter started by this one
process, one at a time, so the package's memo tables start empty every time,
as they do for every CLI call.  Inputs come from the seed (operad, render)
or from a fixed corpus (categories, homology); the package only ever sees the
generated inputs.  Every output is checked against a reference that does not
come from the code under test.

With --trace 0 the repetitions run untraced and the end-to-end metrics are
reported: setup_s, verdict_s, item_ms.p50, item_ms.tail and peak_rss_mb,
each the median over the run's repetitions.  Times are in reference
seconds, corrected for the host's speed while they were measured (see
hostspeed.py); the wall times are in the record beside them.  With
--trace 1, traced and untraced repetitions alternate and the per-layer
metrics are reported: the self time and calls of each span around the
benchmark's calls into the package, its size counters, and the tracing
overhead.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The run's full record (machine,
every repetition, failures, output digests) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
PACKAGE = os.path.join(ROOT, "src", "circleops", "__init__.py")

WORKLOADS = ("operad", "categories", "homology", "render")
MIN_REPS = 3
SETUP_PROBES = 10
HARD_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("item_ms.p50", "ms"),
    ("item_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)

# Span self times (.s), call counts (.calls) and counters the items record.
PER_LAYER = (
    ("circled.parse_config.s", "s"),
    ("circled.parse_config.calls", "count"),
    ("circled.parse_config.bytes", "byte"),
    ("circled.str.s", "s"),
    ("circled.enumerate_configs.s", "s"),
    ("circled.enumerate_configs.configs", "count"),
    ("operad_h.HOperation.s", "s"),
    ("operad_h.compose.s", "s"),
    ("operad_h.compose.calls", "count"),
    ("operad_h.sigma_act.s", "s"),
    ("operad_h.complexity.s", "s"),
    ("operad_h.complexity.calls", "count"),
    ("kgraph.k_compose.s", "s"),
    ("kgraph.k_leq.s", "s"),
    ("kgraph.k_enumerate.s", "s"),
    ("cattop.comma_below.s", "s"),
    ("cattop.comma_below.objects", "count"),
    ("cattop.comma_below.arrows", "count"),
    ("cattop.comma_below.table", "count"),
    ("cattop.deletion_functor.s", "s"),
    ("cattop.fiber_adjoint_report.s", "s"),
    ("cattop.fiber_adjoint_report.calls", "count"),
    ("cattop.nerve.s", "s"),
    ("cattop.nerve.chains", "count"),
    ("cattop.poset_category.s", "s"),
    ("cattop.poset_category.arrows", "count"),
    ("homology.homology.s", "s"),
    ("homology.homology.calls", "count"),
    ("homology.nnz", "count"),
    ("homology.rank", "count"),
    ("render.layout_config.s", "s"),
    ("render.clearance_violations.s", "s"),
    ("render.render_layout.s", "s"),
    ("render.curves", "count"),
    ("render.svg_bytes", "byte"),
    ("render.clearance_fail", "count"),
    ("bench.item.s", "s"),
    ("trace.verdict_s", "s"),
    ("trace.overhead_s", "s"),
)

# The layer each workload exists to stress; the traced run reports its share.
NAMED_LAYERS = {
    "operad": ("operad_h.compose",),
    "categories": ("cattop.comma_below", "cattop.fiber_adjoint_report"),
    "homology": ("homology.homology",),
    "render": ("render.clearance_violations",),
}


class RunError(RuntimeError):
    pass


def spawn(workload, seed, mode, deadline):
    """Run the worker once.

    Returns the set-up time in reference seconds, the wall time of the whole
    start, and the worker's record.
    """
    # A fixed hash seed gives every repetition of one input the same dict and
    # set orders, so repetitions do identical work; the worker finds the
    # package in this checkout's src/ and nowhere else.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} repetition did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    setup = (record["ready"] - start - record["setup_calib_s"]) * record["setup_scale"]
    return setup, time.monotonic() - start, record


def tail(latencies):
    """The highest percentile with at least ten samples beyond it.

    With ten items or fewer no percentile has, and the maximum is reported.
    Returns (value, percentile).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def git_sha():
    """The checked-out commit, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def run(workload, seed, seconds, traced):
    start = time.monotonic()
    hard = start + HARD_LIMIT_S
    # Untimed: the first import compiles the package's bytecode.
    spawn(workload, seed, "setup", hard)
    setups = [spawn(workload, seed, "setup", hard)[0] for _ in range(SETUP_PROBES)]
    measured_from = time.monotonic()
    deadline = measured_from + seconds
    reps = []
    longest = 0.0
    while len(reps) < MIN_REPS or time.monotonic() + longest <= deadline:
        mode = "traced" if traced and len(reps) % 2 == 0 else "untraced"
        setup, wall, record = spawn(workload, seed, mode, hard)
        setups.append(setup)
        longest = max(longest, wall)
        record["mode"] = mode
        reps.append(record)
    return setups, reps, time.monotonic() - measured_from


def end_to_end(setups, reps):
    # Every repetition runs the same items: an item's latency is its median
    # over the repetitions, and p50 and tail are taken over those.
    items = [statistics.median(ts) for ts in zip(*(r["item_s"] for r in reps))]
    tail_s, tail_pct = tail(items)
    return {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(r["verdict_s"] for r in reps),
        "item_ms.p50": 1000 * statistics.median(items),
        "item_ms.tail": 1000 * tail_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }, tail_pct


def per_layer(reps):
    traced = [r for r in reps if r["mode"] == "traced"]
    traced_verdict = statistics.median(r["verdict_s"] for r in traced)
    values = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span == "trace":
            continue
        if field in ("s", "calls"):
            samples = [r["layers"].get(span, {}).get(field, 0) for r in traced]
        else:
            samples = [r["counts"].get(name, 0) for r in traced]
        values[name] = statistics.median(samples)
    values["trace.verdict_s"] = traced_verdict
    values["trace.overhead_s"] = traced_verdict - statistics.median(
        r["verdict_s"] for r in reps if r["mode"] == "untraced")
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(PACKAGE):
        print(f"perfbench: no circleops sources at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        setups, reps, measured = run(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record = summarize(args, setups, reps, measured)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for n, r in enumerate(reps):
                for name, item, parent, t0, t1 in r.get("spans", ()):
                    fh.write(json.dumps({"rep": n, "item": item, "name": name,
                                         "parent": parent, "start": t0,
                                         "end": t1}) + "\n")
    report(record)
    return 0


def summarize(args, setups, reps, measured):
    """The run's full record; end-to-end figures come from untraced repetitions.

    Every repetition runs the same inputs, so attempted and failed count the
    distinct inputs of this seed, once; the repetitions must agree on them
    and on the output digest, or the run is not correct.  A count summed over
    repetitions would vary with how many fitted into the run.
    """
    attempted = reps[0]["attempted"]
    failed = reps[0]["failed"]
    outcomes = {(r["attempted"], r["failed"], r["digest"]) for r in reps}
    digests = list({r["digest"] for r in reps})
    plain = [r for r in reps if r["mode"] == "untraced"]
    e2e, tail_pct = end_to_end(setups, plain)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seed_used": reps[0]["seeded"], "why": reps[0]["why"],
        "seconds": args.seconds, "measured_s": measured, "trace": args.trace,
        "machine": machine(), "load": "one process, one thread; repetitions "
        "run one at a time, each in a fresh interpreter",
        "correct": all(r["wrong"] == 0 and r["errors"] == 0 for r in reps)
        and len(outcomes) == 1,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "items_per_rep": attempted, "tail_percentile": tail_pct,
        "output_digests": digests,
        "first_failing_input": next(
            (r["first_refused"] for r in reps if r["first_refused"]), None),
        "check_failures": [d for r in reps for d in r["details"]],
        "setup_samples": setups,
        "reps": [{k: v for k, v in r.items() if k not in ("item_s", "spans")}
                 for r in reps],
        "end_to_end": e2e,
        "raw_verdict_s": statistics.median(r["raw_verdict_s"] for r in plain),
        "host_scale": statistics.median(r["scale"] for r in plain),
    }
    if args.trace:
        layers = per_layer(reps)
        named = NAMED_LAYERS[args.workload]
        record["per_layer"] = layers
        record["named_layers"] = named
        record["named_layer_share"] = (
            sum(layers[f"{n}.s"] for n in named) / layers["trace.verdict_s"])
    return record


def report(record):
    """Human-readable lines, then the JSON result as the last line."""
    traced = record["trace"]
    shown = record["per_layer"] if traced else record["end_to_end"]
    units = dict(END_TO_END + PER_LAYER)
    m = record["machine"]
    seed_note = ("inputs drawn from the seed" if record["seed_used"]
                 else "fixed corpus, the seed is not used")
    print(f"workload {record['workload']}, seed {record['seed']} ({seed_note}); "
          f"{len(record['reps'])} repetitions of {record['items_per_rep']} items"
          f" in {record['measured_s']:.1f} s")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} "
          f"python={m['python']} git={m['git_sha']}")
    for name, value in shown.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    print(f"  {'fail_ratio':36s} {record['fail_ratio']:14.6f}"
          f" ({record['failed']} failed of {record['attempted']} attempted)")
    if traced:
        print(f"  share of traced verdict_s in {' + '.join(record['named_layers'])}:"
              f" {record['named_layer_share']:.3f}")
    else:
        print(f"  item_ms.tail is p{record['tail_percentile']:.2f} of"
              f" {record['items_per_rep']} items per repetition")
        print(f"  times are reference seconds: median wall verdict"
              f" {record['raw_verdict_s']:.6f} s at host-speed scale"
              f" {record['host_scale']:.4f}")
    digests = record["output_digests"]
    if digests != [None]:
        print(f"  output digest {digests[0] if len(digests) == 1 else digests}")
    if record["first_failing_input"]:
        text, reason = record["first_failing_input"]
        print(f"  first failing input: {text}  ({reason})")
    for detail in record["check_failures"]:
        print(f"  check failed: {detail}")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
