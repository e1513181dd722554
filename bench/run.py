"""Benchmark of blockalg: one workload per process.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; blockalg is imported from ./src.
The workload's set-up (building specs, enumerating windows, parsing the
generated literals) is timed once, cold, from the start of this script.
Then whole rounds of the workload's fixed operations run until --seconds
have passed and at least MIN_OPS operations have run.  Only calls into
blockalg are inside the timed sections; every output is checked right after
its operation, untimed.

Times are reported at a reference machine speed.  The machine this was built
on (2 vCPUs shared with other tenants) runs the same pure-Python work up to
~40% slower for seconds at a time, with CPU time tracking wall time, so raw
times of identical runs differ by more than any useful bound.  After every
operation a fixed piece of calibration work (reference.calibration_work)
runs, untimed; each operation's time is divided by the median calibration
time around it and multiplied by CAL_REF_S.  Program changes cannot move the
calibration work, so a faster program still reads faster.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones, from rounds that alternate between
untraced and traced so that the tracing overhead is measured in the same
process.  Results (and the spans of a traced run) are also written under
bench/out/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402  (this directory is on sys.path when run as a script)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("jacobi_levels", "closure_probe", "maps_iso")
MIN_OPS = 40  # so that op_p50_ms is the median of a real sample
CAL_REF_S = 0.5e-3  # the calibration work's time at the reference speed
CAL_EVERY_S = 0.05  # one calibration sample per this much op time
LOCAL_SAMPLES = 9
SETUP_SAMPLES = 50
# tracer counters that are not per-layer metrics of their own
UNREPORTED = ("probe_brackets", "isomorphism.moduli_key.calls")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(msg: str) -> int:
    print(f"bench: error: {msg}", file=sys.stderr)
    return 2


def speed(n: int) -> list[float]:
    """Time n runs of the calibration work, in units of CAL_REF_S."""
    out = []
    for _ in range(n):
        t = time.perf_counter()
        reference.calibration_work()
        out.append((time.perf_counter() - t) / CAL_REF_S)
    return out


def local_slowness(samples: list[list[float]], k: int) -> float:
    """Median calibration sample around op k: its own samples and its
    neighbours', widening until there are at least LOCAL_SAMPLES."""
    near = list(samples[k])
    lo, hi = k - 1, k + 1
    while len(near) < LOCAL_SAMPLES and (lo >= 0 or hi < len(samples)):
        if lo >= 0:
            near += samples[lo]
        if hi < len(samples):
            near += samples[hi]
        lo, hi = lo - 1, hi + 1
    return statistics.median(near)


def run_round(ops, tracer=None):
    """One pass over ops: (each op's time at reference speed, failed ops,
    the round's median calibration sample).

    After each op the calibration work runs once per CAL_EVERY_S of the op's
    time (at least once).  Each op's time is divided by the median of the
    calibration samples taken around it.
    """
    times, samples, failed = [], [], 0
    for op in ops:
        ok = False
        t = time.perf_counter()
        try:
            res = op.run() if tracer is None else tracer.call("op." + op.kind, op.run)
            dt = time.perf_counter() - t
            ok = op.check(res)
        except Exception:  # a crash in the program is a failed operation
            dt = time.perf_counter() - t
            traceback.print_exc(file=sys.stderr)
        times.append(dt)
        failed += not ok
        samples.append(speed(1 + int(dt / CAL_EVERY_S)))
    normalized = [t / local_slowness(samples, k) for k, t in enumerate(times)]
    return normalized, failed, statistics.median(s for near in samples for s in near)


def measure(ops, seconds: float):
    """Whole rounds until `seconds` have passed and MIN_OPS ops have run.

    Returns (attempted, failed, per-round times of each op).
    """
    per_op = [[] for _ in ops]
    attempted, failed = 0, 0
    start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - start < seconds:
        times, f, _ = run_round(ops)
        for acc, t in zip(per_op, times):
            acc.append(t)
        attempted += len(ops)
        failed += f
    return attempted, failed, per_op


def summarize(per_op):
    """(median round time, median over ops of each op's median time)."""
    rounds = [sum(r) for r in zip(*per_op)]
    return statistics.median(rounds), statistics.median(statistics.median(t) for t in per_op)


def measure_traced(ops, seconds: float, tracer, setup_counts):
    """Alternate untraced and traced rounds.  Per-layer figures are the
    set-up's plus one traced round's (the mean over the traced rounds);
    self times are scaled to reference speed like every other time."""
    plain = [[] for _ in ops]
    traced = [[] for _ in ops]
    attempted, failed, n = 0, 0, 0
    totals = dict.fromkeys(setup_counts, 0)
    start = time.perf_counter()
    while n == 0 or time.perf_counter() - start < seconds:
        tracer.uninstall()
        times, f, _ = run_round(ops)
        for acc, t in zip(plain, times):
            acc.append(t)
        tracer.install()
        before = tracer.snapshot()
        times, f2, slow = run_round(ops, tracer)
        after = tracer.snapshot()
        for acc, t in zip(traced, times):
            acc.append(t)
        for k in totals:
            totals[k] += (after[k] - before[k]) / (slow if k.endswith("_s") else 1)
        n += 1
        attempted += 2 * len(ops)
        failed += f + f2
    tracer.uninstall()
    probes = totals["harness.simplicity_probe.calls"]
    metrics = {}
    for name in totals:
        if name not in UNREPORTED:
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = {"value": setup_counts[name] + totals[name] / n, "unit": unit}
    metrics["harness.simplicity_probe.bracket_calls_per_probe"] = {
        "value": totals["probe_brackets"] / probes if probes else 0.0,
        "unit": "count/probe",
    }
    metrics["trace.overhead_s"] = {
        "value": summarize(traced)[0] - summarize(plain)[0], "unit": "s",
    }
    return attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blockalg" / "__init__.py").is_file():
        return fail(f"no blockalg sources under {SRC}; run from a source checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import blockalg

    if Path(blockalg.__file__).resolve().parent != (SRC / "blockalg").resolve():
        return fail(f"imported blockalg from {blockalg.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    wl = workloads.build(args.workload, args.seed)
    setup_raw = time.perf_counter() - T0
    speed(1)  # first call warms the calibration work
    setup_slow = statistics.median(speed(SETUP_SAMPLES))
    setup_s = setup_raw / setup_slow
    correct = all(check() for check in wl.setup_checks)

    if tracer is None:
        attempted, failed, per_op = measure(wl.ops, args.seconds)
        wall_s, op_p50_s = summarize(per_op)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_ms": {"value": op_p50_s * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        setup_counts = {
            k: v / setup_slow if k.endswith("_s") else v for k, v in tracer.snapshot().items()
        }
        attempted, failed, metrics = measure_traced(wl.ops, args.seconds, tracer, setup_counts)

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
