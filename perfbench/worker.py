"""One workload in a fresh process: set up, time passes, check outputs.

Run by run.py, never directly by hand:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --spawned-at T [--setup-only] [--spans PATH]

It imports mlfunc from the checkout's own ``src`` and refuses any other copy.
Set-up runs from T, the parent's time.monotonic() just before it started
this process (the clock is system-wide), until the inputs are ready.  The
last line it prints is one JSON object with the measurements.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TAIL_BEYOND = 10        # the tail percentile keeps this many samples above it


def tail_latency(samples):
    """(value, percentile, samples beyond) for the highest percentile that
    has at least TAIL_BEYOND samples above it.

    That is the (TAIL_BEYOND + 1)-th largest sample, at percentile
    100 * (n - TAIL_BEYOND) / n.  With fewer than 2 * TAIL_BEYOND samples
    that percentile would sit below the median, so the maximum is reported
    instead, with 0 samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


@dataclass
class PassLog:
    walls: list = field(default_factory=list)      # seconds per pass
    latency: list = field(default_factory=list)    # per pass, per op
    outputs: list = field(default_factory=list)    # per pass, per op; None if raised
    errors: list = field(default_factory=list)     # (pass, op label, message)

    @property
    def attempted(self) -> int:
        return sum(len(lat) for lat in self.latency)


def run_passes(ops, seconds: float, log=None) -> PassLog:
    """Run the op list in a closed loop, whole passes, until ``seconds``
    have gone by (at least one pass).  An op that raises is recorded as a
    failure and the pass goes on."""
    log = log or PassLog()
    t_begin = time.perf_counter()
    while True:
        latency, outputs = [], []
        t_pass = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # one failed call must not end the run
                out = None
                log.errors.append((len(log.walls), op.label, f"{type(exc).__name__}: {exc}"))
            latency.append(time.perf_counter() - t0)
            outputs.append(out)
        t_end = time.perf_counter()
        log.walls.append(t_end - t_pass)
        log.latency.append(latency)
        log.outputs.append(outputs)
        if t_end - t_begin >= seconds:
            return log


def score(checks_per_pass) -> dict:
    """Counts over every pass's checks; wrong_frac is wrong / checked."""
    checked = wrong = unchecked = out_of_tol = 0
    for checks in checks_per_pass:
        for c in checks:
            if c.ok is None:
                unchecked += 1
                continue
            checked += 1
            wrong += not c.ok
            out_of_tol += not (c.ok or c.within_tol)
    return {"checked": checked, "wrong": wrong, "unchecked": unchecked,
            "out_of_tol": out_of_tol,
            "wrong_frac": wrong / checked if checked else 0.0}


def op_latency(log: PassLog) -> dict:
    """Each op's latency is its median over the passes; p50 and the tail
    are taken over the ops."""
    per_op = [statistics.median(times) for times in zip(*log.latency)]
    tail, pct, beyond = tail_latency(per_op)
    return {"op_p50_ms": 1e3 * statistics.median(per_op), "op_tail_ms": 1e3 * tail,
            "tail_percentile": pct, "tail_beyond": beyond, "ops": len(per_op)}


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _import_mlfunc():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import mlfunc

    where = Path(mlfunc.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"mlfunc imported from {where}, not from {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    _import_mlfunc()
    import workloads

    wl = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    log = run_passes(wl.ops, budget)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"env": environment(), "setup_s": setup_s, "walls": list(log.walls),
              "passes": len(log.walls), "wall_s": statistics.median(log.walls),
              "peak_rss_mb": rss_mb}
    result.update(op_latency(log))

    if args.trace:
        import tracing

        traced = PassLog()
        with tracing.mlfunc_tracer() as tracer:
            run_passes(wl.ops, budget, log=traced)
        # per-layer values are per traced pass, so both walls are means
        traced_wall = statistics.fmean(traced.walls)
        layers = tracing.span_metrics(tracer.totals(), len(traced.walls))
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_frac"] = traced_wall / statistics.fmean(log.walls) - 1.0
        result.update(layers=layers, traced_passes=len(traced.walls),
                      spans=len(tracer))
        if args.spans:
            tracer.dump(args.spans)
        for name in ("walls", "latency", "outputs", "errors"):
            getattr(log, name).extend(getattr(traced, name))

    counts = score(wl.check(outputs) for outputs in log.outputs)
    result.update(counts)
    result.update(
        attempted=log.attempted,
        failed=len(log.errors),
        correct=counts["out_of_tol"] == 0,
        errors=log.errors[:20],
        info=wl.info(log.outputs[0]),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
