"""mlfunc benchmark: one seeded workload per call, outputs checked.

    python3 perfbench/run.py --workload eval-mix|certify|matrix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; mlfunc is imported from its ``src``.  Each
call starts fresh single-threaded worker processes (BLAS/OpenMP threads
pinned to 1), prints a human-readable report, writes the full result with
the environment record to perfbench/out/, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; set-up is timed in several fresh
processes and the median reported.  One untimed set-up runs first, so every
timed one reads the bytecode cache of src/mlfunc that it leaves.  --trace 1
spends half of --seconds on untraced passes and half on traced ones, reports
the per-layer metrics and writes the spans to perfbench/out/.  See
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("eval-mix", "certify", "matrix")
SETUP_SAMPLES = 5         # set-ups timed per run; the median is setup_s
# time allowed beyond --seconds: the set-ups, the overshoot of the last pass
# and the references, which the worker computes after its timed passes
RUN_MARGIN_S = 140.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# unset for the workers, so that bytecode is always cached, and in src/
UNSET_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "returned_frac": "frac",
    "check_pass_frac": "frac",
}


class BenchError(RuntimeError):
    pass


def spawn_worker(args, deadline: float, extra=()) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra, "--spawned-at", repr(time.monotonic())]
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def measure(args) -> dict:
    deadline = time.monotonic() + args.seconds + RUN_MARGIN_S
    # untimed: writes (or refreshes) the bytecode cache the timed set-ups read
    spawn_worker(args, deadline, ["--setup-only"])
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn_worker(args, deadline, ["--setup-only"])["setup_s"])
    extra = ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.json")] \
        if args.trace else []
    res = spawn_worker(args, deadline, extra)
    setups.append(res["setup_s"])
    res["setup_samples"] = setups
    res["setup_s"] = statistics.median(setups)
    res["returned_frac"] = 1.0 - res["failed"] / res["attempted"]
    res["check_pass_frac"] = 1.0 - res["wrong"] / res["checked"] if res["checked"] else 0.0
    return res


def report(args, res) -> list[str]:
    env = res["env"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        f"env: python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
        f"mpmath {env['mpmath']} (backend {env['mpmath_backend']})  nproc {env['nproc']}  "
        f"cpu {env['cpu']}  {threads}",
        f"setup_s      {res['setup_s']:.4f} s   median of {len(res['setup_samples'])} set-ups",
        f"wall_s       {res['wall_s']:.4f} s   median of {res['passes']} untraced passes",
        f"op_p50_ms    {res['op_p50_ms']:.4f} ms  over {res['ops']} ops (each the median over passes)",
        f"op_tail_ms   {res['op_tail_ms']:.4f} ms  p{res['tail_percentile']:.1f}, "
        f"{res['tail_beyond']} of {res['ops']} ops beyond",
        f"fail_frac    {res['failed'] / res['attempted']:.6f}    "
        f"{res['failed']} of {res['attempted']} operations raised",
        f"wrong_frac   {res['wrong_frac']:.6f}    {res['wrong']} of {res['checked']} checked "
        f"outputs fail their check; {res['unchecked']} unchecked; "
        f"{res['out_of_tol']} outside the requested tolerance",
        f"peak_rss_mb  {res['peak_rss_mb']:.1f} MB",
        f"info: {json.dumps(res['info'], sort_keys=True)}",
    ]
    for err in res["errors"]:
        lines.append(f"raised: {err}")
    if args.trace:
        layers = res["layers"]
        lines.append(f"traced passes {res['traced_passes']}, {res['spans']} spans; "
                     f"traced wall {layers['trace.wall_s']:.4f} s, overhead "
                     f"{layers['trace.overhead_frac']:+.3f}, top-level spans "
                     f"{layers['trace.root_span_s']:.4f} s per pass")
        lines += [f"  {name} = {value:.6g}" for name, value in layers.items()]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "mlfunc" / "__init__.py").is_file():
        print(f"error: no mlfunc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        res = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(res, indent=1, sort_keys=True))
    print("\n".join(report(args, res)))
    if args.trace:
        import tracing

        metrics = {k: {"value": res["layers"][k], "unit": unit}
                   for k, unit in tracing.PER_LAYER.items()}
    else:
        metrics = {k: {"value": res[k], "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
