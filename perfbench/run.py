#!/usr/bin/env python3
"""The repository benchmark: host speed of the HFI simulator.

Run from the repository root:

    python3 perfbench/run.py --workload cpu-figures --seed 1 --seconds 25 --trace 0

``--trace 0`` times untraced passes and reports the end-to-end metrics;
``--trace 1`` first runs the untraced benchmark in a child process (for
the tracing overhead), then wraps every layer boundary in this process
and reports the per-layer metrics.  Both print one line per metric
(name, value, unit) and end with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Host times are reported in reference seconds: a calibration kernel
(``hostspeed.py``) is timed between cells and the work time is divided
by how much slower than its reference speed the kernel ran.

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "src"))
#: Extra processes that repeat imports + input building, so setup_s is
#: a median rather than one sample.
SETUP_SAMPLES = 4
#: Calibration time as a share of work time (see ``hostspeed.py``), and
#: the chunks timed right after set-up to scale ``setup_s``.
CALIBRATION_SHARE = 0.1
SETUP_CHUNKS = 25
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s",
                    "sim_kops_per_s": "kop/s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child(args, *extra):
    """Run this script in a child process; returns its last JSON line."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def emit(name, value, unit):
    print(f"  {name:<46} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    untraced = None
    if args.trace:
        untraced = child(args, "--trace", "0")
    sys.path.insert(0, SRC)
    recorder = None
    if args.trace:
        import layers
        recorder = layers.Recorder()
        layers.install(recorder)
    import cells
    import hostspeed
    try:
        inputs = cells.build(args.workload, args.seed)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - _START
    speed = hostspeed.HostSpeed(share=CALIBRATION_SHARE)
    hostspeed.chunk()   # warm the kernel's code before timing it
    speed.measure(SETUP_CHUNKS)
    setups = [setup_s / speed.factor]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(child(args, "--setup-only")["setup_s"])
    cells.compute_oracle(inputs)

    def one_pass():
        gc.collect()    # every pass starts from the same heap state
        return cells.run_pass(inputs, speed)

    # The first pass fills caches and allocator arenas; it is checked
    # but not timed.  At least two timed passes follow, then more while
    # another one still ends within --seconds of the first.
    run_start = time.perf_counter()
    warmup = one_pass()
    if recorder is not None:
        recorder.reset()
    passes = []
    while True:
        pass_start = time.perf_counter()
        passes.append(one_pass())
        now = time.perf_counter()
        if (len(passes) >= 2
                and now - run_start + (now - pass_start) > args.seconds):
            break

    checked = [warmup] + passes
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    digests = sorted({p.digest for p in checked})
    first = passes[0]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(checked)} passes, {attempted} operations, {failed} failed")
    print(f"  pass wall_s: ({warmup.wall_s:.4f}) "
          + " ".join(f"{p.wall_s:.4f}" for p in passes))
    print(f"  host slowness: ({warmup.speed:.4f}) "
          + " ".join(f"{p.speed:.4f}" for p in passes))
    print(f"  sim_digest {digests[0]}"
          + (" (stable across passes)" if len(digests) == 1
             else f" MISMATCH across passes: {digests}"))
    if first.paper_err_pct is not None:
        emit("paper_err_pct", first.paper_err_pct, "%")
    if inputs.requests:
        print(f"  offered load: label {inputs.load_label} "
              f"measured {inputs.load_measured:.5f}")
        emit("shed_ratio", first.shed_ratio, "ratio")
    else:
        emit("instantiate_share",
             100 * statistics.median(p.instantiate_s / p.wall_s
                                     for p in passes), "% of wall_s")

    if recorder is None:
        emit("host_wall_s", statistics.median(p.wall_s for p in passes),
             "s (not scaled)")
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p.ref_wall_s for p in passes),
            "sim_kops_per_s": statistics.median(p.ref_sim_kops_per_s
                                                for p in passes),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            - hostspeed.footprint_mb,
        }
        units = END_TO_END_UNITS
    else:
        pass_s = sum(p.wall_s for p in passes) / len(passes)
        metrics = layers.per_layer(
            recorder, len(passes), pass_s,
            statistics.median(p.ref_wall_s for p in passes),
            untraced["metrics"]["wall_s"]["value"], first.paper_err_pct)
        units = layers.PER_LAYER_UNITS
        if not inputs.requests:
            compile_s = recorder.layers["wasm.compiler"].inclusive_s
            emit("compile_share", 100 * compile_s / len(passes) / pass_s,
                 "% of traced pass")
        print("end-to-end (untraced child):")
        for name, entry in untraced["metrics"].items():
            emit(name, entry["value"], entry["unit"])
        self_sum = sum(v for k, v in metrics.items()
                       if k.endswith("self_s") and not k.startswith("trace"))
        print(f"  layer self times + unattributed = "
              f"{self_sum + metrics['trace.unattributed_s']:.6f} s "
              f"(traced pass {pass_s:.6f} s)")
    print("metrics:")
    for name, value in metrics.items():
        emit(name, value, units[name])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
