#!/usr/bin/env python3
"""Run one workload of the mpicd benchmark and print its metrics.

    python3 perfbench/run.py --workload ddt_faces --seed 1 --seconds 10 --trace 0

Run from the repository root. The script builds the benchmark crate in
perfbench/ (release, offline) into $CARGO_TARGET_DIR (default
.bench_build), then runs the workload in fresh processes:

  --trace 0  twelve processes, each timing --seconds/12 in half-second
             windows; prints the end-to-end metrics (see combine()).
             setup_s is process start to the first timed op.
  --trace 1  one process alternating untraced and traced blocks for
             --seconds; prints the per-layer metrics.

Every metric is printed as `name value unit`, followed by the result as
one JSON line (the last line of standard output). Reports and span dumps
go to --out (default .perfbench_out). The script refuses to run while an
observability knob of the library is set in the environment.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("ddt_faces", "small_structs", "pickle_objects")
# Library observability knobs: any of them changes what is measured.
OBS_KNOBS = ("MPICD_TRACE", "MPICD_FLIGHT", "MPICD_TELEMETRY", "MPICD_HEALTH")
# Untraced processes per run (see combine()).
PROCESSES = 12
# Workloads whose processes each run on one CPU, taking the CPUs in turn.
# The two pickle_objects rank threads hand each op to the other and wait,
# so the work is serial. Spread over two vCPUs, every hand-off waits for
# the other vCPU, and the hypervisor taking either one stalls the op: at
# 30-48 % steal, unpinned processes fell from ~4700 to 1000-1700 MB/s.
# On one CPU the rank threads ran as fast (4500-4870 vs 4530-4710 MB/s at
# no steal), and only that CPU's steal can stall them.
ONE_CPU = {"pickle_objects"}
# Windowed metrics for which a higher value is better (see combine()).
HIGHER_BETTER = {"throughput_MBps"}
# Headroom per process beyond the measured seconds (setup and warmup).
CHILD_SLACK_S = 100
# glibc malloc settings of every benchmark process. By default glibc raises
# its mmap threshold the first time a large block is freed and gives each
# thread its own arena, so where the 128 KiB-4 MiB buffers live (fresh
# mmaps that fault on every touch, or reused heap) depends on the order of
# the first frees: the same seed then ran at ~3000 or ~4500 MB/s on
# pickle_objects from one process to the next. Fixed thresholds and one
# arena make every process start from the same allocator behaviour.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.trim_threshold=1073741824:"
                   "glibc.malloc.arena_max=1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Build the benchmark binary; return its path."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    binary = ROOT / env["CARGO_TARGET_DIR"] / "release" / "mpicd-perfbench"
    if not binary.is_file():
        fail(f"built binary not found at {binary}")
    return binary


def launch(binary, args, timeout_s, cpu=None):
    """Run one benchmark process, on CPU `cpu` only if one is given.
    Returns (seconds from start to its `ready` line, its JSON result)."""
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(binary), *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, preexec_fn=pin)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    ready_s, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("ready ") and ready_s is None:
                ready_s = time.perf_counter() - t0
            elif line.startswith("{"):
                result = json.loads(line)
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if proc.returncode != 0 or ready_s is None or result is None:
        fail(f"benchmark process {args[:1]} exited with {proc.returncode}")
    return ready_s, result


def combine(runs):
    """One result from several untraced processes.

    Throughput and op latencies are the best of the half-second windows of
    all processes. On a shared machine, neighbours slow the program down
    for seconds to minutes at a time, sometimes for a whole run; each
    window averages hundreds of ops or more, and the best one reports the
    program's own speed. setup_s is the better quartile over the
    processes, the other metrics the median over the processes; counts are
    summed."""
    results = [r for _, r in runs]
    windows = {key: [v for r in results for v in r["info"]["windows"][key]]
               for key in results[0]["info"]["windows"]}
    metrics = {}
    for key, m in results[0]["metrics"].items():
        if key in windows:
            best = max if key in HIGHER_BETTER else min
            value = best(windows[key])
        else:
            value = statistics.median(r["metrics"][key]["value"] for r in results)
        metrics[key] = {"value": value, "unit": m["unit"]}
    setup = [s for s, _ in runs]
    metrics["setup_s"] = {"value": statistics.quantiles(setup, n=4)[0], "unit": "s"}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    info = dict(results[0]["info"])
    for key in ("timed_blocks", "timed_ops", "latency_samples"):
        info[key] = sum(r["info"][key] for r in results)
    info["timed_wall_s"] = sum(r["info"]["timed_wall_s"] for r in results)
    info["failed_op_share"] = failed / attempted
    info["min_latency_samples_per_process"] = min(r["info"]["latency_samples"] for r in results)
    info["processes"] = len(runs)
    info["windows"] = windows
    info["setup_samples_s"] = setup
    info["per_process"] = [r["metrics"] for r in results]
    info["steal_share"] = [r["info"]["steal_share"] for r in results]
    return {"correct": all(r["correct"] for r in results), "attempted": attempted,
            "failed": failed, "metrics": metrics, "info": info}


def environment():
    mpicd = {k: v for k, v in sorted(os.environ.items()) if k.startswith("MPICD_")}
    return {"nproc": len(os.sched_getaffinity(0)), "MPICD": mpicd,
            "GLIBC_TUNABLES": MALLOC_TUNABLES}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".perfbench_out", help="directory for reports and span dumps")
    a = ap.parse_args()
    if a.seconds <= 0:
        fail("--seconds must be positive", 2)

    env = environment()
    knobs = [k for k in env["MPICD"] if k.startswith(OBS_KNOBS)]
    if knobs:
        fail(f"refusing to measure with observability knobs set: {', '.join(knobs)}", 2)

    binary = build()
    out = ROOT / a.out
    out.mkdir(parents=True, exist_ok=True)
    base = [a.workload, "--seed", str(a.seed)]
    timeout = a.seconds + CHILD_SLACK_S
    cpus = sorted(os.sched_getaffinity(0))
    pins = [cpus[k % len(cpus)] if a.workload in ONE_CPU else None for k in range(PROCESSES)]

    if a.trace:
        spans = out / f"spans-{a.workload}-seed{a.seed}.csv"
        args = ["--seconds", repr(a.seconds), "--trace", "1", "--span-csv", str(spans)]
        _, res = launch(binary, base + args, timeout, pins[0])
        res["info"]["processes"] = 1
    else:
        args = ["--seconds", repr(a.seconds / PROCESSES), "--trace", "0"]
        runs = [launch(binary, base + args, timeout, cpu) for cpu in pins]
        res = combine(runs)
    info = res["info"]
    info["cpu_per_process"] = pins
    info.update(env)
    report = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace, **res}
    name = out / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    name.write_text(json.dumps(report, indent=1) + "\n")

    for key, m in res["metrics"].items():
        print(f"{key:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_op_share':44s} {info['failed_op_share']:>14.6g} share")
    if not a.trace:
        print(f"{'latency_samples':44s} {info['latency_samples']:>14d} count")
    print(f"nproc={env['nproc']} MPICD={env['MPICD']} digest={info['digest']} "
          f"steal_share={info['steal_share']} report={name}")
    final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))


if __name__ == "__main__":
    main()
