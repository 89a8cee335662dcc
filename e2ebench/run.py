#!/usr/bin/env python3
"""End-to-end benchmark of the tuned-barrier pipeline and the tune service.

    python3 e2ebench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `e2ebench` binary (release,
offline) into $CARGO_TARGET_DIR, or e2ebench/target when it is unset,
then starts it:

  --trace 0  one untraced process; prints every end-to-end metric.
  --trace 1  one process that alternates traced and untraced work (the
             per-layer numbers and the tracing overhead) and, for the
             pipeline workloads, one traced process with the thread pool
             at one thread (the parallel speedup of each layer); prints
             every per-layer metric. Spans go to .bench_trace/.

The metric names and units come from BENCHMARK.json. A per-layer metric
of a layer the workload does not run reads 0. The last line of stdout is
the JSON result; everything else goes to stderr.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
PIPELINES = ("pipeline-4096", "paper-64")
WORKLOADS = PIPELINES + ("serve-zipf",)
PARALLEL_LAYERS = ("classify", "measure", "scatter", "compose", "simulate")
# Whole-run limit is 180 s; the first run of a checkout may also build.
PROCESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    binary = target / "release" / "e2ebench"
    if not binary.is_file():
        fail(f"no binary at {binary}")
    return binary


def measure(binary, args, mode, threads, spans=None):
    """Runs one benchmark process and returns its parsed result line."""
    cmd = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, RAYON_NUM_THREADS=str(threads))
    try:
        done = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, timeout=PROCESS_TIMEOUT_S, text=True
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{mode} run failed: {e}")
    if done.returncode != 0:
        fail(f"{mode} run exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{mode} run printed nothing")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC}: {e}")

    binary = build()
    nproc = len(os.sched_getaffinity(0))
    runs = []
    if args.trace == 0:
        runs.append(measure(binary, args, "plain", nproc))
        names = spec["end_to_end"]
        got = runs[0]["metrics"]
    else:
        stem = f".bench_trace/{args.workload}-seed{args.seed}"
        runs.append(measure(binary, args, "alternate", nproc, f"{stem}-alternate.jsonl"))
        got = dict(runs[0]["metrics"])
        if args.workload in PIPELINES:
            runs.append(measure(binary, args, "traced", 1, f"{stem}-1thread.jsonl"))
            single = runs[1]["metrics"]
            for layer in PARALLEL_LAYERS:
                key = f"{layer}.busy_s"
                if got[key] > 0:
                    got[f"{layer}.parallel_speedup"] = single[key] / got[key]
        names = spec["per_layer"]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    got["failed_frac"] = failed / attempted
    metrics = {}
    for m in names:
        value = got.get(m["name"])
        if value is None:
            if args.trace == 0:
                fail(f"end-to-end metric {m['name']} was not measured")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
