#!/usr/bin/env python3
"""Wall-clock benchmark of the distributed sparse kernels.

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the driver (Release) under .bench_build/; later runs only
rebuild what changed. One run executes one workload for S seconds in a
closed loop from one caller thread on p = 4 simulated ranks:

  er-train-step    FusedMM-A then FusedMM-B (local kernel fusion) on ER
                   32768^2, 32 nnz/row, r = 64, 1.5D dense shifting, c = 2
  rmat-compressed  FusedMM-A on R-MAT 65536^2, 16 nnz/row, r = 32, 2.5D
                   sparse replicating, c = 1, bf16 wire, Auto propagation
                   and index codec
  serve-topk       AlsServer top-k for 32 users (k = 10) on 16384 x 4096
                   ratings, 16 per user, rank 32, batch width 32

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs traced and untraced ops alternately and reports the per-layer
metrics and the tracing overhead. Every metric is printed by name with
its unit; the last line is one JSON object. The exit code is nonzero when
an op failed or disagreed with the reference, and no result is printed
when the program cannot be built or run.

The benchmark's own tests: python3 -m unittest discover -s wallbench
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402

WORKLOADS = ("er-train-step", "rmat-compressed", "serve-topk")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "wallbench",
                  "-j", jobs])
    # Compiler scratch files stay inside the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "wallbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(ROOT, ".bench_build", "wallbench")
    try:
        binary = build(build_dir)
    except (RuntimeError, OSError) as e:
        log("wallbench:", e)
        return 2

    out = os.path.join(build_dir, "raw-%s-%d-%d.json" % (
        args.workload, args.seed, args.trace))
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("wallbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    if code not in (0, 1) or not os.path.exists(out):
        log("wallbench: driver exited with code %d and no record" % code)
        return 2
    with open(out) as f:
        raw = json.load(f)
    stamp = raw["stamp"]
    if stamp["build_type"] != "Release":
        log("wallbench: refusing timings from a %s build" % stamp["build_type"])
        return 2

    record = metrics.result(raw, specs)
    metrics.check_result(record, specs)

    print("workload %s seed %d trace %d" % (args.workload, args.seed,
                                            args.trace))
    print("host nproc %d, last-level cache %d B; build %s, %s, native arch %s"
          % (stamp["nproc"], stamp["llc_bytes"], stamp["build_type"],
             stamp["compiler"], stamp["native_arch"]))
    ops = raw["ops_s"]
    pct, _ = metrics.tail(ops)
    print("ops timed %d (tail = p%.1f), traced %d; attempted %d, failed %d"
          % (len(ops), pct, len(raw["traced_ops_s"]), raw["attempted"],
             raw["failed"]))
    for failure in raw["failures"]:
        print("FAILED:", failure)
    lines = [("fail_ratio", metrics.fail_ratio(raw["attempted"],
                                               raw["failed"]), "ratio")]
    lines += [(name, entry["value"], entry["unit"])
              for name, entry in record["metrics"].items()]
    for line in lines:
        print("%-40s %.6g %s" % line)
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
