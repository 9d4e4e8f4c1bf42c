#!/usr/bin/env python3
"""Serving benchmark of the drw walk service: one command, three workloads.

    python3 perfbench/run.py --workload cold-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Builds the drw library, the `drw` CLI and the benchmark harness from the
sources of this checkout (into $CARGO_TARGET_DIR, default .bench_build),
runs the named workload with its frozen parameters from
perfbench/workloads.json, checks every output, and prints each metric by
name and unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out):
        out = os.path.join(ROOT, out)
    return os.path.join(out, "perfbench")


def build(targets):
    """Configures and builds (incrementally); output goes to stderr. Raises
    CalledProcessError when either step fails, e.g. without drw sources."""
    bdir = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(bdir, "Makefile")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", "4", "--target"] + targets,
                   check=True, stdout=sys.stderr)
    return bdir


def harness_args(bdir, workload, spec, args):
    work = os.path.join(os.path.dirname(bdir), "work",
                        "%s-%d-%d" % (workload, args.seed, args.trace))
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench_harness"),
           "--workload=" + workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--drw=" + os.path.join(bdir, "drw", "drw"), "--workdir=" + work]
    for key, value in spec["params"].items():
        cmd.append("--%s=%s" % (key, value))
    return cmd


def parse_result(stdout):
    for line in reversed(stdout.splitlines()):
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise RuntimeError("harness printed no RESULT line")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="timed window (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the validity checker's self-test")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    if args.self_test:
        bdir = build(["perfbench_selftest"])
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode

    if args.workload not in workloads:
        log("unknown workload %r (have: %s)" % (args.workload, ", ".join(workloads)))
        return 2
    started = time.monotonic()
    try:
        bdir = build(["perfbench_harness", "drw_cli"])
    except subprocess.CalledProcessError as e:
        log("build failed: %s" % " ".join(e.cmd))
        return 1
    left = max(30.0, RUN_TIMEOUT_S - (time.monotonic() - started))
    cmd = harness_args(bdir, args.workload, workloads[args.workload], args)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        log("harness timed out after %.0f s" % left)
        return 1
    lines = [l for l in proc.stdout.splitlines() if not l.startswith("RESULT ")]
    for line in lines:
        print(line)
    if proc.returncode != 0:
        log("harness exited with %d" % proc.returncode)
        return 1
    raw = parse_result(proc.stdout)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    absent = []
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None:
            if not args.trace:
                log("end-to-end metric %s was not measured" % m["name"])
                return 1
            # A layer this workload never enters did no work.
            absent.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    print("workload %s seed %d trace %d: attempted=%d failed=%d "
          "failed_frac=%.6g violations=%s" % (
              args.workload, args.seed, args.trace, attempted, failed,
              failed / attempted if attempted else 1.0,
              json.dumps(raw.get("reasons", {}))))
    for name, m in metrics.items():
        print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        # Latency is measured on every run but gated nowhere: on the host
        # the benchmark was defined on, its run-to-run spread exceeded any
        # bound the benchmark may set; sustained_rps is the offered rate
        # whenever the service keeps up (see README).
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name in sorted(raw["metrics"]):
            if name.startswith(("lat_", "samples.", "sustained_rps")):
                print("  %-40s %16.6g %s (not gated)" % (
                    name, raw["metrics"][name], units.get(name, "")))
    if absent:
        print("  (not entered by this workload, reported as 0: %s)" %
              " ".join(absent))
    result = {"correct": attempted >= 1 and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
