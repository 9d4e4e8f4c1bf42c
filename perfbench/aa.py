#!/usr/bin/env python3
"""A/A stability tool for the serving benchmark.

    python3 perfbench/aa.py --runs 10 --sets 2
    python3 perfbench/aa.py --workloads cold-batch --runs 5 --sets 1 --trace 1

Runs the benchmark `--runs` times per set and workload on one build, seed
i = seed-base + i in every set, interleaving the sets (A B, then B A, ...)
so host drift hits both alike. For each metric it prints every set's
median, quartiles and spread (interquartile range / median), whether the
spread is within the metric's bound from BENCHMARK.json, and whether the
sets' medians agree within that bound. With --sets 1 it is the ten-seed
spread check of the benchmark's contract.

Counts that must repeat exactly for one seed are checked across sets:
rounds_per_walk and core.*.rounds on cold-batch, core.phase1.prepares on
every workload (the last two need --trace 1 or both). Every traced run
must attribute Phase 1 soundly (core.phase1.unmatched = 0), and every
traced cold-batch run must have at least 90% of job wall time inside
Network::run (trace.attributed_frac) with Phase 1 above half of it
(core.phase1.share), hence the largest layer. With --trace both, each run
is made untraced and traced, and the tracing overhead is the difference in
cpu_ms_per_walk. Exit status 1 when any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_ALL = ("core.phase1.prepares",)
EXACT_COLD = ("rounds_per_walk", "core.phase1.rounds", "core.stitch.rounds",
              "core.tails_replenish.rounds", "core.regen.rounds")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, result


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="cold-batch,steady-mixed,live-paths")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    ap.add_argument("--values", action="store_true",
                    help="also print every run's value, in seed order")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    traces = {"0": (0,), "1": (1,), "both": (0, 1)}[args.trace]
    workloads = args.workloads.split(",")

    # data[workload][set][trace] = list of metric dicts, one per seed
    data = {w: [{t: [] for t in traces} for _ in range(args.sets)] for w in workloads}
    hosts = set()
    for i in range(args.runs):
        order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
        for s in order:
            for w in workloads:
                for t in traces:
                    m, _ = run_once(w, args.seed_base + i, seconds, t)
                    data[w][s][t].append(m)
                    if t == 1:
                        hosts.add((m.get("host.nproc"), m.get("host.width")))
                    print("run %d set %s %s trace %d done" % (i, "AB"[s], w, t),
                          file=sys.stderr, flush=True)

    ok = True
    print("A/A: %d run(s) per set, %d set(s), %d s per run, seeds %d..%d, trace %s"
          % (args.runs, args.sets, seconds, args.seed_base,
             args.seed_base + args.runs - 1, args.trace))
    if hosts:
        print("host (nproc, executor width): %s" % sorted(hosts))
    for w in workloads:
        for t in traces:
            names = sorted(data[w][0][t][0]) if t else [m["name"] for m in bench["end_to_end"]]
            print("\n== %s (trace %d)" % (w, t))
            head = "%-34s" % "metric"
            for s in range(args.sets):
                head += " | %s median [q1, q3] spread" % "AB"[s]
            print(head + (" | agree" if args.sets == 2 else ""))
            for name in names:
                meds = []
                line = "%-34s" % name
                bound = bounds.get(name) if t == 0 else None
                for s in range(args.sets):
                    vals = [m[name] for m in data[w][s][t]]
                    med, q1, q3, spread = summary(vals)
                    meds.append(med)
                    flag = ""
                    if bound is not None and spread > bound:
                        flag = " SPREAD>BOUND"
                        ok = False
                    line += " | %12.6g [%.6g, %.6g] %6.3f%s" % (med, q1, q3, spread, flag)
                    if args.values:
                        line += " {%s}" % " ".join("%.4g" % v for v in vals)
                if args.sets == 2 and bound is not None:
                    worse = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
                    better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                    if better == "higher":
                        worse = -worse
                    agree = abs(worse) <= bound
                    ok = ok and agree
                    line += " | %s (%+.3f of A, bound %.2f)" % (
                        "yes" if agree else "NO", worse, bound)
                print(line + ("  " + units.get(name, "") if t else ""))
            # Counts that must repeat exactly for one seed.
            if args.sets == 2:
                exact = EXACT_ALL + (EXACT_COLD if w == "cold-batch" else ())
                for name in exact:
                    if name not in data[w][0][t][0]:
                        continue
                    pairs = [(a[name], b[name]) for a, b in zip(data[w][0][t], data[w][1][t])]
                    differ = [i for i, (a, b) in enumerate(pairs) if a != b]
                    if differ:
                        print("FLAG %s did not repeat for seed(s) %s: %s" % (
                            name, [args.seed_base + i for i in differ],
                            [pairs[i] for i in differ]))
                    else:
                        print("exact %s repeated on all %d seeds" % (name, len(pairs)))
        if 1 in traces:
            runs = [m for s in data[w] for m in s[1]]
            bad = [m for m in runs if m["core.phase1.unmatched"] != 0]
            if w == "cold-batch":
                bad += [m for m in runs if m["trace.attributed_frac"] < 0.9
                        or m["core.phase1.share"] <= 0.5]
            ok = ok and not bad
            print("attribution on %s: %d traced run(s), %s" % (
                w, len(runs), "sound" if not bad else "FAILED on %d" % len(bad)))
            if w == "cold-batch":
                print("  attributed_frac min %.4f, phase1 share min %.4f" % (
                    min(m["trace.attributed_frac"] for m in runs),
                    min(m["core.phase1.share"] for m in runs)))
        if set(traces) == {0, 1}:
            plain = statistics.median(m["cpu_ms_per_walk"] for s in data[w] for m in s[0])
            traced = statistics.median(m["trace.cpu_ms_per_walk"] for s in data[w] for m in s[1])
            print("tracing overhead on %s: cpu_ms_per_walk %.6g untraced vs %.6g traced (%+.2f%%)"
                  % (w, plain, traced, 100.0 * (traced - plain) / plain))
    if 1 in traces and "cold-batch" in workloads and "live-paths" in workloads:
        def med(w, name):
            return statistics.median(m[name] for s in data[w] for m in s[1])
        cold = med("cold-batch", "core.phase1.ns_per_msg")
        live = med("live-paths", "setup.phase1.ns_per_msg")
        print("\nPhase 1 ns/msg: live-paths (trajectory writes) %.6g vs cold-batch "
              "(no writes) %.6g = %.2fx" % (live, cold, live / cold if cold else 0.0))
    print("\nA/A: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
