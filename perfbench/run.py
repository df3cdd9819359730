#!/usr/bin/env python3
"""Simulator benchmark: CPU cost of one simulated deployment per workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload geobft-wan --seed 1 --seconds 25 --trace 0

Builds perfbench/bench.exe with dune, then runs the workload's scenario
in one fresh process per repetition (one domain, one workload at a
time) and prints a summary followed, as the last line, by one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0  repeats untraced runs until --seconds have passed (at least
           three) and reports the end-to-end metrics: cpu_s as the
           least over the repetitions, the others as medians.
--trace 1  runs the workload once untraced, once untraced under a
           1 kHz SIGPROF sampler rolled up by library, then once with
           the summary tracer followed by unit-cost probes into each
           layer, and reports the per-layer metrics.

A repetition fails when its process fails, a ledger does not verify,
the live replicas' ledgers disagree, the chaos monitor reports a
violation, a percentile lacks its 1,000 samples, or its simulated
results differ from the first repetition's (traced runs included).
perfbench/README.md explains each workload and metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")

# Scenario ids in Scenario.of_string syntax; {seed} is the config seed.
WORKLOADS = {
    "geobft-wan": {
        "scenario": "geobft z4 n7 b100 i64 seed{seed} w500+1500",
    },
    "pbft-dense": {
        "scenario": "pbft z4 n7 b100 i64 seed{seed} w1000+3000",
    },
    # pbft rather than geobft: geobft's throughput, and so the disk work
    # per run, moves with the seed by up to a quarter; pbft's by 2%.
    "pbft-rw-disk": {
        "scenario": "pbft z2 n4 b50 i16 seed{seed} w300+1500 reads=0.5 scans=0.1 storage=disk",
        "disk": True,
        "reads": True,
    },
    # bench.exe plans the fault timeline under config seed 1 and chaos
    # seed 1, and replays it under every workload seed.
    "pbft-chaos": {
        "scenario": "pbft z4 n4 b50 i16 seed{seed} w1000+5000 fault=chaos:1",
    },
}

MIN_REPS = 3
MAX_REPS = 40
MIN_SAMPLES = 1000  # completed batches a p99 needs
REP_TIMEOUT_S = 150

LIBS = [
    "sim", "crypto", "storage", "prng", "ycsb", "types", "fabric", "ledger",
    "trace", "pbft", "geobft", "recovery", "chaos", "adversary", "experiments",
]
PHASES = ["prepare", "commit", "certify-share", "execute"]
PROBE_UNITS = {
    "sim.event_ns": "ns",
    "sim.multicast_ns_per_dst": "ns",
    "crypto.sha256_us_per_batch": "us",
    "storage.kv_write_us_per_batch": "us",
    "storage.kv_scan_us_per_batch": "us",
    "storage.log_block_us": "us",
    "storage.snapshot_ms": "ms",
    "storage.table_init_ms": "ms",
}


def fail_setup(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail_setup("no dune project with lib/ at " + ROOT + "; run from a source checkout")
    if shutil.which("dune") is None:
        fail_setup("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--display", "quiet", "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout)
        fail_setup("build failed")


def host_steal_s():
    """Hypervisor steal time summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Rep:
    """One process run of the workload: its JSON record, or why it failed."""

    def __init__(self, data, error):
        self.data = data
        self.error = error

    def simulated(self):
        """Everything the simulation decided: identical on every run of a seed."""
        report = {k: v for k, v in self.data["report"].items() if k != "trace"}
        keys = ["events", "msgs_local", "msgs_global", "bytes_local", "bytes_global",
                "msgs_dropped"]
        return json.dumps([report, [self.data[k] for k in keys]], sort_keys=True)


def run_rep(name, seed, index, extra=()):
    spec = WORKLOADS[name]
    work = os.path.join(WORK_DIR, "%s-%d" % (name, index))
    os.makedirs(work)
    cmd = [EXE, "--scenario", spec["scenario"].format(seed=seed)]
    if spec.get("disk"):
        cmd += ["--store-dir", os.path.join(work, "store")]
    cmd += [a.format(work=work) for a in extra]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Rep(None, "timed out after %d s" % REP_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if p.returncode != 0:
        return Rep(None, "exit %d: %s" % (p.returncode, p.stderr.strip()[-2000:]))
    try:
        data = json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return Rep(None, "unparsable output")
    return Rep(data, check(name, data))


def read_batches(r):
    """Completed read-only batches: the read-latency sample count."""
    return (r["read_txns"] + r["scan_txns"]) // r["batch_size"]


def check(name, d):
    """The output checks of one run; None when all pass."""
    r = d["report"]
    if not d["ledgers_verified"]:
        return "a replica's ledger does not verify"
    if not d["agreement"]:
        return "the live replicas' ledgers disagree"
    if d["violation"] is not None:
        return "chaos monitor: " + d["violation"]
    if r["completed_batches"] < MIN_SAMPLES:
        return "p99 from %d samples (< %d)" % (r["completed_batches"], MIN_SAMPLES)
    if WORKLOADS[name].get("reads") and read_batches(r) < MIN_SAMPLES:
        return "read p99 from %d samples (< %d)" % (read_batches(r), MIN_SAMPLES)
    return None


def settle(reps):
    """Fail every repetition whose simulated results differ from the first's."""
    good = [r for r in reps if r.data is not None]
    for r in good[1:]:
        if r.error is None and r.simulated() != good[0].simulated():
            r.error = "simulated results differ from the first run's"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ok):
    """cpu_s is the least over the repetitions: they do identical work,
    and co-tenant contention on a shared host only ever adds CPU time."""
    rep = ok[0]["report"]
    return {
        "cpu_s": metric(min(d["cpu_s"] for d in ok), "s"),
        "setup_s": metric(statistics.median(d["setup_cpu_s"] for d in ok), "s"),
        "peak_rss_mb": metric(statistics.median(d["vmhwm_kb"] for d in ok) / 1024.0, "MB"),
        "throughput_txn_s": metric(rep["throughput_txn_s"], "txn/s"),
        "p50_latency_ms": metric(rep["p50_latency_ms"], "ms"),
        "p99_latency_ms": metric(rep["p99_latency_ms"], "ms"),
    }


def per_layer(a, s, b, host):
    """Counts, GC and CPU ratios from the plain untraced run [a], library
    shares from the sampled untraced run [s], phases and unit costs from
    the traced run [b]."""
    r = a["report"]
    dec = max(r["decisions"], 1)
    m = {
        "gc.minor_mwords": metric(a["gc_minor_words"] / 1e6, "Mword"),
        "gc.major_mwords": metric(a["gc_major_words"] / 1e6, "Mword"),
        "gc.major_collections": metric(a["gc_major_collections"], "count"),
        "sim.events": metric(a["events"], "count"),
        "sim.events_per_cpu_s": metric(a["events"] / a["cpu_s"], "1/s"),
        "sim.msgs_local": metric(a["msgs_local"], "count"),
        "sim.msgs_global": metric(a["msgs_global"], "count"),
        "sim.mb_global": metric(a["bytes_global"] / 1e6, "MB"),
        "sim.msgs_dropped": metric(a["msgs_dropped"], "count"),
        "storage.disk_mb_written": metric(a["wchar_bytes"] / 1e6, "MB"),
        "proto.decisions": metric(r["decisions"], "count"),
        "proto.local_msgs_per_decision": metric(r["local_msgs"] / dec, "count"),
        "proto.global_msgs_per_decision": metric(r["global_msgs"] / dec, "count"),
        "proto.completed_batches": metric(r["completed_batches"], "count"),
        "proto.read_batches": metric(read_batches(r), "count"),
        "read_p99_latency_ms": metric(r["read_p99_latency_ms"], "ms"),
        "recovery.view_changes": metric(r["view_changes"], "count"),
        "recovery.state_transfers": metric(r["state_transfers"], "count"),
        "recovery.holes_filled": metric(r["holes_filled"], "count"),
        "recovery.retransmissions": metric(r["retransmissions"], "count"),
        "trace.overhead_pct": metric((b["cpu_s"] / a["cpu_s"] - 1.0) * 100.0, "%"),
        "host.wall_s": metric(host["wall_s"], "s"),
        "host.steal_s": metric(host["steal_s"], "s"),
    }
    for name, unit in PROBE_UNITS.items():
        m[name] = metric(b["probes"][name], unit)
    phases = {row["phase"]: row["avg_ms"] for row in b["report"]["trace"]["phases"]}
    for p in PHASES:
        m["phase.%s_avg_ms" % p] = metric(phases.get(p, 0.0), "ms")
    total = max(s["sample_total"], 1)
    for lib in LIBS:
        m["self.%s_pct" % lib] = metric(100.0 * s["samples"].get(lib, 0) / total, "%")
    other = total - sum(s["samples"].get(lib, 0) for lib in LIBS)
    m["self.other_pct"] = metric(100.0 * other / total, "%")
    return m


def layer_cost_lines(a, m):
    """Unit cost x the exact count the run made, next to the sampled share."""
    r = a["report"]
    n_rep = r["z"] * r["n"]
    blocks = r["decisions"] * n_rep
    rows = [
        ("sim", "sim.event_ns", 1e-9, a["events"], "events, whole run"),
        ("sim", "sim.multicast_ns_per_dst", 1e-9, a["msgs_local"] + a["msgs_global"],
         "messages, whole run"),
        ("crypto", "crypto.sha256_us_per_batch", 1e-6, blocks, "decisions x replicas, window"),
        ("storage", "storage.kv_write_us_per_batch", 1e-6, blocks,
         "decisions x replicas, window"),
        ("storage", "storage.kv_scan_us_per_batch", 1e-6,
         r["scan_txns"] // r["batch_size"] * n_rep, "scan batches x replicas, window"),
    ]
    if r["storage"] == "disk":
        rows.append(("storage", "storage.log_block_us", 1e-6, blocks, "blocks logged, window"))
    for lib, name, scale, count, what in rows:
        cost = m[name]["value"] * scale * count
        yield "  %-30s %9.3f x %9d %-31s = %6.3f s = %5.1f%% of cpu_s (self.%s_pct %.1f)" % (
            name, m[name]["value"], count, what, cost, 100.0 * cost / a["cpu_s"], lib,
            m["self.%s_pct" % lib]["value"])


def summary_lines(name, reps, ok, metrics, traced):
    yield "workload %s: %d run(s), %d failed" % (
        name, len(reps), sum(r.error is not None for r in reps))
    for i, r in enumerate(reps):
        if r.error is not None:
            yield "  run %d FAILED: %s" % (i, r.error)
        if r.data is not None:
            d = r.data
            yield "  run %d: %s | setup %.3f s cpu | run %.3f s cpu, %.3f s wall | rss %.0f MB" % (
                i, d["scenario"], d["setup_cpu_s"], d["cpu_s"], d["wall_s"],
                d["vmhwm_kb"] / 1024.0)
    if not metrics:
        return
    r = ok[0]["report"]
    yield "  samples: %d completed batches (p50/p99), %d read batches (read p99)" % (
        r["completed_batches"], read_batches(r))
    if traced:
        yield "  unit cost x count (probes from the traced run) against the sampled share:"
        for line in layer_cost_lines(ok[0], metrics):
            yield line
        for d in ok:
            for s in d["spans"]:
                yield "  span %-20s %8.3f s cpu %8.3f s wall" % (
                    s["name"], s["cpu_s"], s["wall_s"])
    for k in sorted(metrics):
        yield "  %-36s %18.6f %s" % (k, metrics[k]["value"], metrics[k]["unit"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail_setup("--seed must be >= 0")
    build()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    steal0, t0 = host_steal_s(), time.monotonic()
    reps = []
    if args.trace == 0:
        # Stop before a further run would overshoot the measuring window.
        while len(reps) < MAX_REPS:
            reps.append(run_rep(args.workload, args.seed, len(reps)))
            elapsed = time.monotonic() - t0
            if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
    else:
        reps.append(run_rep(args.workload, args.seed, 0))
        reps.append(run_rep(args.workload, args.seed, 1, ["--sample"]))
        reps.append(run_rep(args.workload, args.seed, 2, ["--trace", "--probes", "{work}"]))
    host = {"wall_s": time.monotonic() - t0, "steal_s": host_steal_s() - steal0}
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    settle(reps)
    failed = sum(r.error is not None for r in reps)
    ok = [r.data for r in reps if r.error is None]
    metrics = {}
    if args.trace == 0 and ok:
        metrics = end_to_end(ok)
    elif args.trace == 1 and failed == 0:
        metrics = per_layer(ok[0], ok[1], ok[2], host)
    for line in summary_lines(args.workload, reps, ok, metrics, args.trace == 1):
        print(line)
    print("host: %.3f s wall, %.3f s steal (all CPUs) over the run set" % (
        host["wall_s"], host["steal_s"]))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
