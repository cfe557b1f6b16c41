#!/usr/bin/env python3
"""Benchmark of the FOCUS simulator: one command per workload run.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first run configures and builds
perfbench/ (the focus library from src/, the workload runner and the micro
benches from bench/) into .bench_build/; later runs rebuild incrementally.

--trace 0 prints the end-to-end metrics; --trace 1 runs the separate traced
run and prints the per-layer metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Earlier lines name
every metric with its unit, kind (host or sim) and provenance; the full
record of the run is written to .bench_build/results/. See README.md next to
this file for the workloads and what each metric is predicted to move.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "focus_perfbench")
WORKLOADS = ("query-400", "cached-reads-400", "churn-10k")
SHARDED = {"churn-10k"}
# End-to-end runs drive churn-10k with one worker: with every vCPU busy the
# host's hypervisor steals time and 4-worker wall times swing by 2-3x. The
# traced run measures the 2- and 4-worker driver against it.
WORKERS = 1
SWEEP_WORKERS = (2, 4)
FLEETS = 3          # distinct fleets per run; sim metrics are their mean
MIN_REPS = FLEETS
RUN_BUDGET_S = 170  # every run ends within this many seconds after the build

# name -> (unit, kind). Every sim figure is a pure function of the seed.
END_TO_END = {
    "setup_s": ("s", "host"),
    "run_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "converge_sim_s": ("s", "sim"),
    "query_mean_ms": ("ms", "sim"),
    "staleness_p99_ms": ("ms", "sim"),
    "server_kbps": ("KB/s", "sim"),
    "agent_kbps": ("KB/s", "sim"),
}

KINDS = ("swim.event", "swim.member_list", "swim.ping", "focus.member_state",
         "focus.node_query", "focus.group_query", "focus.group_response",
         "focus.group_report")

# Per-layer figures read from a rep's "sim" or "host" section.
PER_LAYER_SIM = {
    "sim.events": "count",
    "sharded.rounds": "count",
    "sharded.windows": "count",
    "sharded.events_per_window": "count",
    "net.msgs": "count",
    "net.bytes": "B",
    **{f"net.{k}.{f}": u for k in KINDS for f, u in (("msgs", "count"), ("bytes", "B"))},
    "net.swim.event.payload_builds_per_msg": "ratio",
    "gossip.probe_rtt_p99_ms": "ms",
    "gossip.suspect_to_dead": "count",
    "agent.group_moves": "count",
    "agent.member_responses_per_query": "ratio",
    "agent.queries_coordinated": "count",
    "focus.cache.hit_ratio": "ratio",
    "focus.cache.expired": "count",
    "focus.router.group_queries_per_query": "ratio",
    "focus.router.node_pulls_per_query": "ratio",
    "focus.router.empty_routes": "count",
    "focus.router.timeouts": "count",
    "focus.router.delegated": "count",
    "focus.dgm.reports_processed": "count",
    "focus.dgm.transitions": "count",
    "focus.dgm.forks_created": "count",
    "client.query.p50_ms": "ms",
    "client.query.tail_ms": "ms",
    "client.query.tail_pct": "pct",
    "client.query.samples": "count",
    "client.query.fail_ratio": "ratio",
}
PER_LAYER_HOST = {
    "sim.ns_per_event": "ns",
    "harness.build_s": "s",
    "harness.start_settle_s": "s",
    "harness.bytes_per_node": "B",
}
# Read from the traced rep's span and wall-profile section.
PER_LAYER_TRACE = {
    **{f"focus.stage.{s}_{p}_ms": "ms" for s in ("router", "collect", "member_eval")
       for p in ("p50", "p99")},
    "sharded.busy_s": "s",
    "sharded.stall_s": "s",
    "sharded.idle_s": "s",
    "sharded.stall_frac": "ratio",
    "sharded.busy_imbalance": "ratio",
}
# Existing google-benchmark cases: metric -> (binary, case, per).
# per = "iter": ns per iteration; "item": ns per processed item;
# "round": ns per coordinator round (rounds_per_sim_sec x 0.1 sim s per iter).
MICRO = {
    "sim.micro.schedule_run_ns": ("micro_core", "BM_SimulatorScheduleRun", "iter"),
    "sim.micro.periodic_fleet_ns": ("micro_core", "BM_SimulatorPeriodicFleet", "iter"),
    "net.micro.send_fanout_ns": ("micro_core", "BM_TransportSendFanout", "item"),
    "focus.micro.query_match_ns": ("micro_core", "BM_QueryMatch", "iter"),
    "net.micro.stager_merge_ns": ("micro_sharded", "BM_ShardStagerMerge", "item"),
    "sharded.micro.handoff_ns_per_round": ("micro_sharded", "BM_ShardBarrierOverhead_PerEdge", "round"),
    "gossip.micro.probe_round_ns": ("micro_gossip", "BM_GossipProbeRound", "iter"),
    "gossip.micro.fanout_broadcast_ns": ("micro_gossip", "BM_FanoutBroadcast", "iter"),
    "gossip.micro.member_list_sync_ns": ("micro_gossip", "BM_MemberListSync", "iter"),
    "focus.micro.candidate_groups_ns": ("micro_control", "BM_CandidateGroups/256", "iter"),
    "focus.micro.cache_key_lookup_ns": ("micro_control", "BM_CacheKeyLookup", "iter"),
    "focus.micro.dgm_state_update_ns": ("micro_control", "BM_DgmStateUpdate", "iter"),
    "focus.micro.registrar_match_static_ns": ("micro_control", "BM_RegistrarMatchStatic", "iter"),
}
STORE_MICRO = ("store.micro.put_ns", "store.micro.get_ns", "store.micro.scan_ns")
_deadline = None


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd):
    """Run one child to completion; it is killed if it would overrun the run."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=max(1.0, _deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{os.path.basename(cmd[0])} exited {proc.returncode}")
    return proc.stdout


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       cwd=ROOT, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], cwd=ROOT, check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def fleet_seed(seed, fleet):
    """Seed of the fleet-th testbed of a run: a pure function of the run seed."""
    digest = hashlib.sha256(f"focus-perfbench:{seed}:{fleet}".encode()).hexdigest()
    return int(digest[:12], 16)


def rep(workload, seed, workers=WORKERS, traced=False):
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed), "--workers", str(workers)]
    if traced:
        cmd.append("--trace")
    out = json.loads(run_checked(cmd).strip().splitlines()[-1])
    if out["violations"]:
        raise BenchError(f"{workload} seed {seed}: " + "; ".join(out["violations"]))
    return out


def same_sim(a, b, what):
    if a["digest"] != b["digest"] or a["sim"] != b["sim"]:
        diff = sorted(k for k in a["sim"] if a["sim"][k] != b["sim"].get(k))
        raise BenchError(f"{what}: digest {a['digest']} vs {b['digest']}, "
                         f"sim metrics differ: {diff[:8]}")


def untraced(workload, seed, seconds):
    """Reps until --seconds is spent, at least one per fleet. Rep i runs fleet
    i mod FLEETS, so every rep past the first FLEETS re-checks determinism."""
    seeds = [fleet_seed(seed, f) for f in range(FLEETS)]
    reps = []
    start = time.monotonic()
    while True:
        i = len(reps)
        reps.append(rep(workload, seeds[i % FLEETS]))
        if i >= FLEETS:
            same_sim(reps[i - FLEETS], reps[i], f"repeat of fleet {i % FLEETS}")
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    metrics = {}
    for name, (unit, kind) in END_TO_END.items():
        if kind == "host":
            value = statistics.median(r["host"][name] for r in reps)
        else:
            value = statistics.fmean(r["sim"][name] for r in reps[:FLEETS])
        metrics[name] = {"value": value, "unit": unit}
    return reps, metrics


def micro_benches():
    by_binary = {}
    for name, (binary, case, per) in MICRO.items():
        by_binary.setdefault(binary, []).append((name, case, per))
    metrics = {}
    for binary, cases in by_binary.items():
        pattern = "^(" + "|".join(c for _, c, _ in cases) + ")$"
        doc = json.loads(run_checked(
            [os.path.join(BUILD, binary), f"--benchmark_filter={pattern}",
             "--benchmark_min_time=0.1", "--benchmark_format=json"]))
        found = {b["name"]: b for b in doc["benchmarks"]}
        for name, case, per in cases:
            if case not in found:
                raise BenchError(f"{binary}: no benchmark named {case}")
            b = found[case]
            ns = b["real_time"] * {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[b["time_unit"]]
            if per == "item":
                ns = 1e9 / b["items_per_second"]
            elif per == "round":
                ns = ns / (b["rounds_per_sim_sec"] * 0.1)
            metrics[name] = {"value": ns, "unit": "ns"}
    return metrics


def traced(workload, seed):
    """The per-layer run on fleet 0: untraced and traced reps (digests must
    match), the worker sweep on the sharded workload, and the micro benches."""
    s = fleet_seed(seed, 0)
    base = rep(workload, s)
    tr = rep(workload, s, workers=SWEEP_WORKERS[-1], traced=True)
    same_sim(base, tr, "traced vs untraced")
    reps = [base, tr]
    metrics = {}
    for name, unit in PER_LAYER_SIM.items():
        metrics[name] = {"value": base["sim"][name], "unit": unit}
    for name, unit in PER_LAYER_HOST.items():
        metrics[name] = {"value": base["host"][name], "unit": unit}
    for name, unit in PER_LAYER_TRACE.items():
        # The sharded.* wall profile exists only where the sharded driver runs.
        metrics[name] = {"value": tr["trace"].get(name, 0.0), "unit": unit}
    speedup = {w: 0.0 for w in SWEEP_WORKERS}
    twin = base  # the untraced rep at the traced rep's worker count
    if workload in SHARDED:
        for w in SWEEP_WORKERS:
            r = rep(workload, s, workers=w)
            same_sim(base, r, f"{WORKERS} vs {w} workers")
            reps.append(r)
            speedup[w] = base["host"]["run_s"] / r["host"]["run_s"]
            if w == SWEEP_WORKERS[-1]:
                twin = r
    metrics["obs.trace_overhead"] = {
        "value": tr["host"]["run_s"] / twin["host"]["run_s"] - 1, "unit": "ratio"}
    for w in SWEEP_WORKERS:
        metrics[f"sharded.speedup_{w}w"] = {"value": speedup[w], "unit": "ratio"}
    metrics.update(micro_benches())
    store = json.loads(run_checked([RUNNER, "--store-micro", "--seed", str(s)])
                       .strip().splitlines()[-1])
    if store["failures"]:
        raise BenchError(f"store micro: {store['failures']} failed operations")
    for name in STORE_MICRO:
        metrics[name] = {"value": store[name], "unit": "ns"}
    return reps, metrics


def cpu_times():
    """Aggregate /proc/stat CPU jiffies (None where unavailable)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor stole from this machine between two
    cpu_times() readings: a noisy neighbour shows here, not in the code."""
    if not before or not after or len(before) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def provenance(seed):
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                key, sep, value = line.strip().partition("=")
                if sep:
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        compiler = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE"), "git_sha": sha,
            "source_sha256": source_fingerprint(), "seed": seed,
            "fleet_seeds": [fleet_seed(seed, f) for f in range(FLEETS)]}


def source_fingerprint():
    """Hash of every file the build reads, so a result names its code even in
    a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for fn in sorted(filenames):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    global _deadline
    _deadline = time.monotonic() + RUN_BUDGET_S
    prov = provenance(args.seed)
    cpu_before = cpu_times()
    try:
        if args.trace:
            reps, metrics = traced(args.workload, args.seed)
        else:
            reps, metrics = untraced(args.workload, args.seed, args.seconds)
        correct, error = True, None
    except (BenchError, subprocess.TimeoutExpired) as e:
        reps, metrics, correct, error = [], {}, False, str(e)
        log(f"FAILED: {error}")

    prov["steal_share"] = steal_share(cpu_before, cpu_times())
    if correct:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = {m["name"] for m in json.load(f)["per_layer" if args.trace else "end_to_end"]}
        if declared != set(metrics):
            correct = False
            log(f"FAILED: metrics differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}")

    attempted = sum(r["sim"]["queries_issued"] for r in reps)
    failed = sum(r["sim"]["queries_failed"] for r in reps)
    kinds = {**{k: v[1] for k, v in END_TO_END.items()}, **{k: "sim" for k in PER_LAYER_SIM},
             **{k: "sim" for k in PER_LAYER_TRACE if k.startswith("focus.stage.")}}
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("digests " + json.dumps([f"{r['seed']:.0f}/{r['workers']:.0f}w: {r['digest']}"
                                   for r in reps]))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']} ({kinds.get(name, 'host')})")

    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    record = os.path.join(BUILD, "results",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"provenance": prov, "workload": args.workload, "trace": args.trace,
                   "correct": correct, "error": error, "metrics": metrics, "reps": reps},
                  f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
