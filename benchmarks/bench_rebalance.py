"""Rebalance benchmark: dynamic partition maps vs static boundaries.

Measures, on a 4-shard range-partitioned kvstore under a **migrating
hotspot** (80% of requests to one quarter-key-space window that shifts
region every phase):

1. **migrate** -- committed-requests/second over a fixed window with dynamic
   rebalancing (``RebalanceConfig(enabled=True)``: load-triggered splits and
   merges agreed through the log, epoch cuts, live range handoff) versus the
   construction-time static boundaries.  Acceptance: >= 1.3x at 4 shards.
   The per-shard committed breakdown shows *where* the win comes from: with
   static boundaries each phase saturates the single cluster owning the hot
   window while the others idle.
2. **safety** -- a drain run across multiple epoch cuts (at least one split
   and one merge applied) proving every client request executed *exactly
   once*: every submitted request completes, the per-cluster executed
   totals sum to exactly the completed count (an execution lost at a cut
   would strand a client; one duplicated across a handoff would inflate the
   sum), each cluster's replicas agree on their contiguous shard-local
   frontier and application state, and no client ever accepted a misrouted
   or stale-epoch reply.

Results go to ``BENCH_rebalance.json``; ``--quick`` shrinks the windows for
CI smoke runs, ``--check-regression`` gates against
``benchmarks/rebalance_baseline.json`` and ``--update-baseline`` rewrites the
baseline from the current measurement.  All virtual-time metrics are
deterministic for a given ``--seed`` / ``--workload-seed``.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_rebalance.py --quick
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict

from repro.analysis import format_table
from repro.apps.kvstore import KeyValueStore
from repro.config import (
    BatchingConfig,
    RebalanceConfig,
    SystemConfig,
    TimerConfig,
)
from repro.sharding import ShardedSystem
from repro.workloads import (
    equal_range_boundaries,
    migrating_hot_range_operations,
    run_ordered_window,
)

from bench_common import collect_critical_path, current_observability, gate_main, obs_enabled
from bench_hotpath import HOTPATH_CRYPTO

NUM_SHARDS = 4
KEY_SPACE = 64
NUM_CLIENTS = 48
NUM_PHASES = 3
#: fraction of requests hammering the current hot window
HOT_FRACTION = 0.8

#: slow protocol timers so an overloaded hot shard exercises back-pressure,
#: not view changes or retransmission storms
REBALANCE_TIMERS = TimerConfig(client_retransmit_ms=5_000.0,
                               agreement_retransmit_ms=1_000.0,
                               execution_fetch_ms=50.0,
                               view_change_ms=20_000.0,
                               batch_timeout_ms=5.0)

#: the dynamic configuration under test: responsive enough to chase a
#: migrating hotspot, with per-shard batch timeouts and controller demotion
#: (this PR's batching satellites) enabled
REBALANCE = RebalanceConfig(enabled=True, check_interval_ms=60.0,
                            cooldown_ms=240.0, hot_ratio=1.6, cold_ratio=0.6,
                            min_window_requests=96)
BATCHING = BatchingConfig(mode="adaptive", min_bundle=1, max_bundle=64,
                          timeout_scale_max=4.0, demote_idle_ms=250.0)


def print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def build_system(rebalance_enabled: bool, seed: int) -> ShardedSystem:
    config = SystemConfig.sharded(
        NUM_SHARDS, strategy="range",
        range_boundaries=equal_range_boundaries(KEY_SPACE, NUM_SHARDS),
        num_clients=NUM_CLIENTS, pipeline_depth=16, checkpoint_interval=64,
        app_processing_ms=1.0, timers=REBALANCE_TIMERS, crypto=HOTPATH_CRYPTO,
        batching=BATCHING,
        rebalance=REBALANCE if rebalance_enabled else RebalanceConfig(),
        observability=current_observability())
    return ShardedSystem(config, KeyValueStore, seed=seed)


def epoch_history(system: ShardedSystem) -> Dict[str, int]:
    """Applied cuts by kind, reconstructed from the agreed map history."""
    registry = system.router.partitioner.registry
    splits = merges = moves = 0
    for epoch in range(1, registry.latest_epoch + 1):
        delta = (registry.map_for(epoch).num_ranges
                 - registry.map_for(epoch - 1).num_ranges)
        if delta > 0:
            splits += 1
        elif delta < 0:
            merges += 1
        else:
            moves += 1
    return {"splits": splits, "merges": merges, "moves": moves,
            "epochs": registry.latest_epoch}


# ---------------------------------------------------------------------- #
# Section 1: committed/sec under a migrating hotspot.
# ---------------------------------------------------------------------- #


def section_migrate(quick: bool, seed: int, workload_seed: int,
                    trace_output: Path = None) -> Dict:
    num_requests = 6_000 if quick else 16_000
    duration_ms = 900.0 if quick else 2_500.0
    warmup_ms = 150.0 if quick else 200.0
    operations = migrating_hot_range_operations(
        num_requests, key_space=KEY_SPACE, num_phases=NUM_PHASES,
        hot_fraction=HOT_FRACTION, hot_key_fraction=1.0 / NUM_SHARDS,
        seed=workload_seed)

    runs = {}
    cuts = {}
    systems = {}
    for label, enabled in (("static boundaries", False),
                           ("rebalancing", True)):
        system = build_system(enabled, seed=seed)
        systems[label] = system
        runs[label] = run_ordered_window(
            system, operations=operations, duration_ms=duration_ms,
            warmup_ms=warmup_ms, label=label)
        cuts[label] = epoch_history(system)

    baseline = runs["static boundaries"]
    dynamic = runs["rebalancing"]
    speedup = dynamic.committed_per_sec / max(baseline.committed_per_sec, 1e-9)

    print_section(f"Migrating hotspot ({NUM_PHASES} phases), {NUM_SHARDS} "
                  f"shards, {NUM_CLIENTS} clients: static boundaries vs "
                  f"dynamic rebalancing")
    print(format_table(
        ["partitioning", "committed/s", "hottest shard", "by shard",
         "splits", "merges"],
        [[label, result.committed_per_sec, max(result.committed_by_shard),
          "/".join(str(count) for count in result.committed_by_shard),
          cuts[label]["splits"], cuts[label]["merges"]]
         for label, result in runs.items()]))
    print(f"migrate speedup: {speedup:.2f}x   epoch cuts applied: "
          f"{cuts['rebalancing']['epochs']}")
    # The rebalancing run is this benchmark's primary measured system: its
    # trace feeds the exported JSONL and the critical path.
    critical_path = collect_critical_path(
        systems["rebalancing"], trace_output,
        title="critical path, dynamic rebalancing under a migrating hotspot")
    return {
        "critical_path": critical_path,
        "num_requests": num_requests,
        "duration_ms": duration_ms,
        "num_phases": NUM_PHASES,
        "hot_fraction": HOT_FRACTION,
        "committed_per_sec": {label: result.committed_per_sec
                              for label, result in runs.items()},
        "committed_by_shard": {label: result.committed_by_shard
                               for label, result in runs.items()},
        "cuts": cuts["rebalancing"],
        "speedup": speedup,
        "speedup_pass": speedup >= 1.3,
    }


# ---------------------------------------------------------------------- #
# Section 2: exactly-once safety audit across epoch cuts.
# ---------------------------------------------------------------------- #


def section_safety(quick: bool, seed: int, workload_seed: int) -> Dict:
    num_requests = 2_400 if quick else 4_800
    operations = migrating_hot_range_operations(
        num_requests, key_space=KEY_SPACE, num_phases=NUM_PHASES,
        hot_fraction=HOT_FRACTION, hot_key_fraction=1.0 / NUM_SHARDS,
        seed=workload_seed + 1)
    system = build_system(True, seed=seed + 1)
    for index, operation in enumerate(operations):
        system.submit(operation, client_index=index % NUM_CLIENTS)
    system.run_until(lambda: system.total_completed() == num_requests,
                     timeout_ms=600_000.0,
                     description="all requests completed across epoch cuts")
    system.run(500.0)  # settle replicas that lag the reply quorum

    completed = system.total_completed()
    executed_by_shard = system.requests_executed_by_shard()
    executed_total = sum(executed_by_shard)
    cuts = epoch_history(system)
    misrouted = sum(client.misrouted_replies for client in system.clients)
    epoch_advances = sum(client.epoch_advances for client in system.clients)

    # Per-cluster agreement: every replica of a cluster must sit on the same
    # contiguous shard-local frontier with identical application state (no
    # per-shard sequence gaps or duplicates survive an epoch cut).
    clusters_agree = True
    for shard in range(system.num_shards):
        cluster = system.execution_cluster(shard)
        frontiers = {node.max_executed for node in cluster}
        digests = {node.app.state_digest() for node in cluster}
        if len(frontiers) != 1 or len(digests) != 1:
            clusters_agree = False

    exactly_once = executed_total == completed
    cuts_ok = cuts["splits"] >= 1 and cuts["merges"] >= 1 and cuts["epochs"] >= 2
    safety_pass = (completed == num_requests and exactly_once and cuts_ok
                   and clusters_agree and misrouted == 0)

    print_section("Safety audit: exactly-once across split + merge cuts")
    print(f"completed {completed}/{num_requests}, executed "
          f"{executed_total} ({'/'.join(map(str, executed_by_shard))}), "
          f"cuts={cuts}, client epoch advances={epoch_advances}, "
          f"misrouted replies={misrouted}")
    print(f"exactly-once: {'PASS' if exactly_once else 'FAIL'}   "
          f"split+merge cuts: {'PASS' if cuts_ok else 'FAIL'}   "
          f"cluster agreement: {'PASS' if clusters_agree else 'FAIL'}")
    return {
        "num_requests": num_requests,
        "completed": completed,
        "executed_total": executed_total,
        "executed_by_shard": list(executed_by_shard),
        "cuts": cuts,
        "client_epoch_advances": epoch_advances,
        "misrouted_replies": misrouted,
        "exactly_once": exactly_once,
        "cuts_ok": cuts_ok,
        "clusters_agree": clusters_agree,
        "safety_pass": safety_pass,
    }


# ---------------------------------------------------------------------- #
# Harness entry point.
# ---------------------------------------------------------------------- #


def run_all(quick: bool, seed: int, workload_seed: int,
            trace_output: Path = None) -> Dict:
    results = {
        "benchmark": "rebalance",
        "mode": "quick" if quick else "full",
        "unix_time": time.time(),
        "seed": seed,
        "workload_seed": workload_seed,
        "observability": obs_enabled(),
        "migrate": section_migrate(quick, seed, workload_seed,
                                   trace_output=trace_output),
        "safety": section_safety(quick, seed, workload_seed),
    }
    critical_path = results["migrate"].pop("critical_path", None)
    if critical_path is not None:
        results["critical_path"] = critical_path
    results["pass"] = all([
        results["migrate"]["speedup_pass"],
        results["safety"]["safety_pass"],
    ])
    return results


def check_regression(results: Dict, baseline_path: Path) -> int:
    """Gate the deterministic metrics against the committed baseline."""
    if not baseline_path.exists():
        print(f"regression check: no baseline at {baseline_path}", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())
    tolerance = baseline["tolerance"]
    speedup = results["migrate"]["speedup"]
    speedup_floor = max(1.3, baseline["migrate_speedup"] * (1.0 - tolerance))
    print(f"regression check: migrate speedup {speedup:.2f}x "
          f"(floor {speedup_floor:.2f}), safety "
          f"{'ok' if results['safety']['safety_pass'] else 'REGRESSED'}")
    status = 0
    if speedup < speedup_floor:
        print("REGRESSION: migrate speedup below baseline floor", file=sys.stderr)
        status = 1
    if not results["safety"]["safety_pass"]:
        print("REGRESSION: exactly-once safety audit failed", file=sys.stderr)
        status = 1
    return status


def main(argv=None) -> int:
    return gate_main(
        "rebalance", __doc__, argv, seed=11, workload_seed=5, run_all=run_all,
        check_regression=check_regression,
        baseline_fields=lambda results: {
            "migrate_speedup": results["migrate"]["speedup"],
            "tolerance": 0.15},
        criteria=lambda results: [
            ("migrate speedup >= 1.3x", results["migrate"]["speedup_pass"]),
            ("exactly-once safety audit", results["safety"]["safety_pass"])],
        traced_run="the rebalancing run",
        regression_help="fail if the migrate speedup or the safety audit "
                        "regress below the baseline")


if __name__ == "__main__":
    raise SystemExit(main())
