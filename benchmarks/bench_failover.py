"""Failover benchmark: graceful degradation under a faulty ordering plane.

Drives a steady closed-loop workload through a window in which the initial
primary (``agreement:0``) misbehaves -- crashing, running the classic
*slow-primary* performance attack, censoring a client's requests out of its
batches, or equivocating (conflicting batches at the same sequence number to
disjoint backup subsets) -- and measures how throughput degrades and
recovers:

1. **failover** -- for each attack, committed-requests/second sampled per
   bucket across warmup, a fault-free baseline window, the attack window,
   and the healed tail.  Reported per attack:

   * ``fault_free_rate`` -- committed/s over the pre-attack window;
   * ``blackout_ms`` -- the longest interval with zero completions from
     attack onset until throughput recovers (how dark did it go);
   * ``time_to_recover_ms`` -- from the heal to the first sliding window
     sustaining >= 80% of the fault-free rate (the failover SLO; 0 means
     the view change already restored service *during* the window);
   * ``recovery_ratio`` -- the post-recovery rate over the fault-free rate.
     Acceptance: >= 0.8 for every attack.

2. **safety** -- the run under the *equivocating* primary additionally
   audits that the attack never split the log: every pair of agreement
   replicas that delivered the same sequence number delivered the same
   batch digest, equally-advanced execution replicas agree on application
   state, and no client accepted a duplicated or unsupported reply (the
   standard oracle battery).

Results go to ``BENCH_failover.json``; ``--quick`` shrinks the windows for
CI smoke runs, ``--check-regression`` gates ``time_to_recover_ms`` against
``benchmarks/failover_baseline.json`` (recovery time regresses *upward*, so
the gate is a ceiling) and ``--update-baseline`` rewrites the baseline from
the current measurement.  All virtual-time metrics are deterministic for a
given ``--seed`` / ``--workload-seed``.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_failover.py --quick
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis import format_table
from repro.apps.kvstore import KeyValueStore, get as kv_get, put as kv_put
from repro.config import SystemConfig, TimerConfig
from repro.faults import FaultInjector, FaultPlan, make_behaviour
from repro.fuzz.oracles import run_oracles
from repro.sharding import ShardedSystem
from repro.workloads import equal_range_boundaries
from repro.workloads.skew import skew_key

from bench_common import collect_critical_path, current_observability, gate_main, obs_enabled
from bench_hotpath import HOTPATH_CRYPTO

NUM_SHARDS = 2
KEY_SPACE = 64
NUM_CLIENTS = 24

#: the attacks the SLO is measured under, mildest first (``crash`` is the
#: non-Byzantine control: fail-stop, detected by the view-change timer alone)
ATTACKS = ("crash", "slow_primary", "censoring_primary",
           "equivocating_primary")

#: short view-change fuse so failover resolves within the measured window;
#: retransmit timers sit well above the per-bucket sampling grain
FAILOVER_TIMERS = TimerConfig(client_retransmit_ms=240.0,
                              agreement_retransmit_ms=60.0,
                              execution_fetch_ms=20.0,
                              view_change_ms=150.0,
                              batch_timeout_ms=1.0)

#: sliding window the recovery detector integrates committed/s over
RECOVERY_WINDOW_MS = 100.0

#: a window at or above this fraction of the fault-free rate counts as
#: recovered (the acceptance criterion's 80% SLO)
RECOVERY_FRACTION = 0.8

#: timeline sampling grain
BUCKET_MS = 20.0


def print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def build_system(seed: int) -> ShardedSystem:
    config = SystemConfig.sharded(
        NUM_SHARDS, strategy="range",
        range_boundaries=equal_range_boundaries(KEY_SPACE, NUM_SHARDS),
        num_clients=NUM_CLIENTS, pipeline_depth=16, checkpoint_interval=64,
        app_processing_ms=1.0, timers=FAILOVER_TIMERS, crypto=HOTPATH_CRYPTO,
        observability=current_observability())
    return ShardedSystem(config, KeyValueStore, seed=seed)


def make_operations(num_requests: int, workload_seed: int) -> List:
    """Uniform single-shard kvstore traffic (no hotspot: the variable under
    test is the ordering plane, not placement)."""
    rng = random.Random(workload_seed)
    operations: List = []
    for index in range(num_requests):
        key = skew_key(rng.randrange(KEY_SPACE))
        if rng.random() < 0.5:
            operations.append(kv_put(key, f"v{index}"))
        else:
            operations.append(kv_get(key))
    return operations


# ---------------------------------------------------------------------- #
# Timeline driver.
# ---------------------------------------------------------------------- #


class Timeline:
    """Per-bucket completion counts over one driven run."""

    def __init__(self, bucket_ms: float) -> None:
        self.bucket_ms = bucket_ms
        self.buckets: List[int] = []

    def rate_over(self, start_ms: float, end_ms: float) -> float:
        """Committed/s over ``[start_ms, end_ms)`` of the timeline."""
        first = int(start_ms // self.bucket_ms)
        last = min(int(end_ms // self.bucket_ms), len(self.buckets))
        if last <= first:
            return 0.0
        committed = sum(self.buckets[first:last])
        return committed / ((last - first) * self.bucket_ms) * 1000.0

    def longest_blackout_ms(self, start_ms: float, end_ms: float) -> float:
        """Longest run of zero-completion buckets inside the window."""
        first = int(start_ms // self.bucket_ms)
        last = min(int(end_ms // self.bucket_ms), len(self.buckets))
        longest = current = 0
        for count in self.buckets[first:last]:
            current = current + 1 if count == 0 else 0
            longest = max(longest, current)
        return longest * self.bucket_ms

    def time_to_recover_ms(self, healed_at_ms: float,
                           threshold_per_sec: float) -> Optional[float]:
        """Delay from the heal until the first sustained-recovery window.

        Scans :data:`RECOVERY_WINDOW_MS`-wide sliding windows starting at
        the heal; the first whose rate meets ``threshold_per_sec`` marks
        recovery.  Returns None if no window qualifies (recovery SLO miss).
        """
        start = healed_at_ms
        horizon = len(self.buckets) * self.bucket_ms
        while start + RECOVERY_WINDOW_MS <= horizon:
            if self.rate_over(start, start + RECOVERY_WINDOW_MS) >= \
                    threshold_per_sec:
                return start - healed_at_ms
            start += self.bucket_ms
        return None


def drive(system: ShardedSystem, total_ms: float) -> Timeline:
    """Run the system for ``total_ms``, sampling completions per bucket."""
    timeline = Timeline(BUCKET_MS)
    last = system.total_completed()
    elapsed = 0.0
    while elapsed < total_ms:
        system.run(BUCKET_MS)
        elapsed += BUCKET_MS
        completed = system.total_completed()
        timeline.buckets.append(completed - last)
        last = completed
    return timeline


# ---------------------------------------------------------------------- #
# Section 1: the failover SLO under each attack.
# ---------------------------------------------------------------------- #


def run_attack(attack: str, quick: bool, seed: int, workload_seed: int,
               trace_output: Path = None) -> Dict:
    warmup_ms = 150.0
    baseline_ms = 250.0 if quick else 450.0
    fault_ms = 500.0 if quick else 800.0
    tail_ms = 600.0 if quick else 900.0
    fault_at = warmup_ms + baseline_ms
    heal_at = fault_at + fault_ms
    total_ms = heal_at + tail_ms
    # Size the closed-loop backlog off the observed steady rate (~10-14
    # committed/ms in this configuration) so the workload outlives the
    # timeline; leftovers are expected and recorded, exhaustion is a bug.
    num_requests = int(total_ms * 20)

    system = build_system(seed)
    primary = system.agreement_ids[0]
    injector = FaultInjector(system)
    plan = FaultPlan()
    if attack == "crash":
        plan.crash(primary, at_ms=fault_at)
        plan.recover(primary, at_ms=heal_at)
    else:
        behaviour = make_behaviour(attack, primary)
        plan.byzantine(behaviour, at_ms=fault_at, until_ms=heal_at)
    injector.install(plan)

    operations = make_operations(num_requests, workload_seed)
    for index, operation in enumerate(operations):
        system.submit(operation, client_index=index % NUM_CLIENTS)
    timeline = drive(system, total_ms)

    fault_free_rate = timeline.rate_over(warmup_ms, fault_at)
    recover_after = timeline.time_to_recover_ms(
        heal_at, RECOVERY_FRACTION * fault_free_rate)
    recovered_at = None if recover_after is None else heal_at + recover_after
    blackout_end = total_ms if recovered_at is None else recovered_at
    blackout_ms = timeline.longest_blackout_ms(fault_at, blackout_end)
    recovered_rate = (0.0 if recovered_at is None
                     else timeline.rate_over(recovered_at, total_ms))
    recovery_ratio = recovered_rate / max(fault_free_rate, 1e-9)
    completed = system.total_completed()
    exhausted = completed >= num_requests

    critical_path = None
    if trace_output is not None or attack == ATTACKS[-1]:
        critical_path = collect_critical_path(
            system, trace_output,
            title=f"critical path through a {attack} window")
    return {
        "attack": attack,
        "system": system,
        "fault_at_ms": fault_at,
        "heal_at_ms": heal_at,
        "total_ms": total_ms,
        "timeline": list(timeline.buckets),
        "bucket_ms": BUCKET_MS,
        "fault_free_rate": fault_free_rate,
        "faulted_rate": timeline.rate_over(fault_at, heal_at),
        "recovered_rate": recovered_rate,
        "time_to_recover_ms": recover_after,
        "blackout_ms": blackout_ms,
        "recovery_ratio": recovery_ratio,
        "recovery_pass": (recover_after is not None
                          and recovery_ratio >= RECOVERY_FRACTION
                          and not exhausted),
        "completed": completed,
        "exhausted": exhausted,
        "view_changes": sum(replica.view_changes_completed
                            for replica in system.agreement_replicas),
        "primaries_deposed": sum(replica.primaries_deposed
                                 for replica in system.agreement_replicas),
        "final_view": max(replica.view
                          for replica in system.agreement_replicas),
        "critical_path": critical_path,
    }


def section_failover(quick: bool, seed: int, workload_seed: int,
                     trace_output: Path = None) -> Dict:
    runs = []
    for index, attack in enumerate(ATTACKS):
        runs.append(run_attack(
            attack, quick, seed + index, workload_seed + index,
            trace_output=trace_output if attack == ATTACKS[-1] else None))

    print_section(f"Failover SLO: {NUM_SHARDS} shards, {NUM_CLIENTS} "
                  f"clients, primary attacked for a bounded window")
    print(format_table(
        ["attack", "fault-free/s", "faulted/s", "recovered/s",
         "recover ms", "blackout ms", "views", "deposed"],
        [[run["attack"], run["fault_free_rate"], run["faulted_rate"],
          run["recovered_rate"],
          "never" if run["time_to_recover_ms"] is None
          else run["time_to_recover_ms"],
          run["blackout_ms"], run["view_changes"],
          run["primaries_deposed"]]
         for run in runs]))
    for run in runs:
        verdict = "PASS" if run["recovery_pass"] else "FAIL"
        print(f"{run['attack']}: recovery ratio "
              f"{run['recovery_ratio']:.2f} (SLO >= "
              f"{RECOVERY_FRACTION:.2f}) {verdict}")

    critical_path = None
    attacks: Dict[str, Dict] = {}
    systems: Dict[str, ShardedSystem] = {}
    for run in runs:
        systems[run["attack"]] = run.pop("system")
        if run["critical_path"] is not None:
            critical_path = run["critical_path"]
        del run["critical_path"]
        attacks[run.pop("attack")] = run
    return {
        "critical_path": critical_path,
        "systems": systems,
        "recovery_window_ms": RECOVERY_WINDOW_MS,
        "recovery_fraction": RECOVERY_FRACTION,
        "attacks": attacks,
        "failover_pass": all(run["recovery_pass"]
                             for run in attacks.values()),
    }


# ---------------------------------------------------------------------- #
# Section 2: equivocation never splits the log.
# ---------------------------------------------------------------------- #


def delivered_digest_conflicts(system: ShardedSystem) -> int:
    """Pairs of (seq, replica, replica) that delivered conflicting batches.

    The ``2f + 1`` commit quorum must prevent two conflicting batches from
    both committing at one sequence number, no matter what the equivocating
    primary proposed to whom.  Entries below the stable checkpoint are
    garbage collected, but conflicting deliveries would already have split
    application state, which the oracle battery checks independently.
    """
    conflicts = 0
    by_seq: Dict[int, set] = {}
    for replica in system.agreement_replicas:
        if replica.crashed:
            continue
        for (_, seq), entry in replica.log._entries.items():
            if entry.delivered and entry.pre_prepare is not None:
                by_seq.setdefault(seq, set()).add(
                    entry.pre_prepare.batch_digest)
    for digests in by_seq.values():
        if len(digests) > 1:
            conflicts += 1
    return conflicts


def section_safety(failover: Dict) -> Dict:
    system = failover["systems"]["equivocating_primary"]
    attack = failover["attacks"]["equivocating_primary"]
    conflicts = delivered_digest_conflicts(system)
    # completed_all=False: the timeline run leaves backlog by design, so
    # only the state-agreement / duplicate checks apply, not drain counts.
    violations = run_oracles(system, completed_all=False, context=None)
    safety_pass = conflicts == 0 and not violations

    print_section("Safety audit: equivocation never commits conflicting "
                  "values")
    print(f"delivered-digest conflicts: {conflicts}   oracle violations: "
          f"{len(violations)}   view changes under attack: "
          f"{attack['view_changes']}")
    for violation in violations:
        print(f"  {violation.oracle}: {violation.detail}", file=sys.stderr)
    print(f"log-split safety: {'PASS' if safety_pass else 'FAIL'}")
    return {
        "delivered_digest_conflicts": conflicts,
        "oracle_violations": [v.to_json_dict() for v in violations],
        "safety_pass": safety_pass,
    }


# ---------------------------------------------------------------------- #
# Harness entry point.
# ---------------------------------------------------------------------- #


def run_all(quick: bool, seed: int, workload_seed: int,
            trace_output: Path = None) -> Dict:
    failover = section_failover(quick, seed, workload_seed,
                                trace_output=trace_output)
    safety = section_safety(failover)
    failover.pop("systems")
    results = {
        "benchmark": "failover",
        "mode": "quick" if quick else "full",
        "unix_time": time.time(),
        "seed": seed,
        "workload_seed": workload_seed,
        "observability": obs_enabled(),
        "failover": failover,
        "safety": safety,
    }
    critical_path = results["failover"].pop("critical_path", None)
    if critical_path is not None:
        results["critical_path"] = critical_path
    results["pass"] = all([
        results["failover"]["failover_pass"],
        results["safety"]["safety_pass"],
    ])
    return results


def check_regression(results: Dict, baseline_path: Path) -> int:
    """Gate recovery time against the committed baseline.

    Recovery time regresses *upward*, so unlike the throughput gates this
    one is a ceiling: each attack's ``time_to_recover_ms`` must stay within
    ``tolerance`` of the baseline (with an absolute slack floor so a
    baseline of 0 ms still admits one bucket of jitter).
    """
    if not baseline_path.exists():
        print(f"regression check: no baseline at {baseline_path}", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())
    tolerance = baseline["tolerance"]
    slack_ms = baseline.get("slack_ms", 50.0)
    status = 0
    for attack, run in results["failover"]["attacks"].items():
        recover = run["time_to_recover_ms"]
        base = baseline["time_to_recover_ms"].get(attack)
        if base is None:
            continue
        ceiling = base * (1.0 + tolerance) + slack_ms
        shown = "never" if recover is None else f"{recover:.0f}ms"
        print(f"regression check: {attack} recovery {shown} "
              f"(ceiling {ceiling:.0f}ms)")
        if recover is None or recover > ceiling:
            print(f"REGRESSION: {attack} recovery time above baseline "
                  "ceiling", file=sys.stderr)
            status = 1
    if not results["safety"]["safety_pass"]:
        print("REGRESSION: equivocation safety audit failed", file=sys.stderr)
        status = 1
    return status


def main(argv=None) -> int:
    return gate_main(
        "failover", __doc__, argv, seed=7, workload_seed=3, run_all=run_all,
        check_regression=check_regression,
        baseline_fields=lambda results: {
            "time_to_recover_ms": {
                attack: run["time_to_recover_ms"]
                for attack, run in results["failover"]["attacks"].items()},
            "tolerance": 0.25,
            "slack_ms": 50.0},
        criteria=lambda results: [
            (f"recovery ratio >= {RECOVERY_FRACTION} under every attack",
             results["failover"]["failover_pass"]),
            ("equivocation safety audit", results["safety"]["safety_pass"])],
        traced_run="the equivocating run",
        regression_help="fail if any attack's recovery time regresses above "
                        "the baseline ceiling")


if __name__ == "__main__":
    raise SystemExit(main())
