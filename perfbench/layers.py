"""The per-layer view of a traced run.

Counts and bytes come from the stats objects the program already exposes
(``ProcessStats``, ``NetworkStats``, ``TransportStats``, ``CryptoPoolStats``,
``WIRE_CACHE.snapshot()``, replica and client counters), read at the start
and end of each traced window; time comes from the probes' spans.  Each
metric is per committed request unless its name says otherwise.  A layer
the workload bypasses reads 0.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Sequence, Tuple

from .probes import Probes

#: the crypto-op counters that are verification work, and their cache hits
VERIFY_OPS = ("mac_verify", "signature_verify", "threshold_share_verify",
              "threshold_verify")
VERIFY_CACHED_OPS = tuple(op + "_cached" for op in VERIFY_OPS) + (
    "certificate_cached",)

#: protocol stages folded from the program's own request trace; the first
#: five occur on every listed workload, ``release`` only behind a plain
#: message queue and ``coordinate`` only on multilog
STAGES = ("admit", "batch", "agree", "execute", "reply")
OCCASIONAL_STAGES = ("release", "coordinate")
#: message types reported by canonical bytes moved, ranked per run
TOP_TYPES = 5

#: (name, unit, better) of every per-layer metric, in report order.  Time
#: spent per commit is in ``ms/commit``; a layer the workload bypasses
#: reads 0.  Pool metrics, event-loop lag and the occasional stages are
#: computed on every traced run but reported beside the metrics (see
#: ``EXTRA``): they read 0 on every run of a workload without that layer.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("encoding.calls_per_commit", "count", "lower"),
    ("encoding.bytes_per_commit", "B", "lower"),
    ("encoding.self_ms_per_commit", "ms/commit", "lower"),
) + tuple(
    (f"messages.encode_bytes_per_commit.top{rank}", "B", "lower")
    for rank in range(1, TOP_TYPES + 1)
) + (
    ("wirecache.hit_ratio", "ratio", "higher"),
    ("wirecache.self_ms_per_commit", "ms/commit", "lower"),
    ("crypto.verify_ops_per_commit", "count", "lower"),
    ("crypto.cache_hit_ratio", "ratio", "higher"),
    ("crypto.self_ms_per_commit", "ms/commit", "lower"),
    ("keys.pair_secret_calls_per_commit", "count", "lower"),
    ("keys.self_ms_per_commit", "ms/commit", "lower"),
    ("sim.events_per_commit", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.self_ms_per_commit", "ms/commit", "lower"),
    ("sim.busy_ms_per_commit", "ms/commit", "lower"),
    ("sim.max_utilization", "ratio", "lower"),
    ("sim.timer_fires_per_commit", "count", "lower"),
    ("net.messages_per_commit", "count", "lower"),
    ("net.bytes_per_commit", "B", "lower"),
    ("net.self_ms_per_commit", "ms/commit", "lower"),
    ("runtime.frames_per_commit", "count", "lower"),
    ("runtime.wire_bytes_per_commit", "B", "lower"),
    ("runtime.serialize_ms_per_commit", "ms/commit", "lower"),
    ("runtime.deserialize_ms_per_commit", "ms/commit", "lower"),
    ("runtime.burn_ms_per_commit", "ms/commit", "lower"),
    ("agreement.requests_per_batch", "count", "higher"),
    ("agreement.view_changes", "count", "lower"),
    ("agreement.self_ms_per_commit", "ms/commit", "lower"),
    ("core.client_retransmissions_per_commit", "count", "lower"),
    ("core.self_ms_per_commit", "ms/commit", "lower"),
    ("sharding.self_ms_per_commit", "ms/commit", "lower"),
    ("sharding.shard_imbalance", "ratio", "lower"),
    ("multilog.self_ms_per_commit", "ms/commit", "lower"),
    ("multilog.cross_log_markers_per_commit", "count", "lower"),
) + tuple(
    (f"stage.{stage}.p50_ms", "ms", "lower") for stage in STAGES
) + (
    ("outside.ms_per_commit", "ms/commit", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: computed on every traced run, reported beside the metrics
EXTRA = ("pool.jobs_per_commit", "pool.jobs_per_batch", "pool.rejected",
         "pool.inline_batches", "pool.wait_ms_p50", "pool.wait_ms_p99",
         "runtime.loop_lag_p50_ms", "runtime.loop_lag_p99_ms") + tuple(
    f"stage.{stage}.p50_ms" for stage in OCCASIONAL_STAGES)

#: which probe layer each ``*.self_ms_per_commit`` metric reads
_SELF_TIME = {
    "encoding": "util.encoding", "wirecache": "util.wirecache",
    "crypto": "crypto", "keys": "crypto.keys", "sim": "sim", "net": "net",
    "agreement": "agreement", "core": "core", "sharding": "sharding",
    "multilog": "multilog",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def snapshot(system) -> Dict[str, float]:
    """Every program counter the per-layer view reads, as a flat dict."""
    out: Dict[str, float] = {}
    processes = list(system.server_processes()) + list(system.clients)
    for process in processes:
        for op, count in process.stats.crypto_ops.items():
            out["crypto." + op] = out.get("crypto." + op, 0) + count
    out["timer_fires"] = sum(p.stats.timer_fires for p in processes)
    servers = system.server_processes()
    out["busy_ms"] = sum(p.stats.busy_ms for p in servers)
    for p in servers:
        out["busy_ms." + p.node_id.name] = p.stats.busy_ms
    out["net.sends"] = system.network.stats.sends
    out["net.bytes"] = system.network.stats.bytes_sent
    transport = getattr(system.network, "transport", None)
    if transport is not None:
        for key, value in transport.snapshot().items():
            out["transport." + key] = value
    pool = getattr(system.runtime, "pool", None)
    if pool is not None:
        for key, value in pool.stats.snapshot().items():
            out["pool." + key] = value
    try:
        from repro.util.wirecache import WIRE_CACHE

        cache = WIRE_CACHE.snapshot()
        out["wirecache.hits"] = cache["hits"]
        out["wirecache.misses"] = cache["misses"]
    except ImportError:
        pass
    replicas = system.agreement_replicas
    out["config.agreement_cluster"] = system.config.num_agreement_nodes
    out["agreement.requests"] = sum(r.requests_delivered for r in replicas)
    out["agreement.batches"] = sum(r.batches_delivered for r in replicas)
    out["agreement.view_changes"] = sum(r.view_changes_completed
                                        for r in replicas)
    out["core.retransmissions"] = sum(c.retransmissions
                                      for c in system.clients)
    by_shard = getattr(system, "requests_executed_by_shard", None)
    if by_shard is not None:
        for shard, count in enumerate(by_shard()):
            out[f"shard.{shard}"] = count
    log_replicas = getattr(system, "log_replicas", None)
    if log_replicas is not None:
        out["multilog.markers"] = sum(
            max(replica.local.cross_log_markers for replica in replicas)
            for replicas in log_replicas)
    return out


class LayerView:
    """Accumulates traced episodes, then derives the per-layer metrics."""

    def __init__(self, simulated: bool) -> None:
        self.simulated = simulated
        self.commits = 0
        self.wall_s = 0.0
        self.window_clock_ms = 0.0
        self.delta: Dict[str, float] = {}
        self.busy_by_node: Dict[str, float] = {}
        self.critical_paths: List[Dict] = []
        self.loop_lags_ms: List[float] = []
        self.agreement_cluster = 1

    def add(self, episode) -> None:
        self.commits += episode.commits
        self.wall_s += episode.wall_s
        self.window_clock_ms += episode.window_clock_ms
        for key, value in episode.after.items():
            change = value - episode.before.get(key, 0)
            if key.startswith("config."):
                self.agreement_cluster = int(value)
            elif key.startswith("busy_ms."):
                self.busy_by_node[key] = self.busy_by_node.get(key, 0) + change
            else:
                self.delta[key] = self.delta.get(key, 0) + change
        if episode.critical_path is not None:
            self.critical_paths.append(episode.critical_path)
        self.loop_lags_ms.extend(episode.loop_lags_ms)

    def metrics(self, probes: Probes, overhead_ratio: float
                ) -> Dict[str, float]:
        d = self.delta
        commits = max(self.commits, 1)
        out: Dict[str, float] = {}

        def per_commit(value: float) -> float:
            return value / commits

        for metric, layer in _SELF_TIME.items():
            out[f"{metric}.self_ms_per_commit"] = per_commit(
                probes.layer_self_ms(layer))
        out["encoding.calls_per_commit"] = per_commit(
            probes.layer_calls("util.encoding"))
        out["encoding.bytes_per_commit"] = per_commit(probes.encode_bytes)
        ranked = probes.top_types(TOP_TYPES)
        for rank in range(1, TOP_TYPES + 1):
            size = ranked[rank - 1][1] if rank <= len(ranked) else 0
            out[f"messages.encode_bytes_per_commit.top{rank}"] = per_commit(size)

        lookups = d.get("wirecache.hits", 0) + d.get("wirecache.misses", 0)
        out["wirecache.hit_ratio"] = (d.get("wirecache.hits", 0) / lookups
                                      if lookups else 0.0)
        verify = sum(d.get("crypto." + op, 0) for op in VERIFY_OPS)
        cached = sum(d.get("crypto." + op, 0) for op in VERIFY_CACHED_OPS)
        out["crypto.verify_ops_per_commit"] = per_commit(verify)
        out["crypto.cache_hit_ratio"] = (cached / (cached + verify)
                                         if cached + verify else 0.0)
        out["keys.pair_secret_calls_per_commit"] = per_commit(
            probes.layer_calls("crypto.keys"))

        batches = d.get("pool.batches", 0)
        out["pool.jobs_per_commit"] = per_commit(d.get("pool.jobs", 0))
        out["pool.jobs_per_batch"] = (d.get("pool.jobs", 0) / batches
                                      if batches else 0.0)
        out["pool.rejected"] = d.get("pool.rejected", 0)
        out["pool.inline_batches"] = d.get("pool.inline_batches", 0)
        out["pool.wait_ms_p50"] = percentile(probes.pool_waits_ms, 50)
        out["pool.wait_ms_p99"] = percentile(probes.pool_waits_ms, 99)

        events = probes.layer_calls("sim")
        out["sim.events_per_commit"] = per_commit(events)
        out["sim.events_per_s"] = events / self.wall_s if self.wall_s else 0.0
        busy = d.get("busy_ms", 0)
        out["sim.busy_ms_per_commit"] = per_commit(busy) if self.simulated else 0.0
        out["sim.max_utilization"] = (
            max(self.busy_by_node.values(), default=0.0) / self.window_clock_ms
            if self.simulated and self.window_clock_ms else 0.0)
        out["sim.timer_fires_per_commit"] = per_commit(d.get("timer_fires", 0))
        out["net.messages_per_commit"] = per_commit(d.get("net.sends", 0))
        out["net.bytes_per_commit"] = per_commit(d.get("net.bytes", 0))

        out["runtime.frames_per_commit"] = per_commit(
            d.get("transport.frames_sent", 0))
        out["runtime.wire_bytes_per_commit"] = per_commit(
            d.get("transport.bytes_on_wire", 0))
        out["runtime.serialize_ms_per_commit"] = per_commit(
            d.get("transport.serialize_ms", 0))
        out["runtime.deserialize_ms_per_commit"] = per_commit(
            d.get("transport.deserialize_ms", 0))
        out["runtime.burn_ms_per_commit"] = (0.0 if self.simulated
                                             else per_commit(busy))
        out["runtime.loop_lag_p50_ms"] = percentile(self.loop_lags_ms, 50)
        out["runtime.loop_lag_p99_ms"] = percentile(self.loop_lags_ms, 99)

        batches = d.get("agreement.batches", 0)
        out["agreement.requests_per_batch"] = (
            d.get("agreement.requests", 0) / batches if batches else 0.0)
        out["agreement.view_changes"] = (d.get("agreement.view_changes", 0)
                                         / self.agreement_cluster)
        out["core.client_retransmissions_per_commit"] = per_commit(
            d.get("core.retransmissions", 0))
        shards = [value for key, value in d.items() if key.startswith("shard.")]
        out["sharding.shard_imbalance"] = (
            max(shards) * len(shards) / sum(shards)
            if shards and sum(shards) else 0.0)
        out["multilog.cross_log_markers_per_commit"] = per_commit(
            d.get("multilog.markers", 0))

        for stage in STAGES + OCCASIONAL_STAGES:
            values = [path["stages"][stage]["p50_ms"]
                      for path in self.critical_paths
                      if stage in path.get("stages", {})]
            out[f"stage.{stage}.p50_ms"] = median(values) if values else 0.0
        covered = sum(probes.self_s) * 1000.0
        out["outside.ms_per_commit"] = max(
            0.0, per_commit(self.wall_s * 1000.0 - covered))
        out["trace.overhead_ratio"] = overhead_ratio
        return out


def absent_layers(probes: Probes, simulated: bool, multilog: bool,
                  sharded: bool, pooled: bool) -> List[str]:
    """Layers this run could not measure: missing from the program, or
    bypassed by the workload."""
    absent = set(probes.absent)
    absent.add("runtime" if simulated else "sim")
    if not multilog:
        absent.add("multilog")
    if not sharded:
        absent.add("sharding")
    if not pooled:
        absent.add("crypto.pool")
    return sorted(absent)

