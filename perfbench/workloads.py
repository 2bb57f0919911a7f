"""The benchmark's named workloads: deployments and seeded operation streams.

Every workload is a closed loop: each client keeps exactly one request
outstanding and issues its next operation from the completion callback of
the previous one, with no think time.  The configurations are written out
here rather than imported from the gate scripts, so the inputs of this
benchmark change only when this file does.

The deployment is built from the simulator seed and the operations come
from the workload seed; the program sees only the generated operations.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from repro.apps.kvstore import KeyValueStore, get, put
from repro.config import (BatchingConfig, CrossShardConfig, CryptoCosts,
                          CryptoPoolConfig, ObservabilityConfig,
                          RuntimeConfig, SystemConfig, TimerConfig)

#: keys of the uniform key-value mix, and its value size in bytes
KV_KEY_SPACE = 96
KV_VALUE = "v" * 32

#: the hot-path protocol timers (retransmission rarely fires in a healthy
#: run) with a 5 ms bundle-fill window so bundles span several shards
HOTPATH_TIMERS = TimerConfig(client_retransmit_ms=400.0,
                             agreement_retransmit_ms=200.0,
                             execution_fetch_ms=50.0, view_change_ms=1_000.0,
                             batch_timeout_ms=5.0)
#: cheap MACs and a 1 ms application, so execution work dominates
HOTPATH_CRYPTO = CryptoCosts(mac_ms=0.05, signature_sign_ms=0.5,
                             signature_verify_ms=0.1, threshold_share_ms=1.0,
                             threshold_combine_ms=0.2,
                             threshold_verify_ms=0.1)
#: slow ordering timers, so back-pressure rather than retransmission shapes
#: the multi-log run
ORDERING_TIMERS = TimerConfig(client_retransmit_ms=5_000.0,
                              agreement_retransmit_ms=1_000.0,
                              execution_fetch_ms=50.0,
                              view_change_ms=20_000.0, batch_timeout_ms=1.0)
#: the real-runtime timers and the MAC-dominated crypto weights burned as
#: real CPU at charge_scale 1.0
REALTIME_TIMERS = dataclasses.replace(HOTPATH_TIMERS, batch_timeout_ms=1.0)
REALTIME_CRYPTO = CryptoCosts(mac_ms=0.4, signature_sign_ms=5.0,
                              signature_verify_ms=0.7)

MULTILOG_LOGS = 2
MULTILOG_SHARDS_PER_LOG = 4
MULTILOG_KEYS_PER_LOG = 64
MULTILOG_CLIENTS_PER_LOG = 16


def observability(traced: bool) -> ObservabilityConfig:
    """Request tracing feeds ``critical_path()`` in traced runs only."""
    return ObservabilityConfig(metrics=False, tracing=traced)


def kv_operations(seed: int) -> Iterator:
    """Endless uniform key-value mix: 50/50 get/put, 32 B values."""
    rng = random.Random(seed)
    while True:
        key = f"key-{rng.randrange(KV_KEY_SPACE):05d}"
        yield put(key, KV_VALUE) if rng.random() < 0.5 else get(key)


def _build_sharded(seed: int, traced: bool):
    from repro.sharding import ShardedSystem

    config = SystemConfig.sharded(
        num_shards=4, num_clients=16, pipeline_depth=64,
        checkpoint_interval=64, app_processing_ms=1.0,
        timers=HOTPATH_TIMERS, crypto=HOTPATH_CRYPTO,
        batching=BatchingConfig(mode="adaptive", min_bundle=1, max_bundle=64),
        observability=observability(traced))
    return ShardedSystem(config, KeyValueStore, seed=seed)


def _multilog_geometry():
    from repro.workloads import equal_range_boundaries

    num_shards = MULTILOG_LOGS * MULTILOG_SHARDS_PER_LOG
    key_space = MULTILOG_LOGS * MULTILOG_KEYS_PER_LOG
    # Two audit shards in log 0 (tears inside one log are detectable) plus
    # one in every other log (so the multi-shard slice crosses logs).
    audit = [0, 1] + [log * MULTILOG_SHARDS_PER_LOG
                      for log in range(1, MULTILOG_LOGS)]
    return num_shards, key_space, audit, equal_range_boundaries(key_space,
                                                                num_shards)


def _build_multilog(seed: int, traced: bool):
    from repro.multilog import MultiLogSystem

    num_shards, _, _, boundaries = _multilog_geometry()
    config = SystemConfig.multilog_sharded(
        num_logs=MULTILOG_LOGS, num_shards=num_shards, strategy="range",
        range_boundaries=boundaries,
        num_clients=MULTILOG_CLIENTS_PER_LOG * MULTILOG_LOGS,
        checkpoint_interval=64, app_processing_ms=0.2,
        timers=ORDERING_TIMERS, crypto=HOTPATH_CRYPTO,
        batching=BatchingConfig(mode="adaptive", min_bundle=1, max_bundle=16),
        cross_shard=CrossShardConfig(enabled=True),
        observability=observability(traced))
    return MultiLogSystem(config, KeyValueStore, seed=seed)


def _multilog_prepare(system) -> None:
    """Write the constant keys and audit stamp zero the mix relies on."""
    from repro.workloads import seed_operations

    num_shards, key_space, _, _ = _multilog_geometry()
    for operation in seed_operations(key_space, num_shards):
        system.invoke(operation, timeout_ms=10_000.0)


def multilog_operations(seed: int) -> Iterator:
    """10% cross-group snapshot reads and write-only transactions."""
    from repro.workloads import mixed_cross_group_operations

    num_shards, key_space, audit, _ = _multilog_geometry()
    chunk = 0
    while True:
        # Each chunk restarts the audit stamps; stamps only need to be
        # equal across the audit keys one transaction writes.
        yield from mixed_cross_group_operations(
            4096, key_space=key_space, num_shards=num_shards,
            multi_fraction=0.1, audit_shards=audit, max_span=4,
            seed=seed * 1_000 + chunk)
        chunk += 1


def _build_realtime(pool: bool) -> Callable:
    def build(seed: int, traced: bool):
        from repro.core.system import SeparatedSystem

        config = SystemConfig(
            f=1, g=1, num_clients=4, crypto=REALTIME_CRYPTO,
            timers=REALTIME_TIMERS, observability=observability(traced),
            runtime=RuntimeConfig(
                backend="asyncio", charge_scale=1.0,
                crypto_pool=CryptoPoolConfig(enabled=pool, workers=None)))
        return SeparatedSystem(config, KeyValueStore, seed=seed)
    return build


@dataclass(frozen=True)
class Workload:
    """One named workload of the benchmark."""

    name: str
    #: "sim" (virtual time, deterministic) or "asyncio" (wall clock)
    backend: str
    build: Callable[[int, bool], object]
    operations: Callable[[int], Iterator]
    why: str
    #: writes issued once, before warm-up (part of set-up)
    prepare: Optional[Callable[[object], None]] = None
    #: warm-up ends once this many requests per client have completed
    warmup_per_client: int = 3
    #: sim only: virtual milliseconds measured per requested wall second,
    #: so a run takes about ``--seconds`` on a 2-core host while its clock
    #: metrics stay a deterministic function of the seed
    virtual_ms_per_second: float = 0.0
    #: slice length in deployment-clock ms: about a tenth of a wall second,
    #: short beside the host's slow spells; the asyncio backend's are
    #: longer, as the host probe between slices stalls its event loop
    slice_ms: float = 200.0

    @property
    def simulated(self) -> bool:
        return self.backend == "sim"


WORKLOADS: List[Workload] = [
    Workload(
        name="sim-kv-sharded", backend="sim", build=_build_sharded,
        operations=kv_operations, virtual_ms_per_second=32.0, slice_ms=5.0,
        why="closed loop, 16 clients, seeds from --seed; simulated "
            "ShardedSystem, 4 shards, uniform 50/50 get/put: codec, wire "
            "cache and keys dominate, so hot-path gains show most here"),
    Workload(
        name="sim-multilog-xgroup", backend="sim", build=_build_multilog,
        operations=multilog_operations, prepare=_multilog_prepare,
        warmup_per_client=2, virtual_ms_per_second=3.5, slice_ms=0.5,
        why="closed loop, 32 clients, seeds from --seed; MultiLogSystem 2 "
            "logs x 4 shards, 10% cross-group reads and write-only txns: "
            "markers, bindings, cuts; the only multilog workload"),
    Workload(
        name="rt-kv-inline", backend="asyncio", build=_build_realtime(False),
        operations=kv_operations,
        why="closed loop, 4 clients, seeds from --seed; asyncio "
            "SeparatedSystem f=g=1, crypto burned inline: frames, sockets, "
            "event loop and burn on the blocking path; bypasses sim, sharding"),
    Workload(
        name="rt-kv-pool", backend="asyncio", build=_build_realtime(True),
        operations=kv_operations,
        why="closed loop, 4 clients, seeds from --seed; rt-kv-inline with the "
            "crypto process pool on, the only workload for crypto/pool.py; "
            "unlisted until it is steady"),
]

BY_NAME = {workload.name: workload for workload in WORKLOADS}
