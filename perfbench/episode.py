"""One episode of a workload: build, warm up, measure, drain, check.

An episode drives a freshly built deployment through the public entry
points only -- the system builder, ``ClientNode.submit(op, callback=...)``,
``run`` / ``run_until`` and ``close`` -- plus the stats objects the program
already exposes.  Time is read from the deployment's clock (``system.now``:
virtual milliseconds on the simulator, wall milliseconds on the asyncio
backend) for latency and clock throughput, and from ``perf_counter`` for
wall throughput and set-up.

The host is a few cores of a shared machine whose speed changes under the
benchmark: for seconds to tens of seconds at a time it runs the same
Python code up to twice as slowly.  So the window is cut into short slices
and a fixed pure-Python loop (``host_probe``) is timed between every two
of them, and around every set-up.  Each slice's ``factor`` rescales its
times to a host on which the probe takes ``PROBE_REF_S``.  The asyncio
backend's emulated crypto cost is a busy-wait of fixed wall time, which
the host's speed does not change, so it is left out of the rescaling.
"""

from __future__ import annotations

import bisect
import gc
import multiprocessing
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, NamedTuple, Optional

from repro.errors import LivenessTimeoutError
from repro.fuzz.oracles import run_oracles

from .workloads import KV_VALUE, Workload

#: how long the in-flight tail may take to land after the window, and how
#: long replicas get afterwards to converge before the state check
DRAIN_MS = {"sim": 2_000.0, "asyncio": 5_000.0}
SETTLE_MS = {"sim": 500.0, "asyncio": 2_000.0}
#: warm-up must finish within this much deployment time
WARMUP_TIMEOUT_MS = {"sim": 10_000.0, "asyncio": 30_000.0}
#: the reference host speed: ``host_probe`` takes this long on it (about
#: 1.7 ms on an undisturbed 2 GHz Xeon core, 3-3.5 ms while it is slowed)
PROBE_REF_S = 0.002


@dataclass
class Record:
    """One submitted request, as the benchmark saw it."""

    client: int
    operation: Any
    submitted_ms: float
    completed_ms: Optional[float] = None
    result: Any = None


class ClosedLoop:
    """Each client issues its next operation from the previous one's
    completion callback: exactly one request outstanding per client."""

    def __init__(self, system, operations: Iterator) -> None:
        self.system = system
        self.operations = operations
        self.records: List[Record] = []
        self.completed = 0
        self.issuing = True

    @property
    def outstanding(self) -> int:
        return len(self.records) - self.completed

    def start(self) -> None:
        for index in range(len(self.system.clients)):
            self._issue(index)

    def _issue(self, index: int) -> None:
        operation = next(self.operations)
        record = Record(client=index, operation=operation,
                        submitted_ms=self.system.now)
        self.records.append(record)
        self.system.clients[index].submit(
            operation, callback=lambda done, record=record:
                self._done(record, done))

    def _done(self, record: Record, done) -> None:
        record.submitted_ms = done.issued_at_ms
        record.completed_ms = done.completed_at_ms
        record.result = done.result
        self.completed += 1
        if self.issuing:
            self._issue(record.client)


def _children_cpu_s() -> float:
    """CPU seconds of this process's live worker processes (the crypto
    pool's), read from their ``/proc/<pid>/stat``."""
    total, tick = 0.0, os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def cpu_seconds() -> float:
    """CPU time of this process plus its live children."""
    return time.process_time() + _children_cpu_s()


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now, with the garbage
    collector off.  It runs no program code, so a change to the program
    never moves it."""
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    table: Dict[str, List[int]] = {}
    for i in range(5_000):
        key = "k%d" % (i % 1009)
        bucket = table.get(key)
        if bucket is None:
            table[key] = [i]
        else:
            bucket.append(i)
    elapsed = time.perf_counter() - started
    if enabled:
        gc.enable()
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def burned_s(system) -> float:
    """Seconds of emulated cost the asyncio backend has burned so far (the
    charges it tallies in ``ProcessStats.busy_ms``); 0 on the simulator,
    whose charges are virtual."""
    runtime = system.config.runtime
    if runtime.backend == "sim":
        return 0.0
    processes = list(system.server_processes()) + list(system.clients)
    return (sum(process.stats.busy_ms for process in processes)
            * runtime.charge_scale / 1000.0)


class Slice(NamedTuple):
    """One slice of the measured window."""

    commits: int
    wall_s: float
    cpu_s: float
    #: emulated cost burned in the slice (``burned_s``)
    burn_s: float
    #: deployment clock at the slice's start and end
    start_ms: float
    end_ms: float
    #: ``host_probe`` seconds just before and just after the slice
    probe_before_s: float
    probe_after_s: float

    @property
    def factor(self) -> float:
        """Reference-host seconds per second of this host."""
        return 2.0 * PROBE_REF_S / (self.probe_before_s + self.probe_after_s)

    @property
    def host_wall_s(self) -> float:
        """Wall seconds rescaled to the reference host, burn unscaled."""
        return self.burn_s + (self.wall_s - self.burn_s) * self.factor

    @property
    def host_cpu_s(self) -> float:
        """CPU seconds rescaled to the reference host, burn unscaled."""
        return self.burn_s + (self.cpu_s - self.burn_s) * self.factor

    @property
    def clock_factor(self) -> float:
        """How much the rescaling stretches this slice's wall time."""
        return self.host_wall_s / self.wall_s if self.wall_s else 1.0


@dataclass
class Episode:
    """What one episode measured."""

    setup_s: float = 0.0
    #: ``setup_s`` rescaled to the reference host
    host_setup_s: float = 0.0
    window_clock_ms: float = 0.0
    slices: List[Slice] = field(default_factory=list)
    commits: int = 0
    attempted: int = 0
    failed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    #: ``latencies_ms`` rescaled by the factor of the slice each request
    #: completed in, where the deployment clock is wall time; equal to
    #: ``latencies_ms`` on the simulator
    host_latencies_ms: List[float] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: program stats at window start/end (for the per-layer view)
    before: Dict[str, float] = field(default_factory=dict)
    after: Dict[str, float] = field(default_factory=dict)
    critical_path: Optional[Dict[str, Any]] = None
    loop_lags_ms: List[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(part.wall_s for part in self.slices)

    def clock_metrics(self) -> tuple:
        """Everything a deterministic simulator run must repeat exactly."""
        return (self.window_clock_ms, self.commits, self.attempted,
                self.failed, tuple(self.latencies_ms))


def set_up(workload: Workload, seed: int, operations: Iterator,
           traced: bool = False):
    """Build, prepare and warm up; returns (system, loop, set-up seconds,
    set-up seconds rescaled like two slices: build and prepare, warm-up).

    The caller owns the system and must ``close()`` it, also on error.
    """
    before = host_probe()
    started = time.perf_counter()
    _reset_wire_cache()
    system = workload.build(seed, traced)
    try:
        if workload.prepare is not None:
            workload.prepare(system)
        built = time.perf_counter() - started
        burn = burned_s(system)
        middle = host_probe()
        started = time.perf_counter()
        loop = ClosedLoop(system, operations)
        loop.start()
        target = workload.warmup_per_client * len(system.clients)
        system.run_until(
            lambda: loop.completed >= target,
            WARMUP_TIMEOUT_MS[workload.backend],
            description=f"warm-up of {workload.name}")
        warmed = time.perf_counter() - started
    except BaseException:
        system.close()
        raise
    phases = (Slice(0, built, 0.0, burn, 0.0, 0.0, before, middle),
              Slice(0, warmed, 0.0, burned_s(system) - burn, 0.0, 0.0,
                    middle, host_probe()))
    return (system, loop, built + warmed,
            sum(phase.host_wall_s for phase in phases))


def _reset_wire_cache() -> None:
    """Start every deployment from an empty process-wide wire cache, so an
    episode's virtual time never depends on the episodes before it."""
    try:
        from repro.util.wirecache import WIRE_CACHE
    except ImportError:
        return
    WIRE_CACHE.reset()


def run_episode(workload: Workload, seed: int, operations: Iterator,
                window_ms: float, slices: int, probes=None,
                snapshot=None) -> Episode:
    """One full episode.  ``probes`` (installed for the window only) and
    ``snapshot`` (a stats reader called at window start and end) make it a
    traced episode."""
    episode = Episode()
    traced = probes is not None
    try:
        system, loop, episode.setup_s, episode.host_setup_s = set_up(
            workload, seed, operations, traced=traced)
    except Exception as exc:  # the episode is the boundary that reports it
        # Nothing was measured: count the episode as one failed attempt.
        _record_failure(episode, "set-up", exc)
        episode.attempted = episode.failed = 1
        return episode
    try:
        _measure(workload, system, loop, episode, window_ms, slices, probes,
                 snapshot)
        if traced:
            episode.critical_path = system.critical_path()
        episode.violations.extend(check_correctness(workload, system, loop))
    finally:
        system.close()
    return episode


def _record_failure(episode: Episode, phase: str, exc: Exception) -> None:
    """A liveness timeout is an error (its requests count as failed); any
    other exception from the program also fails the correctness check."""
    detail = f"{phase}: {type(exc).__name__}: {exc}"
    episode.errors.append(detail)
    if not isinstance(exc, LivenessTimeoutError):
        episode.violations.append(f"exception in {detail}")


def _measure(workload, system, loop, episode, window_ms, slices, probes,
             snapshot) -> None:
    lag = None
    if probes is not None and not workload.simulated:
        from .probes import LoopLagSampler

        lag = LoopLagSampler(system.scheduler.loop)
    if snapshot is not None:
        episode.before = snapshot(system)
    first_record = len(loop.records)
    start_ms = system.now
    if probes is not None:
        probes.install()
    try:
        if lag is not None:
            lag.start()
        step = window_ms / slices
        speed = host_probe()
        for _ in range(slices):
            done, clock, burn = loop.completed, system.now, burned_s(system)
            wall, cpu = time.perf_counter(), cpu_seconds()
            try:
                system.run(step)
            except Exception as exc:  # reported; the window ends here
                _record_failure(episode, "window", exc)
                break
            finally:
                measured = (loop.completed - done,
                            time.perf_counter() - wall, cpu_seconds() - cpu,
                            burned_s(system) - burn, clock, system.now)
                after = host_probe()
                episode.slices.append(Slice(*measured, speed, after))
                speed = after
    finally:
        if lag is not None:
            lag.stop()
            episode.loop_lags_ms = lag.lags_ms
        if probes is not None:
            probes.uninstall()
    end_ms = system.now
    if snapshot is not None:
        episode.after = snapshot(system)
    episode.window_clock_ms = end_ms - start_ms
    episode.commits = sum(part.commits for part in episode.slices)

    loop.issuing = False
    try:
        system.run_until(lambda: loop.outstanding == 0,
                         DRAIN_MS[workload.backend], description="drain")
    except Exception as exc:  # reported; unanswered requests fail below
        _record_failure(episode, "drain", exc)
    run_end = system.now
    try:
        system.run_until(lambda: _converged(system),
                         SETTLE_MS[workload.backend],
                         description="execution replicas converging")
    except Exception as exc:  # reported; the state check still runs
        _record_failure(episode, "settle", exc)

    # Requests issued inside the window; none are issued while draining.
    ends = [part.end_ms for part in episode.slices]
    for record in loop.records[first_record:]:
        episode.attempted += 1
        if record.completed_ms is None:
            episode.failed += 1
            completed = run_end
        else:
            completed = record.completed_ms
            if record.result.error is not None:
                episode.failed += 1
        latency = completed - record.submitted_ms
        episode.latencies_ms.append(latency)
        if not workload.simulated and ends:
            part = episode.slices[min(bisect.bisect_left(ends, completed),
                                      len(ends) - 1)]
            latency *= part.clock_factor
        episode.host_latencies_ms.append(latency)


def check_correctness(workload: Workload, system, loop: ClosedLoop
                      ) -> List[str]:
    """The program's oracles and the key-value read check.

    The reply-table audit oracle is the replica-state check: execution
    replicas at the same executed sequence number must hold identical
    application state, and the settle phase has brought them to one.
    """
    unanswered = loop.outstanding
    violations = [f"{v.oracle}: {v.detail}"
                  for v in run_oracles(system, completed_all=unanswered == 0)]
    violations.extend(_read_check(loop.records))
    return violations


def _converged(system) -> bool:
    """Every live execution replica of each cluster is at one frontier."""
    clusters = getattr(system, "shard_execution_nodes", None)
    if clusters is None:
        clusters = [system.execution_nodes]
    return all(len({node.max_executed for node in cluster
                    if not node.crashed}) <= 1
               for cluster in clusters)


def _read_check(records: List[Record]) -> List[str]:
    """Single-key results: a put is stored, and a get returns the one value
    ever written -- and finds it when a put to the key completed before
    the get was submitted."""
    problems = []
    written_at: Dict[str, float] = {}
    for record in records:
        if record.completed_ms is not None and record.operation.kind == "put":
            key = record.operation.args["key"]
            written_at[key] = min(written_at.get(key, record.completed_ms),
                                  record.completed_ms)
    for record in records:
        if record.completed_ms is None or record.result.error is not None:
            continue
        kind, value = record.operation.kind, record.result.value
        if kind == "put" and value != {"stored": True}:
            problems.append(f"put returned {value!r}")
        elif kind == "get":
            key = record.operation.args["key"]
            found = isinstance(value, dict) and value.get("found")
            if found and value.get("value") != KV_VALUE:
                problems.append(f"get {key} returned {value!r}")
            elif not found and written_at.get(key, float("inf")) < record.submitted_ms:
                problems.append(f"get {key} missed a put that completed "
                                "before it was submitted")
        if len(problems) >= 5:
            break
    return problems
