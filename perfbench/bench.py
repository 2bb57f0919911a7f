"""Runs of the benchmark: end-to-end (untraced) and per-layer (traced).

A run is made of episodes, each on a freshly built deployment whose seeds
are derived from the run's seeds (episode ``k`` uses ``seed * 1000 + k``),
so a run averages over three deployments and inputs while staying a pure
function of ``--seed``.

*Untraced run* (``--trace 0``) -- every ``END_TO_END`` metric, from three
episodes.  Each measures a window of ``seconds / 3`` wall seconds on the
asyncio backend, or ``seconds * virtual_ms_per_second / 3`` virtual
milliseconds on the simulator, whose clock metrics
(``committed_per_clock_s``, latencies) are therefore deterministic.

The shared host runs the same code up to twice as slowly for seconds to
tens of seconds at a time, so a run that only averaged over it would
measure the other tenants.  The windows are therefore cut into slices of
about a tenth of a wall second (a fifth on the asyncio backend), and a
fixed pure-Python loop is timed between every two and around both phases
of every set-up (``episode.host_probe``).  Every wall and CPU time is
rescaled, slice by slice, to a reference host on which that loop takes
``PROBE_REF_S``: a stretch measured while the loop took ``p`` seconds
counts ``PROBE_REF_S / p`` times its length.  The asyncio backend's
emulated crypto cost, a busy-wait of fixed wall time, is taken out before
rescaling and added back unscaled (``Slice.host_wall_s``).  The loop runs
no program code, so a change to the program moves these figures as it
moves the program's own time.  They are ``committed_per_s``,
``cpu_ms_per_commit``, ``setup_s`` (the median of the three rescaled
set-ups) and, on the asyncio backend, whose deployment clock is wall time,
``committed_per_clock_s`` and the latencies (each request's by the slice
it completed in).

*Traced run* (``--trace 1``) -- every ``PER_LAYER`` metric: episodes 0 and
1 each run untraced and then traced.  On the simulator each traced
episode's clock metrics must equal its untraced twin's (the probes are
passive); ``trace.overhead_ratio`` is untraced over traced wall
throughput.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from .episode import Episode, peak_rss_mb, run_episode
from .layers import (EXTRA, PER_LAYER, LayerView, absent_layers, percentile,
                     snapshot)
from .probes import Probes
from .workloads import Workload

#: (name, unit, better, bound) of every end-to-end metric.  Bounds sit
#: well above the spread between seeds on a shared 2-core host once times
#: are rescaled to the reference host (see the README for the figures).
#: The tail is p95: p99 needs about 1,000 samples, which a run gives only
#: on sim-kv-sharded, so p99 is printed beside the metrics instead.
END_TO_END = (
    ("committed_per_s", "req/s", "higher", 0.25),
    ("committed_per_clock_s", "req/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_commit", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
)

#: episodes per untraced run (traced runs use the first two)
EPISODES = 3


@dataclass
class RunResult:
    """Everything one invocation measured and checked."""

    workload: str
    seed: int
    traced: bool
    metrics: Dict[str, float] = field(default_factory=dict)
    units: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.violations


def _window(workload: Workload, seconds: float):
    """Per-episode window (deployment-clock ms) and its slice count."""
    if workload.simulated:
        window = seconds * workload.virtual_ms_per_second / EPISODES
    else:
        window = seconds * 1000.0 / EPISODES
    return window, max(1, round(window / workload.slice_ms))


def _episode(workload: Workload, seed: int, sim_seed: int, k: int,
             seconds: float, **traced) -> Episode:
    window, slices = _window(workload, seconds)
    return run_episode(workload, sim_seed * 1000 + k,
                       workload.operations(seed * 1000 + k), window, slices,
                       **traced)


def _collect(result: RunResult, episodes: List[Episode]) -> None:
    for episode in episodes:
        result.attempted += episode.attempted
        result.failed += episode.failed
        result.violations.extend(episode.violations)
        result.errors.extend(episode.errors)


def _commits(episodes: List[Episode]) -> int:
    return sum(episode.commits for episode in episodes)


def _wall_rate(episodes: List[Episode]) -> float:
    """Commits per rescaled wall second of the window."""
    wall = sum(part.host_wall_s for episode in episodes
               for part in episode.slices)
    return _commits(episodes) / wall if wall else 0.0


def _cpu_per_commit(episodes: List[Episode]) -> float:
    """Rescaled CPU milliseconds per commit of the window."""
    cpu = sum(part.host_cpu_s for episode in episodes
              for part in episode.slices)
    commits = _commits(episodes)
    return cpu * 1000.0 / commits if commits else 0.0


def _clock_s(workload: Workload, episodes: List[Episode]) -> float:
    """Deployment-clock seconds of the window, rescaled where that clock
    is wall time."""
    if workload.simulated:
        return sum(episode.window_clock_ms for episode in episodes) / 1000.0
    return sum((part.end_ms - part.start_ms) * part.clock_factor
               for episode in episodes for part in episode.slices) / 1000.0


def end_to_end(workload: Workload, seed: int, seconds: float,
               sim_seed: Optional[int] = None) -> RunResult:
    """The untraced run: every end-to-end metric."""
    sim_seed = seed if sim_seed is None else sim_seed
    result = RunResult(workload.name, seed, traced=False)
    episodes = [_episode(workload, seed, sim_seed, k, seconds)
                for k in range(EPISODES)]
    setups = [episode.host_setup_s for episode in episodes]
    _collect(result, episodes)

    commits = _commits(episodes)
    clock_s = _clock_s(workload, episodes)
    latencies = [value for episode in episodes
                 for value in episode.host_latencies_ms]
    values = {
        "committed_per_s": _wall_rate(episodes),
        "committed_per_clock_s": commits / clock_s if clock_s else 0.0,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "cpu_ms_per_commit": _cpu_per_commit(episodes),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": median(setups),
    }
    for name, unit, _, _ in END_TO_END:
        result.metrics[name] = values[name]
        result.units[name] = unit
    result.notes.update(
        episodes=len(episodes), commits=commits, latency_samples=len(latencies),
        latency_p99_ms=percentile(latencies, 99),
        p99_samples_beyond=len(latencies) - int(0.99 * len(latencies)),
        setups=setups, window_clock_ms=clock_s * 1000.0,
        raw_setups=[episode.setup_s for episode in episodes],
        raw_committed_per_s=commits / max(
            sum(episode.wall_s for episode in episodes), 1e-9),
        raw_latency_p50_ms=percentile(
            [value for episode in episodes for value in episode.latencies_ms],
            50),
        slices=[episode.slices for episode in episodes],
        failed_frac=result.failed / max(result.attempted, 1))
    return result


def per_layer(workload: Workload, seed: int, seconds: float,
              sim_seed: Optional[int] = None,
              spans_path: Optional[Path] = None) -> RunResult:
    """The traced run: every per-layer metric, plus the passivity checks."""
    sim_seed = seed if sim_seed is None else sim_seed
    result = RunResult(workload.name, seed, traced=True)
    probes = Probes()
    view = LayerView(workload.simulated)
    untraced: List[Episode] = []
    traced: List[Episode] = []
    for k in range(2):
        untraced.append(_episode(workload, seed, sim_seed, k, seconds))
        traced.append(_episode(workload, seed, sim_seed, k, seconds,
                               probes=probes, snapshot=snapshot))
        view.add(traced[-1])
    _collect(result, untraced + traced)

    leaks = probes.patched_attributes()
    if leaks:
        result.violations.append(f"probes left patched: {', '.join(leaks)}")
    if workload.simulated and any(
            plain.clock_metrics() != probed.clock_metrics()
            for plain, probed in zip(untraced, traced)):
        result.violations.append(
            "traced clock metrics differ from the untraced run's "
            "(the probes are not passive)")
    overhead = _wall_rate(untraced) / max(_wall_rate(traced), 1e-9)
    values = view.metrics(probes, overhead)
    for name, unit, _ in PER_LAYER:
        result.metrics[name] = values[name]
        result.units[name] = unit
    result.notes.update(
        traced_commits=view.commits,
        extra_metrics={name: values[name] for name in EXTRA},
        absent_layers=absent_layers(
            probes, workload.simulated,
            multilog=view.delta.get("multilog.markers") is not None,
            sharded=any(key.startswith("shard.") for key in view.delta),
            pooled=bool(view.delta.get("pool.batches"))),
        top_types=[{"rank": rank, "type": name, "bytes": size}
                   for rank, (name, size)
                   in enumerate(probes.top_types(), start=1)],
        spans_recorded=len(probes.spans), spans_dropped=probes.spans_dropped)
    if spans_path is not None:
        probes.write_spans(spans_path)
        result.notes["spans_file"] = str(spans_path)
    return result


def reap_children(timeout_s: float = 10.0) -> None:
    """Wait for every worker process this run started (crypto-pool
    workers), terminating any that outlive ``timeout_s``."""
    for child in multiprocessing.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.terminate()
            child.join(timeout_s)
