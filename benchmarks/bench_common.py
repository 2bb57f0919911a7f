"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one figure or table from the paper's
evaluation section.  Benchmarks measure *virtual* time inside the simulator
(the quantity the paper reports) and print the corresponding rows/series;
pytest-benchmark additionally records the wall-clock cost of running each
simulation so regressions in the simulator itself are visible.

Scale note: the simulated experiments use fewer requests / iterations than
the paper's physical runs so the whole harness completes in minutes; the
*comparisons between configurations* are what reproduce the figures.

This module is deliberately *not* named ``conftest.py``: test modules in
``tests/`` import helpers from their own conftest by module name, and a
second ``conftest`` module on ``sys.path`` would shadow it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.critical_path import format_critical_path_table
from repro.config import ObservabilityConfig, SystemConfig, TimerConfig

#: Timers tuned so saturated-load benchmarks retransmit sparingly.
BENCH_TIMERS = TimerConfig(client_retransmit_ms=400.0, agreement_retransmit_ms=200.0,
                           execution_fetch_ms=50.0, view_change_ms=1_000.0,
                           batch_timeout_ms=1.0)

# ---------------------------------------------------------------------- #
# Observability toggle shared by every gated benchmark.
#
# The gate benches run with metrics + tracing on by default (observability
# is strictly passive, so the virtual-time results they gate CI on are
# bit-identical either way -- check_overhead.py enforces exactly that by
# re-running a leg with --no-obs and deep-comparing the JSON).  The toggle
# lives here because bench_skew imports bench_hotpath's workload runner:
# one process-wide switch keeps every builder consistent.
# ---------------------------------------------------------------------- #

_OBS_ON = ObservabilityConfig(metrics=True, tracing=True)
_OBS_OFF = ObservabilityConfig()
_obs_state = {"enabled": True}


def set_observability(enabled: bool) -> None:
    """Process-wide observability switch (driven by each bench's --no-obs)."""
    _obs_state["enabled"] = bool(enabled)


def current_observability() -> ObservabilityConfig:
    """The ObservabilityConfig every benchmark system should be built with."""
    return _OBS_ON if _obs_state["enabled"] else _OBS_OFF


def obs_enabled() -> bool:
    return _obs_state["enabled"]


def collect_critical_path(system, trace_output: Optional[Path] = None,
                          title: Optional[str] = None) -> Optional[Dict]:
    """Fold a measured system's trace into the per-stage breakdown.

    Returns None (and writes nothing) when observability is off, so callers
    can simply omit the ``critical_path`` key from their results JSON.
    Otherwise prints the stage table, optionally exports the raw trace as
    JSONL, and returns the breakdown dict for embedding in ``BENCH_*.json``.
    """
    if not system.config.observability.tracing:
        return None
    breakdown = system.critical_path()
    print()
    print(format_critical_path_table(breakdown, title=title))
    if trace_output is not None:
        count = system.export_trace_jsonl(str(trace_output))
        dropped = system.obs.tracer.dropped
        suffix = f" ({dropped} dropped at capacity)" if dropped else ""
        print(f"wrote {count} trace events to {trace_output}{suffix}")
    return breakdown


def bench_config(**overrides) -> SystemConfig:
    defaults = dict(num_clients=2, pipeline_depth=64, checkpoint_interval=128,
                    timers=BENCH_TIMERS, observability=current_observability())
    defaults.update(overrides)
    return SystemConfig(**defaults)


def gate_main(name: str, doc: str, argv: Optional[Sequence[str]], *,
              seed: int, workload_seed: int, run_all: Callable[..., Dict],
              check_regression: Callable[[Dict, Path], int],
              baseline_fields: Callable[[Dict], Dict],
              criteria: Callable[[Dict], List[Tuple[str, bool]]],
              traced_run: str, regression_help: str,
              warnings: Callable[[Dict], List[str]] = lambda results: [],
              extra_args: Sequence[Tuple[str, Dict]] = ()) -> int:
    """The command line every CI-gated benchmark script shares.

    Runs ``run_all`` and writes ``BENCH_<name>.json`` (plus the traced run's
    ``TRACE_<name>.jsonl``).  ``--update-baseline`` rewrites
    ``<name>_baseline.json`` from ``baseline_fields(results)`` and the run's
    mode; ``--check-regression`` applies ``check_regression`` to it.  The
    exit status is non-zero when the regression check fails or any named
    ``criteria(results)`` entry is false; ``warnings(results)`` are printed
    but never fail the run.  ``extra_args`` are ``(flag, add_argument
    options)`` pairs whose values are passed to ``run_all`` by name.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller windows for CI smoke runs")
    parser.add_argument("--seed", type=int, default=seed,
                        help="simulator seed; explicit so CI reruns are "
                             "bit-identical")
    parser.add_argument("--workload-seed", type=int, default=workload_seed,
                        help="workload-generator seed")
    parser.add_argument("--output", type=Path,
                        default=Path(f"BENCH_{name}.json"))
    parser.add_argument("--no-obs", action="store_true",
                        help="disable the metrics registry and request tracing "
                             "(the overhead gate compares this against the "
                             "default run; virtual-time results are identical)")
    parser.add_argument("--trace-output", type=Path,
                        default=Path(f"TRACE_{name}.jsonl"),
                        help=f"JSONL destination for {traced_run}'s trace "
                             "(ignored with --no-obs)")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).parent / f"{name}_baseline.json")
    extra = [parser.add_argument(flag, **options).dest
             for flag, options in extra_args]
    parser.add_argument("--check-regression", action="store_true",
                        help=regression_help)
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from this run's measurement")
    args = parser.parse_args(argv)

    set_observability(not args.no_obs)
    results = run_all(quick=args.quick, seed=args.seed,
                      workload_seed=args.workload_seed,
                      trace_output=None if args.no_obs else args.trace_output,
                      **{dest: getattr(args, dest) for dest in extra})
    args.output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.output}")

    status = 0
    if args.update_baseline:
        baseline = dict(baseline_fields(results), mode=results["mode"])
        args.baseline.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote baseline {args.baseline}")
    if args.check_regression:
        status = check_regression(results, args.baseline)
    for warning in warnings(results):
        print(f"WARNING: {warning}", file=sys.stderr)
    failed = [criterion for criterion, ok in criteria(results) if not ok]
    if failed:
        print("FAILED criteria: " + "; ".join(failed), file=sys.stderr)
        status = max(status, 1)
    return status


def print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
