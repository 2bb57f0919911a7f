"""Observability overhead gate: obs on vs off must be virtually identical.

Observability is strictly passive by design: enabling the metrics registry
and request tracing never charges virtual processing time, never schedules
events, and never draws from the deterministic RNG, so every virtual-time
quantity a benchmark reports must be **bit-identical** with observability on
(the gate default) and off (``--no-obs``).  This script enforces that
design invariant for one gate leg by running its benchmark twice and
deep-comparing the two results files after stripping the fields that are
*allowed* to differ -- wall-clock measurements (machine noise) and the
observability outputs themselves::

    PYTHONPATH=src python benchmarks/check_overhead.py --quick hotpath

Any other difference means instrumentation leaked into the simulation
(e.g. an instrument charged time or consumed randomness) and fails CI.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from run_gate import GATES

BENCH_DIR = Path(__file__).parent

#: gate leg -> benchmark script, for every run_gate leg except the
#: wall-clock ``realtime`` one, whose results are not deterministic (no
#: baselines here because the overhead gate checks determinism, not
#: regressions)
SCRIPTS: Dict[str, str] = {name: gate["script"] for name, gate in GATES.items()
                           if name != "realtime"}

#: fields allowed to differ between the obs-on and obs-off runs, stripped at
#: any nesting depth before the comparison: wall-clock measurements, the
#: wall-clock-derived verdicts, the wall-clock micro section, and the
#: observability outputs themselves
VOLATILE_KEYS = frozenset({
    "unix_time", "wall_seconds", "events_per_sec", "wallclock_speedup",
    "wallclock_pass", "micro", "critical_path", "observability", "pass",
})


def strip_volatile(value):
    """A deep copy with every VOLATILE_KEYS field removed."""
    if isinstance(value, dict):
        return {key: strip_volatile(item) for key, item in value.items()
                if key not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [strip_volatile(item) for item in value]
    return value


def deep_diff(a, b, path: str = "$") -> List[str]:
    """Paths at which two stripped JSON values differ (empty = identical)."""
    if type(a) is not type(b):
        return [f"{path}: type {type(a).__name__} != {type(b).__name__}"]
    if isinstance(a, dict):
        diffs: List[str] = []
        for key in sorted(set(a) | set(b)):
            if key not in a:
                diffs.append(f"{path}.{key}: only in obs-off run")
            elif key not in b:
                diffs.append(f"{path}.{key}: only in obs-on run")
            else:
                diffs.extend(deep_diff(a[key], b[key], f"{path}.{key}"))
        return diffs
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        diffs = []
        for index, (left, right) in enumerate(zip(a, b)):
            diffs.extend(deep_diff(left, right, f"{path}[{index}]"))
        return diffs
    if a != b:
        return [f"{path}: {a!r} != {b!r}"]
    return []


def run_leg(name: str, quick: bool, obs: bool, output: Path) -> int:
    command = [sys.executable, str(BENCH_DIR / SCRIPTS[name]),
               "--output", str(output)]
    if quick:
        command.append("--quick")
    if not obs:
        command.append("--no-obs")
    label = "obs-on" if obs else "obs-off"
    print(f"overhead gate: running {name} ({label}) -> {output}")
    return subprocess.call(command)


def check_overhead(name: str, quick: bool, keep_outputs: bool = True) -> int:
    on_path = Path.cwd() / f"OVERHEAD_{name}_obs_on.json"
    off_path = Path.cwd() / f"OVERHEAD_{name}_obs_off.json"
    for obs, output in ((True, on_path), (False, off_path)):
        status = run_leg(name, quick, obs, output)
        if status != 0:
            # The leg's own acceptance criteria are the regression gate's
            # concern; here a non-zero exit still produced comparable JSON
            # unless the file is missing.
            if not output.exists():
                print(f"overhead gate: {name} ({'obs-on' if obs else 'obs-off'}) "
                      f"wrote no results (exit {status})", file=sys.stderr)
                return 1
    on = strip_volatile(json.loads(on_path.read_text()))
    off = strip_volatile(json.loads(off_path.read_text()))
    diffs = deep_diff(off, on)
    if diffs:
        print(f"overhead gate: {name} virtual-time results DIFFER with "
              f"observability enabled ({len(diffs)} field(s)):", file=sys.stderr)
        for diff in diffs[:20]:
            print(f"  {diff}", file=sys.stderr)
        if len(diffs) > 20:
            print(f"  ... and {len(diffs) - 20} more", file=sys.stderr)
        return 1
    print(f"overhead gate: {name} PASS -- virtual-time results bit-identical "
          "with observability on and off")
    if not keep_outputs:
        on_path.unlink(missing_ok=True)
        off_path.unlink(missing_ok=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", choices=sorted(SCRIPTS),
                        help="which gate leg to compare")
    parser.add_argument("--quick", action="store_true",
                        help="smaller windows for CI smoke runs")
    args = parser.parse_args(argv)
    return check_overhead(args.bench, quick=args.quick)


if __name__ == "__main__":
    raise SystemExit(main())
