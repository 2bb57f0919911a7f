"""The repo benchmark's command line.

Run from the repository root::

    python3 perfbench/run.py --workload sim-kv-sharded --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result (sample counts,
failed fraction, absent layers, top message types, errors) is also written
to ``.perfbench/<workload>-seed<seed>-trace<t>.json``, and a traced run's
spans to ``...-spans.csv`` beside it.  The exit status is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed (operation stream)")
    parser.add_argument("--sim-seed", type=int, default=None,
                        help="deployment seed (simulator RNG); defaults to "
                             "--seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import end_to_end, per_layer, reap_children
    from perfbench.workloads import BY_NAME

    workload = BY_NAME.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(BY_NAME)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sim_seed = args.seed if args.sim_seed is None else args.sim_seed
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUTPUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            result = per_layer(workload, args.seed, args.seconds,
                               sim_seed=sim_seed,
                               spans_path=OUTPUT_DIR / f"{stem}-spans.csv")
        else:
            result = end_to_end(workload, args.seed, args.seconds,
                                sim_seed=sim_seed)
    finally:
        reap_children()

    detail = {"workload": workload.name, "seed": args.seed,
              "sim_seed": sim_seed, "seconds": args.seconds,
              "trace": args.trace, "correct": result.correct,
              "attempted": result.attempted, "failed": result.failed,
              "violations": result.violations, "errors": result.errors,
              "notes": result.notes, "metrics": result.metrics}
    detail_path = OUTPUT_DIR / f"{stem}.json"
    detail_path.write_text(
        json.dumps(detail, indent=2, sort_keys=True, default=str) + "\n")

    print(f"workload {workload.name} ({workload.backend}), seed {args.seed}, "
          f"sim seed {sim_seed}, {args.seconds:g} s, trace {args.trace}")
    for key, value in sorted(result.notes.items()):
        text = str(value)
        print(f"  {key}: {text if len(text) < 400 else f'(in {detail_path})'}")
    for name, value in result.metrics.items():
        print(f"  {name:44s} {value:14.4f} {result.units[name]}")
    for line in result.errors:
        print(f"  error: {line}")
    for line in result.violations:
        print(f"  VIOLATION: {line}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": result.units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
