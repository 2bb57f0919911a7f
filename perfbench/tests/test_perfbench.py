"""Tests of the repo benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.bench import END_TO_END  # noqa: E402
from perfbench.episode import PROBE_REF_S, Slice  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.probes import Probes  # noqa: E402
from perfbench.workloads import BY_NAME  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seconds: float = 1.0,
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == [tuple(m) for m in PER_LAYER]
    for workload in SPEC["workloads"]:
        assert workload["why"] == BY_NAME[workload["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", LISTED)
def test_tiny_run_emits_every_named_metric(workload, trace):
    completed = run_bench(workload, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def test_rescaling_leaves_the_burn_unscaled():
    # The host ran the probe at half the reference speed: the program's own
    # time halves, the fixed-wall burn does not.
    part = Slice(commits=4, wall_s=1.0, cpu_s=0.9, burn_s=0.4, start_ms=0.0,
                 end_ms=1000.0, probe_before_s=2 * PROBE_REF_S,
                 probe_after_s=2 * PROBE_REF_S)
    assert part.factor == pytest.approx(0.5)
    assert part.host_wall_s == pytest.approx(0.4 + 0.6 * 0.5)
    assert part.host_cpu_s == pytest.approx(0.4 + 0.5 * 0.5)
    assert part.clock_factor == pytest.approx(0.7)


def test_probes_leave_the_program_unpatched():
    import repro.util.encoding as encoding
    from repro.crypto.provider import CryptoProvider
    from repro.sim.scheduler import Scheduler

    originals = (encoding.canonical_encode, Scheduler.__dict__["step"],
                 CryptoProvider.__dict__["verify_mac"])
    probes = Probes()
    probes.install()
    try:
        assert probes.patched_attributes()
        assert encoding.canonical_encode is not originals[0]
    finally:
        probes.uninstall()
    assert probes.patched_attributes() == []
    assert (encoding.canonical_encode, Scheduler.__dict__["step"],
            CryptoProvider.__dict__["verify_mac"]) == originals


def test_a_deleted_layer_is_marked_absent(monkeypatch):
    # A module set to None in sys.modules fails to import, as a deleted
    # file would.
    monkeypatch.setitem(sys.modules, "repro.util.wirecache", None)
    probes = Probes()
    probes.install()
    probes.uninstall()
    assert "util.wirecache" in probes.absent
    assert probes.patched_attributes() == []


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench(LISTED[0], 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
