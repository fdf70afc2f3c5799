"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q

Every workload runs at a tiny size (``--seconds 1``).
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

from perfbench import run, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Outcome, measure  # noqa: E402

run.pin_environment()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 1


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=list(WORKLOADS))
def tiny_runs(request):
    """One untraced and one traced tiny run of a workload."""
    name = request.param
    base = ("--workload", name, "--seed", "3", "--seconds", str(TINY))
    return (name, _result(_cli(*base, "--trace", "0")),
            _result(_cli(*base, "--trace", "1")))


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_tiny_run_is_correct_and_prints_every_metric(tiny_runs):
    name, plain, traced = tiny_runs
    for result in (plain, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for metric in plain["metrics"].values():
        assert metric["value"] > 0


def test_traced_run_exercises_the_workload_layers(tiny_runs):
    name, _, traced = tiny_runs
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    if name == "paper_campaign":
        assert m["dag.calls"] > 0 and m["allocation.calls"] > 0
        assert m["mapping.calls"] == traced["attempted"]
        assert m["simulation.events"] > 0 and m["live.events"] == 0
        assert m["simulation.rel_makespan"] > 0
    elif name == "online_grid5000":
        assert m["live.events"] > 0 and m["simulation.events"] == 0
        assert m["mapping.calls"] == traced["attempted"]
        assert m["redistribution.batch_calls"] > 0
        assert m["online.submit_s"] > m["online.sched_s"] > 0
    else:
        assert m["live.events"] > 0
        assert m["mapping.calls"] == m["allocation.calls"] == 0
        assert m["dag.calls"] == m["simulation.events"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_repeats_simulated_results_exactly(name):
    first = WORKLOADS[name](5, TINY)
    second = WORKLOADS[name](5, TINY)
    a = measure(first, first.setup(), 1)
    b = measure(second, second.setup(), 2)
    assert a.fingerprint == b.fingerprint
    assert a.sim == b.sim
    assert a.failed == b.failed == 0


def test_different_seeds_give_different_inputs():
    campaign = [WORKLOADS["paper_campaign"](s, 25).sample() for s in (1, 2)]
    assert campaign[0] != campaign[1]
    online = [[job.arrival_time
               for job in WORKLOADS["online_grid5000"](s, TINY).setup()[1]]
              for s in (1, 2)]
    assert online[0] != online[1]
    grid = [WORKLOADS["large_grid_stream"](s, TINY).setup()[2]
            for s in (1, 2)]
    assert grid[0] != grid[1]                             # arrival times


class _Scripted:
    """A workload whose op times and outputs are scripted per pass."""

    def __init__(self, times, outputs):
        self.times, self.outputs, self.k = times, outputs, 0

    def one_pass(self, prepared, tracer, out):
        out.op_s.extend(self.times[self.k])
        self.k += 1
        return self.outputs[self.k - 1]

    def check(self, prepared, raw, out):
        out.fingerprint.extend(raw)


def test_measure_takes_each_ops_median_over_passes():
    w = _Scripted([[1.0, 9.0], [3.0, 2.0], [2.0, 5.0]], [["a", "b"]] * 3)
    out = measure(w, None, 3)
    assert out.op_s == [2.0, 5.0]
    assert len(out.pass_s) == 3 and out.failed == 0


def test_measure_fails_an_op_that_a_later_pass_does_not_reproduce():
    w = _Scripted([[1.0, 1.0]] * 2, [["a", "b"], ["a", "c"]])
    out = measure(w, None, 2)
    assert out.failed_ops == {1}
    assert out.attempted == 2 and isinstance(out, Outcome)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 201)]) == (95.0, 190.0, 10)
    assert run.tail([float(i) for i in range(1, 1001)])[0] == 99.0
    assert run.tail([1.0, 2.0, 3.0])[0] == 50.0


def test_instrument_restores_every_entry_point():
    from repro.online.live import LiveFluidEngine
    from repro.registry import allocators
    from repro.scheduling.mapping import ListScheduler

    before = (ListScheduler.run, LiveFluidEngine.inject,
              "build" in vars(allocators))
    with tracing.instrument(tracing.Tracer()):
        assert ListScheduler.run is not before[0]
    assert (ListScheduler.run, LiveFluidEngine.inject,
            "build" in vars(allocators)) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", "paper_campaign", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
