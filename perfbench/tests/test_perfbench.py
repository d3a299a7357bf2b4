"""Self-tests for the benchmark's own checks.

Run with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from reference import reference_loop  # noqa: E402
from tracing import LayerTracer  # noqa: E402
from workloads import (GOLDEN_SEED, WORKLOADS, check_run, collect_stats,  # noqa: E402
                       conv_reference, digest, dot_reference, load_golden,
                       load_simulator)

HELD_OUT_SEED = 0x5EED_2025


@pytest.fixture(scope="module")
def sim():
    return load_simulator()


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def _simulate(sim, name, seed):
    workload = WORKLOADS[name]
    data = workload.inputs(seed)
    worlds, outputs = workload.simulate(sim, data)
    return workload, data, collect_stats(worlds), outputs


def test_references_on_hand_worked_cases():
    # -1 * 2 is 0xFFFFFFFE; 4 * (2**31 - 1) wraps to 0xFFFFFFFC
    assert conv_reference([0xFFFF_FFFF, 0, 5], [2, 1]) == [0xFFFF_FFFE, 5]
    assert conv_reference([0x7FFF_FFFF] * 2, [2, 2]) == [0xFFFF_FFFC]
    # the 64-bit dot product keeps the high word in RESULT_HI
    assert dot_reference([0x7FFF_FFFF] * 2, [0x7FFF_FFFF] * 2) == [2, 0x7FFF_FFFE]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_held_out_seed_matches_golden_and_reference(sim, golden, name):
    assert golden["seed"] == GOLDEN_SEED != HELD_OUT_SEED
    workload, data, stats, outputs = _simulate(sim, name, HELD_OUT_SEED)
    assert check_run(workload, stats, outputs, workload.expected(data),
                     golden["workloads"][name]) == []


def test_corrupted_output_word_is_flagged(sim, golden):
    workload, data, stats, outputs = _simulate(sim, "offload_full_system", 7)
    expected = workload.expected(data)
    golden_entry = golden["workloads"]["offload_full_system"]
    assert check_run(workload, stats, outputs, expected, golden_entry) == []
    outputs["y"][100] ^= 1
    errors = check_run(workload, stats, outputs, expected, golden_entry)
    assert len(errors) == 1 and errors[0].startswith("y[100]")


def test_changed_cycle_count_trips_the_digest(sim, golden):
    workload, data, stats, outputs = _simulate(sim, "contended", 7)
    golden_entry = golden["workloads"]["contended"]
    assert digest(stats) == golden_entry["sha256"]
    stats["sim_cycles"] += 1
    errors = check_run(workload, stats, outputs, workload.expected(data), golden_entry)
    assert errors == ["simulated statistics differ from golden.json: ['sim_cycles']"]


def test_busy_cycles_off_the_closed_form_are_flagged(sim, golden):
    workload, data, stats, outputs = _simulate(sim, "dsp_testbench", 7)
    stats["dot_busy_cycles"] += 1
    errors = check_run(workload, stats, outputs, workload.expected(data),
                       golden["workloads"]["dsp_testbench"])
    assert errors[0] == "dot busy 12290 cycles, closed form 12289"


def test_layer_self_times_account_for_the_traced_wall(sim):
    workload = WORKLOADS["sw_kernel"]
    data = workload.inputs(3)
    tracer = LayerTracer(sim)
    with tracer:
        start = run.perf_counter()
        worlds, _ = workload.simulate(sim, data)
        wall = run.perf_counter() - start
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.inside_s, rel=1e-9)
    assert 0 < tracer.inside_s < wall
    assert tracer.calls["scheduler.step"] == worlds[0].cycle
    assert tracer.calls["isa.decode"] == worlds[0].cpu.retired
    # the wrappers are gone again
    assert vars(sim.scheduler.World)["step"].__name__ == "step"
    assert sim.cpu.decode.__name__ == "decode"


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_named_metric_is_reported(name, trace, key):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[key]}
    reported = {n: m["unit"] for n, m in result["metrics"].items()}
    assert reported == declared


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    p, value = run.tail_percentile([float(i) for i in range(100)])
    assert p == 90 and 89 <= value <= 90


def test_reference_loop_is_fixed_work():
    assert reference_loop() == reference_loop() == 1398857884
    assert reference_loop(10) != reference_loop(11)
