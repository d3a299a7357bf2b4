#!/usr/bin/env python3
"""Host-time benchmark for the rvdsp simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from ``workloads.py`` in a closed loop: one simulator run
at a time, in this process, until S seconds have passed. Every run is
checked: output words against a pure-Python reference, DSP busy cycles
against the closed forms on the uncontended workloads, and all simulated
statistics against ``golden.json``. An exception or a failed check counts
as a failed run.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
The host is shared and its speed drifts by tens of percent within a minute,
so each run's host time is also reported in units of the time of a fixed
reference loop (``reference.py``) timed right after it: ``wall_ref`` and
``sim_cycles_per_ref`` are the steady figures, the raw seconds are per-layer.
The run re-executes itself with a fixed ``PYTHONHASHSEED``: string hashes
set the layout of every dict, and a random hash seed per process adds a
spread of several percent between otherwise identical runs.
``--trace 1`` alternates untraced runs with runs under ``LayerTracer`` and
reports the per-layer split of the median traced run and the overhead of
tracing.

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The host, the timing quantiles
and the phase spans go to stderr. Exit code 2 means the simulator could not
be imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from reference import time_reference
from tracing import LayerTracer
from workloads import (WORKLOADS, check_run, collect_stats, load_golden,
                       load_simulator)


HASH_SEED = "0"


def pin_hash_seed():
    """Re-execute this process under PYTHONHASHSEED=HASH_SEED unless it is."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def host_info():
    return {"python": platform.python_version(),
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


def tail_percentile(values):
    """(p, value) for the highest percentile with ten samples beyond it."""
    n = len(values)
    p = math.floor(100 * (n - 10) / n)
    if p < 1:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Spans:
    """Phase spans (name, parent, start, end), kept in memory."""

    def __init__(self):
        self.origin = perf_counter()
        self.records = []
        self._open = []

    @contextmanager
    def __call__(self, name, **fields):
        record = {"id": len(self.records), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": perf_counter() - self.origin, **fields}
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = perf_counter() - self.origin


def time_setup(workload, seed):
    """One timed set-up: import, inputs, World construction, memory images.

    Returns the freshly imported simulator and the time of each part.
    """
    gc.collect()
    t0 = perf_counter()
    sim = load_simulator()
    t1 = perf_counter()
    data = workload.inputs(seed)
    t2 = perf_counter()
    worlds = workload.new_worlds(sim)
    t3 = perf_counter()
    workload.load_images(sim, worlds, data)
    t4 = perf_counter()
    return sim, {"import_s": t1 - t0, "data_gen_s": t2 - t1,
                 "world_init_s": t3 - t2, "rom_load_s": t4 - t3}


class Runner:
    """Checked simulator runs of one workload, with failure accounting."""

    def __init__(self, workload, sim, data, spans):
        self.workload = workload
        self.sim = sim
        self.data = data
        self.spans = spans
        self.expected = workload.expected(data)
        self.golden = load_golden()["workloads"][workload.name]
        self.attempted = 0
        self.failed = 0
        self.stats = None

    def _fail(self, reason):
        self.failed += 1
        print(f"perfbench: run {self.attempted} failed: {reason}", file=sys.stderr)

    def run(self, tracer=None):
        """One run; returns its wall seconds, or None if it failed."""
        self.attempted += 1
        gc.collect()
        with self.spans("run", traced=tracer is not None):
            with self.spans("simulate"):
                try:
                    with tracer or nullcontext():
                        start = perf_counter()
                        worlds, outputs = self.workload.simulate(self.sim, self.data)
                        wall = perf_counter() - start
                except Exception:  # a crashing run is a failed run
                    self._fail(traceback.format_exc())
                    return None
            with self.spans("check"):
                stats = collect_stats(worlds)
                errors = check_run(self.workload, stats, outputs, self.expected,
                                   self.golden)
        if errors:
            self._fail("; ".join(errors))
            return None
        self.stats = stats
        return wall


@dataclass
class Samples:
    setups: list = field(default_factory=list)      # set-up part times
    walls: list = field(default_factory=list)       # untraced run seconds
    references: list = field(default_factory=list)  # reference loop seconds
    walls_ref: list = field(default_factory=list)   # untraced runs in references
    traced_runs: list = field(default_factory=list)  # (wall, tracer) pairs


def measure(runner, seed, seconds, traced):
    """Warm-up, then at least one round, and more while they fit in `seconds`.

    A round is one timed set-up, one untraced run, one reference loop and,
    if `traced`, one traced run. Set-ups are spread over the whole window,
    like the runs, so that both see the same host. Each untraced run is
    divided by the mean of the reference loops just before and after it.
    """
    deadline = perf_counter() + seconds
    runner.run()
    samples = Samples(references=[time_reference()])
    round_s = 0.0
    while not samples.setups or perf_counter() + round_s < deadline:
        round_start = perf_counter()
        with runner.spans("setup"):
            runner.sim, parts = time_setup(runner.workload, seed)
        samples.setups.append(parts)
        wall = runner.run()
        with runner.spans("reference"):
            samples.references.append(time_reference())
        if wall is not None:
            samples.walls.append(wall)
            samples.walls_ref.append(wall / statistics.fmean(samples.references[-2:]))
        if traced:
            tracer = LayerTracer(runner.sim)
            wall = runner.run(tracer)
            if wall is not None:
                samples.traced_runs.append((wall, tracer))
        round_s = perf_counter() - round_start
    return samples


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end_metrics(runner, samples):
    stats = runner.stats
    wall_ref = statistics.median(samples.walls_ref)
    return {
        "wall_ref": (wall_ref, "ref"),
        "sim_cycles_per_ref": (stats["sim_cycles"] / wall_ref, "cycles/ref"),
        "setup_s": (statistics.median(sum(rep.values()) for rep in samples.setups), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "sim_cycles": (stats["sim_cycles"], "cycles"),
        "cycles_vs_model": (runner.workload.cycles_vs_model(runner.sim, stats), "ratio"),
    }


def _ratio(num, den, empty):
    return num / den if den else empty


def layer_metrics(runner, samples):
    stats = runner.stats
    traced_runs = sorted(samples.traced_runs, key=lambda pair: pair[0])
    wall, tracer = traced_runs[len(traced_runs) // 2]
    calls, self_s = tracer.calls, tracer.self_s
    forms = runner.workload.busy_forms()
    grants, stalls = stats["grants"], stats["stalls"]
    untraced = statistics.median(samples.walls)
    traced = statistics.median(w for w, _ in traced_runs)
    metrics = {
        "host.wall_s": (untraced, "s"),
        "host.sim_cycles_per_s": (stats["sim_cycles"] / untraced, "cycles/s"),
        "host.reference_s": (statistics.median(samples.references), "s"),
        "scheduler.step_calls": (calls["scheduler.step"], "count"),
        "scheduler.self_s": (self_s["scheduler.step"], "s"),
        "scheduler.ns_per_cycle": (1e9 * self_s["scheduler.step"] / stats["sim_cycles"],
                                   "ns/cycle"),
        "cpu.step_s": (self_s["cpu.step"], "s"),
        "cpu.observe_s": (self_s["cpu.observe"], "s"),
        "cpu.retired": (stats["retired"], "count"),
        "cpu.stall_cycles": (stats["cpu_stall_cycles"], "cycles"),
        "cpu.ipc": (_ratio(stats["retired"], stats["cpu_cycles"], 0.0), "instr/cycle"),
        "isa.decode_calls": (calls["isa.decode"], "count"),
        "isa.decode_s": (self_s["isa.decode"], "s"),
        "isa.decodes_per_retired": (_ratio(calls["isa.decode"], stats["retired"], 0.0),
                                    "ratio"),
        "bus.step_s": (self_s["bus.step"], "s"),
        "bus.post_s": (self_s["bus.post"], "s"),
        "bus.post_calls": (calls["bus.post"], "count"),
        "bus.register_accesses": (stats["register_accesses"], "count"),
        "bus.idle_cycles": (stats["sim_cycles"] - sum(grants.values()), "cycles"),
    }
    for requester in ("cpu", "conv", "dot"):
        metrics[f"bus.grants.{requester}"] = (grants[requester], "count")
        metrics[f"bus.stalls.{requester}"] = (stalls[requester], "count")
    for requester in ("conv", "dot"):
        attempts = grants[requester] + stalls[requester]
        metrics[f"bus.grant_ratio.{requester}"] = (
            _ratio(grants[requester], attempts, 1.0), "ratio")
    for part in ("decode_address", "sram_read", "sram_write", "rom_read"):
        metrics[f"memmap.{part}_calls"] = (calls[f"memmap.{part}"], "count")
        metrics[f"memmap.{part}_s"] = (self_s[f"memmap.{part}"], "s")
    for layer, unit in (("conv", "conv"), ("dotprod", "dot")):
        busy = stats[f"{unit}_busy_cycles"]
        metrics[f"{layer}.step_s"] = (self_s[f"{layer}.step"], "s")
        metrics[f"{layer}.busy_cycles"] = (busy, "cycles")
        metrics[f"{layer}.macs"] = (stats[f"{unit}_macs"], "count")
        metrics[f"{layer}.stall_cycles"] = (busy - forms[unit], "cycles")
    for part in ("import_s", "data_gen_s", "world_init_s", "rom_load_s"):
        metrics[f"setup.{part}"] = (
            statistics.median(rep[part] for rep in samples.setups), "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unattributed_s"] = (wall - tracer.inside_s, "s")
    metrics["trace.overhead_pct"] = (100 * (traced - untraced) / untraced, "%")
    return metrics


def describe(name, values, unit="s"):
    line = f"  {name:<14} median {statistics.median(values):.6g} {unit}"
    tail = tail_percentile(values)
    if tail is not None:
        line += f", p{tail[0]} {tail[1]:.6g} {unit}"
    return line + f" (n={len(values)})"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    host = host_info()
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}; "
          f"python {host['python']}, nproc {host['nproc']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in host['loadavg'])}", file=sys.stderr)
    try:
        sim = load_simulator()
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    runner = Runner(workload, sim, workload.inputs(args.seed), Spans())
    samples = measure(runner, args.seed, args.seconds, bool(args.trace))
    if not samples.walls or (args.trace and not samples.traced_runs):
        print("perfbench: no run passed its checks", file=sys.stderr)
        return 1

    stats, wall = runner.stats, statistics.median(samples.walls)
    print(describe("wall_s", samples.walls), file=sys.stderr)
    print(describe("wall_ref", samples.walls_ref, "ref"), file=sys.stderr)
    print(describe("reference_s", samples.references), file=sys.stderr)
    print(describe("setup_s", [sum(r.values()) for r in samples.setups]), file=sys.stderr)
    if args.trace:
        print(describe("traced wall_s", [w for w, _ in samples.traced_runs]),
              file=sys.stderr)
    print(f"  at the median wall: {stats['sim_cycles'] / wall:.6g} cycles/s, "
          f"{stats['retired'] / wall:.6g} instr/s", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(runner, samples)
    else:
        metrics = end_to_end_metrics(runner, samples)
    print(json.dumps({"host": host, "spans": runner.spans.records}), file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
