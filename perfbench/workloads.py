"""The benchmark's workloads: inputs, simulator calls, references and checks.

Every workload drives the simulator through its public API
(``run_scenario``, ``run_sw_conv_benchmark`` and ``World``). Simulated timing
does not depend on the data, so a workload's simulated statistics are the same
for every seed and are locked by ``golden.json``. The output words depend on
the seed and are checked against a pure-Python reference.

Run ``python3 perfbench/workloads.py > perfbench/golden.json`` to write the
lock again, after a change that is meant to alter simulated behaviour.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEED = 1

MASK32 = 0xFFFF_FFFF
MASK64 = 0xFFFF_FFFF_FFFF_FFFF
DATA_BASE = 0x0000_8000
SIM_MODULES = ("scheduler", "scenario", "programs", "conv", "dotprod",
               "perfmodel", "cpu", "bus", "memmap")


def load_simulator():
    """Import the simulator from this checkout's ``src`` afresh.

    Previously imported ``rvdsp`` modules are dropped first, so each call
    pays the full import, as a new process would.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "rvdsp" or m.startswith("rvdsp.")]:
        del sys.modules[name]
    sim = SimpleNamespace(**{m: importlib.import_module(f"rvdsp.{m}")
                             for m in SIM_MODULES})
    origin = Path(sim.scheduler.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"rvdsp was imported from {origin}, not from {SRC}")
    return sim


class SplitMix64:
    """splitmix64 words, kept apart from the simulator's own generator."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def words(self, count):
        out = []
        state = self.state
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
            out.append((z ^ (z >> 31)) & MASK32)
        self.state = state
        return out


def _s32(x):
    return x - 0x1_0000_0000 if x & 0x8000_0000 else x


def conv_reference(x, h):
    """Valid-mode convolution of 32-bit words, truncated by wraparound."""
    xs = [_s32(v) for v in x]
    hs = [_s32(v) for v in h]
    k = len(hs)
    return [sum(a * b for a, b in zip(xs[i:i + k], hs)) & MASK32
            for i in range(len(xs) - k + 1)]


def dot_reference(a, b):
    """64-bit wrapped dot product as the (RESULT_LO, RESULT_HI) pair."""
    acc = sum(_s32(p) * _s32(q) for p, q in zip(a, b)) & MASK64
    return [acc & MASK32, acc >> 32]


def conv_busy_form(n, k):
    return (n - k + 1) * (3 * k + 1)


def dot_busy_form(length):
    return 3 * length + 1


def collect_stats(worlds):
    """Every simulated statistic the lock covers, summed over the worlds."""
    stats = {"sim_cycles": 0, "cpu_cycles": 0, "retired": 0, "cpu_stall_cycles": 0,
             "grants": {"cpu": 0, "conv": 0, "dot": 0},
             "stalls": {"cpu": 0, "conv": 0, "dot": 0},
             "register_accesses": 0,
             "conv_busy_cycles": 0, "conv_macs": 0,
             "dot_busy_cycles": 0, "dot_macs": 0}
    for world in worlds:
        stats["sim_cycles"] += world.cycle
        if world.cpu is not None:
            stats["cpu_cycles"] += world.cpu.cycles
            stats["retired"] += world.cpu.retired
            stats["cpu_stall_cycles"] += world.cpu.stall_cycles
        for requester, count in world.bus.grants.items():
            stats["grants"][requester.value] += count
        for requester, count in world.bus.stalls.items():
            stats["stalls"][requester.value] += count
        stats["register_accesses"] += world.bus.register_accesses
        stats["conv_busy_cycles"] += world.conv.busy_cycles
        stats["conv_macs"] += world.conv.macs
        stats["dot_busy_cycles"] += world.dot.busy_cycles
        stats["dot_macs"] += world.dot.macs
    return stats


def digest(stats):
    canonical = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ScenarioPair:
    """A conv scenario, then a dot scenario, each via ``run_scenario``."""

    uncontended = True

    def __init__(self, name, mode, n, k, length):
        self.name = name
        self.mode = mode
        self.n, self.k, self.length = n, k, length
        self.with_cpu = mode == "full_system"

    def inputs(self, seed):
        rng = SplitMix64(seed)
        return {"x": rng.words(self.n), "h": rng.words(self.k),
                "a": rng.words(self.length), "b": rng.words(self.length)}

    def expected(self, data):
        return {"y": conv_reference(data["x"], data["h"]),
                "dot": dot_reference(data["a"], data["b"])}

    def _scenarios(self, sim, data):
        sc = sim.scenario
        mode = sc.Mode(self.mode)
        conv = sc.Scenario(kind=sc.Kind.CONV, mode=mode, n=self.n, k=self.k,
                           x_data=data["x"], h_data=data["h"])
        dot = sc.Scenario(kind=sc.Kind.DOT, mode=mode, length=self.length,
                          x_data=data["a"], h_data=data["b"])
        conv.validate()
        dot.validate()
        return conv, dot

    def new_worlds(self, sim):
        return [sim.scheduler.World(with_cpu=self.with_cpu) for _ in range(2)]

    def load_images(self, sim, worlds, data):
        """What ``run_scenario`` loads before its first simulated cycle."""
        conv, dot = self._scenarios(sim, data)
        conv_world, dot_world = worlds
        if self.with_cpu:
            conv_world.rom.load(sim.programs.conv_driver(
                conv.n, conv.k, conv.in_addr, conv.kern_addr, conv.out_addr))
            dot_world.rom.load(sim.programs.dot_driver(
                dot.length, dot.in_addr, dot.kern_addr))
        conv_world.write_words(conv.in_addr, data["x"])
        conv_world.write_words(conv.kern_addr, data["h"])
        dot_world.write_words(dot.in_addr, data["a"])
        dot_world.write_words(dot.kern_addr, data["b"])

    def simulate(self, sim, data):
        conv, dot = self._scenarios(sim, data)
        conv_report, conv_world = sim.scheduler.run_scenario(conv)
        dot_report, dot_world = sim.scheduler.run_scenario(dot)
        outputs = {"y": conv_report["output"]["words"],
                   "dot": [dot_report["result"]["lo"], dot_report["result"]["hi"]]}
        return [conv_world, dot_world], outputs

    def busy_forms(self):
        return {"conv": conv_busy_form(self.n, self.k),
                "dot": dot_busy_form(self.length)}

    def cycles_vs_model(self, sim, stats):
        pm = sim.perfmodel
        model = (pm.dsp_conv_cycles(pm.ConvWorkload(self.n, self.k))
                 + pm.dsp_dot_cycles(self.length))
        return stats["sim_cycles"] / model


class SwKernel:
    """The generated RV32IM conv kernel via ``run_sw_conv_benchmark``."""

    name = "sw_kernel"
    uncontended = True
    n, k = 384, 24
    in_addr = DATA_BASE

    def inputs(self, seed):
        rng = SplitMix64(seed)  # the order run_sw_conv_benchmark draws in
        return {"seed": seed, "x": rng.words(self.n), "h": rng.words(self.k)}

    def expected(self, data):
        return {"y": conv_reference(data["x"], data["h"])}

    def new_worlds(self, sim):
        return [sim.scheduler.World(with_cpu=True)]

    def load_images(self, sim, worlds, data):
        kern_addr = self.in_addr + 4 * self.n
        out_addr = kern_addr + 4 * self.k
        world, = worlds
        world.rom.load(sim.programs.conv_sw_kernel(
            self.n, self.k, self.in_addr, kern_addr, out_addr))
        world.write_words(self.in_addr, data["x"])
        world.write_words(kern_addr, data["h"])

    def simulate(self, sim, data):
        report, world = sim.scheduler.run_sw_conv_benchmark(
            self.n, self.k, seed=data["seed"], in_addr=self.in_addr)
        return [world], {"y": report["output"]}

    def busy_forms(self):
        return {"conv": 0, "dot": 0}

    def cycles_vs_model(self, sim, stats):
        pm = sim.perfmodel
        return stats["sim_cycles"] / pm.sw_conv_cycles(pm.ConvWorkload(self.n, self.k))


class Contended:
    """The software kernel on the CPU while both DSPs run on other buffers.

    The host starts conv and dot through their register files before the
    first cycle; the run ends when the CPU has halted and both DSPs are done.
    """

    name = "contended"
    uncontended = False
    sw_n, sw_k = 256, 16
    conv_n, conv_k = 1024, 16
    length = 2048

    def __init__(self):
        # disjoint buffers, packed from the start of DataMem
        sizes = (("sw_x", self.sw_n), ("sw_h", self.sw_k),
                 ("sw_y", self.sw_n - self.sw_k + 1),
                 ("conv_x", self.conv_n), ("conv_h", self.conv_k),
                 ("conv_y", self.conv_n - self.conv_k + 1),
                 ("a", self.length), ("b", self.length))
        self.addr = {}
        cursor = DATA_BASE
        for key, words in sizes:
            self.addr[key] = cursor
            cursor += 4 * words

    def inputs(self, seed):
        rng = SplitMix64(seed)
        return {"sw_x": rng.words(self.sw_n), "sw_h": rng.words(self.sw_k),
                "conv_x": rng.words(self.conv_n), "conv_h": rng.words(self.conv_k),
                "a": rng.words(self.length), "b": rng.words(self.length)}

    def expected(self, data):
        return {"sw_y": conv_reference(data["sw_x"], data["sw_h"]),
                "conv_y": conv_reference(data["conv_x"], data["conv_h"]),
                "dot": dot_reference(data["a"], data["b"])}

    def new_worlds(self, sim):
        return [sim.scheduler.World(with_cpu=True)]

    def load_images(self, sim, worlds, data):
        world, = worlds
        addr = self.addr
        world.rom.load(sim.programs.conv_sw_kernel(
            self.sw_n, self.sw_k, addr["sw_x"], addr["sw_h"], addr["sw_y"]))
        for key, words in data.items():
            world.write_words(addr[key], words)

    def simulate(self, sim, data):
        worlds = self.new_worlds(sim)
        self.load_images(sim, worlds, data)
        world, = worlds
        conv, dot = sim.conv, sim.dotprod
        addr = self.addr
        for offset, value in ((conv.OFF_IN_ADDR, addr["conv_x"]),
                              (conv.OFF_KERN_ADDR, addr["conv_h"]),
                              (conv.OFF_OUT_ADDR, addr["conv_y"]),
                              (conv.OFF_IN_LEN, self.conv_n),
                              (conv.OFF_KERN_LEN, self.conv_k),
                              (conv.OFF_CONTROL, 1)):
            world.conv.axi_write(offset, value)
        for offset, value in ((dot.OFF_VA_ADDR, addr["a"]),
                              (dot.OFF_VB_ADDR, addr["b"]),
                              (dot.OFF_LEN, self.length),
                              (dot.OFF_CONTROL, 1)):
            world.dot.axi_write(offset, value)
        conv_run, dot_run = conv.ConvState.RUN, dot.DotState.RUN
        world.run_until(lambda: world.cpu.halted
                        and world.conv.state is not conv_run
                        and world.dot.state is not dot_run)
        outputs = {
            "sw_y": world.read_words(addr["sw_y"], self.sw_n - self.sw_k + 1),
            "conv_y": world.read_words(addr["conv_y"], self.conv_n - self.conv_k + 1),
            "dot": [world.dot.result_lo, world.dot.result_hi],
        }
        return worlds, outputs

    def busy_forms(self):
        return {"conv": conv_busy_form(self.conv_n, self.conv_k),
                "dot": dot_busy_form(self.length)}

    def cycles_vs_model(self, sim, stats):
        """DSP busy cycles over their uncontended closed forms."""
        forms = self.busy_forms()
        return ((stats["conv_busy_cycles"] + stats["dot_busy_cycles"])
                / (forms["conv"] + forms["dot"]))


# Why these four: each stresses a different layer, and each planned speed-up
# has one workload that exercises it and one that bypasses it.
WORKLOADS = {w.name: w for w in (
    # bus, DSP FSMs and scheduler only; fast-forward's best case
    ScenarioPair("dsp_testbench", "testbench", n=1024, k=32, length=4096),
    # CPU drivers polling STATUS: register-space traffic
    ScenarioPair("offload_full_system", "full_system", n=1024, k=16, length=4096),
    # CPU, decode and CPU DataMem traffic with both DSPs idle
    SwKernel(),
    # all three requesters on DataMem; fast-forward must fall back
    Contended(),
)}


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def check_run(workload, stats, outputs, expected, golden):
    """Every reason a run is wrong; an empty list means it passed."""
    errors = []
    for key, want in expected.items():
        got = outputs.get(key)
        if got != want:
            if got is None or len(got) != len(want):
                errors.append(f"{key}: {0 if got is None else len(got)} words, "
                              f"want {len(want)}")
            else:
                i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
                errors.append(f"{key}[{i}] = 0x{got[i]:08x}, reference 0x{want[i]:08x}")
    if workload.uncontended:
        for unit, form in workload.busy_forms().items():
            busy = stats[f"{unit}_busy_cycles"]
            if busy != form:
                errors.append(f"{unit} busy {busy} cycles, closed form {form}")
    if digest(stats) != golden["sha256"]:
        changed = sorted(k for k in stats if stats[k] != golden["stats"].get(k))
        errors.append(f"simulated statistics differ from golden.json: {changed}")
    return errors


def golden_record(seed=GOLDEN_SEED):
    sim = load_simulator()
    record = {"seed": seed, "workloads": {}}
    for name, workload in WORKLOADS.items():
        worlds, _ = workload.simulate(sim, workload.inputs(seed))
        stats = collect_stats(worlds)
        record["workloads"][name] = {"stats": stats, "sha256": digest(stats)}
    return record


if __name__ == "__main__":
    print(json.dumps(golden_record(), indent=2, sort_keys=True))
