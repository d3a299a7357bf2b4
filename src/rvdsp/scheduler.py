"""Global cycle loop and scenario execution.

Intra-cycle order is fixed for reproducibility: both DSP FSMs step, then
the CPU issues and completes its access or waits, then a host access
(``World.reg_write``/``reg_read``) completes, then the bus arbitrates
DataMem for the DSPs.  DSPs observe bus completions at the start of their
next step.
"""

from __future__ import annotations

import json

from . import conv as conv_regs
from . import dotprod as dot_regs
from .accel import DspState
from .bits import Record, u32
from .bus import Bus
from .conv import ConvDsp
from .cpu import Cpu, CycleCostTable
from .dotprod import DotDsp
from .mac import Truncation
from .memmap import (CONV_BASE, DATA_BASE, DOT_BASE, MEM_WORDS, Rom, Sram,
                     buffer_in_datamem)
from .perfmodel import (CnnLayerShape, ConvWorkload, cnn_layer_macs, conv_model,
                        dense_layer_macs, dot_model, latency_seconds,
                        layer_model, sw_conv_cycles)
from .prng import SplitMix64
from .programs import conv_driver, conv_sw_kernel, dot_driver
from .scenario import Kind, Mode, Scenario

REPORT_SCHEMA_VERSION = 1
# the most cycles one window runs, which bounds the memory of its log
_WINDOW = 1 << 16
# the guard of a window with no DSP in RUN: no DataMem word is marked
_CLEAR = bytes(MEM_WORDS)


class SimConfig(Record):
    def __init__(self, costs=None, truncation=Truncation.WRAP,
                 max_cycles=10_000_000, freq_hz=100e6, trace=None):
        self.costs: CycleCostTable = CycleCostTable() if costs is None else costs
        self.truncation: Truncation = truncation
        self.max_cycles: int = max_cycles
        self.freq_hz: float = freq_hz
        self.trace: object = trace  # callable(line: str) or None


class SimulationTimeout(Exception):
    pass


class HostAccessError(RuntimeError):
    """A host register access (``World.reg_write``/``reg_read``) that the
    bus answered with an error."""


class SimulationFault(Exception):
    def __init__(self, fault):
        self.fault = fault
        super().__init__(f"{fault.kind} fault at pc=0x{fault.pc:08x}: {fault.detail}")


class World:
    """One self-contained simulator instance."""

    def __init__(self, config=None, with_cpu=False):
        self.config = config or SimConfig()
        self.cycle = 0
        trace = self._trace if self.config.trace else None
        self.rom = Rom()
        self.sram = Sram()
        self.conv = ConvDsp(truncation=self.config.truncation, trace=trace)
        self.dot = DotDsp(trace=trace)
        self.bus = Bus(self.rom, self.sram, self.conv, self.dot)
        self.cpu = Cpu(self.rom, self.bus, costs=self.config.costs) if with_cpu else None
        # the log of the CPU's windows with no DSP in RUN, which nothing reads
        self._log = bytearray(_WINDOW) if with_cpu else None

    def _trace(self, component, event):
        self.config.trace(f"cycle {self.cycle} | {component} | {event}")

    def step(self):
        self._issue()
        self.bus.step()

    def _issue(self):
        """Open the next cycle: step conv and dot, then the CPU."""
        self.cycle += 1
        if self.cycle > self.config.max_cycles:
            raise SimulationTimeout(f"exceeded {self.config.max_cycles} cycles")
        self.conv.step()
        self.dot.step()
        if self.cpu is not None:
            self.cpu.step()

    def run_until(self, predicate):
        """Advance until predicate() holds.

        ``step()`` is the single-cycle reference.  Each call opens a
        window (``_window``) if it can and steps otherwise; a window gives
        the same cycle count, counters, memory and trace as stepping:
        - with a CPU, the CPU runs alone (``Cpu.run_alone``), logging the
          cycles in which it took DataMem, for as long as it stores to no
          DSP register and touches no word of a running unit's buffers,
          jumping spin loops whole and running hot loops as generated
          blocks; then each DSP in RUN is replayed against that log.  The
          arbiter's fixed priority (CPU > conv > dot) makes this exact:
          the CPU never waits for a DSP, and conv's grants, marked in the
          log, are all that dot waits for besides the CPU's;
        - with no CPU or a halted one, the DSPs in RUN are replayed
          against a log with nothing taken (a lone one to the end of its
          run), and with none in RUN nothing changes until the timeout.
        The instruction before which a CPU window closes (a store to a
        DSP register, ``ecall``/``ebreak``, a fetch, decode or alignment
        fault) is stepped; a load that the bus answers with an error ends
        its window with its issue cycle.  Windows never open while conv's output overlaps
        dot's inputs, and end no later than the uncontended finish of a
        DSP in RUN, which stalls can only delay, so no DSP finishes
        before a window's last cycle.  A CPU fault raises
        SimulationFault after the window or step in which it happens.
        The predicate is evaluated at the ends of windows and steps only,
        so it should depend on state that changes there (a DSP's state,
        the CPU's halt), not on the cycle number or the retired count.
        """
        cpu = self.cpu
        while not predicate():
            if not self._window():
                self.step()
            if cpu is not None and cpu.fault is not None:
                raise SimulationFault(cpu.fault)

    def _window(self):
        """Run the CPU alone, if it runs, up to the first uncontended
        finish of a DSP in RUN and within max_cycles, then replay the DSPs
        in RUN over those cycles.  A window with a CPU or two DSPs runs at
        most ``_WINDOW`` cycles.  Returns False if the CPU has faulted,
        max_cycles is reached, conv's output overlaps dot's inputs, or the
        CPU's next instruction may not run alone; with neither a running
        CPU nor a DSP in RUN, it first jumps to max_cycles, where the next
        step times out."""
        cpu, max_cycles = self.cpu, self.config.max_cycles
        if cpu is not None and cpu.halted:
            cpu = None
        units = [dsp for dsp in (self.conv, self.dot) if dsp.state is DspState.RUN]
        if (self.cycle >= max_cycles
                or cpu is not None and cpu.fault is not None
                or len(units) == 2 and self._coupled()):
            return False
        if cpu is None and not units:
            self.cycle = max_cycles
            return False
        cycles = min([max_cycles - self.cycle] + [dsp.cycles_left() for dsp in units])
        if cpu is not None or len(units) == 2:
            cycles = min(cycles, _WINDOW)
        taken = bytearray(cycles) if units else self._log
        if cpu is not None:
            cycles = cpu.run_alone(cycles, self._guard(units), taken)
            if not cycles:
                return False
        self._replay(taken, cycles)
        return True

    def _coupled(self):
        """True if the words conv writes overlap the words dot reads."""
        *_, (lo, hi) = self.conv.buffers()
        return any(a < hi and lo < b for a, b in self.dot.buffers()[:2])

    @staticmethod
    def _guard(units):
        """A map of DataMem words, with the words the `units` read or
        write marked."""
        if not units:
            return _CLEAR
        guard = bytearray(MEM_WORDS)
        for dsp in units:
            for lo, hi in dsp.buffers():
                guard[lo:hi] = b"\1" * (hi - lo)
        return guard

    def _replay(self, taken, cycles):
        """Advance the DSPs in RUN over the next `cycles` cycles, in which
        the CPU took DataMem where the log `taken` is set, as stepping
        does: conv first, marking its grants in the log while dot runs,
        then dot.  A unit that ends its run is finished on its own cycle,
        in cycle order, so its `done` trace line shows that cycle."""
        start, bus, words = self.cycle, self.bus, self.sram.words
        conv, dot, run = self.conv, self.dot, DspState.RUN
        ends = []
        for dsp in (conv, dot):
            if dsp.state is run:
                mark = dsp is conv and dot.state is run
                grants, stalls, end = dsp.replay(taken, cycles, words, mark)
                bus.credit(dsp.mmi, grants, stalls)
                if end:
                    ends.append((end, dsp is dot, dsp))
        for end, _, dsp in sorted(ends):  # conv first in a shared cycle, as in step()
            self.cycle = start + end
            dsp._complete()
        self.cycle = start + cycles

    def run_until_halt(self):
        self.run_until(lambda: self.cpu.halted)

    # -------------------------------------------------------- host access
    def reg_write(self, addr, value):
        """Testbench-mode register write; advances one cycle.  Raises
        HostAccessError if the bus answers with an error."""
        self._host(addr, True, u32(value))

    def reg_read(self, addr):
        """Testbench-mode register read; advances one cycle.  Raises
        HostAccessError if the bus answers with an error."""
        return self._host(addr)

    def _host(self, *access):
        """One cycle with a host access (``Bus.post``'s arguments), served
        after the DSPs and the CPU have stepped, as a CPU access is."""
        self._issue()
        rdata, error = self.bus.post(*access)
        self.bus.step()
        if error is not None:
            raise HostAccessError(error)
        return rdata

    def write_words(self, byte_addr, words):
        """Host preload of DataMem (not cycle-counted)."""
        self.sram.write_words(byte_addr - DATA_BASE, words)

    def read_words(self, byte_addr, count):
        return self.sram.read_words(byte_addr - DATA_BASE, count)


def scenario_data(scenario):
    """A conv or dot scenario's two input vectors: its x_data and h_data as
    given, else splitmix64 words of its seed (``Sram.write_words`` masks
    each to 32 bits as it stores it)."""
    rng = SplitMix64(scenario.seed)
    if scenario.kind is Kind.CONV:
        x = scenario.x_data if scenario.x_data is not None else rng.words(scenario.n)
        h = scenario.h_data if scenario.h_data is not None else rng.words(scenario.k)
        return x, h
    if scenario.kind is Kind.DOT:
        a = scenario.x_data if scenario.x_data is not None else rng.words(scenario.length)
        b = scenario.h_data if scenario.h_data is not None else rng.words(scenario.length)
        return a, b
    raise ValueError(f"no direct data for scenario kind {scenario.kind}")


def _report(scenario, mode, shape, model, config, world=None, error=False, **parts):
    """A run's report: the fields every kind shares, the cycle and the CPU,
    bus and DSP counters of a conv or dot run's `world`, and the kind's own
    `parts` (a layer's total_cycles, calls and unit totals).  Its status is
    "error" if a DSP of `world` has latched STATUS.error, or if `error`."""
    freq = config.freq_hz
    if world is not None:
        error = error or world.conv.status_error or world.dot.status_error
        cpu, bus = world.cpu, world.bus
        parts.update(
            total_cycles=world.cycle,
            cpu=None if cpu is None else {
                "retired": cpu.retired, "cycles": cpu.cycles,
                "stall_cycles": cpu.stall_cycles,
                "config_write_cycles": cpu.config_write_cycles},
            bus={"datamem_grants": {r.value: n for r, n in bus.grants.items()},
                 "datamem_stalls": {r.value: n for r, n in bus.stalls.items()},
                 "register_accesses": bus.register_accesses},
            **{name: {"busy_cycles": dsp.busy_cycles, "macs": dsp.macs,
                      "done": dsp.status_done, "error": dsp.status_error,
                      "irq": dsp.irq_line}
               for name, dsp in (("conv", world.conv), ("dot", world.dot))})
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": {"kind": scenario.kind.value, "mode": mode.value,
                     "seed": scenario.seed, "name": scenario.name, **shape},
        "status": "error" if error else "ok",
        "model": model,
        "derived": {"freq_hz": freq,
                    "latency_sw_s": latency_seconds(model["sw_cycles"], freq),
                    "latency_dsp_s": latency_seconds(model["dsp_cycles"], freq)},
        **parts,
    }


def _drive(scenario, config, dsp_name, base, writes, driver):
    """Preload the scenario's two vectors, then start the DSP with host
    register writes (testbench) or by running its ROM driver (full system)."""
    world = World(config, with_cpu=scenario.mode is Mode.FULL_SYSTEM)
    a, b = scenario_data(scenario)
    world.write_words(scenario.in_addr, a)
    world.write_words(scenario.kern_addr, b)
    if scenario.mode is Mode.TESTBENCH:
        for offset, value in writes:
            world.reg_write(base + offset, value)
        dsp = getattr(world, dsp_name)
        world.run_until(lambda: dsp.state is not DspState.RUN)
    else:
        world.rom.load(driver())
        world.run_until_halt()
    return world


def _run_conv(scenario, config):
    n, k = scenario.n, scenario.k
    addrs = (scenario.in_addr, scenario.kern_addr, scenario.out_addr)
    world = _drive(scenario, config, "conv", CONV_BASE,
                   conv_regs.start_writes(n, k, *addrs),
                   lambda: conv_driver(n, k, *addrs))
    w = ConvWorkload(n, k)
    output = {"addr": scenario.out_addr,
              "words": world.read_words(scenario.out_addr, w.outputs)}
    return _report(scenario, scenario.mode, {"n": n, "k": k}, conv_model(w),
                   config, world, output=output), world


def _run_dot(scenario, config):
    length = scenario.length
    addrs = (scenario.in_addr, scenario.kern_addr)
    world = _drive(scenario, config, "dot", DOT_BASE,
                   dot_regs.start_writes(length, *addrs),
                   lambda: dot_driver(length, *addrs))
    result = {"lo": world.dot.result_lo, "hi": world.dot.result_hi}
    return _report(scenario, scenario.mode, {"l": length}, dot_model(length),
                   config, world, result=result), world


def _run_layer(scenario, config, shape, subs, dsp_name, macs):
    """Run a layer as testbench sub-scenarios, taken one at a time from
    `subs`, under one cycle budget for the whole layer, so the budget bounds
    a layer of any size; the report sums their busy cycles, MACs and cycles."""
    busy = done = cycles = calls = 0
    error = False
    for sub in subs:
        calls += 1
        budget = SimConfig(config.costs, config.truncation,
                           config.max_cycles - cycles, config.freq_hz, config.trace)
        try:
            _, world = run_scenario(sub, budget)
        except SimulationTimeout:
            raise SimulationTimeout(f"exceeded {config.max_cycles} cycles") from None
        dsp = getattr(world, dsp_name)
        error = error or dsp.status_error
        busy += dsp.busy_cycles
        done += dsp.macs
        cycles += world.cycle
    return _report(scenario, Mode.TESTBENCH, shape, layer_model(macs), config,
                   error=error, total_cycles=cycles, calls=calls,
                   **{dsp_name: {"busy_cycles": busy, "macs": done}}), None


def _run_cnn(scenario, config):
    """Decompose one CNN layer into C * K_out same-length conv calls.

    Each call convolves a zero-padded input of length N+K-1 so it yields
    N outputs and N*K MACs, matching the layer's N*K*C*K_out MAC count.
    """
    shape = CnnLayerShape(scenario.n, scenario.k, scenario.c, scenario.k_out)
    n_pad = shape.n + shape.k - 1
    in_addr = DATA_BASE
    kern_addr = in_addr + 4 * n_pad
    out_addr = kern_addr + 4 * shape.k
    subs = (Scenario(kind=Kind.CONV, n=n_pad, k=shape.k, seed=scenario.seed + call,
                     in_addr=in_addr, kern_addr=kern_addr, out_addr=out_addr)
            for call in range(shape.c * shape.k_out))
    return _run_layer(scenario, config, {"n": shape.n, "k": shape.k, "c": shape.c,
                                         "k_out": shape.k_out},
                      subs, "conv", cnn_layer_macs(shape))


def _run_dense(scenario, config):
    """A dense layer is out_features dot products of length in_features."""
    va = DATA_BASE
    vb = va + 4 * scenario.in_features
    subs = (Scenario(kind=Kind.DOT, length=scenario.in_features,
                     seed=scenario.seed + call, in_addr=va, kern_addr=vb)
            for call in range(scenario.out_features))
    return _run_layer(scenario, config, {"in_features": scenario.in_features,
                                         "out_features": scenario.out_features},
                      subs, "dot",
                      dense_layer_macs(scenario.in_features, scenario.out_features))


def run_scenario(scenario, config=None):
    """Execute a scenario; returns (report dict, final World or None)."""
    config = config or SimConfig()
    scenario.validate()
    if scenario.kind is Kind.CONV:
        return _run_conv(scenario, config)
    if scenario.kind is Kind.DOT:
        return _run_dot(scenario, config)
    if scenario.kind is Kind.CNN_LAYER:
        return _run_cnn(scenario, config)
    return _run_dense(scenario, config)


def run_sw_conv_benchmark(n, k, seed=1, config=None, in_addr=0x0000_8000):
    """Run the generated software conv kernel on words at `in_addr`, with
    its kernel and output packed after them; returns (report, world).
    Raises ValueError, before it runs, for a shape the kernel cannot take
    or whose words leave DataMem."""
    config = config or SimConfig()
    kern_addr = in_addr + 4 * n
    out_addr = kern_addr + 4 * k
    rom = conv_sw_kernel(n, k, in_addr, kern_addr, out_addr)
    for name, base, length in (("input", in_addr, n), ("kernel", kern_addr, k),
                               ("output", out_addr, n - k + 1)):
        if not buffer_in_datamem(base, length):
            raise ValueError(f"the {name}'s {length} words at "
                             f"{'-' * (base < 0)}0x{abs(base):08x} leave DataMem")
    rng = SplitMix64(seed)
    x = rng.words(n)
    h = rng.words(k)
    world = World(config, with_cpu=True)
    world.rom.load(rom)
    world.write_words(in_addr, x)
    world.write_words(kern_addr, h)
    world.run_until_halt()
    y = world.read_words(out_addr, n - k + 1)
    report = {
        "kind": "sw_conv",
        "n": n,
        "k": k,
        "cpu_cycles": world.cpu.cycles,
        "retired": world.cpu.retired,
        "model_sw_cycles": sw_conv_cycles(ConvWorkload(n, k)),
        "output": y,
    }
    return report, world


def report_to_json(report):
    return json.dumps(report, indent=2, sort_keys=True)
