import json
import random
from itertools import accumulate

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import conv1d, conv_partial_accum, dot
from random_programs import _BASE_ADDR, assert_sram_words, rv_programs
from rvdsp import conv as conv_regs
from rvdsp import cpu as cpu_module
from rvdsp import dotprod as dot_regs
from rvdsp import accel, scheduler
from rvdsp.accel import DspState, MmioAccelerator
from rvdsp.bits import s32, s64, u32, u64
from rvdsp.bus import Bus, Requester
from rvdsp.cpu import SYSCALL_ADDR, Cpu, CycleCostTable
from rvdsp.isa import MNEMONICS, encode
from rvdsp.mac import Truncation
from rvdsp.memmap import CONV_BASE, DATA_BASE, DOT_BASE, RESERVED_BASE
from rvdsp.prng import SplitMix64
from rvdsp.programs import Assembler, I, conv_driver, conv_sw_kernel, dot_driver
from rvdsp.scenario import Kind, Mode, Scenario, ScenarioError
from rvdsp.scheduler import (HostAccessError, SimConfig, SimulationFault,
                             SimulationTimeout, World, report_to_json, run_scenario,
                             run_sw_conv_benchmark, scenario_data)


def conv_scenario(n, k, mode=Mode.TESTBENCH, seed=1):
    return Scenario(kind=Kind.CONV, mode=mode, n=n, k=k, seed=seed)


class TestScenarioRuns:
    def test_conv_testbench_matches_oracle(self):
        sc = conv_scenario(32, 5)
        report, world = run_scenario(sc)
        x, h = scenario_data(sc)
        expect = conv1d([s32(v) for v in x], [s32(v) for v in h])
        assert report["output"]["words"] == expect
        assert report["conv"]["busy_cycles"] == (32 - 5 + 1) * (3 * 5 + 1)
        assert report["status"] == "ok"

    def test_conv_full_system_same_result(self):
        tb, _ = run_scenario(conv_scenario(32, 5))
        fs, world = run_scenario(conv_scenario(32, 5, mode=Mode.FULL_SYSTEM))
        assert fs["output"]["words"] == tb["output"]["words"]
        assert fs["conv"]["busy_cycles"] == tb["conv"]["busy_cycles"]
        assert fs["cpu"] is not None and fs["cpu"]["retired"] > 0
        assert fs["cpu"]["config_write_cycles"] > 0

    def test_dot_scenario(self):
        sc = Scenario(kind=Kind.DOT, length=48, seed=3)
        report, world = run_scenario(sc)
        a, b = scenario_data(sc)
        expect = u64(dot([s32(v) for v in a], [s32(v) for v in b]))
        got = (report["result"]["hi"] << 32) | report["result"]["lo"]
        assert got == expect
        assert report["dot"]["busy_cycles"] == 3 * 48 + 1

    def test_dot_full_system(self):
        sc = Scenario(kind=Kind.DOT, mode=Mode.FULL_SYSTEM, length=16, seed=3)
        report, _ = run_scenario(sc)
        tb, _ = run_scenario(Scenario(kind=Kind.DOT, length=16, seed=3))
        assert report["result"] == tb["result"]

    @pytest.mark.parametrize("kind", [Kind.CONV, Kind.DOT])
    def test_stepped_driver_posts_nothing(self, kind, monkeypatch):
        # World.step() alone through a full-system driver: its configuration
        # stores, STATUS polls and IRQ_CLEAR store each complete in their
        # issue cycle through the CPU's handlers, so no host access is
        # made, and the run is run_scenario's
        sc = Scenario(kind=kind, mode=Mode.FULL_SYSTEM, n=24, k=4, length=24, seed=3)
        report, _ = run_scenario(sc)

        def refuse(bus, addr, *args):
            raise AssertionError(f"host access to 0x{addr:08x}")

        monkeypatch.setattr(Bus, "post", refuse)
        world = World(SimConfig(), with_cpu=True)
        a, b = scenario_data(sc)
        world.write_words(sc.in_addr, a)
        world.write_words(sc.kern_addr, b)
        world.rom.load(conv_driver(sc.n, sc.k, sc.in_addr, sc.kern_addr, sc.out_addr)
                       if kind is Kind.CONV else dot_driver(sc.length, sc.in_addr, sc.kern_addr))
        while not world.cpu.halted:
            world.step()
        assert world.cpu.fault is None
        assert world.cycle == report["total_cycles"]
        assert world.cpu.retired == report["cpu"]["retired"]
        assert world.bus.register_accesses == report["bus"]["register_accesses"] > 7

    def test_cnn_layer_decomposition(self):
        sc = Scenario(kind=Kind.CNN_LAYER, n=16, k=4, c=2, k_out=3, seed=5)
        report, _ = run_scenario(sc)
        assert report["calls"] == 6
        assert report["conv"]["macs"] == 16 * 4 * 2 * 3
        assert report["model"]["macs"] == 16 * 4 * 2 * 3

    def test_dense_layer_decomposition(self):
        sc = Scenario(kind=Kind.DENSE_LAYER, in_features=8, out_features=4)
        report, _ = run_scenario(sc)
        assert report["dot"]["macs"] == 32
        assert report["calls"] == 4

    def test_layer_budgets_leave_the_callers_config_unchanged(self, monkeypatch):
        config = SimConfig(max_cycles=100_000, freq_hz=50e6, trace=[].append)
        before = repr(config)
        run, budgets, cycles = scheduler.run_scenario, [], []

        def spy(sub, budget):
            budgets.append(budget)
            report, world = run(sub, budget)
            cycles.append(world.cycle)
            return report, world

        monkeypatch.setattr(scheduler, "run_scenario", spy)
        run(Scenario(kind=Kind.CNN_LAYER, n=8, k=2, c=1, k_out=3), config)
        assert repr(config) == before
        assert [b.max_cycles for b in budgets] == [100_000 - sum(cycles[:i]) for i in range(3)]
        for budget in budgets:
            assert budget is not config
            assert budget.costs is config.costs and budget.trace is config.trace
            assert (budget.truncation, budget.freq_hz) == (config.truncation, config.freq_hz)

    def test_configs_do_not_share_a_cost_table(self):
        assert SimConfig().costs is not SimConfig().costs
        assert SimConfig().costs == CycleCostTable()

    def test_unknown_scenario_keyword_is_refused(self):
        with pytest.raises(TypeError, match="bogus"):
            Scenario(kind=Kind.CONV, bogus=1)

    @pytest.mark.parametrize("scenario, message", [
        (Scenario(kind=Kind.CNN_LAYER, n=16, k=4, c=0, k_out=3),
         "cnn layer needs positive n, k, c, k_out"),
        (Scenario(kind=Kind.DENSE_LAYER, in_features=8, out_features=-1),
         "dense layer needs positive in/out features"),
        (Scenario(kind=Kind.CONV, n=8, k=3, x_data=[1] * 7), "x data has 7 words, needs 8"),
        (Scenario(kind=Kind.DOT, length=4, h_data=[1] * 5), "h data has 5 words, needs 4"),
    ], ids=["cnn", "dense", "conv x", "dot h"])
    def test_invalid_scenario_is_refused(self, scenario, message):
        with pytest.raises(ScenarioError, match=message):
            run_scenario(scenario)


class TestDeterminism:
    def test_identical_reports(self):
        a, _ = run_scenario(conv_scenario(40, 7, mode=Mode.FULL_SYSTEM, seed=9))
        b, _ = run_scenario(conv_scenario(40, 7, mode=Mode.FULL_SYSTEM, seed=9))
        assert a == b

    def test_seed_changes_data_not_timing(self):
        a, _ = run_scenario(conv_scenario(40, 7, seed=1))
        b, _ = run_scenario(conv_scenario(40, 7, seed=2))
        assert a["output"]["words"] != b["output"]["words"]
        assert a["total_cycles"] == b["total_cycles"]
        assert a["conv"]["busy_cycles"] == b["conv"]["busy_cycles"]

    def test_prng_reference_values(self):
        rng = SplitMix64(1)
        first = rng.next_u64()
        assert first == SplitMix64(1).next_u64()
        assert first != SplitMix64(2).next_u64()


class TestMemoryConservation:
    def test_untouched_words_stay_zero(self):
        sc = conv_scenario(16, 3)
        _, world = run_scenario(sc)
        touched = set()
        for base, count in ((sc.in_addr, 16), (sc.kern_addr, 3),
                            (sc.out_addr, 14)):
            touched.update(range(base, base + 4 * count, 4))
        for addr in range(DATA_BASE, DATA_BASE + 0x8000, 4):
            if addr not in touched:
                assert world.sram.read_word(addr - DATA_BASE) == 0, hex(addr)


class TestContention:
    def test_cpu_traffic_stretches_busy_phase(self):
        # same workload, one run with a CPU hammering DataMem
        sc = conv_scenario(24, 4)
        _, quiet = run_scenario(sc)
        world = World(SimConfig())
        x, h = scenario_data(sc)
        world.write_words(sc.in_addr, x)
        world.write_words(sc.kern_addr, h)
        from rvdsp import conv as regs
        from rvdsp.memmap import CONV_BASE

        world.reg_write(CONV_BASE + regs.OFF_IN_ADDR, sc.in_addr)
        world.reg_write(CONV_BASE + regs.OFF_KERN_ADDR, sc.kern_addr)
        world.reg_write(CONV_BASE + regs.OFF_OUT_ADDR, sc.out_addr)
        world.reg_write(CONV_BASE + regs.OFF_IN_LEN, sc.n)
        world.reg_write(CONV_BASE + regs.OFF_KERN_LEN, sc.k)
        world.reg_write(CONV_BASE + regs.OFF_CONTROL, 1)
        # host DataMem reads every other cycle: the fixed-priority arbiter
        # would starve the DSP forever under a 100% duty cycle
        scratch = DATA_BASE + 0x4000
        while world.conv.state is DspState.RUN:
            if world.cycle % 2 == 0:
                world.reg_read(scratch)
            else:
                world.step()
        assert world.conv.busy_cycles > quiet.conv.busy_cycles
        assert world.bus.stalls[Requester.CONV] > 0
        y = world.read_words(sc.out_addr, sc.n - sc.k + 1)
        expect = conv1d([s32(v) for v in x], [s32(v) for v in h])
        assert y == expect  # results unaffected, only timing

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_cpu_traffic_only_adds_stalls(self, data):
        # A random per-cycle pattern of host DataMem reads and (strobed)
        # writes to a scratch block while a DSP runs: every host access is
        # granted in its cycle, each lost DSP arbitration costs exactly
        # one busy cycle, and the DSP output is unaffected.
        if data.draw(st.booleans(), label="conv"):
            n = data.draw(st.integers(1, 20), label="n")
            k = data.draw(st.integers(1, n), label="k")
            sc = Scenario(kind=Kind.CONV, n=n, k=k, seed=data.draw(st.integers(0, 99)))
            sc.validate()
            unit, base, form = "conv", CONV_BASE, (n - k + 1) * (3 * k + 1)
            grants = 2 * (n - k + 1) * k + (n - k + 1)
            writes = ((conv_regs.OFF_IN_ADDR, sc.in_addr),
                      (conv_regs.OFF_KERN_ADDR, sc.kern_addr),
                      (conv_regs.OFF_OUT_ADDR, sc.out_addr),
                      (conv_regs.OFF_IN_LEN, n), (conv_regs.OFF_KERN_LEN, k),
                      (conv_regs.OFF_CONTROL, 1))
        else:
            length = data.draw(st.integers(0, 20), label="l")
            sc = Scenario(kind=Kind.DOT, length=length,
                          seed=data.draw(st.integers(0, 99)))
            sc.validate()
            unit, base, form, grants = "dot", DOT_BASE, 3 * length + 1, 2 * length
            writes = ((dot_regs.OFF_VA_ADDR, sc.in_addr),
                      (dot_regs.OFF_VB_ADDR, sc.kern_addr),
                      (dot_regs.OFF_LEN, length), (dot_regs.OFF_CONTROL, 1))
        write_op = st.tuples(st.integers(0, 0xFFFF_FFFF), st.integers(1, 15))
        pattern = data.draw(st.lists(
            st.none() | st.tuples(st.integers(0, 15), st.none() | write_op),
            max_size=300), label="pattern")

        world = World(SimConfig())
        a, b = scenario_data(sc)
        world.write_words(sc.in_addr, a)
        world.write_words(sc.kern_addr, b)
        for offset, value in writes:
            world.reg_write(base + offset, value)
        dsp = getattr(world, unit)
        scratch_base = DATA_BASE + 0x4000
        scratch = [0] * 16
        posts = cycle = 0
        while dsp.state is DspState.RUN:
            op = pattern[cycle] if cycle < len(pattern) else None
            cycle += 1
            if op is None:
                world.step()
                continue
            word, write = op
            access = (scratch_base + 4 * word,)
            if write is None:
                expect = scratch[word]
            else:
                value, strobe = write
                mask = sum(0xFF << (8 * lane) for lane in range(4) if strobe >> lane & 1)
                scratch[word] = (scratch[word] & ~mask) | (value & mask)
                access += (True, value, strobe)
                expect = 0
            assert world._host(*access) == expect  # with a strobe reg_write lacks
            posts += 1
        assert dsp.state is DspState.DONE and not dsp.status_error
        assert world.read_words(scratch_base, 16) == scratch

        stalls = world.bus.stalls[Requester(unit)]
        assert dsp.busy_cycles == form + stalls
        assert world.bus.grants[Requester(unit)] == grants
        assert world.bus.grants[Requester.CPU] == posts
        assert world.bus.stalls[Requester.CPU] == 0
        if unit == "conv":
            assert world.read_words(sc.out_addr, sc.n - sc.k + 1) == conv1d(a, b)
        else:
            got = (world.dot.result_hi << 32) | world.dot.result_lo
            assert got == u64(dot(a, b))

    def test_ecall_takes_its_datamem_grant(self):
        # ecall writes the syscall word to DataMem, so it wins arbitration
        # as a store does: the dot unit's B read in that cycle stalls
        case = {"truncation": Truncation.WRAP, "costs": CycleCostTable(),
                "preload": [(_DOT_A, SplitMix64(1).words(4)),
                            (_DOT_B, SplitMix64(2).words(4))],
                "starts": [("dot", DOT_BASE, ((dot_regs.OFF_VA_ADDR, _DOT_A),
                                              (dot_regs.OFF_VB_ADDR, _DOT_B),
                                              (dot_regs.OFF_LEN, 4),
                                              (dot_regs.OFF_CONTROL, 1)))],
                "rom": [encode(I("addi", rd=17, imm=7)), encode(I("ecall"))],
                "host read": False}
        for fast in (False, True):
            world, _, outcome = _lockstep_run(case, SimConfig().max_cycles, fast)
            assert outcome == "finished"
            assert world.cycle == 14
            assert world.bus.grants[Requester.CPU] == 1
            assert world.bus.stalls[Requester.DOT] == 1
            assert world.read_words(SYSCALL_ADDR, 1) == [7]


_EXTREME = st.sampled_from([0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF])
_CONV_X, _CONV_H, _DOT_A, _DOT_B = (DATA_BASE + off for off in
                                    (0x1000, 0x0800, 0x2000, 0x2400))
_SW_X, _SW_H, _SW_Y = (DATA_BASE + off for off in (0x3000, 0x3100, 0x3200))


def _conv_start(n, k, out=DATA_BASE + 0x1800):
    """The register writes that start a conv n/k on the lockstep buffers."""
    return conv_regs.start_writes(n, k, _CONV_X, _CONV_H, out)


def _words(data, count):
    """`count` splitmix64 words, or words near the int32 limits (saturation)."""
    if data.draw(st.booleans(), label="extreme"):
        return data.draw(st.lists(_EXTREME, min_size=count, max_size=count))
    return SplitMix64(data.draw(st.integers(0, 2**32), label="seed")).words(count)


def _lockstep_case(data):
    """A random conv and/or dot started by register writes, beside a CPU
    that runs a small software conv or a random program, or after a cycle
    with a host DataMem read; or a CPU driver that configures and starts
    one unit itself."""
    cpu = data.draw(st.sampled_from([None, "sw kernel", "program", "driver"]), label="cpu")
    units = data.draw(st.sampled_from(
        {None: ["conv", "dot", "both"], "driver": ["conv", "dot"]}.get(
            cpu, ["none", "conv", "dot", "both"])), label="units")
    int_en = cpu == "driver" and data.draw(st.booleans(), label="int_en")
    costs = CycleCostTable()
    if cpu and data.draw(st.booleans(), label="other costs"):
        costs = CycleCostTable(*data.draw(st.lists(st.integers(1, 4), min_size=8,
                                                   max_size=8), label="costs"))
    case = {"truncation": data.draw(st.sampled_from(list(Truncation))), "costs": costs,
            "preload": [], "starts": [], "rom": None, "host read": False}
    if units in ("conv", "both"):
        n = data.draw(st.integers(1, 64), label="n")
        k = data.draw(st.integers(1, n), label="k")
        # the output buffer may overlap the input or the kernel, often
        # within the K words an output reads, or dot's inputs
        near = data.draw(st.sampled_from([None, _CONV_X, _CONV_H, _DOT_A, _DOT_B]),
                         label="out near")
        out = (DATA_BASE + 0x1800 if near is None else near + 4 * data.draw(
            st.integers(0, k - 1) | st.integers(-(n - k + 1), n), label="out shift"))
        case["preload"] += [(_CONV_X, _words(data, n)), (_CONV_H, _words(data, k))]
        case["starts"].append(("conv", CONV_BASE, (
            (conv_regs.OFF_IN_ADDR, _CONV_X), (conv_regs.OFF_KERN_ADDR, _CONV_H),
            (conv_regs.OFF_OUT_ADDR, out), (conv_regs.OFF_IN_LEN, n),
            (conv_regs.OFF_KERN_LEN, k), (conv_regs.OFF_CONTROL, 1))))
        if cpu == "driver":
            case["rom"] = conv_driver(n, k, _CONV_X, _CONV_H, out, int_en=int_en)
    if units in ("dot", "both"):
        length = data.draw(st.integers(0, 64), label="l")
        vb = data.draw(st.sampled_from([_DOT_A, _DOT_B]), label="vb")
        case["preload"] += [(_DOT_A, _words(data, length)), (_DOT_B, _words(data, length))]
        case["starts"].append(("dot", DOT_BASE, (
            (dot_regs.OFF_VA_ADDR, _DOT_A), (dot_regs.OFF_VB_ADDR, vb),
            (dot_regs.OFF_LEN, length), (dot_regs.OFF_CONTROL, 1))))
        if cpu == "driver":
            case["rom"] = dot_driver(length, _DOT_A, vb, int_en=int_en)
    if cpu == "driver":
        case["starts"] = []
    elif cpu == "program":
        case["rom"] = data.draw(rv_programs(), label="program")
    elif cpu == "sw kernel":
        sw_n = data.draw(st.integers(1, 24), label="sw n")
        sw_k = data.draw(st.integers(1, min(sw_n, 8)), label="sw k")
        # the kernel's x, h or y may lie on a running unit's input, kernel
        # or output, where no window may run across its accesses
        bufs = [_SW_X, _SW_H, _SW_Y]
        moved = data.draw(st.sampled_from([None, 0, 1, 2]), label="sw buffer moved")
        if moved is not None:
            onto = data.draw(st.sampled_from([_CONV_X, _CONV_H, DATA_BASE + 0x1800,
                                              _DOT_A, _DOT_B]), label="onto")
            bufs[moved] = onto + 4 * data.draw(st.integers(0, 8), label="sw shift")
        case["rom"] = conv_sw_kernel(sw_n, sw_k, *bufs)
        case["preload"] += [(bufs[0], SplitMix64(sw_n).words(sw_n)),
                            (bufs[1], SplitMix64(sw_k).words(sw_k))]
    else:
        case["host read"] = data.draw(st.booleans(), label="host read")
    return case


def _lockstep_run(case, max_cycles, fast):
    """Build the case's World and run it to the end, through run_until if
    `fast`, else one step() per cycle; returns (world, trace, outcome)."""
    lines = []
    world = World(SimConfig(costs=case["costs"], truncation=case["truncation"],
                            max_cycles=max_cycles, trace=lines.append),
                  with_cpu=case["rom"] is not None)
    for addr, words in case["preload"]:
        world.write_words(addr, words)
    cpu = world.cpu

    def finished():
        return ((cpu is None or cpu.halted) and world.conv.state is not DspState.RUN
                and world.dot.state is not DspState.RUN)

    try:
        if cpu is not None:
            # the CPU owns the bus's host slot, so start the units directly
            world.rom.load(case["rom"])
            for name, _, writes in case["starts"]:
                for offset, value in writes:
                    getattr(world, name).axi_write(offset, value)
        else:
            for _, base, writes in case["starts"]:
                for offset, value in writes:
                    world.reg_write(base + offset, value)
        if case["host read"]:
            world.reg_read(_CONV_X)
        if fast:
            world.run_until(finished)
        else:
            while not finished():
                world.step()
                if cpu is not None and cpu.fault is not None:
                    raise SimulationFault(cpu.fault)
        outcome = "finished"
    except (SimulationTimeout, SimulationFault) as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    assert_sram_words(world.sram.words)
    return world, lines, outcome


def _observable(world):
    """Every counter, register and datapath field the two paths must agree on;
    not a unit's walk memo, a cache of log slices that stepping never fills."""
    def fields(obj, skip):
        return {key: value for key, value in vars(obj).items() if key not in skip}

    bus = world.bus
    return {"cycle": world.cycle, "sram": world.sram.words,
            "grants": bus.grants, "stalls": bus.stalls,
            "register_accesses": bus.register_accesses, "cpu_served": bus.cpu_served,
            "conv": fields(world.conv, {"trace", "_memo"}),
            "dot": fields(world.dot, {"trace", "_memo"}),
            "cpu": world.cpu and fields(world.cpu, {"rom", "bus", "sram"})}


# A conv 40/5 started by the CPU, then a STATUS poll with one more
# instruction in the loop, then IRQ_CLEAR and a halt, or a jump back to
# start the unit again: (loop body, polled STATUS address, restart, jumped).
# Each poll loop's pc and registers repeat.  A loop is jumped unless it
# accesses DataMem or stores to a unit's registers, also when the store
# changes nothing, and never across the restart.
_CONV_START = _conv_start(40, 5)
_CONV_STATUS = CONV_BASE + conv_regs.OFF_STATUS
_POLL_LOOPS = {
    "plain": ((), _CONV_STATUS, False, True),
    "restarted": ((), _CONV_STATUS, True, True),  # until the timeout
    "DataMem load": ((I("lw", rd=6, rs1=22),), _CONV_STATUS, False, False),
    "store": ((I("sw", rs1=22, rs2=0),), _CONV_STATUS, False, False),
    "running unit write": ((I("sw", rs1=20, rs2=0, imm=conv_regs.OFF_IN_LEN),),
                           _CONV_STATUS, False, False),
    "IRQ_CLEAR write": ((I("sw", rs1=20, rs2=0, imm=conv_regs.OFF_IRQ_CLEAR),),
                        _CONV_STATUS, False, False),
    "ROM load": ((I("lw", rd=6, rs1=0, imm=4),), _CONV_STATUS, False, True),
    "reserved store": ((I("sw", rs1=20, rs2=5, imm=RESERVED_BASE - CONV_BASE),),
                       _CONV_STATUS, False, True),
    "idle unit": ((), DOT_BASE + dot_regs.OFF_STATUS, False, True),  # until the timeout
}


def _poll_program(body, status, restart, lead):
    asm = Assembler()
    asm.li(20, CONV_BASE)
    asm.li(22, _SW_Y)
    asm.li(23, status)
    asm.label("start")
    for offset, value in _CONV_START:
        asm.li(21, value)
        asm.emit(I("sw", rs1=20, rs2=21, imm=offset))
    asm.emit(*[I("addi")] * lead)
    asm.label("poll")
    asm.emit(*body, I("lw", rd=5, rs1=23), I("andi", rd=5, rs1=5, imm=1))
    asm.branch("beq", 5, 0, "poll")
    asm.emit(I("addi", rd=21, imm=1),
             I("sw", rs1=20, rs2=21, imm=conv_regs.OFF_IRQ_CLEAR))
    if restart:  # with the registers of the poll before
        asm.emit(I("addi", rd=5, imm=0))
        asm.branch("beq", 0, 0, "start")
    asm.emit(I("ebreak"))
    return asm.words()


def _count_jumps(monkeypatch):
    """A list that gets the iterations of each spin-loop jump
    (``rvdsp.cpu._jump``) from here on."""
    jumps = []
    jump = cpu_module._jump
    monkeypatch.setattr(cpu_module, "_jump", lambda times, *counters: (
        jumps.append(times), jump(times, *counters))[1])
    return jumps


def _rom_word(draw):
    """A random 32-bit word; a random instruction with small offsets, mostly
    from x0 and the prologue's base registers; or a short backward jump."""
    kind = draw(st.sampled_from(["word", "instruction", "instruction", "back"]))
    if kind == "word":
        return draw(st.integers(0, 0xFFFF_FFFF))
    regs = st.sampled_from([0, 5, 6, 20, 21, 22])
    if kind == "back":
        m = draw(st.sampled_from(["beq", "bne", "bgeu", "jal"]))
        return encode(I(m, rs1=draw(regs), rs2=draw(regs),
                        imm=draw(st.sampled_from([-12, -8, -4, 0]))))
    m = draw(st.sampled_from(MNEMONICS))
    if m in ("slli", "srli", "srai", "fence"):
        imm = draw(st.integers(0, 31))
    elif m in ("lui", "auipc"):
        imm = draw(st.sampled_from([0, 0x1000, CONV_BASE, -0x1000]))
    else:
        imm = draw(st.sampled_from([-8, -4, 0, 2, 4, 8, 0x10, 0x18]))
    return encode(I(m, rd=draw(regs), rs1=draw(regs), rs2=draw(regs), imm=imm))


class TestFastForwardLockstep:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_run_until_matches_stepping(self, data):
        # World.step() is the reference; run_until may advance a lone DSP to
        # its finish, a lone CPU by whole instructions, or a driver's poll
        # loop and its DSP by whole iterations.  Both must reach the same
        # state, trace, fault and timeout, also for a budget that ends
        # inside an output, a multi-cycle instruction or a poll loop.
        case = _lockstep_case(data)
        unlimited = SimConfig().max_cycles
        stepped, lines, outcome = _lockstep_run(case, unlimited, fast=False)
        assert not outcome.startswith("SimulationTimeout")
        budget = data.draw(st.none() | st.integers(1, stepped.cycle), label="max_cycles")
        if budget is not None:
            stepped, lines, outcome = _lockstep_run(case, budget, fast=False)
        fast, fast_lines, fast_outcome = _lockstep_run(case, budget or unlimited, fast=True)
        assert fast_outcome == outcome
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_advance_matches_stepping(self, data):
        # World._replay(bytes(c), c), the replay with nothing taken, must equal c steps
        # for any c up to cycles_left(), and cycles_left() must be the steps
        # to the unit's finish, also from a request that lost arbitration,
        # starting anywhere in the busy phase: in a later output, inside an
        # output or at its END cycle
        unit = data.draw(st.sampled_from(["conv", "dot"]), label="unit")
        if unit == "conv":
            n = data.draw(st.integers(1, 12), label="n")
            k = data.draw(st.integers(1, n), label="k")
            base, writes = CONV_BASE, _conv_start(n, k)
            busy = (n - k + 1) * (3 * k + 1)
        else:
            length = data.draw(st.integers(0, 12), label="l")
            base, writes = DOT_BASE, ((dot_regs.OFF_VA_ADDR, _DOT_A),
                                      (dot_regs.OFF_VB_ADDR, _DOT_B),
                                      (dot_regs.OFF_LEN, length),
                                      (dot_regs.OFF_CONTROL, 1))
            busy = 3 * length + 1
        lead = data.draw(st.integers(0, busy - 1), label="lead")
        stall = data.draw(st.booleans(), label="stall")

        def build():
            lines = []
            world = World(SimConfig(trace=lines.append))
            for addr in (_CONV_X, _CONV_H, _DOT_A, _DOT_B):
                world.write_words(addr, SplitMix64(addr).words(12))
            for offset, value in writes:
                world.reg_write(base + offset, value)
            for _ in range(lead):
                world.step()
            if stall:  # the host wins DataMem for a cycle
                world.reg_read(_SW_Y)
            return world, getattr(world, unit), lines

        stepped, dsp, lines = build()
        if dsp.state is not DspState.RUN:
            return
        left = dsp.cycles_left()
        cycles = left - data.draw(st.integers(0, left), label="short of the finish")
        fast, _, fast_lines = build()
        fast._replay(bytes(cycles), cycles)
        for _ in range(cycles):
            stepped.step()
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)
        while dsp.state is DspState.RUN:
            stepped.step()
            cycles += 1
        assert cycles == left

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_replay_free_stretch_matches_stepping(self, data):
        # one replay with nothing taken over any span (tap-aligned or not)
        # from three outputs' cycles up to cycles_left(), from a tap
        # boundary inside an output (kern_idx >= 2, reached by stepping)
        # across several outputs, must equal stepping that span:
        # the a and b words that its free stretches run whole taps over must
        # be read with each output that conv writes onto them, the last a
        # word an output reads included, under either truncation
        draw = data.draw
        unit = draw(st.sampled_from(["conv", "dot"]), label="unit")
        truncation = draw(st.sampled_from(list(Truncation)), label="truncation")
        if unit == "conv":
            k = draw(st.integers(2, 10), label="k")
            n = draw(st.integers(k, k + 15), label="n")
            outputs = n - k + 1
            first = draw(st.integers(0, outputs - 1), label="first output")
            onto = draw(st.sampled_from(["a", "b", "off"]), label="out onto")
            if onto == "a":
                shift = draw(st.sampled_from([k - 1, n - 1]) | st.integers(-outputs, n),
                             label="out shift")
                out = _CONV_X + 4 * shift
            elif onto == "b":  # the first output written lands on a b word
                out = _CONV_H + 4 * (draw(st.integers(0, k - 1), label="out on b") - first)
            else:
                out = DATA_BASE + 0x1800
            base, writes = CONV_BASE, _conv_start(n, k, out)
            preload = [(_CONV_X, _words(data, n)), (_CONV_H, _words(data, k))]
        else:
            k = draw(st.integers(2, 40), label="l")
            first = 0
            base, writes = DOT_BASE, ((dot_regs.OFF_VA_ADDR, _DOT_A),
                                      (dot_regs.OFF_VB_ADDR, _DOT_B),
                                      (dot_regs.OFF_LEN, k), (dot_regs.OFF_CONTROL, 1))
            preload = [(_DOT_A, _words(data, k)), (_DOT_B, _words(data, k))]
        tap = draw(st.integers(2, k), label="first tap")

        def build():
            lines = []
            world = World(SimConfig(truncation=truncation, trace=lines.append))
            for addr, words in preload:
                world.write_words(addr, words)
            for offset, value in writes:
                world.reg_write(base + offset, value)
            dsp = getattr(world, unit)
            # a tap boundary: POST_A, or END with its write landed
            while not (dsp.out_idx == first and dsp.kern_idx == tap
                       and dsp._stage in (0, 6)
                       and not (dsp.mmi.req and not dsp.mmi.done)):
                assert dsp.state is DspState.RUN
                world.step()
            return world, dsp, lines

        stepped, dsp, lines = build()
        per, left = 3 * k + 1, dsp.cycles_left()
        span = draw(st.integers(min(left, 3 * per), left), label="span")
        fast, fast_dsp, fast_lines = build()
        requester = Requester.CONV if unit == "conv" else Requester.DOT
        granted = stepped.bus.grants[requester]
        for _ in range(span):
            stepped.step()
        grants, stalls, end = fast_dsp.replay(bytes(span), span, fast.sram.words)
        fast.bus.credit(fast_dsp.mmi, grants, stalls)
        fast.cycle += span
        if end:
            assert end == span
            fast_dsp._complete()
        event(f"outputs crossed: {min(3, dsp.out_idx - first)}")
        assert grants == stepped.bus.grants[requester] - granted
        assert stalls == 0
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_replay_matches_stepping(self, data):
        # World._replay(log, c), the replay of conv, dot or both against a
        # log of the cycles the CPU took, must equal c steps with the CPU's
        # DataMem grant set in each logged cycle, from anywhere in the busy
        # phase, also from a request that lost arbitration, to anywhere,
        # also inside a tap; a log with nothing taken runs whole taps in
        # closed form
        units = data.draw(st.sampled_from(["conv", "dot", "both"]), label="units")
        starts = []
        if units != "dot":
            n = data.draw(st.integers(1, 24), label="n")
            k = data.draw(st.integers(1, n), label="k")
            starts.append((CONV_BASE, _conv_start(n, k)))
        if units != "conv":
            starts.append((DOT_BASE, ((dot_regs.OFF_VA_ADDR, _DOT_A),
                                      (dot_regs.OFF_VB_ADDR, _DOT_B),
                                      (dot_regs.OFF_LEN, data.draw(st.integers(0, 24))),
                                      (dot_regs.OFF_CONTROL, 1))))
        lead = data.draw(st.integers(0, 60), label="lead")
        stall = data.draw(st.booleans(), label="stall")
        density = data.draw(st.integers(0, 8), label="taken in 8")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="log seed"))
        log = [rng.randrange(8) < density
               for _ in range(data.draw(st.integers(1, 600), label="cycles"))]

        def build():
            lines = []
            world = World(SimConfig(trace=lines.append))
            for addr in (_CONV_X, _CONV_H, _DOT_A, _DOT_B):
                world.write_words(addr, SplitMix64(addr).words(24))
            for base, writes in starts:
                for offset, value in writes:
                    world.reg_write(base + offset, value)
            for _ in range(lead):
                world.step()
            if stall:  # the host wins DataMem for a cycle
                world.reg_read(_SW_Y)
            return world, lines

        stepped, lines = build()
        if DspState.RUN not in (stepped.conv.state, stepped.dot.state):
            return
        fast, fast_lines = build()
        fast._replay(bytearray(log), len(log))
        for taken in log:
            stepped.bus.cpu_served = taken
            stepped.step()
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_replay_walk_matches_stepping(self, data):
        # World._replay(log, c) over a log of up to 2,000 cycles at any
        # density, whose walk of whole taps crosses several outputs, from
        # a unit in any phase of a tap (also with the output's write
        # waiting after its last MAC) to a cut in any phase of a chosen
        # unit's tap, must equal c steps with the CPU's DataMem grant set
        # in each logged cycle: conv alone, dot alone, or both, where conv
        # marks its grants in the log for dot; conv's outputs may land on
        # its own a or b words
        draw = data.draw
        units = draw(st.sampled_from(["conv", "dot", "both"]), label="units")
        truncation = draw(st.sampled_from(list(Truncation)), label="truncation")
        starts, preload = [], []
        if units != "dot":
            k = draw(st.integers(1, 8), label="k")
            n = draw(st.integers(k, k + 40), label="n")
            onto = draw(st.sampled_from([_CONV_X, _CONV_H, None]), label="out onto")
            shift = draw(st.integers(0, k), label="out shift")

            def conv_start(lead):
                # output i writes word i + shift of a, or of b from about
                # the replay's first output on, where later outputs read it
                s = shift - lead // (3 * k + 1) if onto == _CONV_H else shift
                out = DATA_BASE + 0x1800 if onto is None else onto + 4 * s
                return CONV_BASE, _conv_start(n, k, out)
            starts.append(conv_start)
            preload += [(_CONV_X, _words(data, n)), (_CONV_H, _words(data, k))]
        if units != "conv":
            length = draw(st.integers(0, 64), label="l")
            dot_start = (DOT_BASE, ((dot_regs.OFF_VA_ADDR, _DOT_A),
                                    (dot_regs.OFF_VB_ADDR, _DOT_B),
                                    (dot_regs.OFF_LEN, length), (dot_regs.OFF_CONTROL, 1)))
            starts.append(lambda lead: dot_start)
            preload += [(_DOT_A, _words(data, length)), (_DOT_B, _words(data, length))]
        density = draw(st.integers(0, 16), label="taken in 16")
        rng = random.Random(draw(st.integers(0, 2**32), label="log seed"))
        log = [rng.randrange(16) < density
               for _ in range(draw(st.integers(1, 2000), label="cycles"))]
        cut_unit = draw(st.sampled_from(["conv", "dot"] if units == "both" else [units]),
                        label="cut unit")

        def build(lead, stall):
            lines = []
            world = World(SimConfig(truncation=truncation, trace=lines.append))
            for addr, words in preload:
                world.write_words(addr, words)
            for start in starts:
                base, writes = start(lead)
                for offset, value in writes:
                    world.reg_write(base + offset, value)
            for _ in range(lead):
                world.step()
            if stall:  # the host wins DataMem for a cycle
                world.reg_read(_SW_Y)
            return world, lines

        def phase(dsp):
            return dsp.state.value, dsp._stage, dsp.mmi.req and not dsp.mmi.done

        # the phase in which a unit enters the replay after `lead` free
        # steps, or after one more (`stall`) that runs the same cycle of the
        # unit as the free step, but in which any request it has waits (the
        # timing does not depend on where conv's outputs land)
        entries = {}  # (unit, phase) -> the (lead, stall) that enter in it
        probe, _ = build(0, False)
        for lead in range(102):
            for name in ("conv", "dot"):
                dsp = getattr(probe, name)
                if dsp.state is not DspState.RUN:
                    continue
                if lead <= 100:
                    entries.setdefault((name, phase(dsp)), []).append((lead, False))
                if lead:
                    entries.setdefault((name, ("run", dsp._stage, dsp.mmi.req)),
                                       []).append((lead - 1, True))
            probe.step()
        waiting = ("run", 6, True)  # the output's write lost its grant
        enter = ("conv", waiting) if ("conv", waiting) in entries \
            and draw(st.booleans(), label="enter waiting") \
            else draw(st.sampled_from(sorted(entries)), label="entry phase")
        lead, stall = draw(st.sampled_from(entries[enter]), label="lead, stall")
        event(f"enter {enter[0]} in {enter[1]}")
        stepped, _ = build(lead, stall)
        assert phase(getattr(stepped, enter[0])) == enter[1]
        cuts = {}  # the phase of the cut unit after each number of steps
        for cycle, taken in enumerate(log, 1):
            stepped.bus.cpu_served = taken
            stepped.step()
            cuts.setdefault(phase(getattr(stepped, cut_unit)), []).append(cycle)
        cut_phase = waiting if waiting in cuts and draw(st.booleans(), label="waiting") \
            else draw(st.sampled_from(sorted(cuts)), label="cut phase")
        cut = draw(st.sampled_from(cuts[cut_phase]), label="cut")
        event(f"cut in {cut_phase}")
        event(f"log of {min(3, len(log) // 500)}+ x 500 cycles")
        stepped, lines = build(lead, stall)
        for taken in log[:cut]:
            stepped.bus.cpu_served = taken
            stepped.step()
        fast, fast_lines = build(lead, stall)
        i0 = fast.conv.out_idx
        fast._replay(bytearray(log[:cut]), cut)
        event(f"conv outputs crossed {min(3, fast.conv.out_idx - i0)}")
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_replay_of_periodic_logs_matches_stepping(self, data):
        # World._replay over one to three windows of a log that repeats a
        # random pattern, with noise, so that conv's whole output walks
        # repeat and are taken from its memo, must equal stepping those
        # cycles: conv alone, or beside a dot started before the first
        # window or between two, after which conv's walks are marked for
        # dot.  Conv's k is short, or long enough for output walks past
        # accel._H cycles; the sizes are uniform, so that most runs cross
        # enough outputs to repeat a walk, also on the run's last output
        draw = data.draw
        rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
        k = rng.randint(*draw(st.sampled_from([(1, 8), (30, 48)]), label="k range"))
        n = k + rng.randrange(121)
        dot_at = draw(st.sampled_from([None, 0, 1, 2]), label="dot before window")
        length = rng.randrange(601)
        truncation = draw(st.sampled_from(list(Truncation)), label="truncation")
        density = draw(st.integers(2, 14), label="taken in 16")
        period = rng.randint(*draw(st.sampled_from([(1, 16), (17, 97)]), label="period"))
        pattern = [rng.randrange(16) < density for _ in range(period)]
        noise = draw(st.sampled_from([0, 0, 1, 4, 16]), label="noise in 1024")
        # each window is given up to 2 _H cycles of log past its end, as a
        # CPU window that closes early leaves it
        windows = [(rng.randint(1, 3000), rng.randrange(2 * accel._H + 1))
                   for _ in range(draw(st.sampled_from([1, 2, 3]), label="windows"))]
        logs = [bytearray(pattern[c % period] ^ (rng.randrange(1024) < noise)
                          for c in range(cycles + past)) for cycles, past in windows]
        worlds = []
        for fast in (False, True):
            lines = []
            world = World(SimConfig(truncation=truncation, trace=lines.append))
            world.write_words(_CONV_X, SplitMix64(n).words(n))
            world.write_words(_CONV_H, SplitMix64(k).words(k))
            world.write_words(_DOT_A, SplitMix64(1).words(length))
            world.write_words(_DOT_B, SplitMix64(2).words(length))
            for offset, value in _conv_start(n, k):
                world.reg_write(CONV_BASE + offset, value)
            for w, ((cycles, _), log) in enumerate(zip(windows, logs)):
                if w == dot_at:
                    for offset, value in dot_regs.start_writes(length, _DOT_A, _DOT_B):
                        world.reg_write(DOT_BASE + offset, value)
                if fast:
                    world._replay(bytearray(log), cycles)
                else:
                    for taken in log[:cycles]:
                        world.bus.cpu_served = taken
                        world.step()
            worlds.append((world, lines))
        (stepped, lines), (fast, fast_lines) = worlds
        event(f"conv {stepped.conv.state.value}, k {'short' if k < 30 else 'long'}, "
              f"dot before window {dot_at}")
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)

    def test_marked_walks_do_not_reuse_unmarked_ones(self):
        # conv N=512 K=16 beside the software kernel, laid out as in the
        # contended benchmark, fills its memo of unmarked walks in the
        # first window, which ends at its uncontended finish; dot then
        # starts, and conv's walks, now marked in the log for dot, must
        # not copy a log slice that lacks conv's grants (one memo for both
        # gives dot 591 stalls where stepping gives 2,325)
        sw_x, sw_h, sw_y, x, h, y, va, vb = (DATA_BASE + 4 * off for off in accumulate(
            (256, 16, 241, 512, 16, 497, 512), initial=0))
        runs = []
        for fast in (False, True):
            lines = []
            world = World(SimConfig(trace=lines.append), with_cpu=True)
            for addr, count in ((sw_x, 256), (sw_h, 16), (x, 512), (h, 16),
                                (va, 512), (vb, 512)):
                world.write_words(addr, SplitMix64(addr).words(count))
            world.rom.load(conv_sw_kernel(256, 16, sw_x, sw_h, sw_y))
            for offset, value in conv_regs.start_writes(512, 16, x, h, y):
                world.conv.axi_write(offset, value)
            if fast:
                world.run_until(lambda: world.cycle > 0)
                assert world.conv._memo[0] and world.conv.state is DspState.RUN
            else:
                while world.cycle < 497 * 49:
                    world.step()
            assert world.cycle == 24_353
            for offset, value in dot_regs.start_writes(512, va, vb):
                world.dot.axi_write(offset, value)

            def finished():
                return (world.cpu.halted and world.conv.state is not DspState.RUN
                        and world.dot.state is not DspState.RUN)
            if fast:
                world.run_until(finished)
            else:
                while not finished():
                    world.step()
            runs.append((_observable(world), lines))
        (stepped, lines), (fast, fast_lines) = runs
        assert fast_lines == lines
        assert fast == stepped
        assert stepped["stalls"][Requester.DOT] == 2_325

    # a software conv beside a running conv and dot on other buffers
    _BESIDE_BOTH = {"truncation": Truncation.WRAP, "costs": CycleCostTable(),
                "preload": [(_CONV_X, SplitMix64(1).words(64)),
                            (_CONV_H, SplitMix64(2).words(8)),
                            (_DOT_A, SplitMix64(3).words(64)),
                            (_DOT_B, SplitMix64(4).words(64)),
                            (_SW_X, SplitMix64(5).words(40)),
                            (_SW_H, SplitMix64(6).words(8))],
                "starts": [("conv", CONV_BASE, _conv_start(64, 8)),
                           ("dot", DOT_BASE, ((dot_regs.OFF_VA_ADDR, _DOT_A),
                                              (dot_regs.OFF_VB_ADDR, _DOT_B),
                                              (dot_regs.OFF_LEN, 64),
                                              (dot_regs.OFF_CONTROL, 1)))],
                "rom": conv_sw_kernel(40, 8, _SW_X, _SW_H, _SW_Y), "host read": False}

    def test_kernel_beside_both_units_runs_in_windows(self, monkeypatch):
        # the CPU runs alone and both units are replayed against its
        # DataMem grants, so only the kernel's ebreak, which may not run
        # alone, and the wait left of the instruction in which the last
        # unit finished are stepped
        case = self._BESIDE_BOTH
        stepped, lines, outcome = _lockstep_run(case, SimConfig().max_cycles, fast=False)
        steps = []
        step = World.step
        monkeypatch.setattr(World, "step", lambda world: (steps.append(1), step(world)))
        fast, fast_lines, fast_outcome = _lockstep_run(case, SimConfig().max_cycles, fast=True)
        assert fast_outcome == outcome == "finished"
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)
        assert stepped.bus.stalls[Requester.CONV] and stepped.bus.stalls[Requester.DOT]
        assert len(steps) <= 3

    @pytest.mark.parametrize("cpu", [False, True], ids=["no cpu", "sw kernel"])
    @pytest.mark.parametrize("onto", [_DOT_A, _DOT_B], ids=["on a", "on b"])
    def test_conv_output_on_dot_inputs_is_stepped(self, cpu, onto):
        # conv writes words that dot reads later, so the units may not be
        # replayed one after the other: no window opens, with or without
        # a CPU beside them
        case = {"truncation": Truncation.WRAP, "costs": CycleCostTable(),
                "preload": [(_CONV_X, SplitMix64(1).words(16)),
                            (_CONV_H, SplitMix64(2).words(4)),
                            (_DOT_A, SplitMix64(3).words(24)),
                            (_DOT_B, SplitMix64(4).words(24))],
                "starts": [("conv", CONV_BASE, (
                    (conv_regs.OFF_IN_ADDR, _CONV_X), (conv_regs.OFF_KERN_ADDR, _CONV_H),
                    (conv_regs.OFF_OUT_ADDR, onto), (conv_regs.OFF_IN_LEN, 16),
                    (conv_regs.OFF_KERN_LEN, 4), (conv_regs.OFF_CONTROL, 1))),
                    ("dot", DOT_BASE, ((dot_regs.OFF_VA_ADDR, _DOT_A),
                                       (dot_regs.OFF_VB_ADDR, _DOT_B),
                                       (dot_regs.OFF_LEN, 24), (dot_regs.OFF_CONTROL, 1)))],
                "rom": conv_sw_kernel(24, 5, _SW_X, _SW_H, _SW_Y) if cpu else None,
                "host read": False}
        stepped, lines, outcome = _lockstep_run(case, SimConfig().max_cycles, fast=False)
        fast, fast_lines, fast_outcome = _lockstep_run(case, SimConfig().max_cycles, fast=True)
        assert fast_outcome == outcome == "finished"
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)

    @pytest.mark.parametrize("unit", ["conv", "dot"])
    def test_dsp_predicate_stops_on_the_finishing_cycle(self, unit):
        # no window runs past a unit's finish, so a predicate on a unit's
        # state stops run_until on the cycle where stepping stops, also
        # while the CPU runs beside both units
        case = dict(self._BESIDE_BOTH)
        runs = []
        for fast in (False, True):
            world = World(SimConfig(), with_cpu=True)
            for addr, words in case["preload"]:
                world.write_words(addr, words)
            world.rom.load(case["rom"])
            for name, _, writes in case["starts"]:
                for offset, value in writes:
                    getattr(world, name).axi_write(offset, value)
            dsp = getattr(world, unit)

            def done():
                return dsp.state is not DspState.RUN
            if fast:
                world.run_until(done)
            else:
                while not done():
                    world.step()
            assert not world.cpu.halted
            runs.append(_observable(world))
        assert runs[0] == runs[1]

    def test_lone_dsp_is_fast_forwarded(self, monkeypatch):
        # testbench runs spend a host cycle on each register write and
        # step no cycle; a full-system run runs the driver in windows,
        # which jump the poll loop beside the running DSP, and steps only
        # what closes a window
        steps, hosts = [], []
        step, host = World.step, World._host
        monkeypatch.setattr(World, "step", lambda world: (steps.append(1), step(world)))
        monkeypatch.setattr(World, "_host",
                            lambda world, *access: (hosts.append(1), host(world, *access))[1])
        run_scenario(conv_scenario(40, 5))
        assert (len(hosts), len(steps)) == (6, 0)
        hosts.clear()
        run_scenario(Scenario(kind=Kind.DOT, length=30))
        assert (len(hosts), len(steps)) == (4, 0)
        report, _ = run_scenario(conv_scenario(40, 5, mode=Mode.FULL_SYSTEM))
        # windows step only the driver's 7 register stores, its ebreak and
        # at most a STATUS load on the unit's finishing cycle, inside the
        # bound of three 6-cycle poll iterations and the CONTROL store's wait
        assert len(steps) <= 2 + 3 * 6 < report["conv"]["busy_cycles"]

    @pytest.mark.parametrize("scenario", [conv_scenario(1024, 16),
                                          Scenario(kind=Kind.DOT, length=4096)],
                             ids=["conv N=1024 K=16", "dot L=4096"])
    def test_testbench_replay_walks_whole_taps_only(self, scenario, monkeypatch):
        # a testbench run is replayed from its first tap boundary with
        # nothing taken, so the walk of whole taps runs it to its finish:
        # a walk that falls back to stepping calls _cycle inside replay
        calls = {"replay": 0, "_cycle in replay": 0}
        inside = [False]
        cycle, replay = MmioAccelerator._cycle, MmioAccelerator.replay

        def replayed(dsp, *args):
            calls["replay"] += 1
            inside[0] = True
            try:
                return replay(dsp, *args)
            finally:
                inside[0] = False

        def counted(dsp):
            calls["_cycle in replay"] += inside[0]
            return cycle(dsp)
        monkeypatch.setattr(MmioAccelerator, "replay", replayed)
        monkeypatch.setattr(MmioAccelerator, "_cycle", counted)
        run_scenario(scenario)
        assert calls == {"replay": 1, "_cycle in replay": 0}

    @pytest.mark.parametrize("scenario, outputs",
                             [(conv_scenario(1024, 32), 993),
                              (conv_scenario(1024, 16, mode=Mode.FULL_SYSTEM), 1009)],
                             ids=["testbench N=1024 K=32", "full_system N=1024 K=16"])
    def test_whole_conv_outputs_commit_by_one_product(self, scenario, outputs, monkeypatch):
        # the benchmark's conv runs are replayed in one walk from output 0,
        # so all their outputs are whole and committed by one _convolve:
        # a fallback to one sum per output fails here
        batches = _count_batches(monkeypatch)
        report, _ = run_scenario(scenario)
        assert report["conv"]["macs"] == outputs * scenario.k
        assert batches == [outputs]

    # conv n=60 k=5 (56 outputs) writing in place, onto the next output's
    # first a word, 21 words past the last a word an output reads (which
    # output t + 21 reads), or onto b: the batches that replay commits by one
    # product, of at least _BATCH_MIN (16) outputs
    _OVERLAPS = {"in place": (_CONV_X, [56]), "a + 4": (_CONV_X + 4, []),
                 "a + 4(k + 20)": (_CONV_X + 4 * 25, [21, 21]),
                 "kernel": (_CONV_H, [51])}

    @pytest.mark.parametrize("truncation", list(Truncation), ids=lambda t: t.value)
    @pytest.mark.parametrize("onto", sorted(_OVERLAPS))
    def test_batches_stop_where_an_output_feeds_a_later_one(self, onto, truncation,
                                                          monkeypatch):
        # a batch keeps stepping's order of each output's write before a
        # later output's reads: it ends at the first output whose word a
        # later one of the batch reads as a or b, and the outputs summed one
        # by one after a batch read the words it stored
        # (a + 4: all 56; a + 4(k + 20): the last 14; kernel: outputs 0 to 4)
        out, expected = self._OVERLAPS[onto]
        x = SplitMix64(5).words(60)
        x[::6] = [0x7FFF_FFFF, 0x8000_0000] * 5  # also saturating sums

        def build():
            lines = []
            world = World(SimConfig(truncation=truncation, trace=lines.append))
            world.write_words(_CONV_X, x)
            world.write_words(_CONV_H, [0x7FFF_FFFF, 3, 0xFFFF_FFFF, 0x8000_0000, 1])
            for offset, value in _conv_start(60, 5, out):
                world.reg_write(CONV_BASE + offset, value)
            return world, lines

        stepped, lines = build()
        while stepped.conv.state is DspState.RUN:
            stepped.step()
        fast, fast_lines = build()
        batches = _count_batches(monkeypatch)
        fast.run_until(lambda: fast.conv.state is not DspState.RUN)
        assert batches == expected
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)

    # the plain loop also after 1 to 5 one-cycle nops, so that over the six
    # phases of the 6-cycle loop against the unit's finish, one jump ends on
    # the last iteration whose STATUS read still sees the unit running
    @pytest.mark.parametrize("name, lead", [(name, 0) for name in sorted(_POLL_LOOPS)]
                             + [("plain", lead) for lead in range(1, 6)])
    def test_only_exact_poll_loops_are_jumped(self, name, lead, monkeypatch):
        body, status, restart, jumped = _POLL_LOOPS[name]
        case = {"truncation": Truncation.WRAP, "costs": CycleCostTable(),
                "preload": [(_CONV_X, SplitMix64(1).words(40)),
                            (_CONV_H, SplitMix64(2).words(5))],
                "starts": [], "rom": _poll_program(body, status, restart, lead),
                "host read": False}
        stepped, lines, outcome = _lockstep_run(case, 1500, fast=False)
        jumps = _count_jumps(monkeypatch)
        fast, fast_lines, fast_outcome = _lockstep_run(case, 1500, fast=True)
        assert fast_outcome == outcome
        assert outcome == ("SimulationTimeout: exceeded 1500 cycles"
                           if restart or name == "idle unit" else "finished")
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)
        assert bool(jumps) == jumped

    def test_jump_to_self_beside_a_long_conv_is_jumped(self, monkeypatch):
        # a `jal x0, 0` loop beside a running conv N=1024 K=16 is jumped
        # inside its window, as far as the conv's last cycle allows, then
        # to the timeout once the conv has finished
        case = {"truncation": Truncation.WRAP, "costs": CycleCostTable(),
                "preload": [(DATA_BASE, SplitMix64(1).words(1024)),
                            (DATA_BASE + 0x1000, SplitMix64(2).words(16))],
                "starts": [("conv", CONV_BASE, (
                    (conv_regs.OFF_IN_ADDR, DATA_BASE),
                    (conv_regs.OFF_KERN_ADDR, DATA_BASE + 0x1000),
                    (conv_regs.OFF_OUT_ADDR, DATA_BASE + 0x1100),
                    (conv_regs.OFF_IN_LEN, 1024), (conv_regs.OFF_KERN_LEN, 16),
                    (conv_regs.OFF_CONTROL, 1)))],
                "rom": [encode(I("jal", rd=0, imm=0))], "host read": False}
        busy = (1024 - 16 + 1) * (3 * 16 + 1)
        stepped, lines, outcome = _lockstep_run(case, busy + 100, fast=False)
        jumps = _count_jumps(monkeypatch)
        steps = []
        step = World.step
        monkeypatch.setattr(World, "step", lambda world: (steps.append(1), step(world)))
        fast, fast_lines, fast_outcome = _lockstep_run(case, busy + 100, fast=True)
        assert fast_outcome == outcome == f"SimulationTimeout: exceeded {busy + 100} cycles"
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)
        assert stepped.conv.state is DspState.DONE
        # two 2-cycle iterations find the loop, and the jump ends with the
        # conv's last cycle
        assert jumps[0] == (busy - 4) // 2
        assert len(steps) == 1  # into the timeout

    # register loads that read a unit at its finish: conv's STATUS, dot's
    # STATUS and RESULT_LO
    _FINISH_READS = {"conv STATUS": ("conv", CONV_BASE + conv_regs.OFF_STATUS),
                     "dot STATUS": ("dot", DOT_BASE + dot_regs.OFF_STATUS),
                     "dot RESULT_LO": ("dot", DOT_BASE + dot_regs.OFF_RESULT_LO)}

    @pytest.mark.parametrize("issue", [-2, -1, 0, 1], ids=lambda i: f"finish{i:+d}")
    @pytest.mark.parametrize("beside", [False, True], ids=["lone", "beside both"])
    @pytest.mark.parametrize("read", sorted(_FINISH_READS))
    def test_register_load_on_the_finishing_cycle(self, read, beside, issue):
        # a load of a running unit's register issued on the cycle of its
        # uncontended finish, or just before or after it, reads what stepping
        # reads: the DSPs step before the CPU issues the load, so on the
        # finishing cycle it already sees the unit done.  Beside conv, dot
        # loses arbitration and finishes later.
        unit, addr = self._FINISH_READS[read]
        conv_n, length = (4, 12) if unit == "conv" else (10, 5)
        starts = [("conv", CONV_BASE, _conv_start(conv_n, 2)),
                  ("dot", DOT_BASE, ((dot_regs.OFF_VA_ADDR, _DOT_A),
                                     (dot_regs.OFF_VB_ADDR, _DOT_B),
                                     (dot_regs.OFF_LEN, length),
                                     (dot_regs.OFF_CONTROL, 1)))]
        if not beside:  # the other unit, which would finish later, stays idle
            starts = [start for start in starts if start[0] == unit]
        finish = (conv_n - 1) * 7 if unit == "conv" else 3 * length + 1
        asm = Assembler()
        asm.li(23, addr)
        prologue = len(asm.words())  # one cycle each
        asm.emit(*[I("addi")] * (finish + issue - 1 - prologue),
                 I("lw", rd=5, rs1=23), I("ebreak"))
        case = {"truncation": Truncation.WRAP, "costs": CycleCostTable(),
                "preload": [(_CONV_X, SplitMix64(1).words(conv_n)),
                            (_CONV_H, SplitMix64(2).words(2)),
                            (_DOT_A, SplitMix64(3).words(length)),
                            (_DOT_B, SplitMix64(4).words(length))],
                "starts": starts, "rom": asm.words(), "host read": False}
        stepped, lines, outcome = _lockstep_run(case, SimConfig().max_cycles, fast=False)
        fast, fast_lines, fast_outcome = _lockstep_run(case, SimConfig().max_cycles, fast=True)
        assert fast_outcome == outcome == "finished"
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)
        done = next(int(line.split()[1]) for line in lines if line.endswith(f"{unit} | done"))
        assert done == finish if unit == "conv" or not beside else done > finish
        assert (stepped.cpu.regs[5] != 0) == (finish + issue >= done)

    def test_idle_and_done_unit_loads_run_in_a_window(self, monkeypatch):
        # loads of the done conv's and the idle dot's registers are served
        # in a window and counted as stepping counts them
        asm = Assembler()
        asm.li(20, CONV_BASE)
        asm.li(21, DOT_BASE)
        asm.emit(*[I("addi")] * 30)  # past the conv's finish
        for _ in range(3):
            asm.emit(I("lw", rd=5, rs1=20, imm=conv_regs.OFF_STATUS),
                     I("lw", rd=6, rs1=21, imm=dot_regs.OFF_STATUS),
                     I("lw", rd=7, rs1=20, imm=conv_regs.OFF_IN_LEN),
                     I("lw", rd=8, rs1=21, imm=dot_regs.OFF_RESULT_HI))
        asm.emit(I("ebreak"))
        case = {"truncation": Truncation.WRAP, "costs": CycleCostTable(),
                "preload": [(_CONV_X, SplitMix64(1).words(4)),
                            (_CONV_H, SplitMix64(2).words(2))],
                "starts": [("conv", CONV_BASE, _conv_start(4, 2))],
                "rom": asm.words(), "host read": False}
        stepped, lines, outcome = _lockstep_run(case, SimConfig().max_cycles, fast=False)
        steps = []
        step = World.step
        monkeypatch.setattr(World, "step", lambda world: (steps.append(1), step(world)))
        fast, fast_lines, fast_outcome = _lockstep_run(case, SimConfig().max_cycles, fast=True)
        assert fast_outcome == outcome == "finished"
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)
        assert fast.bus.register_accesses == 12
        assert fast.cpu.regs[5:9] == [1, 0, 4, 0]
        assert len(steps) == 1  # the ebreak

    @pytest.mark.parametrize("running", [False, True], ids=["alone", "beside conv"])
    @pytest.mark.parametrize("bad, error, accesses", [
        (0x0200_0000, "unmapped address 0x02000000", 4),
        (CONV_BASE + 0x40, "conv: no register at offset 0x40", 5),
    ], ids=["unmapped", "bad conv offset"])
    def test_window_ends_on_a_faulting_load(self, bad, error, accesses, running,
                                            monkeypatch):
        # a loop loads conv's STATUS four times, then loads from `bad`: the
        # window serves every load through the handler, and the faulting
        # one ends it with its issue cycle, leaving the cycle, pc, wait,
        # retired count and register accesses (an erring register load
        # counts once) as a step() loop leaves them
        asm = Assembler()
        asm.li(23, CONV_BASE + conv_regs.OFF_STATUS)
        asm.li(24, bad)
        asm.li(21, 4)
        asm.label("loop")
        asm.emit(I("lw", rd=5, rs1=23), I("addi", rd=21, rs1=21, imm=-1))
        asm.branch("bne", 21, 0, "loop")
        asm.emit(I("addi", rd=23, rs1=24))
        asm.branch("beq", 0, 0, "loop")
        case = {"truncation": Truncation.WRAP, "costs": CycleCostTable(),
                "preload": [(_CONV_X, SplitMix64(1).words(40)),
                            (_CONV_H, SplitMix64(2).words(5))],
                "starts": [("conv", CONV_BASE, _conv_start(40, 5))] if running else [],
                "rom": asm.words(), "host read": False}
        stepped, lines, outcome = _lockstep_run(case, SimConfig().max_cycles, fast=False)
        steps = []
        step = World.step
        monkeypatch.setattr(World, "step", lambda world: (steps.append(1), step(world)))
        fast, fast_lines, fast_outcome = _lockstep_run(case, SimConfig().max_cycles, fast=True)
        prologue = asm.labels["loop"]
        load = 4 * prologue
        assert fast_outcome == outcome == f"SimulationFault: bus fault at pc=0x{load:08x}: {error}"
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)
        # the faulting load retires, moves pc on and leaves its wait, as in step()
        assert (fast.cpu.pc, fast.cpu._wait) == (load + 4, 2)
        assert fast.cpu.retired == prologue + 4 * 3 + 2 + 1
        assert fast.bus.register_accesses == accesses
        assert not steps  # the fault ends a window

    @pytest.mark.parametrize("world_state", ["no cpu", "done unit", "halted cpu"])
    def test_idle_world_jumps_to_the_timeout(self, world_state, monkeypatch):
        # with nothing that can change, run_until jumps to max_cycles and
        # times out on the same cycle as stepping, with one step
        def build():
            world = World(SimConfig(max_cycles=100_000), with_cpu=world_state == "halted cpu")
            if world_state == "done unit":
                for offset, value in _conv_start(4, 2):
                    world.reg_write(CONV_BASE + offset, value)
            elif world_state == "halted cpu":
                world.rom.load([encode(I("addi", rd=5, imm=3)), encode(I("ebreak"))])
                world.run_until_halt()
            world.run_until(lambda: world.conv.state is not DspState.RUN)
            return world

        stepped, fast = build(), build()
        with pytest.raises(SimulationTimeout):
            while True:
                stepped.step()
        steps = []
        step = World.step
        monkeypatch.setattr(World, "step", lambda world: (steps.append(1), step(world)))
        with pytest.raises(SimulationTimeout, match="exceeded 100000 cycles"):
            fast.run_until(lambda: False)
        assert _observable(fast) == _observable(stepped)
        assert stepped.cycle == 100_001
        assert len(steps) <= 1

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_rom_words_match_stepping(self, data):
        # arbitrary code beside a running conv or dot, or alone, puts the
        # spin-loop check on more than drivers; every run ends in a halt, a
        # fault or the timeout, as stepping ends it
        draw = data.draw
        rom = []
        if draw(st.booleans(), label="prologue"):
            asm = Assembler()
            for reg, value in ((20, CONV_BASE), (21, DOT_BASE), (22, _SW_Y)):
                asm.li(reg, value)
            rom = asm.words()
        rom += [_rom_word(draw) for _ in range(draw(st.integers(1, 10), label="words"))]
        unit = draw(st.sampled_from([None, "conv", "dot"]), label="unit")
        starts = []
        if unit == "conv":
            n = draw(st.integers(1, 64), label="n")
            k = draw(st.integers(1, n), label="k")
            starts = [("conv", CONV_BASE, _conv_start(n, k))]
        elif unit == "dot":
            starts = [("dot", DOT_BASE, ((dot_regs.OFF_VA_ADDR, _DOT_A),
                                         (dot_regs.OFF_VB_ADDR, _DOT_B),
                                         (dot_regs.OFF_LEN, draw(st.integers(0, 64))),
                                         (dot_regs.OFF_CONTROL, 1)))]
        costs = CycleCostTable()
        if draw(st.booleans(), label="other costs"):
            costs = CycleCostTable(*draw(st.lists(st.integers(1, 4), min_size=8,
                                                  max_size=8), label="costs"))
        case = {"truncation": Truncation.WRAP, "costs": costs, "rom": rom,
                "preload": [(_CONV_X, SplitMix64(1).words(64)),
                            (_CONV_H, SplitMix64(2).words(64)),
                            (_DOT_A, SplitMix64(3).words(64)),
                            (_DOT_B, SplitMix64(4).words(64))],
                "starts": starts, "host read": False}
        budget = draw(st.just(1500) | st.integers(1, 1500), label="max_cycles")
        stepped, lines, outcome = _lockstep_run(case, budget, fast=False)
        fast, fast_lines, fast_outcome = _lockstep_run(case, budget, fast=True)
        assert outcome.split(":")[0] in ("finished", "SimulationFault",
                                         "SimulationTimeout")
        assert fast_outcome == outcome
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)


def _count_batches(monkeypatch):
    """The output counts of the runs of whole outputs that replay commits
    by one product, as a list that fills as the test runs."""
    counts = []
    convolve = accel._convolve

    def counted(a, b, count):
        counts.append(count)
        return convolve(a, b, count)
    monkeypatch.setattr(accel, "_convolve", counted)
    return counts


def _count_blocks(monkeypatch):
    """A list that gets (start, instructions in the block, instructions run)
    for each run of a block translated from here on."""
    runs = []
    translate = Cpu._translate

    def counted(cpu, start):
        block = translate(cpu, start)
        if block is None:
            return None
        fn, last, size = block

        def run(*args):
            out = fn(*args)
            runs.append((start, size, out[1]))
            return out
        return run, last, size
    monkeypatch.setattr(Cpu, "_translate", counted)
    return runs


def _blocks_match_stepping(case, max_cycles):
    """Run `case` through run_until, which runs hot loops as blocks, and
    through step(); both must end alike with the same trace and state.
    Returns True if a block was translated."""
    stepped, lines, outcome = _lockstep_run(case, max_cycles, fast=False)
    fast, fast_lines, fast_outcome = _lockstep_run(case, max_cycles, fast=True)
    assert fast_outcome == outcome
    assert fast_lines == lines
    assert _observable(fast) == _observable(stepped)
    return any(fast.rom.blocks.values())


def _loop(body, count, x9):
    """A program: x9 set to `x9`, then `count` iterations of `body`,
    counted in x13, then ebreak."""
    asm = Assembler()
    asm.li(9, x9)
    asm.li(13, count)
    asm.label("loop")
    asm.emit(*body, I("addi", rd=13, rs1=13, imm=-1))
    asm.branch("bne", 13, 0, "loop")
    asm.emit(I("ebreak"))
    return asm.words()


class TestBlocks:
    _PRELOAD = [(_CONV_X, SplitMix64(1).words(64)), (_CONV_H, SplitMix64(2).words(8)),
                (_DOT_A, SplitMix64(3).words(64)), (_DOT_B, SplitMix64(4).words(64)),
                (_SW_X, SplitMix64(5).words(40)), (_SW_H, SplitMix64(6).words(8))]

    def _case(self, rom, starts=(), costs=None):
        return {"truncation": Truncation.WRAP, "costs": costs or CycleCostTable(),
                "preload": self._PRELOAD, "starts": list(starts), "rom": rom,
                "host read": False}

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_programs_match_stepping(self, data):
        # random programs, whose bounded loops load and store DataMem words
        # that start out random, alone or beside a running conv or dot whose
        # input may lie on those words, over random cost tables and budgets
        draw = data.draw
        rom = draw(rv_programs(), label="program")
        unit = draw(st.sampled_from([None, "conv", "dot"]), label="unit")
        # the program's loads and stores reach 64 bytes below x1 and 60 above
        src = draw(st.sampled_from([_CONV_X, _BASE_ADDR - 64]), label="unit input")
        starts = []
        if unit == "conv":
            n = draw(st.integers(1, 64), label="n")
            starts = [("conv", CONV_BASE, (
                (conv_regs.OFF_IN_ADDR, src), (conv_regs.OFF_KERN_ADDR, _CONV_H),
                (conv_regs.OFF_OUT_ADDR, DATA_BASE + 0x1800), (conv_regs.OFF_IN_LEN, n),
                (conv_regs.OFF_KERN_LEN, draw(st.integers(1, n), label="k")),
                (conv_regs.OFF_CONTROL, 1)))]
        elif unit == "dot":
            starts = [("dot", DOT_BASE, ((dot_regs.OFF_VA_ADDR, src),
                                         (dot_regs.OFF_VB_ADDR, _DOT_B),
                                         (dot_regs.OFF_LEN, draw(st.integers(0, 64))),
                                         (dot_regs.OFF_CONTROL, 1)))]
        costs = CycleCostTable()
        if draw(st.booleans(), label="other costs"):
            costs = CycleCostTable(*draw(st.lists(st.integers(1, 4), min_size=8,
                                                  max_size=8), label="costs"))
        budget = draw(st.none() | st.integers(1, 3000), label="max_cycles")
        case = self._case(rom, starts, costs)
        case["preload"] = case["preload"] + [(_BASE_ADDR - 64, _words(data, 32))]
        translated = _blocks_match_stepping(case, budget or SimConfig().max_cycles)
        event(f"block translated: {translated}")

    def test_kernel_with_other_costs_runs_in_blocks(self, monkeypatch):
        # the cost table fixes each block's issue offsets and exit cycles
        runs = _count_blocks(monkeypatch)
        costs = CycleCostTable(load=5, mul=3, branch_taken=4)
        assert _blocks_match_stepping(self._case(conv_sw_kernel(40, 6, _SW_X, _SW_H, _SW_Y),
                                                 costs=costs), SimConfig().max_cycles)
        assert runs and all(n == size for _, size, n in runs)

    def test_block_exits_before_a_guarded_load(self, monkeypatch):
        # the loop's pointer walks from below a running conv's input into
        # it: the block commits the instructions before the load of the
        # first guarded word, and the handlers close the window there
        runs = _count_blocks(monkeypatch)
        rom = _loop([I("addi", rd=8, rs1=8, imm=1), I("lw", rd=5, rs1=9),
                     I("add", rd=6, rs1=6, rs2=5), I("addi", rd=9, rs1=9, imm=4)], 12,
                    _CONV_X - 4 * 6)
        assert _blocks_match_stepping(self._case(rom, [("conv", CONV_BASE,
                                                        _conv_start(64, 8))]),
                                      SimConfig().max_cycles)
        assert (runs[0][2], runs[0][1]) == (6, 6)  # the first block runs through
        exits = [n for _, size, n in runs if n < size]
        assert exits and all(n == 1 for n in exits)  # after the addi, before the lw

    def test_block_that_does_not_fit_runs_in_handlers(self, monkeypatch):
        # the window beside a conv ends at the conv's uncontended finish;
        # where what is left of it is too short for the block at the loop
        # head, the handlers run up to its end
        runs = _count_blocks(monkeypatch)
        ends = []
        run_alone = Cpu.run_alone
        monkeypatch.setattr(Cpu, "run_alone", lambda cpu, *args: (
            run_alone(cpu, *args), ends.append((cpu.pc, len(runs))))[0])
        rom = _loop([I("lw", rd=5, rs1=9), I("add", rd=6, rs1=6, rs2=5),
                     I("addi", rd=9, rs1=9, imm=4)], 30, _SW_X)
        assert _blocks_match_stepping(self._case(rom, [("conv", CONV_BASE,
                                                        _conv_start(8, 1))]),
                                      SimConfig().max_cycles)
        # the loop's head, after lui and li, is reached in cycle 2 and its
        # first 8-cycle iteration runs in the handlers; blocks run the
        # iterations from cycles 10 and 18, but the one from 26 would issue
        # its last instruction in cycle 32, where the window ends at the
        # conv's finish, so the handlers run it up to its bne
        assert all(n == size for _, size, n in runs)
        assert ends[0] == (4 * 2 + 4 * 4, 2)

    @pytest.mark.parametrize("stop, outcome, retired", [
        (0x0000_0000, "SimulationFault: illegal fault at pc=0x0000000c: "
                      "illegal instruction 0x00000000: unsupported opcode 0x00", 5),
        (encode(I("ebreak")), "finished", 6)], ids=["illegal", "ebreak"])
    def test_block_ends_before_a_word_that_stops_a_window(self, stop, outcome, retired,
                                                          monkeypatch):
        # a backward jal after a load lands on a loop head whose second word,
        # never fetched before, is illegal or ebreak: the block translated
        # there holds only the addi before it, and the handlers stop the
        # window at that word, which step() then runs in cycle 10
        runs = _count_blocks(monkeypatch)
        asm = Assembler()
        asm.li(9, _SW_X)
        asm.branch("jal", 0, 0, "load")
        asm.label("head")
        asm.emit(I("addi", rd=6, rs1=6, imm=1), I("addi"))  # the second word becomes `stop`
        asm.label("load")
        asm.emit(I("lw", rd=5, rs1=9))
        asm.branch("jal", 0, 0, "head")
        rom = asm.words()
        rom[asm.labels["head"] + 1] = stop
        case = self._case(rom)
        stepped, lines, stepped_outcome = _lockstep_run(case, SimConfig().max_cycles,
                                                        fast=False)
        fast, fast_lines, fast_outcome = _lockstep_run(case, SimConfig().max_cycles,
                                                       fast=True)
        assert fast_outcome == stepped_outcome == outcome
        assert fast_lines == lines
        assert _observable(fast) == _observable(stepped)
        assert (fast.cycle, fast.cpu.retired, fast.cpu.regs[6]) == (10, retired, 1)
        head = 4 * asm.labels["head"]
        assert runs == [(head, 1, 1)]

    def test_reloaded_rom_runs_its_new_loop(self):
        # Rom.load drops every block, so the second program's loop, at the
        # pcs of the first one's, runs its own code
        results = []
        for fast in (True, False):
            world = World(SimConfig(), with_cpu=True)
            world.write_words(_SW_X, SplitMix64(5).words(40))
            for op in ("add", "xor"):
                world.rom.load(_loop([I("lw", rd=5, rs1=9), I(op, rd=6, rs1=6, rs2=5),
                                      I("addi", rd=9, rs1=9, imm=4)], 40, _SW_X))
                world.cpu.pc, world.cpu.halted = 0, False
                if fast:
                    world.run_until_halt()
                    assert any(world.rom.blocks.values())
                else:
                    while not world.cpu.halted:
                        world.step()
                results.append(world.cpu.regs[6])
            results.append(_observable(world))
        words = SplitMix64(5).words(40)
        total = u32(sum(words))
        for word in words:
            total ^= word
        assert results[0] == results[3] == u32(sum(words))
        assert results[1] == results[4] == total
        assert results[2] == results[5]

    def test_windows_without_a_dsp_share_their_log_and_guard(self, monkeypatch):
        # nothing reads the log of a window with no DSP in RUN, so those
        # windows share the World's log and the all-clear guard; a window
        # beside a running unit gets a fresh, zeroed log and its own guard
        windows = []
        run_alone = Cpu.run_alone
        monkeypatch.setattr(Cpu, "run_alone", lambda cpu, cycles, guard, taken: (
            windows.append((taken, guard, not any(taken[:cycles]))),
            run_alone(cpu, cycles, guard, taken))[1])
        asm = Assembler()
        asm.li(20, CONV_BASE)
        asm.li(9, _SW_X)
        for offset, value in _conv_start(16, 2):  # each store closes a window
            asm.li(21, value)
            asm.emit(I("lw", rd=5, rs1=9), I("sw", rs1=20, rs2=21, imm=offset))
        asm.li(13, 20)
        asm.label("loop")
        asm.emit(I("lw", rd=5, rs1=9, imm=4), I("add", rd=6, rs1=6, rs2=5),
                 I("addi", rd=13, rs1=13, imm=-1))
        asm.branch("bne", 13, 0, "loop")
        asm.emit(I("ebreak"))
        assert _blocks_match_stepping(self._case(asm.words()), SimConfig().max_cycles)
        alone = [(taken, guard) for taken, guard, _ in windows if guard is scheduler._CLEAR]
        beside = [(taken, zeroed) for taken, guard, zeroed in windows
                  if guard is not scheduler._CLEAR]
        assert len(alone) >= 6 and beside
        assert all(taken is alone[0][0] for taken, _ in alone)
        assert all(zeroed and taken is not alone[0][0] for taken, zeroed in beside)

    def test_poll_loop_is_not_translated(self, monkeypatch):
        # a STATUS poll takes no DataMem, so it is jumped and never translated
        steps = []
        step = World.step
        monkeypatch.setattr(World, "step", lambda world: (steps.append(1), step(world)))
        _, world = run_scenario(conv_scenario(40, 5, mode=Mode.FULL_SYSTEM))
        assert not any(world.rom.blocks.values())
        assert len(steps) == 8


class TestHostAccess:
    @pytest.mark.parametrize("access, message", [
        (lambda world: world.reg_read(0x5), "misaligned bus address 0x00000005"),
        (lambda world: world.reg_write(0x0, 1), "write to ROM at 0x00000000"),
        (lambda world: world.reg_write(CONV_BASE + 0x40, 1),
         "conv: no register at offset 0x40"),
    ])
    def test_refused_access_raises_a_typed_error(self, access, message):
        world = World()
        with pytest.raises(HostAccessError) as exc:
            access(world)
        assert str(exc.value) == message
        assert world.cycle == 1


class TestTrace:
    def test_trace_line_format(self):
        lines = []
        config = SimConfig(trace=lines.append)
        run_scenario(conv_scenario(6, 2), config)
        assert lines, "expected trace output"
        for line in lines:
            cycle, component, event = [p.strip() for p in line.split("|")]
            assert cycle.startswith("cycle ")
            int(cycle.split()[1])
            assert component in ("conv", "dot", "cpu", "bus")
        assert any("start" in ln for ln in lines)
        assert any("done" in ln for ln in lines)


class TestLoopInvariantTrace:
    def test_partial_accumulator_every_cycle(self):
        sc = conv_scenario(12, 4, seed=11)
        x_raw, h_raw = scenario_data(sc)
        x = [s32(v) for v in x_raw]
        h = [s32(v) for v in h_raw]
        sc.validate()
        world = World(SimConfig())
        world.write_words(sc.in_addr, x_raw)
        world.write_words(sc.kern_addr, h_raw)
        from rvdsp import conv as regs
        from rvdsp.memmap import CONV_BASE

        world.reg_write(CONV_BASE + regs.OFF_IN_ADDR, sc.in_addr)
        world.reg_write(CONV_BASE + regs.OFF_KERN_ADDR, sc.kern_addr)
        world.reg_write(CONV_BASE + regs.OFF_OUT_ADDR, sc.out_addr)
        world.reg_write(CONV_BASE + regs.OFF_IN_LEN, sc.n)
        world.reg_write(CONV_BASE + regs.OFF_KERN_LEN, sc.k)
        world.reg_write(CONV_BASE + regs.OFF_CONTROL, 1)
        while world.conv.state is DspState.RUN:
            assert s64(world.conv.accum) == conv_partial_accum(
                x, h, world.conv.out_idx, world.conv.kern_idx)
            world.step()


class TestSwBenchmark:
    def test_sw_kernel_output_matches_oracle(self):
        report, world = run_sw_conv_benchmark(24, 5, seed=2)
        rng = SplitMix64(2)
        x = [s32(v) for v in rng.words(24)]
        h = [s32(v) for v in rng.words(5)]
        assert report["output"] == conv1d(x, h)

    def test_kernel_and_output_follow_the_input(self):
        in_addr = DATA_BASE + 0x100
        report, world = run_sw_conv_benchmark(24, 5, seed=2, in_addr=in_addr)
        rng = SplitMix64(2)
        x, h = rng.words(24), rng.words(5)
        assert world.read_words(in_addr, 29) == x + h
        assert world.read_words(in_addr + 4 * 29, 20) == report["output"]
        assert report["output"] == run_sw_conv_benchmark(24, 5, seed=2)[0]["output"]

    def test_sw_kernel_cycles_near_model(self):
        report, _ = run_sw_conv_benchmark(64, 8)
        assert abs(report["cpu_cycles"] - report["model_sw_cycles"]) \
            <= 0.15 * report["model_sw_cycles"]


class TestReportSerialization:
    def test_json_roundtrip(self):
        report, _ = run_scenario(conv_scenario(8, 2))
        parsed = json.loads(report_to_json(report))
        assert parsed == report
        assert parsed["schema_version"] == 1
