import json

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conv1d, conv_partial_accum, dot
from rvdsp import conv as conv_regs
from rvdsp import dotprod as dot_regs
from rvdsp.accel import DspState
from rvdsp.bits import s32, s64, u64
from rvdsp.bus import BusTransaction, Requester, TxState
from rvdsp.conv import ConvState
from rvdsp.memmap import CONV_BASE, DATA_BASE, DOT_BASE
from rvdsp.prng import SplitMix64
from rvdsp.scenario import Kind, Mode, Scenario
from rvdsp.scheduler import (SimConfig, World, report_to_json, run_scenario,
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
        # post CPU traffic every other cycle: the fixed-priority arbiter
        # would starve the DSP forever under a 100% duty cycle
        scratch = DATA_BASE + 0x4000
        while world.conv.state is ConvState.RUN:
            if world.cycle % 2 == 0:
                world.bus.post(BusTransaction(Requester.CPU, scratch))
            world.step()
        assert world.conv.busy_cycles > quiet.conv.busy_cycles
        assert world.bus.stalls[Requester.CONV] > 0
        y = world.read_words(sc.out_addr, sc.n - sc.k + 1)
        expect = conv1d([s32(v) for v in x], [s32(v) for v in h])
        assert y == expect  # results unaffected, only timing

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_cpu_traffic_only_adds_stalls(self, data):
        # A random per-cycle pattern of CPU DataMem reads and (strobed)
        # writes to a scratch block, posted while a DSP runs: every CPU
        # post is granted at once, each lost DSP arbitration costs exactly
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
            if write is None:
                tx = BusTransaction(Requester.CPU, scratch_base + 4 * word)
                expect = scratch[word]
            else:
                value, strobe = write
                mask = sum(0xFF << (8 * lane) for lane in range(4) if strobe >> lane & 1)
                scratch[word] = (scratch[word] & ~mask) | (value & mask)
                tx = BusTransaction(Requester.CPU, scratch_base + 4 * word,
                                    write=True, wdata=value, wstrb=strobe)
                expect = 0
            world.bus.post(tx)
            posts += 1
            world.step()
            assert tx.state is TxState.DONE and tx.error is None
            assert tx.rdata == expect
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
        while world.conv.state is ConvState.RUN:
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
