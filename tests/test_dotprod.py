import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dot
from rvdsp import dotprod as regs
from rvdsp.accel import DspState
from rvdsp.bits import u32, u64
from rvdsp.memmap import DATA_BASE, DOT_BASE
from rvdsp.scheduler import SimConfig, World

VA = DATA_BASE
VB = DATA_BASE + 0x2000

signed_words = st.integers(-(1 << 31), (1 << 31) - 1)


def start_dot(world, a, b, va=VA, vb=VB, length=None, control=1):
    world.write_words(va, [u32(v) for v in a])
    world.write_words(vb, [u32(v) for v in b])
    world.reg_write(DOT_BASE + regs.OFF_VA_ADDR, va)
    world.reg_write(DOT_BASE + regs.OFF_VB_ADDR, vb)
    world.reg_write(DOT_BASE + regs.OFF_LEN, len(a) if length is None else length)
    world.reg_write(DOT_BASE + regs.OFF_CONTROL, control)


def run_dot(a, b, **kwargs):
    world = World(SimConfig(max_cycles=2_000_000))
    start_dot(world, a, b, **kwargs)
    world.run_until(lambda: world.dot.state is not DspState.RUN)
    lo = world.reg_read(DOT_BASE + regs.OFF_RESULT_LO)
    hi = world.reg_read(DOT_BASE + regs.OFF_RESULT_HI)
    return world, (hi << 32) | lo


class TestRegisterFile:
    def test_config_readback(self):
        world = World(SimConfig())
        for offset, value in [(regs.OFF_VA_ADDR, 0x8000),
                              (regs.OFF_VB_ADDR, 0x8100),
                              (regs.OFF_LEN, 64)]:
            world.reg_write(DOT_BASE + offset, value)
            assert world.reg_read(DOT_BASE + offset) == value

    def test_result_registers_read_only(self):
        world = World(SimConfig())
        world.reg_write(DOT_BASE + regs.OFF_RESULT_LO, 0x1234)
        world.reg_write(DOT_BASE + regs.OFF_RESULT_HI, 0x5678)
        assert world.reg_read(DOT_BASE + regs.OFF_RESULT_LO) == 0
        assert world.reg_read(DOT_BASE + regs.OFF_RESULT_HI) == 0
        world, result = run_dot([-3], [5])
        world.reg_write(DOT_BASE + regs.OFF_RESULT_LO, 0x1234)
        world.reg_write(DOT_BASE + regs.OFF_RESULT_HI, 0x5678)
        assert world.reg_read(DOT_BASE + regs.OFF_RESULT_LO) == u64(-15) & 0xFFFF_FFFF
        assert world.reg_read(DOT_BASE + regs.OFF_RESULT_HI) == u64(-15) >> 32
        assert result == u64(-15)

    def test_unknown_offset_is_bus_error(self):
        world = World(SimConfig())
        with pytest.raises(RuntimeError):
            world.reg_read(DOT_BASE + 0x40)


class TestFunctional:
    def test_worked_example(self):
        _, result = run_dot([1, 2, 3], [4, 5, 6])
        assert result == 32

    def test_negative_result_is_two_complement(self):
        _, result = run_dot([-1], [1])
        assert result == u64(-1)

    def test_wide_accumulation_no_wrap(self):
        # 4 * (2^30)^2 = 2^62 needs the full 64-bit result
        a = [1 << 30] * 4
        _, result = run_dot(a, a)
        assert result == 1 << 62

    @given(st.integers(1, 24).flatmap(
        lambda n: st.lists(signed_words, min_size=2 * n, max_size=2 * n)))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, values):
        half = len(values) // 2
        a, b = values[:half], values[half:]
        _, result = run_dot(a, b)
        assert result == u64(dot(a, b))

    def test_zero_length(self):
        world, result = run_dot([], [], length=0)
        assert result == 0
        assert not world.dot.status_error
        assert world.dot.busy_cycles == 1


class TestTiming:
    @pytest.mark.parametrize("length", [1, 3, 64])
    def test_busy_cycles_exact(self, length):
        world, _ = run_dot(list(range(length)), list(range(length)))
        assert world.dot.busy_cycles == 3 * length + 1

    def test_result_latched_only_at_finalize(self):
        world = World(SimConfig())
        start_dot(world, [10, 20], [1, 1])
        seen = []
        while world.dot.state is DspState.RUN:
            seen.append(world.reg_read(DOT_BASE + regs.OFF_RESULT_LO))
        # never exposes a partial sum mid-run; a read landing on the
        # finalize cycle may already observe the latched total
        assert set(seen) <= {0, 30}
        assert 10 not in seen
        assert world.reg_read(DOT_BASE + regs.OFF_RESULT_LO) == 30


class TestLifecycle:
    def test_irq_and_clear(self):
        world, _ = run_dot([1], [1], control=0b11)
        assert world.dot.irq_line
        world.reg_write(DOT_BASE + regs.OFF_IRQ_CLEAR, 1)
        assert not world.dot.irq_line
        assert world.dot.state is DspState.IDLE

    def test_result_survives_irq_clear(self):
        world, _ = run_dot([6], [7])
        world.reg_write(DOT_BASE + regs.OFF_IRQ_CLEAR, 1)
        assert world.reg_read(DOT_BASE + regs.OFF_RESULT_LO) == 42

    def test_restart(self):
        world, first = run_dot([2], [3])
        world.reg_write(DOT_BASE + regs.OFF_IRQ_CLEAR, 1)
        start_dot(world, [5], [5], va=VA + 0x400, vb=VB + 0x400)
        world.run_until(lambda: world.dot.state is not DspState.RUN)
        assert first == 6
        assert world.reg_read(DOT_BASE + regs.OFF_RESULT_LO) == 25

    def test_config_writes_while_busy_ignored(self):
        world = World(SimConfig())
        start_dot(world, list(range(16)), list(range(16)))
        world.reg_write(DOT_BASE + regs.OFF_LEN, 1)
        assert world.dot.state is DspState.RUN
        assert world.reg_read(DOT_BASE + regs.OFF_LEN) == 16
        world.run_until(lambda: world.dot.state is not DspState.RUN)
        assert world.dot.macs == 16


class TestStartValidation:
    def test_buffer_outside_datamem(self):
        world = World(SimConfig())
        start_dot(world, [1], [1], vb=0x0000_FFFC, length=4)
        assert world.dot.status_error
        assert world.dot.busy_cycles == 0

    def test_aliased_vectors_allowed(self):
        world = World(SimConfig())
        world.write_words(VA, [u32(v) for v in (3, -4)])
        world.reg_write(DOT_BASE + regs.OFF_VA_ADDR, VA)
        world.reg_write(DOT_BASE + regs.OFF_VB_ADDR, VA)
        world.reg_write(DOT_BASE + regs.OFF_LEN, 2)
        world.reg_write(DOT_BASE + regs.OFF_CONTROL, 1)
        world.run_until(lambda: world.dot.state is not DspState.RUN)
        assert world.reg_read(DOT_BASE + regs.OFF_RESULT_LO) == 25
        assert world.dot.busy_cycles == 3 * 2 + 1
