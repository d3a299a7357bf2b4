import random
from operator import mul

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import conv1d, conv_partial_accum
from rvdsp import conv as regs
from rvdsp.accel import _BATCH_MIN, DspState, _convolve
from rvdsp.bits import s32, s64, u32
from rvdsp.mac import INT32_MAX, INT32_MIN, Truncation, truncate_accumulators
from rvdsp.memmap import CONV_BASE, DATA_BASE
from rvdsp.scheduler import SimConfig, World

IN = DATA_BASE
KERN = DATA_BASE + 0x1000
OUT = DATA_BASE + 0x2000

signed_words = st.integers(-(1 << 31), (1 << 31) - 1)
EXTREMES = [0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF]


def start_conv(world, x, h, in_addr=IN, kern_addr=KERN, out_addr=OUT,
               n=None, k=None, control=1):
    world.write_words(in_addr, [u32(v) for v in x])
    world.write_words(kern_addr, [u32(v) for v in h])
    base = CONV_BASE
    world.reg_write(base + regs.OFF_IN_ADDR, in_addr)
    world.reg_write(base + regs.OFF_KERN_ADDR, kern_addr)
    world.reg_write(base + regs.OFF_OUT_ADDR, out_addr)
    world.reg_write(base + regs.OFF_IN_LEN, len(x) if n is None else n)
    world.reg_write(base + regs.OFF_KERN_LEN, len(h) if k is None else k)
    world.reg_write(base + regs.OFF_CONTROL, control)


def run_conv(x, h, truncation=Truncation.WRAP, control=1):
    world = World(SimConfig(truncation=truncation, max_cycles=2_000_000))
    start_conv(world, x, h, control=control)
    world.run_until(lambda: world.conv.state is not DspState.RUN)
    y = world.read_words(OUT, len(x) - len(h) + 1)
    return world, y


class TestRegisterFile:
    def test_config_readback(self):
        world = World(SimConfig())
        for offset, value in [(regs.OFF_IN_ADDR, 0x8000),
                              (regs.OFF_KERN_ADDR, 0x8100),
                              (regs.OFF_OUT_ADDR, 0x8200),
                              (regs.OFF_IN_LEN, 64),
                              (regs.OFF_KERN_LEN, 8)]:
            world.reg_write(CONV_BASE + offset, value)
            assert world.reg_read(CONV_BASE + offset) == value

    def test_control_readback_keeps_int_en_only(self):
        world = World(SimConfig())
        world.reg_write(CONV_BASE + regs.OFF_CONTROL, 0b10)
        assert world.reg_read(CONV_BASE + regs.OFF_CONTROL) == 0b10

    def test_status_is_read_only(self):
        world = World(SimConfig())
        world.reg_write(CONV_BASE + regs.OFF_STATUS, 5)
        assert world.reg_read(CONV_BASE + regs.OFF_STATUS) == 0
        world, _ = run_conv([1, 2], [1])
        world.reg_write(CONV_BASE + regs.OFF_STATUS, 0)
        assert world.reg_read(CONV_BASE + regs.OFF_STATUS) == 0b01
        assert world.conv.state is DspState.DONE

    def test_irq_clear_reads_zero(self):
        world = World(SimConfig())
        assert world.reg_read(CONV_BASE + regs.OFF_IRQ_CLEAR) == 0

    def test_unknown_offset_is_bus_error(self):
        world = World(SimConfig())
        with pytest.raises(RuntimeError):
            world.reg_read(CONV_BASE + 0x40)

    def test_status_bits_while_busy_and_after(self):
        world = World(SimConfig())
        start_conv(world, [1, 2, 3, 4], [1, 1])
        assert world.reg_read(CONV_BASE + regs.OFF_STATUS) & 1 == 0
        world.run_until(lambda: world.conv.state is not DspState.RUN)
        assert world.reg_read(CONV_BASE + regs.OFF_STATUS) & 1 == 1


class TestFunctional:
    def test_worked_example(self):
        _, y = run_conv([1, 2, 3, 4], [1, 1])
        assert y == [3, 5, 7]

    def test_identity_kernel(self):
        x = [5, -3, 7, 0, 2]
        _, y = run_conv(x, [1])
        assert y == [u32(v) for v in x]

    def test_truncation_wrap_example(self):
        _, y = run_conv([0x0001_0000], [0x0001_0000])
        assert y == [0]  # low 32 bits of 2^32

    def test_saturate_policy(self):
        _, y = run_conv([0x0001_0000], [0x0001_0000],
                        truncation=Truncation.SATURATE)
        assert y == [0x7FFF_FFFF]

    @given(st.integers(1, 24).flatmap(
        lambda n: st.tuples(st.lists(signed_words, min_size=n, max_size=n),
                            st.integers(1, n))))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, case):
        x, k = case
        # deterministic kernel derived from x keeps each example reproducible
        h = [(v * 31 + i) % (1 << 32) for i, v in enumerate(x[:k])]
        _, y = run_conv(x, h)
        assert y == conv1d(x, h)

    def test_mac_count(self):
        world, _ = run_conv(list(range(10)), [1, 2, 3])
        assert world.conv.macs == (10 - 3 + 1) * 3


class TestTiming:
    @pytest.mark.parametrize("n,k", [(4, 2), (16, 16), (10, 1), (64, 8)])
    def test_busy_cycles_exact(self, n, k):
        world, _ = run_conv(list(range(n)), [1] * k)
        assert world.conv.busy_cycles == (n - k + 1) * (3 * k + 1)

    def test_reference_workload_busy_cycles(self):
        # (N=1024, K=16): 1009 outputs x 49 cycles
        from rvdsp.prng import SplitMix64

        rng = SplitMix64(7)
        world, y = run_conv(rng.signed_words(1024), rng.signed_words(16))
        assert world.conv.busy_cycles == 1009 * 49 == 49441


class TestLifecycle:
    def test_done_once_and_irq(self):
        world = World(SimConfig())
        start_conv(world, [1, 2, 3], [1], control=0b11)  # start + int_en
        world.run_until(lambda: world.conv.state is not DspState.RUN)
        assert world.conv.status_done and world.conv.irq_line
        world.reg_write(CONV_BASE + regs.OFF_IRQ_CLEAR, 1)
        assert not world.conv.irq_line
        assert world.conv.state is DspState.IDLE
        assert world.reg_read(CONV_BASE + regs.OFF_STATUS) == 0

    def test_no_irq_without_int_en(self):
        world, _ = run_conv([1, 2], [1], control=1)
        assert not world.conv.irq_line

    def test_start_ignored_until_irq_clear(self):
        world = World(SimConfig())
        start_conv(world, [1, 2, 3], [1])
        world.run_until(lambda: world.conv.state is not DspState.RUN)
        busy = world.conv.busy_cycles
        world.reg_write(CONV_BASE + regs.OFF_CONTROL, 1)  # no irq_clear yet
        for _ in range(10):
            world.step()
        assert world.conv.busy_cycles == busy

    def test_restart_with_new_config(self):
        world = World(SimConfig())
        start_conv(world, [1, 2, 3, 4], [1, 1])
        world.run_until(lambda: world.conv.state is not DspState.RUN)
        world.reg_write(CONV_BASE + regs.OFF_IRQ_CLEAR, 1)
        x2, h2 = [9, 8, 7], [2]
        start_conv(world, x2, h2, in_addr=IN + 0x400, kern_addr=KERN + 0x400,
                   out_addr=OUT + 0x400)
        world.run_until(lambda: world.conv.state is not DspState.RUN)
        assert world.read_words(OUT + 0x400, 3) == conv1d(x2, h2)

    def test_config_writes_while_busy_ignored(self):
        world = World(SimConfig())
        start_conv(world, list(range(20)), [1, 2, 3, 4])
        world.reg_write(CONV_BASE + regs.OFF_IN_LEN, 9999)
        assert world.conv.state is DspState.RUN
        assert world.reg_read(CONV_BASE + regs.OFF_IN_LEN) == 20
        world.run_until(lambda: world.conv.state is not DspState.RUN)
        assert world.read_words(OUT, 17) == conv1d(list(range(20)), [1, 2, 3, 4])


class TestStartValidation:
    @pytest.mark.parametrize("n,k", [(4, 0), (3, 5)])
    def test_bad_lengths(self, n, k):
        world = World(SimConfig())
        start_conv(world, [1, 2, 3, 4], [1, 1], n=n, k=k)
        assert world.conv.state is DspState.DONE
        assert world.conv.status_error
        assert world.conv.busy_cycles == 0

    def test_buffer_outside_datamem(self):
        world = World(SimConfig())
        start_conv(world, [1] * 4, [1], out_addr=0x0000_FFFC, n=4, k=1)
        # output range [0xFFFC, +16) spills past DataMem
        assert world.conv.status_error


def truncated(accum, policy):
    """One accumulator narrowed to its word, as the datapath specifies it."""
    if policy is Truncation.SATURATE:
        accum = max(INT32_MIN, min(INT32_MAX, accum))
    return u32(accum)


class TestTruncateUnit:
    def test_wrap_two_to_32(self):
        assert truncate_accumulators([1 << 32], Truncation.WRAP) == [0]

    def test_saturate_positive(self):
        assert truncate_accumulators([1 << 32], Truncation.SATURATE) == [0x7FFF_FFFF]

    def test_wrap_negative_one(self):
        assert truncate_accumulators([-1], Truncation.WRAP) == [0xFFFF_FFFF]

    def test_saturate_negative(self):
        assert truncate_accumulators([-(1 << 40)], Truncation.SATURATE) == [0x8000_0000]

    @given(st.integers(-(1 << 63), (1 << 63) - 1))
    def test_wrap_is_low_word(self, accum):
        assert truncate_accumulators([accum], Truncation.WRAP) == [accum & 0xFFFF_FFFF]

    def test_list_form_matches_per_accumulator(self):
        # the extreme words as accumulators, signed and shifted past 32 bits
        accums = [sign * (w << shift) for w in EXTREMES for sign in (1, -1)
                  for shift in (0, 1, 31, 32)] + [-(1 << 63), (1 << 63) - 1]
        for policy in Truncation:
            assert truncate_accumulators(accums, policy) == [
                truncated(accum, policy) for accum in accums]


class TestBatchedCommit:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_output_sums(self, data):
        # _convolve's accumulators and their words equal each output's
        # s64(sum(map(mul, ...))) narrowed one at a time, for
        # words from the int32 limits and small or full-width random ones,
        # mixed so that SATURATE both clamps and passes outputs through
        draw = data.draw
        taps = draw(st.integers(1, 64), label="taps")
        count = draw(st.integers(1, 2 * _BATCH_MIN), label="outputs")
        extreme = draw(st.sampled_from([0, 1, 4, 8]), label="extreme words in 8")
        bits = draw(st.sampled_from([2, 8, 16, 32]), label="random word bits")
        rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
        a, b = ([rng.choice(EXTREMES) if rng.randrange(8) < extreme
                 else u32(rng.getrandbits(bits) - (1 << bits - 1)) for _ in range(size)]
                for size in (count + taps - 1, taps))
        policy = draw(st.sampled_from(list(Truncation)), label="truncation")
        accums = [s64(sum(map(mul, map(s32, a[t:t + taps]), map(s32, b))))
                  for t in range(count)]
        assert _convolve(a, b, count) == accums
        assert truncate_accumulators(accums, policy) == [
            truncated(accum, policy) for accum in accums]
        for accum in accums:
            event("clamped" if not INT32_MIN <= accum <= INT32_MAX else "in range")

    def test_saturate_clamps_and_passes_outputs_through(self):
        a = [0x7FFF_FFFF, 0x8000_0000, 5, 0xFFFF_FFFD, 0, 0x7FFF_FFFF, 0x7FFF_FFFF]
        accums = _convolve(a, [2, 1], 6)
        assert accums == [2**31 - 2, 5 - 2**32, 7, -6, 2**31 - 1, 3 * (2**31 - 1)]
        assert truncate_accumulators(accums, Truncation.SATURATE) == [
            0x7FFF_FFFE, 0x8000_0000, 7, 0xFFFF_FFFA, 0x7FFF_FFFF, 0x7FFF_FFFF]


class TestLoopInvariant:
    def test_accumulator_tracks_partial_sums(self):
        x = [3, -1, 4, 1, -5, 9, 2, 6]
        h = [2, 7, -1]
        world = World(SimConfig())
        start_conv(world, x, h)
        while world.conv.state is DspState.RUN:
            assert s64(world.conv.accum) == conv_partial_accum(
                x, h, world.conv.out_idx, world.conv.kern_idx)
            world.step()
