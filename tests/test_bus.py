from hypothesis import event, given, settings
from hypothesis import strategies as st

from rvdsp import conv as conv_regs
from rvdsp import dotprod as dot_regs
from rvdsp.accel import DspState
from rvdsp.bus import (Bus, BusTransaction, Requester, TxState, arbitrate)
from rvdsp.conv import ConvDsp, OFF_IN_ADDR
from rvdsp.dotprod import DotDsp
from rvdsp.memmap import CONV_BASE, DATA_BASE, DATA_END, DOT_BASE, Rom, Sram
from rvdsp.scheduler import World


def make_bus():
    rom, sram = Rom(), Sram()
    conv, dot = ConvDsp(), DotDsp()
    return Bus(rom, sram, conv, dot), rom, sram, conv, dot


class TestArbitrate:
    def test_cpu_wins(self):
        assert arbitrate(True, True, False) is Requester.CPU

    def test_conv_over_dot(self):
        assert arbitrate(False, True, True) is Requester.CONV

    def test_idle(self):
        assert arbitrate(False, False, False) is None

    @given(st.booleans(), st.booleans(), st.booleans())
    def test_priority_order(self, cpu, conv, dot):
        winner = arbitrate(cpu, conv, dot)
        if cpu:
            assert winner is Requester.CPU
        elif conv:
            assert winner is Requester.CONV
        elif dot:
            assert winner is Requester.DOT
        else:
            assert winner is None


class TestRouting:
    def test_register_write_completes_in_one_cycle(self):
        bus, _, _, conv, _ = make_bus()
        tx = BusTransaction(Requester.CPU, CONV_BASE + OFF_IN_ADDR,
                            write=True, wdata=0x8000)
        bus.post(tx)
        bus.step()
        assert tx.state is TxState.DONE and tx.error is None
        assert conv.in_addr == 0x8000

    def test_rom_read_and_write_fault(self):
        bus, rom, _, _, _ = make_bus()
        rom.load([0x1234])
        rd = BusTransaction(Requester.CPU, 0)
        bus.post(rd)
        bus.step()
        assert rd.rdata == 0x1234
        wr = BusTransaction(Requester.CPU, 0, write=True, wdata=1)
        bus.post(wr)
        bus.step()
        assert wr.error is not None

    def test_reserved_reads_zero_counts_writes(self):
        # writes complete without error and are discarded
        bus, *_ = make_bus()
        wr = BusTransaction(Requester.CPU, 0x0100_0200, write=True, wdata=5)
        bus.post(wr)
        bus.step()
        assert wr.state is TxState.DONE and wr.error is None
        for addr in (0x0100_0200, 0x0100_0204):
            rd = BusTransaction(Requester.CPU, addr)
            bus.post(rd)
            bus.step()
            assert rd.error is None and rd.rdata == 0

    def test_unmapped_is_bus_error(self):
        bus, *_ = make_bus()
        tx = BusTransaction(Requester.CPU, 0x0200_0000)
        bus.post(tx)
        bus.step()
        assert tx.error is not None

    def test_misaligned_is_bus_error(self):
        bus, *_ = make_bus()
        tx = BusTransaction(Requester.CPU, DATA_BASE + 2)
        bus.post(tx)
        bus.step()
        assert tx.error is not None


class TestContention:
    def test_cpu_beats_dsp_on_datamem(self):
        bus, _, sram, conv, _ = make_bus()
        sram.write_word(0x100, 7)
        cpu_tx = BusTransaction(Requester.CPU, DATA_BASE)
        bus.post(cpu_tx)
        conv.mmi.request_read(DATA_BASE + 0x100)
        bus.step()
        assert cpu_tx.state is TxState.DONE
        assert not conv.mmi.done
        assert bus.stalls[Requester.CONV] == 1
        bus.step()  # CPU gone: DSP completes next cycle
        assert conv.mmi.done and conv.mmi.rddata == 7

    def test_one_datamem_completion_per_cycle(self):
        bus, _, _, conv, dot = make_bus()
        conv.mmi.request_read(DATA_BASE)
        dot.mmi.request_read(DATA_BASE + 4)
        bus.step()
        assert conv.mmi.done and not dot.mmi.done
        assert bus.grants[Requester.CONV] == 1
        assert bus.stalls[Requester.DOT] == 1

    def test_grants_equal_completions(self):
        bus, _, sram, conv, dot = make_bus()
        txs = []
        for i in range(10):
            tx = BusTransaction(Requester.CPU, DATA_BASE + 4 * i, write=True,
                                wdata=i + 1)
            bus.post(tx)
            bus.step()
            txs.append(tx)
        assert all(tx.state is TxState.DONE and tx.error is None for tx in txs)
        assert [sram.read_word(4 * i) for i in range(10)] == list(range(1, 11))
        assert bus.grants[Requester.CPU] == 10

    def test_dsp_not_starved_when_cpu_idle(self):
        # once the CPU stops posting, the pending DSP request completes
        bus, _, _, conv, _ = make_bus()
        conv.mmi.request_read(DATA_BASE)
        for _ in range(3):
            bus.post(BusTransaction(Requester.CPU, DATA_BASE, write=True, wdata=1))
            bus.step()
        assert not conv.mmi.done
        bus.step()
        assert conv.mmi.done


@st.composite
def _buffer_base(draw, words, label, inside=12):
    """A base for a buffer of `words` words: aligned inside DataMem (with
    weight `inside`), unaligned, ending at or crossing DATA_END, aligned
    outside DataMem, or anywhere in the address space."""
    where = draw(st.sampled_from(["inside"] * inside + ["unaligned", "end", "outside", "any"]),
                 label=f"{label} where")
    if where == "inside":
        return DATA_BASE + 4 * draw(st.integers(0, 0x1FFF - words), label=label)
    if where == "unaligned":
        return DATA_BASE + 4 * draw(st.integers(0, 0x1FFF), label=label) + \
            draw(st.integers(1, 3), label=f"{label} misalignment")
    if where == "end":  # crosses DATA_END when fewer than `words` words fit
        return DATA_END + 1 - 4 * draw(st.integers(0, words + 1), label=label)
    if where == "outside":  # below or above DataMem's 0x2000 words
        word = draw(st.integers(0, 0x3FFF_DFFF), label=label)
        return 4 * (word if word < DATA_BASE // 4 else word + 0x2000)
    return draw(st.integers(0, 0xFFFF_FFFF), label=label)


def _in_datamem(base, words):
    return base % 4 == 0 and (words == 0 or DATA_BASE <= base
                              and base + 4 * words - 1 <= DATA_END)


class TestDspPortInvariant:
    """Bus.step indexes the SRAM with a DSP port's address unchecked: a
    unit's start checks and the RUN-time write lock must keep every
    request it posts an aligned DataMem word of its own buffers."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ports_post_only_aligned_words_of_their_buffers(self, data):
        draw = data.draw
        k = draw(st.integers(0, 5), label="k")
        n = draw(st.integers(max(k - 1, 0), 12), label="n")
        length = draw(st.one_of(st.just(0), st.integers(1, 12)), label="l")
        outputs = max(n - k + 1, 0)
        x, h, y = (draw(_buffer_base(words, label))
                   for words, label in ((n, "x"), (k, "h"), (outputs, "y")))
        # an empty dot product starts on any aligned base
        va, vb = (draw(_buffer_base(length, label, 12 if length else 0))
                  for label in ("va", "vb"))
        conv_ok = (0 < k <= n and _in_datamem(x, n) and _in_datamem(h, k)
                   and _in_datamem(y, outputs))
        dot_ok = _in_datamem(va, length) and _in_datamem(vb, length)
        if dot_ok and length == 0 and not DATA_BASE <= min(va, vb) <= max(va, vb) <= DATA_END:
            event("dot l=0 outside DataMem")
        event(f"conv {'runs' if conv_ok else 'rejected'}, "
              f"dot {'runs' if dot_ok else 'rejected'}")
        world = World()
        conv, dot = world.conv, world.dot
        # unit -> (the unit, its register base, its writable offsets)
        units = {"conv": (conv, CONV_BASE, sorted(ConvDsp.CONFIG) + [conv_regs.OFF_CONTROL]),
                 "dot": (dot, DOT_BASE, sorted(DotDsp.CONFIG) + [dot_regs.OFF_CONTROL])}
        writes = draw(st.lists(st.tuples(
            st.integers(0, 40), st.sampled_from(sorted(units)), st.integers(0, 5),
            _buffer_base(1, "value", 1)),
            min_size=1, max_size=10), label="writes (cycle, unit, offset, value)")

        def check_ports():
            for dsp in (conv, dot):
                mmi = dsp.mmi
                if mmi.req and not mmi.done:
                    assert dsp.state is DspState.RUN
                    assert mmi.addr % 4 == 0 and DATA_BASE <= mmi.addr <= DATA_END
                    word = (mmi.addr - DATA_BASE) >> 2
                    assert any(lo <= word < hi for lo, hi in dsp.buffers())

        for offset, value in ((conv_regs.OFF_IN_ADDR, x), (conv_regs.OFF_KERN_ADDR, h),
                              (conv_regs.OFF_OUT_ADDR, y), (conv_regs.OFF_IN_LEN, n),
                              (conv_regs.OFF_KERN_LEN, k)):
            world.reg_write(CONV_BASE + offset, value)
        for offset, value in ((dot_regs.OFF_VA_ADDR, va), (dot_regs.OFF_VB_ADDR, vb),
                              (dot_regs.OFF_LEN, length)):
            world.reg_write(DOT_BASE + offset, value)
        for (dsp, base, offsets), ok in zip(units.values(), (conv_ok, dot_ok)):
            world.reg_write(base + offsets[-1], 1)  # CONTROL: start
            check_ports()
            assert (dsp.state is DspState.RUN) == ok
            if not ok:  # rejected: STATUS.error, no busy cycle, no request
                assert dsp.state is DspState.DONE and dsp.status == 0b11
                assert dsp.busy_cycles == 0 and not dsp.mmi.req
        for cycle in range(1000):
            if DspState.RUN not in (conv.state, dot.state):
                break
            due = [write[1:] for write in writes if write[0] == cycle]
            for unit, offset, value in due:
                dsp, base, offsets = units[unit]
                if dsp.state is DspState.RUN:
                    event("configuration write in RUN")
                world.reg_write(base + offsets[offset % len(offsets)], value)
                check_ports()
            if not due:
                world.step()
                check_ports()
        else:
            raise AssertionError("the units did not finish in 1000 cycles")
