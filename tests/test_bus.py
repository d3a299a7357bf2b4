from hypothesis import given
from hypothesis import strategies as st

from rvdsp.bus import (Bus, BusTransaction, Requester, TxState, arbitrate)
from rvdsp.conv import ConvDsp, OFF_IN_ADDR
from rvdsp.dotprod import DotDsp
from rvdsp.memmap import CONV_BASE, DATA_BASE, Rom, Sram


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
