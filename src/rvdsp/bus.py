"""Bus interconnect: address routing, DataMem arbitration, MMI bridging.

DataMem is single-port, so at most one DataMem transaction completes
per cycle; the arbiter is fixed-priority CPU > conv DSP > dot DSP.
Register-space (AXI-Lite) accesses bypass the arbiter and always
complete in the cycle they are made.  Every CPU access completes in its
issue cycle, after the DSPs have stepped: the CPU serves its own DataMem
accesses, since it always wins arbitration, and reports each with
``serve_cpu``; ``_route`` serves its other accesses at once, and ``peek``
those of a window of the CPU alone.  Only host accesses are posted, as a
``BusTransaction`` that ``step`` completes.  Each DSP's ``MmiPort`` is
served by ``MmiPort.serve``, here and in the DSPs' ``replay``, while
``req and not done``, and carries only word-aligned DataMem addresses: a
unit starts only once ``buffer_in_datamem`` holds for every buffer, and
latches its buffers for the run.  Word-aligned DataMem addresses index
the SRAM directly; only other addresses go through ``_route`` and
``decode_address``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .bits import u32
from .memmap import (DATA_BASE, DATA_END, MisalignedAddressError, Region,
                     decode_address)


class Requester(enum.Enum):
    CPU = "cpu"
    CONV = "conv"
    DOT = "dot"


_CPU, _CONV = Requester.CPU, Requester.CONV
_MASK = 0xFFFF_FFFF


class TxState(enum.Enum):
    PENDING = 0
    DONE = 1


@dataclass
class BusTransaction:
    requester: Requester
    addr: int
    write: bool = False
    wdata: int = 0
    wstrb: int = 0b1111
    state: TxState = TxState.PENDING
    rdata: int = 0
    error: str | None = None


@dataclass
class MmiPort:
    """DSP-side memory master handshake (request/done)."""

    req: bool = False
    addr: int = 0
    wr_en: bool = False
    wrdata: int = 0
    rddata: int = 0
    done: bool = False
    error: str | None = None  # stays None: a port carries only DataMem words

    def request_read(self, addr):
        self.req = True
        self.wr_en = False
        self.addr = addr
        self.done = False

    def request_write(self, addr, wdata):
        self.req = True
        self.wr_en = True
        self.addr = addr
        self.wrdata = u32(wdata)
        self.done = False

    def clear(self):
        self.req = False
        self.done = False

    def serve(self, words):
        """Complete the posted access against the SRAM `words`."""
        index = (self.addr - DATA_BASE) >> 2
        if self.wr_en:
            words[index] = self.wrdata
            self.rddata = 0
        else:
            self.rddata = words[index]
        self.done = True


class RegisterAccessError(Exception):
    """Access to an offset that is not a mapped DSP register."""


def arbitrate(cpu_pending, conv_pending, dot_pending):
    """Fixed-priority grant for the single DataMem port; None if idle."""
    if cpu_pending:
        return Requester.CPU
    if conv_pending:
        return Requester.CONV
    if dot_pending:
        return Requester.DOT
    return None


class Bus:
    def __init__(self, rom, sram, conv, dot):
        self.rom = rom
        self.sram = sram
        self.conv = conv
        self.dot = dot
        self._ports = (conv.mmi, dot.mmi)
        self._cpu_tx = None
        # the CPU's DataMem access of this cycle was served at issue;
        # step() stalls the DSPs that request DataMem and clears it
        self.cpu_served = False
        self._grants = [0, 0, 0]  # indexed in priority order: CPU, conv, dot
        self._stalls = [0, 0, 0]
        self.register_accesses = 0

    # DataMem grants and lost arbitration cycles, keyed by Requester
    grants = property(lambda self: dict(zip(Requester, self._grants)))
    stalls = property(lambda self: dict(zip(Requester, self._stalls)))

    @property
    def cpu_posted(self):
        """True while a posted transaction waits on the bus."""
        return self._cpu_tx is not None

    def credit(self, port, grants, stalls):
        """Count the DataMem grants and lost arbitration cycles of the DSP
        behind `port` over cycles that ``World.run_until`` replayed
        without stepping the bus."""
        k = 1 + self._ports.index(port)
        self._grants[k] += grants
        self._stalls[k] += stalls

    def post(self, tx):
        """Post a host transaction (``World.reg_write``/``reg_read``),
        completed by the next ``step``; the CPU completes its accesses at
        issue, and DSPs request through their MmiPort."""
        if self._cpu_tx is not None:
            raise RuntimeError("cpu already has a transaction in flight")
        self._cpu_tx = tx

    def serve_cpu(self):
        """Grant DataMem to a CPU access served at its issue, in this cycle."""
        if self._cpu_tx is not None:
            raise RuntimeError("cpu already has a transaction in flight")
        self._grants[0] += 1
        self.cpu_served = True

    def peek(self, addr, write):
        """For a window of the CPU alone: what the CPU's access to the
        word at `addr` outside DataMem reads, counted as a stepped access
        counts it, or None if the access must be stepped.  A load of ROM
        or of a unit's registers, and any access to the reserved block,
        which reads 0 and discards stores, is served; a store elsewhere,
        which may start a unit, and an access that errs, which faults,
        are stepped."""
        if write and decode_address(addr)[0] is not Region.RESERVED:
            return None
        accesses = self.register_accesses
        rdata, error = self._route(addr, write, 0)
        if error is None:
            return rdata
        self.register_accesses = accesses  # counted when the access is stepped
        return None

    def _route(self, addr, write, wdata):
        """Serve an access outside DataMem at once: (rdata, error)."""
        try:
            region, offset = decode_address(addr)
        except MisalignedAddressError as exc:
            return 0, str(exc)
        if region is Region.INST_MEM:
            if write:
                return 0, f"write to ROM at 0x{addr:08x}"
            return self.rom.read_word(offset), None
        if region is Region.CONV_REGS or region is Region.DOT_REGS:
            dsp = self.conv if region is Region.CONV_REGS else self.dot
            self.register_accesses += 1
            try:
                if write:
                    dsp.axi_write(offset, wdata)
                    return 0, None
                return dsp.axi_read(offset), None
            except RegisterAccessError as exc:
                return 0, str(exc)
        if region is Region.RESERVED:
            return 0, None
        return 0, f"unmapped address 0x{addr:08x}"

    def step(self):
        """Resolve one bus cycle: route register space, arbitrate DataMem."""
        cpu = self.cpu_served  # word-aligned DataMem requests this cycle
        tx = self._cpu_tx
        if cpu:
            self.cpu_served = False
        elif tx is not None:
            cpu_addr = tx.addr & _MASK
            cpu = not cpu_addr & 3 and DATA_BASE <= cpu_addr <= DATA_END
            if not cpu:
                tx.rdata, tx.error = self._route(cpu_addr, tx.write, tx.wdata)
                self._cpu_tx, tx.state = None, TxState.DONE
        conv_port, dot_port = self._ports
        conv = conv_port.req and not conv_port.done
        dot = dot_port.req and not dot_port.done
        if not (cpu or conv or dot):
            return

        winner = arbitrate(cpu, conv, dot)
        words = self.sram.words
        if winner is _CPU:
            self._stalls[1] += conv
            self._stalls[2] += dot
            if tx is None:  # served at issue
                return
            self._grants[0] += 1
            offset = cpu_addr - DATA_BASE
            if not tx.write:
                tx.rdata = words[offset >> 2]
            elif tx.wstrb == 0b1111:
                words[offset >> 2] = tx.wdata & _MASK
            else:
                self.sram.write_word(offset, tx.wdata, tx.wstrb)
            self._cpu_tx, tx.state = None, TxState.DONE
            return
        if winner is _CONV:
            self._grants[1] += 1
            self._stalls[2] += dot
            port = conv_port
        else:
            self._grants[2] += 1
            port = dot_port
        port.serve(words)
