"""Bus interconnect: address routing, DataMem arbitration, MMI bridging.

DataMem is single-port, so at most one DataMem transaction completes
per cycle; the arbiter is fixed-priority CPU > conv DSP > dot DSP.
Register-space (AXI-Lite) accesses bypass the arbiter and always
complete in the cycle they are made.  Every CPU or host access completes
in its issue cycle, after the DSPs have stepped, as in the blocking
transport of SystemC TLM-2.0: the CPU serves its own DataMem accesses,
since it always wins arbitration, and reports each with ``serve_cpu``,
and ``_route`` serves its other accesses at once; ``post`` serves a host
access in the CPU's place in the same way.  Each DSP's ``MmiPort`` is
served by ``MmiPort.serve``, here and in the DSPs' ``replay``, while
``req and not done``, and carries only word-aligned DataMem addresses: a
unit starts only once ``buffer_in_datamem`` holds for every buffer, and
latches its buffers for the run.  Word-aligned DataMem addresses index
the SRAM directly; only other addresses go through ``_route`` and
``decode_address``.
"""

from __future__ import annotations

import enum

from .bits import Record, u32
from .memmap import (DATA_BASE, DATA_END, MisalignedAddressError, Region,
                     decode_address)


class Requester(enum.Enum):
    CPU = "cpu"
    CONV = "conv"
    DOT = "dot"


_CPU, _CONV = Requester.CPU, Requester.CONV
_MASK = 0xFFFF_FFFF


class MmiPort(Record):
    """DSP-side memory master handshake (request/done)."""

    def __init__(self, req=False, addr=0, wr_en=False, wrdata=0, rddata=0,
                 done=False, error=None):
        self.req: bool = req
        self.addr: int = addr
        self.wr_en: bool = wr_en
        self.wrdata: int = wrdata
        self.rddata: int = rddata
        self.done: bool = done
        self.error: str | None = error  # stays None: a port carries only DataMem words

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
        # a CPU or host DataMem access was served in this cycle; step()
        # stalls the DSPs that request DataMem and clears it
        self.cpu_served = False
        self._grants = [0, 0, 0]  # indexed in priority order: CPU, conv, dot
        self._stalls = [0, 0, 0]
        self.register_accesses = 0

    # DataMem grants and lost arbitration cycles, keyed by Requester
    grants = property(lambda self: dict(zip(Requester, self._grants)))
    stalls = property(lambda self: dict(zip(Requester, self._stalls)))

    def credit(self, port, grants, stalls):
        """Count the DataMem grants and lost arbitration cycles of the DSP
        behind `port` over cycles that ``World.run_until`` replayed
        without stepping the bus."""
        k = 1 if port is self._ports[0] else 2  # by identity: ports may hold equal fields
        self._grants[k] += grants
        self._stalls[k] += stalls

    def post(self, addr, write=False, wdata=0, wstrb=0b1111):
        """Serve a host access (``World.reg_write``/``reg_read``) in this
        cycle, after the DSPs and the CPU have stepped, as the CPU's own
        access is served: (rdata, error).  A DataMem word is granted to
        the host in the CPU's place, and refused in a cycle in which the
        CPU took DataMem.  Keeps the name ``post`` because
        perfbench/tracing.py wraps it; ROADMAP item 1 owns any rename."""
        addr &= _MASK
        if addr & 3 or not DATA_BASE <= addr <= DATA_END:
            return self._route(addr, write, wdata)
        if self.cpu_served:
            raise RuntimeError("DataMem already served the CPU in this cycle")
        self.serve_cpu()
        if write:
            self.sram.write_word(addr - DATA_BASE, wdata, wstrb)
            return 0, None
        return self.sram.words[(addr - DATA_BASE) >> 2], None

    def serve_cpu(self):
        """Grant DataMem to a CPU access served at its issue, in this cycle."""
        self._grants[0] += 1
        self.cpu_served = True

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
        """Arbitrate DataMem for one cycle: a CPU or host access served
        in it stalls the DSPs that request DataMem; otherwise the first
        DSP request by priority is served."""
        cpu = self.cpu_served
        conv_port, dot_port = self._ports
        conv = conv_port.req and not conv_port.done
        dot = dot_port.req and not dot_port.done
        if not (cpu or conv or dot):
            return
        self.cpu_served = False
        winner = arbitrate(cpu, conv, dot)
        if winner is _CPU:
            self._stalls[1] += conv
            self._stalls[2] += dot
            return
        if winner is _CONV:
            self._grants[1] += 1
            self._stalls[2] += dot
            port = conv_port
        else:
            self._grants[2] += 1
            port = dot_port
        port.serve(self.sram.words)
