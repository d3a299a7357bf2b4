"""Bus interconnect: address routing, DataMem arbitration, MMI bridging.

DataMem is single-port, so at most one DataMem transaction completes
per cycle; the arbiter is fixed-priority CPU > conv DSP > dot DSP.
Register-space (AXI-Lite) accesses bypass the arbiter and always
complete in the cycle they are posted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .bits import u32
from .memmap import MisalignedAddressError, Region, decode_address


class Requester(enum.Enum):
    CPU = "cpu"
    CONV = "conv"
    DOT = "dot"


class TxState(enum.Enum):
    PENDING = 0
    GRANTED = 1
    DONE = 2


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
    """DSP-side memory master handshake (request/ready/done)."""

    req: bool = False
    addr: int = 0
    wr_en: bool = False
    wrdata: int = 0
    ready: bool = False
    rddata: int = 0
    done: bool = False
    error: str | None = None
    inflight: bool = field(default=False, repr=False)

    def request_read(self, addr):
        self.req = True
        self.wr_en = False
        self.addr = addr
        self.done = False
        self.ready = False
        self.error = None

    def request_write(self, addr, wdata):
        self.req = True
        self.wr_en = True
        self.addr = addr
        self.wrdata = u32(wdata)
        self.done = False
        self.ready = False
        self.error = None

    def clear(self):
        self.req = False
        self.done = False
        self.ready = False


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
        self.slots = {r: None for r in Requester}
        self.grants = {r: 0 for r in Requester}
        self.stalls = {r: 0 for r in Requester}
        self.register_accesses = 0

    def post(self, tx):
        if self.slots[tx.requester] is not None:
            raise RuntimeError(f"{tx.requester.value} already has a transaction in flight")
        self.slots[tx.requester] = tx

    def _pull_mmi(self):
        for requester, dsp in ((Requester.CONV, self.conv), (Requester.DOT, self.dot)):
            port = dsp.mmi
            if port.req and not port.inflight and not port.done:
                self.post(BusTransaction(requester, port.addr, port.wr_en, port.wrdata))
                port.inflight = True

    def _finish(self, tx, rdata=0, error=None):
        tx.rdata = u32(rdata)
        tx.error = error
        tx.state = TxState.DONE
        self.slots[tx.requester] = None
        if tx.requester in (Requester.CONV, Requester.DOT):
            dsp = self.conv if tx.requester is Requester.CONV else self.dot
            port = dsp.mmi
            port.inflight = False
            port.ready = True
            port.done = True
            port.rddata = tx.rdata
            port.error = error

    def _route_register(self, tx, dsp):
        _, offset = decode_address(tx.addr)
        offset &= 0xFF
        self.register_accesses += 1
        try:
            if tx.write:
                dsp.axi_write(offset, tx.wdata)
                self._finish(tx)
            else:
                self._finish(tx, rdata=dsp.axi_read(offset))
        except RegisterAccessError as exc:
            self._finish(tx, error=str(exc))

    def step(self):
        """Resolve one bus cycle: route register space, arbitrate DataMem."""
        self._pull_mmi()
        datamem = []
        for requester in Requester:
            tx = self.slots[requester]
            if tx is None:
                continue
            try:
                region, offset = decode_address(tx.addr)
            except MisalignedAddressError as exc:
                self._finish(tx, error=str(exc))
                continue
            if region is Region.DATA_MEM:
                datamem.append((requester, tx, offset))
            elif region is Region.INST_MEM:
                if tx.write:
                    self._finish(tx, error=f"write to ROM at 0x{tx.addr:08x}")
                else:
                    self._finish(tx, rdata=self.rom.read_word(offset))
            elif region is Region.CONV_REGS:
                self._route_register(tx, self.conv)
            elif region is Region.DOT_REGS:
                self._route_register(tx, self.dot)
            elif region is Region.RESERVED:
                self._finish(tx, rdata=0)
            else:
                self._finish(tx, error=f"unmapped address 0x{tx.addr:08x}")

        if not datamem:
            return
        pending = {r: False for r in Requester}
        for requester, _, _ in datamem:
            pending[requester] = True
        winner = arbitrate(pending[Requester.CPU], pending[Requester.CONV], pending[Requester.DOT])
        for requester, tx, offset in datamem:
            if requester is not winner:
                tx.state = TxState.PENDING
                self.stalls[requester] += 1
                continue
            tx.state = TxState.GRANTED
            self.grants[requester] += 1
            if tx.write:
                self.sram.write_word(offset, tx.wdata, tx.wstrb)
                self._finish(tx)
            else:
                self._finish(tx, rdata=self.sram.read_word(offset))
