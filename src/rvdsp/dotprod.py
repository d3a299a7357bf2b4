"""Dot-product accelerator: two-vector MAC loop with a 64-bit result.

One output of L taps on the shared MAC datapath
(``accel.MmioAccelerator``): 3 cycles per element (A read, B read, MAC)
plus the end cycle, which latches the full 64-bit accumulator into
RESULT_LO/RESULT_HI, giving 3L+1 busy cycles.
"""

from __future__ import annotations

from .accel import DspState, MmioAccelerator
from .bits import u64
from .memmap import buffer_in_datamem

OFF_VA_ADDR = 0x00
OFF_VB_ADDR = 0x04
OFF_LEN = 0x08
OFF_CONTROL = 0x0C
OFF_STATUS = 0x10
OFF_RESULT_LO = 0x14
OFF_RESULT_HI = 0x18
OFF_IRQ_CLEAR = 0x1C

DotState = DspState  # perfbench/workloads.py reads this name


def start_writes(length, va_addr, vb_addr, int_en=False):
    """The (offset, value) register writes that configure a run and start it."""
    return ((OFF_VA_ADDR, va_addr), (OFF_VB_ADDR, vb_addr), (OFF_LEN, length),
            (OFF_CONTROL, 1 | (2 if int_en else 0)))


class DotDsp(MmioAccelerator):
    NAME = "dot"
    CONFIG = {OFF_VA_ADDR: "va_addr", OFF_VB_ADDR: "vb_addr", OFF_LEN: "length"}
    READ_ONLY = {OFF_STATUS: "status", OFF_RESULT_LO: "result_lo",
                 OFF_RESULT_HI: "result_hi"}
    CONTROL = OFF_CONTROL
    IRQ_CLEAR = OFF_IRQ_CLEAR
    step = MmioAccelerator.step  # in the class dict, for perfbench/tracing.py

    def __init__(self, trace=None):
        super().__init__(trace)
        self.result_lo = 0
        self.result_hi = 0

    def _start(self):
        length = self.length
        if not (buffer_in_datamem(self.va_addr, length)
                and buffer_in_datamem(self.vb_addr, length)):
            self._finish(error=True)
            return
        self._run((self.va_addr, self.vb_addr, 1, length, None), f"l={length}")

    def _finish(self, error=False):
        if not error:  # the end cycle latches the architectural result
            bits = u64(self.accum)
            self.result_lo = bits & 0xFFFF_FFFF
            self.result_hi = bits >> 32
        super()._finish(error)
