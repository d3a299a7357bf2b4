"""Dot-product accelerator: two-vector MAC loop with a 64-bit result.

Same memory-master timing as the convolution unit: 3 cycles per element
(A read, B read, MAC) plus one finalize cycle that latches the full
64-bit accumulator into RESULT_LO/RESULT_HI, giving 3L+1 busy cycles.
"""

from __future__ import annotations

import enum
from operator import mul

from .accel import DspState, MmioAccelerator
from .bits import s32, s64, u64
from .memmap import DATA_BASE, buffer_in_datamem

OFF_VA_ADDR = 0x00
OFF_VB_ADDR = 0x04
OFF_LEN = 0x08
OFF_CONTROL = 0x0C
OFF_STATUS = 0x10
OFF_RESULT_LO = 0x14
OFF_RESULT_HI = 0x18
OFF_IRQ_CLEAR = 0x1C

DotState = DspState


class _Sub(enum.Enum):
    POST_A = 0
    WAIT_A = 1
    WAIT_B = 2
    FINALIZE = 3


# cycles already spent on the current element when a sub-state is next to step
_PHASE = {_Sub.POST_A: 0, _Sub.WAIT_A: 1, _Sub.WAIT_B: 2, _Sub.FINALIZE: 0}


class DotDsp(MmioAccelerator):
    NAME = "dot"
    CONFIG = {OFF_VA_ADDR: "va_addr", OFF_VB_ADDR: "vb_addr", OFF_LEN: "length"}
    READ_ONLY = {OFF_STATUS: "status", OFF_RESULT_LO: "result_lo",
                 OFF_RESULT_HI: "result_hi"}
    CONTROL = OFF_CONTROL
    IRQ_CLEAR = OFF_IRQ_CLEAR

    def __init__(self, trace=None):
        super().__init__(trace)
        self.result_lo = 0
        self.result_hi = 0
        self._sub = _Sub.POST_A
        self.vec_idx = 0
        self._a_val = 0

    def _start(self):
        length = self.length
        if not (buffer_in_datamem(self.va_addr, length)
                and buffer_in_datamem(self.vb_addr, length)):
            self._finish(error=True)
            return
        self.vec_idx = 0
        # empty vectors skip straight to the finalize cycle (result 0)
        self._sub = _Sub.FINALIZE if length == 0 else _Sub.POST_A
        self._run((self.va_addr, self.vb_addr, length), f"l={length}")

    def step(self):
        if self.state is not DspState.RUN:
            return
        self.busy_cycles += 1
        mmi = self.mmi
        va, vb, length = self._cfg
        sub = self._sub
        if sub is _Sub.POST_A:
            mmi.request_read(va + 4 * self.vec_idx)
            self._sub = _Sub.WAIT_A
        elif sub is _Sub.WAIT_A:
            if not self._landed():
                return
            self._a_val = s32(mmi.rddata)
            mmi.request_read(vb + 4 * self.vec_idx)
            self._sub = _Sub.WAIT_B
        elif sub is _Sub.WAIT_B:
            if not self._landed():
                return
            self.accum = s64(self.accum + self._a_val * s32(mmi.rddata))
            self.macs += 1
            self.vec_idx += 1
            mmi.clear()
            self._sub = _Sub.FINALIZE if self.vec_idx == length else _Sub.POST_A
        else:
            self._finalize()

    def _finalize(self):
        """Latch the architectural 64-bit result and finish."""
        bits = u64(self.accum)
        self.result_lo = bits & 0xFFFF_FFFF
        self.result_hi = bits >> 32
        self._finish()

    def cycles_left(self):
        """Cycles until and including FINALIZE, when no other requester
        touches DataMem (in RUN)."""
        mmi = self.mmi
        return (3 * (self._cfg[2] - self.vec_idx) + 1 - _PHASE[self._sub]
                + (mmi.req and not mmi.done))  # a stalled request lands a cycle late

    def output_span(self, limit):
        """Cycles of the most whole elements, 3 each, that fit in `limit`
        cycles, plus FINALIZE if it fits after the last element, at an
        element boundary; 0 anywhere else (an empty product starts in
        FINALIZE)."""
        if self._sub is not _Sub.POST_A:
            return 0
        rest = 3 * (self._cfg[2] - self.vec_idx)
        return rest + 1 if limit > rest else limit - limit % 3

    def run_output(self, span, words):
        """The elements, and FINALIZE if `span` includes it, that ``step``
        performs over the next `span` cycles (a value of ``output_span``)
        when no other requester touches DataMem, read from the SRAM `words`
        directly.  Returns the DataMem grants used, 2 per element."""
        va, vb, length = self._cfg
        count = span // 3
        a0 = ((va - DATA_BASE) >> 2) + self.vec_idx
        b0 = ((vb - DATA_BASE) >> 2) + self.vec_idx
        a = words[a0:a0 + count]
        b = words[b0:b0 + count]
        self.accum = s64(self.accum + sum(map(mul, map(s32, a), map(s32, b))))
        mmi = self.mmi
        mmi.request_read(vb + 4 * (self.vec_idx + count - 1))
        mmi.rddata = b[-1]
        mmi.clear()
        self._a_val = s32(a[-1])
        self.busy_cycles += span
        self.macs += count
        self.vec_idx += count
        if self.vec_idx == length:
            self._sub = _Sub.FINALIZE
            if span % 3:
                self._finalize()
        return 2 * count
