"""1D convolution accelerator: register layout, start checks, MAC datapath.

Per-tap cycle budget (uncontended): cycle 1 posts the x read, cycle 2
captures x and posts the h read, cycle 3 captures h and runs the MAC.
The output write adds one cycle per output, so a run of N-K+1 outputs
occupies exactly (N-K+1)(3K+1) busy cycles.  Accumulator clearing is
folded into the output-write cycle, so there is no separate init state.
"""

from __future__ import annotations

import enum
from operator import mul

from .accel import DspState, MmioAccelerator
from .bits import s32, s64
from .mac import Truncation, truncate_accumulator
from .memmap import DATA_BASE, buffer_in_datamem

OFF_IN_ADDR = 0x00
OFF_KERN_ADDR = 0x04
OFF_OUT_ADDR = 0x08
OFF_IN_LEN = 0x0C
OFF_KERN_LEN = 0x10
OFF_CONTROL = 0x14
OFF_STATUS = 0x18
OFF_IRQ_CLEAR = 0x1C

ConvState = DspState


class _Sub(enum.Enum):
    POST_X = 0
    WAIT_X = 1
    WAIT_H = 2
    WAIT_Y = 3


# cycles already spent on the current tap when a sub-state is next to step
_PHASE = {_Sub.POST_X: 0, _Sub.WAIT_X: 1, _Sub.WAIT_H: 2, _Sub.WAIT_Y: 0}


class ConvDsp(MmioAccelerator):
    NAME = "conv"
    CONFIG = {OFF_IN_ADDR: "in_addr", OFF_KERN_ADDR: "kern_addr",
              OFF_OUT_ADDR: "out_addr", OFF_IN_LEN: "in_len",
              OFF_KERN_LEN: "kern_len"}
    READ_ONLY = {OFF_STATUS: "status"}
    CONTROL = OFF_CONTROL
    IRQ_CLEAR = OFF_IRQ_CLEAR

    def __init__(self, truncation=Truncation.WRAP, trace=None):
        super().__init__(trace)
        self.truncation = truncation
        self._sub = _Sub.POST_X
        self.out_idx = 0
        self.kern_idx = 0
        self._x_val = 0

    def _start(self):
        n, k = self.in_len, self.kern_len
        if (k == 0 or n < k
                or not buffer_in_datamem(self.in_addr, n)
                or not buffer_in_datamem(self.kern_addr, k)
                or not buffer_in_datamem(self.out_addr, n - k + 1)):
            self._finish(error=True)
            return
        self.out_idx = 0
        self.kern_idx = 0
        self._sub = _Sub.POST_X
        self._run((self.in_addr, self.kern_addr, self.out_addr, n, k),
                  f"n={n} k={k}")

    def step(self):
        """One global cycle; captures completions from the previous cycle."""
        if self.state is not DspState.RUN:
            return
        self.busy_cycles += 1
        mmi = self.mmi
        in_addr, kern_addr, out_addr, n, k = self._cfg
        sub = self._sub
        if sub is _Sub.POST_X:
            mmi.request_read(in_addr + 4 * (self.out_idx + self.kern_idx))
            self._sub = _Sub.WAIT_X
        elif sub is _Sub.WAIT_X:
            if not self._landed():
                return
            self._x_val = s32(mmi.rddata)
            mmi.request_read(kern_addr + 4 * self.kern_idx)
            self._sub = _Sub.WAIT_H
        elif sub is _Sub.WAIT_H:
            if not self._landed():
                return
            self.accum = s64(self.accum + self._x_val * s32(mmi.rddata))
            self.macs += 1
            self.kern_idx += 1
            if self.kern_idx == k:
                value = truncate_accumulator(self.accum, self.truncation)
                mmi.request_write(out_addr + 4 * self.out_idx, value)
                self._sub = _Sub.WAIT_Y
            else:
                mmi.clear()
                self._sub = _Sub.POST_X
        else:  # WAIT_Y
            if not self._landed():
                return
            mmi.clear()
            self.out_idx += 1
            self.kern_idx = 0
            self.accum = 0
            if self.out_idx == n - k + 1:
                self._finish()
            else:
                self._sub = _Sub.POST_X

    def cycles_left(self):
        """Cycles until and including the one that finishes the run, when
        no other requester touches DataMem (in RUN)."""
        _, _, _, n, k = self._cfg
        mmi = self.mmi
        done = 3 * self.kern_idx + _PHASE[self._sub]  # of the current output
        return ((n - k + 1 - self.out_idx) * (3 * k + 1) - done
                + (mmi.req and not mmi.done))  # a stalled request lands a cycle late

    def output_span(self, limit):
        """Cycles of the most whole outputs, 3K+1 each, that fit in `limit`
        cycles, at an output boundary; 0 anywhere else."""
        if self._sub is not _Sub.POST_X or self.kern_idx:
            return 0
        _, _, _, n, k = self._cfg
        per = 3 * k + 1
        return per * min(limit // per, n - k + 1 - self.out_idx)

    def run_output(self, span, words):
        """The outputs that ``step`` performs over the next `span` cycles
        (a value of ``output_span``) when no other requester touches
        DataMem, read from and written to the SRAM `words` directly.  Each
        output's reads precede its write, so an output buffer overlapping
        the input reads what the stepped path reads.  Returns the DataMem
        grants used, 2K+1 per output."""
        in_addr, kern_addr, out_addr, n, k = self._cfg
        h0 = (kern_addr - DATA_BASE) >> 2
        count = span // (3 * k + 1)
        for _ in range(count):
            x0 = ((in_addr - DATA_BASE) >> 2) + self.out_idx
            xs = [s32(w) for w in words[x0:x0 + k]]
            accum = s64(self.accum + sum(map(mul, xs, map(s32, words[h0:h0 + k]))))
            value = truncate_accumulator(accum, self.truncation)
            out = out_addr + 4 * self.out_idx
            words[(out - DATA_BASE) >> 2] = value
            self.out_idx += 1
        mmi = self.mmi
        mmi.request_write(out, value)
        mmi.rddata = 0  # the bus answers a write with 0
        mmi.clear()
        self._x_val = xs[-1]
        self.busy_cycles += span
        self.macs += k * count
        if self.out_idx == n - k + 1:
            self._sub = _Sub.WAIT_Y
            self._finish()
        return (2 * k + 1) * count
