"""1D convolution accelerator: register layout, start checks, output word.

A run of N-K+1 outputs of K taps on the shared MAC datapath
(``accel.MmioAccelerator``): output i accumulates x[i+j]*h[j] and posts
its truncated word in the cycle of its last MAC, so the run occupies
exactly (N-K+1)(3K+1) busy cycles uncontended.  Accumulator clearing is
folded into each output's end cycle, so there is no separate init state.
"""

from __future__ import annotations

from .accel import DspState, MmioAccelerator
from .mac import Truncation, truncate_accumulators
from .memmap import buffer_in_datamem

OFF_IN_ADDR = 0x00
OFF_KERN_ADDR = 0x04
OFF_OUT_ADDR = 0x08
OFF_IN_LEN = 0x0C
OFF_KERN_LEN = 0x10
OFF_CONTROL = 0x14
OFF_STATUS = 0x18
OFF_IRQ_CLEAR = 0x1C

ConvState = DspState  # perfbench/workloads.py reads this name


def start_writes(n, k, in_addr, kern_addr, out_addr, int_en=False):
    """The (offset, value) register writes that configure a run and start it."""
    return ((OFF_IN_ADDR, in_addr), (OFF_KERN_ADDR, kern_addr),
            (OFF_OUT_ADDR, out_addr), (OFF_IN_LEN, n), (OFF_KERN_LEN, k),
            (OFF_CONTROL, 1 | (2 if int_en else 0)))


class ConvDsp(MmioAccelerator):
    NAME = "conv"
    CONFIG = {OFF_IN_ADDR: "in_addr", OFF_KERN_ADDR: "kern_addr",
              OFF_OUT_ADDR: "out_addr", OFF_IN_LEN: "in_len",
              OFF_KERN_LEN: "kern_len"}
    READ_ONLY = {OFF_STATUS: "status"}
    CONTROL = OFF_CONTROL
    IRQ_CLEAR = OFF_IRQ_CLEAR
    step = MmioAccelerator.step  # in the class dict, for perfbench/tracing.py

    def __init__(self, truncation=Truncation.WRAP, trace=None):
        super().__init__(trace)
        self.truncation = truncation

    def _start(self):
        n, k = self.in_len, self.kern_len
        if (k == 0 or n < k
                or not buffer_in_datamem(self.in_addr, n)
                or not buffer_in_datamem(self.kern_addr, k)
                or not buffer_in_datamem(self.out_addr, n - k + 1)):
            self._finish(error=True)
            return
        self._run((self.in_addr, self.kern_addr, n - k + 1, k, self.out_addr),
                  f"n={n} k={k}")

    def _outputs(self, accums):
        return truncate_accumulators(accums, self.truncation)
