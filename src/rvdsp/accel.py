"""Register protocol shared by the memory-mapped DSP accelerators.

Both units expose the same AXI-Lite contract.  Configuration registers
are writable only outside RUN.  CONTROL bit 1 is the interrupt enable
and bit 0 starts an IDLE unit; a start in DONE is ignored until
IRQ_CLEAR.  STATUS (bit 0 done, bit 1 error) and the other read-only
registers ignore writes.  Writing 1 to IRQ_CLEAR drops the interrupt,
clears STATUS and returns a DONE unit to IDLE.

A subclass declares its register layout in the ``CONFIG`` and
``READ_ONLY`` tables plus ``CONTROL``/``IRQ_CLEAR`` offsets, validates
its configuration in ``_start``, and implements the per-cycle datapath
in ``step``.  Beside it, for ``World.run_until`` while the unit is the
only DataMem requester: ``cycles_left`` is the number of cycles to its
finish, and ``output_span``/``run_output`` perform whole outputs at once,
with exactly the result of stepping those cycles.
"""

from __future__ import annotations

import enum

from .bits import u32
from .bus import MmiPort, RegisterAccessError


class DspState(enum.Enum):
    IDLE = "idle"
    RUN = "run"
    DONE = "done"


class MmioAccelerator:
    NAME = ""          # trace component and error-message prefix
    CONFIG = {}        # offset -> attribute, writable outside RUN
    READ_ONLY = {}     # offset -> attribute, writes are ignored
    CONTROL = None     # offset of CONTROL
    IRQ_CLEAR = None   # offset of IRQ_CLEAR (reads as zero)

    def __init__(self, trace=None):
        self.trace = trace
        self.mmi = MmiPort()
        for attr in self.CONFIG.values():
            setattr(self, attr, 0)
        self.int_en = False
        self.status_done = False
        self.status_error = False
        self.irq_line = False
        self.state = DspState.IDLE
        self.accum = 0
        self._cfg = None  # configuration latched by _run while running
        self.busy_cycles = 0
        self.macs = 0

    @property
    def status(self):
        return int(self.status_done) | (int(self.status_error) << 1)

    # ------------------------------------------------------------------ AXI
    def axi_write(self, offset, value):
        value = u32(value)
        if offset == self.IRQ_CLEAR:
            if value & 1:
                self.irq_line = False
                self.status_done = False
                self.status_error = False
                if self.state is DspState.DONE:
                    self.state = DspState.IDLE
            return
        if offset in self.READ_ONLY or self.state is DspState.RUN:
            return
        attr = self.CONFIG.get(offset)
        if attr is not None:
            setattr(self, attr, value)
        elif offset == self.CONTROL:
            self.int_en = bool(value & 2)
            if value & 1 and self.state is DspState.IDLE:
                self._start()
        else:
            raise RegisterAccessError(f"{self.NAME}: no register at offset 0x{offset:02x}")

    def axi_read(self, offset):
        attr = self.CONFIG.get(offset) or self.READ_ONLY.get(offset)
        if attr is not None:
            return getattr(self, attr)
        if offset == self.CONTROL:
            return int(self.int_en) << 1
        if offset == self.IRQ_CLEAR:
            return 0
        raise RegisterAccessError(f"{self.NAME}: no register at offset 0x{offset:02x}")

    # ------------------------------------------------------------------ FSM
    def _start(self):
        """Validate the configuration, then _run it or _finish with error."""
        raise NotImplementedError

    def _run(self, cfg, detail):
        self.status_done = False
        self.status_error = False
        self._cfg = cfg
        self.accum = 0
        self.state = DspState.RUN
        if self.trace:
            self.trace(self.NAME, f"start {detail}")

    def _finish(self, error=False):
        self.state = DspState.DONE
        self.status_done = True
        self.status_error = error
        self.irq_line = self.int_en
        self.mmi.clear()
        if self.trace:
            self.trace(self.NAME, "error" if error else "done")

    def _landed(self):
        """True once the posted access has completed without a bus error;
        a bus error ends the run with STATUS.error set."""
        mmi = self.mmi
        if not mmi.done:
            return False
        if mmi.error is not None:
            self._finish(error=True)
            return False
        return True
