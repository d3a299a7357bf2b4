"""Register protocol and MAC datapath shared by the DSP accelerators.

Both units expose the same AXI-Lite contract.  Configuration registers
are writable only outside RUN.  CONTROL bit 1 is the interrupt enable
and bit 0 starts an IDLE unit; a start in DONE is ignored until
IRQ_CLEAR.  STATUS (bit 0 done, bit 1 error) and the other read-only
registers ignore writes.  Writing 1 to IRQ_CLEAR drops the interrupt,
clears STATUS and returns a DONE unit to IDLE.

Both units also share one memory-master datapath.  A run is `outputs`
accumulations of `taps` signed products, and tap j of output i
multiplies the words at ``a + 4(i+j)`` and ``b + 4j``: conv is
(N-K+1, K) and dot is (1, L).  Uncontended, a tap takes 3 cycles (post
the a read; capture a and post the b read; capture b and MAC), and each
output one end cycle more, so a run occupies outputs*(3*taps+1) busy
cycles.  A unit with an output buffer at `out` (conv) posts, in the
cycle of output i's last MAC, the write of its word (``_outputs``, the
truncated accumulator) to ``out + 4i``; the end cycle waits for that
write, clears the accumulator and finishes the run after the last output
(where dot, which has no output buffer, latches its result).

A subclass declares its register layout in the ``CONFIG`` and
``READ_ONLY`` tables plus ``CONTROL``/``IRQ_CLEAR`` offsets, validates
its configuration in ``_start`` and hands ``_run`` the run's shape and
output buffer; a unit that writes outputs defines ``_outputs``.
``_cycle`` is the one definition of a cycle of the datapath, which
``step`` runs in RUN.  Beside ``step``, for ``World.run_until``:
``cycles_left`` is the number of cycles to the finish while the unit is
the only DataMem requester, and ``replay`` advances the unit over many
cycles against a log of the cycles that requesters of higher priority
took: it runs ``_cycle`` over the partial taps at its two ends, its
port served by ``MmiPort.serve`` as ``Bus.step`` serves it, and, in
between, walks the grant times of whole taps, then commits their MACs
from the SRAM words as they stand, a run of whole conv outputs as one
big-int product (``_convolve``).  The walk of a whole output from its
start reads only the log bytes it crosses, so it is memoized by the
``_H`` bytes from there, in two memos per run: one for walks that mark
the log and one for walks that do not.  Both give exactly the result of
stepping those cycles; ``buffers`` names the words a run may touch.
"""

from __future__ import annotations

import enum
import re
from array import array
from itertools import accumulate
from operator import mul
from sys import byteorder

from .bits import s32, s64, u32
from .bus import MmiPort, RegisterAccessError
from .memmap import DATA_BASE


class DspState(enum.Enum):
    IDLE = "idle"
    RUN = "run"
    DONE = "done"


# ``_stage``, the next step of the output in progress: 0 post the a read,
# 2 capture a (landed) and post the b read, 4 capture b and MAC, 6 END;
# while its port has a request pending, the unit waits before that step

# a tap in a log of taken (1) and free (0) cycles: the a and b reads at the
# first two free cycles, where groups 1 and 2 end, then the MAC's cycle
_TAP = re.compile(rb"(\x01*)\x00(\x01*)\x00.", re.S)
# an output's last tap, then its end cycle: after the MAC's cycle, or after
# conv's write at the first free cycle from the MAC's (where group 3 ends)
_LAST = (re.compile(rb"(\x01*)\x00(\x01*)\x00..", re.S),
         re.compile(rb"(\x01*)\x00(\x01*)\x00(\x01*)\x00.", re.S))

# whole conv outputs committed by one product from this many on: timed on
# testbench convs (Python 3.11, 2-core x86-64 Xeon), it overtakes one sum per
# output at 8-12 outputs for K <= 128, 16 for K = 256, about 20 for K = 512
_BATCH_MIN = 16
# log bytes that key the memo of one whole output's walk, which stores no
# longer walk: on contended (Python 3.11, 2 cores) 64 and 128 time alike
_H = 128
_LOW = 3 if byteorder == "big" else 0  # array("I") item of a 128-bit slot's low word
_BIAS = b"\0\0\0\x80" + bytes(12)  # bit 31 of one 128-bit slot, little-endian


def _signed(words):
    """The 32-bit `words` as an array of their signed values."""
    return array("i", array("I", words).tobytes())


def _convolve(a, b, count):
    """The s64 sums of s32(a[t+j]) * s32(b[j]) over the taps j of b, t < count,
    by Kronecker substitution: slot t+taps-1 of the product of a and reversed
    b in 128-bit slots of h = w ^ 2^31 = s32(w) + 2^31, less 2^31 times the
    sums of output t's signed a and of b's h (the taps * 2^62 terms cancel)."""
    taps, n = len(b), count + len(b) - 1
    pa, pb = array("I", bytes(16 * n)), array("I", bytes(16 * taps))
    pa[_LOW::4], pb[_LOW::4] = array("I", a), array("I", b[::-1])
    prod = ((int.from_bytes(pa, byteorder) ^ int.from_bytes(_BIAS * n, "little"))
            * (int.from_bytes(pb, byteorder) ^ int.from_bytes(_BIAS * taps, "little")))
    low = array("Q", prod.to_bytes(16 * (n + taps - 1), byteorder))
    sums = list(accumulate(_signed(a), initial=0))
    hb = sum(_signed(b)) + (taps << 31)
    return [s64(p - ((hi - lo + hb) << 31)) for p, lo, hi in
            zip(low[2 * taps - 2 + _LOW // 2::2], sums, sums[taps:])]


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
        self._cfg = None  # (a, b, outputs, taps, out), latched by _run
        self._stage = 0
        self.out_idx = 0   # the output in progress
        self.kern_idx = 0  # its taps done
        self._x_val = 0    # the a word of the tap in progress
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
        """Enter RUN with cfg = (a, b, outputs, taps, out), `out` the
        address of output 0's word, or None for a unit that writes none."""
        self.status_done = False
        self.status_error = False
        self._cfg = cfg
        self._memo = ({}, {})  # output walks by their log bytes, unmarked and marked
        self.accum = 0
        self.out_idx = self.kern_idx = 0
        self._stage = 0 if cfg[3] else 6  # an empty product only ends
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

    def step(self):
        """One global cycle; captures completions from the previous cycle."""
        if self.state is DspState.RUN and self._cycle():
            self._complete()

    def _cycle(self):
        """One cycle in RUN; True if it ends the run's last output, which
        the caller then ``_complete``s."""
        self.busy_cycles += 1
        mmi = self.mmi
        if mmi.req and not mmi.done:  # the posted access waits for its grant
            return False
        stage = self._stage
        if stage == 0:
            mmi.request_read(self._cfg[0] + 4 * (self.out_idx + self.kern_idx))
            self._stage = 2
        elif stage == 2:
            self._x_val = s32(mmi.rddata)
            mmi.request_read(self._cfg[1] + 4 * self.kern_idx)
            self._stage = 4
        elif stage == 4:
            self.accum = s64(self.accum + self._x_val * s32(mmi.rddata))
            self.macs += 1
            self.kern_idx += 1
            if self.kern_idx == self._cfg[3]:
                out = self._cfg[4]
                if out is None:
                    mmi.clear()
                else:
                    mmi.request_write(out + 4 * self.out_idx, self._outputs([self.accum])[0])
                self._stage = 6
            else:
                mmi.clear()
                self._stage = 0
        else:  # END, once the output's write has landed
            mmi.clear()
            self.out_idx += 1
            self.kern_idx = 0
            self._stage = 0
            if self.out_idx == self._cfg[2]:
                return True
            self.accum = 0
        return False

    def _complete(self):
        """Finish a run whose last output has ended, latching its
        accumulator first."""
        self._finish()
        self.accum = 0

    def buffers(self):
        """The DataMem word index spans [lo, hi) that the run reads as a
        and b and writes as outputs (empty for a unit that writes none)."""
        a, b, outputs, taps, out = self._cfg
        a0 = (a - DATA_BASE) >> 2
        b0 = (b - DATA_BASE) >> 2
        o0 = 0 if out is None else (out - DATA_BASE) >> 2
        return ((a0, a0 + outputs + taps - 1), (b0, b0 + taps),
                (o0, o0 if out is None else o0 + outputs))

    def cycles_left(self):
        """Cycles until and including the one that finishes the run, when
        no other requester touches DataMem (in RUN)."""
        outputs, taps = self._cfg[2:4]
        mmi = self.mmi
        return ((outputs - self.out_idx) * (3 * taps + 1)
                - 3 * self.kern_idx - self._stage % 6 // 2  # spent on the tap
                + (mmi.req and not mmi.done))  # a stalled request lands a cycle late

    def replay(self, taken, cycles, words, mark=False):
        """Step the running unit over the next `cycles` cycles, in which a
        requester of higher priority holds DataMem wherever the log `taken`
        is set (index 0 is the next cycle; it covers the `cycles`), with
        exactly the result of stepping them: a request on a taken cycle
        waits a cycle and counts a stall.  The SRAM `words` are read and
        written directly.  If `mark`, each cycle granted to the unit is set
        in `taken`.  The partial taps at the two ends run one ``_cycle`` at
        a time, the port served on a free cycle by ``MmiPort.serve``, as
        ``Bus.step`` serves it; from a tap boundary, ``_walk`` runs the
        whole taps that fit.  Returns (grants, stalls, end): `end` counts
        the cycles up to and including the one that ends the last output,
        0 if that is not among them; the caller then ``_complete``s the
        run on its own cycle."""
        mmi, outputs = self.mmi, self._cfg[2]
        grants = stalls = p = 0
        while p < cycles:
            if not self._stage:  # a tap boundary
                g, s, p = self._walk(taken, p, cycles, words, mark)
                grants, stalls = grants + g, stalls + s
                if self.out_idx == outputs:
                    return grants, stalls, p
                if p == cycles:
                    break
            ended = self._cycle()
            if mmi.req and not mmi.done:
                if taken[p]:
                    stalls += 1
                else:
                    grants += 1
                    if mark:
                        taken[p] = 1
                    mmi.serve(words)
            p += 1
            if ended:
                return grants, stalls, p
        return grants, stalls, 0

    def _walk(self, taken, p, cycles, words, mark):
        """Run the whole taps that fit in cycles p to `cycles` of `taken`
        from a tap boundary, as stepping runs them: their grant times
        are walked first (in closed form over free cycles, else by
        ``_TAP`` and ``_LAST``; an output whose next ``_H`` log bytes
        began an earlier output's walk of at most ``_H`` cycles, with
        `mark` as now, repeats its length and its marked log bytes), then
        their MACs are committed: by one
        ``_convolve`` for a run of ``_BATCH_MIN`` or more whole outputs in
        which no output reads a word that an earlier one writes, else one
        output at a time, each from the SRAM `words` as they stand after
        the earlier outputs' writes, as in stepping.
        Leaves the unit and its port at the tap boundary it reaches, as
        stepping leaves them, and returns (grants, stalls, cycle reached)."""
        b, outputs, taps = self._cfg[1:4]
        (a0, _), (b0, b1), (o0, o1) = self.buffers()
        per = 3 * taps + 1
        find = taken.find
        writes = o1 > o0
        tap, last_tap = _TAP.match, _LAST[writes].match
        # the cycles of an output that are granted when none is taken
        granted = (b"\1\1\0" * taps)[:-1] + (b"\1\0" if writes else b"\0\0")
        nxt = -1  # the first taken cycle from some cycle of the walk on
        i, j = self.out_idx, self.kern_idx
        last, stop, q = i, j, p  # walk from tap j of output i at cycle p
        memo, l1 = self._memo[mark], None  # l1: the output that ends a keyed walk
        while q < cycles:
            if not stop and q + _H <= cycles:  # an output's start
                key, q0, l1 = bytes(taken[q:q + _H]), q, last + 1
                hit = memo.get(key)
                if hit:
                    if mark:
                        taken[q:q + hit[0]] = hit[1]
                    last, q = last + 1, q + hit[0]
                    if last == outputs:
                        break
                    continue
            if nxt < q:
                nxt = find(1, q, cycles)
                if nxt < 0:
                    nxt = cycles
            if nxt - q > 2:  # whole taps on free cycles, short of the run's last
                end = 3 * stop + nxt - q  # cycles from output last's start
                end = min(end - end % per % 3, (outputs - last) * per - 4)
                end -= 3 * (end % per == per - 1)  # or of a last tap that nxt cuts off
                if mark:
                    taken[q:q + end - 3 * stop] = \
                        (granted * (end // per + 1))[3 * stop:end]
                last, stop, q = last + end // per, end % per // 3, q + end - 3 * stop
            while stop < taps - 1:  # the output's taps short of its last
                m = tap(taken, q, cycles)
                if m is None:
                    break
                if mark:
                    taken[m.end(1)] = taken[m.end(2)] = 1
                stop, q = stop + 1, m.end()
            m = stop == taps - 1 and last_tap(taken, q, cycles)
            if not m:
                break
            if mark:  # the a and b reads and any write
                taken[m.end(1)] = taken[m.end(2)] = taken[m.end(2 + writes)] = 1
            last, stop, q = last + 1, 0, m.end()
            if last == l1 and q - q0 <= _H:  # one whole output walked from key
                memo[key] = q - q0, bytes(taken[q0:q])
            if last == outputs:
                break
        ends = last - i  # the outputs whose end cycles the walk runs
        walked = ends * taps + stop - j
        if not walked:
            return 0, 0, p
        self.busy_cycles += q - p
        self.macs += walked
        acc, wrote = self.accum, None
        reach = max(1, o0 - a0 - taps + 1) if o0 > a0 else outputs  # till a reads an output
        while True:  # commit the MACs at once
            n = taps if i < last else stop
            t = max(i, b0 - o0)  # the first output from i that may write b
            e = min(last, i + reach, t + 1 if t < b1 - o0 else last)
            if writes and not j and e - i >= _BATCH_MIN:  # whole outputs i to e
                accs = _convolve(words[a0 + i:a0 + e + taps - 1], words[b0:b1], e - i)
                acc, xv, i, j = accs[-1], s32(words[a0 + e + taps - 2]), e - 1, taps
            elif n > j:
                k = a0 + i  # output i's first a word
                acc = s64(acc + sum(map(mul, _signed(words[k + j:k + n]),
                                        _signed(words[b0 + j:b0 + n]))))
                xv, rd, j, accs = s32(words[k + n - 1]), words[b0 + n - 1], n, [acc]
            if writes and j == taps:  # the words of outputs i - len(accs) to i
                y = o0 + i + 1
                words[y - len(accs):y] = outs = self._outputs(accs)
                wrote, rd = (DATA_BASE + 4 * (y - 1), outs[-1]), 0
            if i == last:
                break
            i, j = i + 1, 0
            if i < outputs:
                acc = 0
        self.out_idx, self.kern_idx, self.accum, self._x_val = i, j, acc, xv
        mmi = self.mmi  # as the last b read or the output's write leaves it
        mmi.rddata = rd
        if wrote is not None:
            mmi.wrdata = wrote[1]
        if wrote is not None and not j:  # the output's write
            mmi.addr, mmi.wr_en = wrote[0], True
        else:
            mmi.addr, mmi.wr_en = b + 4 * ((j or taps) - 1), False
        # the stalls are the cycles beyond the uncontended ones
        return 2 * walked + writes * ends, q - p - 3 * walked - ends, q
