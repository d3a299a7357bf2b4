"""Benchmark program builders: a tiny assembler plus kernel generators.

The software convolution kernel mirrors the per-tap lw/lw/mul/add shape
with decrement-and-branch loops (inner loop unrolled by two so the loop
overhead lands near two cycles per tap).  Driver programs configure an
accelerator over its register file and poll STATUS until done.
"""

from __future__ import annotations

from .bits import s32
from .isa import DecodedInstruction, encode
from .memmap import CONV_BASE, DOT_BASE
from . import conv as convregs
from . import dotprod as dotregs


def I(mnemonic, rd=0, rs1=0, rs2=0, imm=0):  # noqa: E743 - assembler shorthand
    return DecodedInstruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2, imm=imm)


class Assembler:
    """Collects instructions with symbolic branch targets, then encodes."""

    def __init__(self):
        self.items = []  # DecodedInstruction or (mnemonic, rs1, rs2, label)
        self.labels = {}

    def label(self, name):
        self.labels[name] = len(self.items)

    def emit(self, *instrs):
        self.items.extend(instrs)

    def branch(self, mnemonic, rs1, rs2, label):
        self.items.append((mnemonic, rs1, rs2, label))

    def li(self, rd, value):
        """Load a 32-bit constant via lui/addi as needed."""
        value = s32(value)
        if -2048 <= value <= 2047:
            self.emit(I("addi", rd=rd, imm=value))
            return
        hi = (value + 0x800) >> 12
        lo = value - (hi << 12)
        self.emit(I("lui", rd=rd, imm=s32(hi << 12)))
        if lo:
            self.emit(I("addi", rd=rd, rs1=rd, imm=lo))

    def instructions(self):
        out = []
        for idx, item in enumerate(self.items):
            if isinstance(item, DecodedInstruction):
                out.append(item)
            else:
                mnemonic, rs1, rs2, label = item
                offset = 4 * (self.labels[label] - idx)
                out.append(I(mnemonic, rs1=rs1, rs2=rs2, imm=offset))
        return out

    def words(self):
        return [encode(i) for i in self.instructions()]


# register allocation shared by the generators
_T0, _T1, _PROD, _ACC = 5, 6, 7, 8
_P, _Q, _YP = 9, 10, 11
_OUTCNT, _CNT, _KBASE = 12, 13, 14
_BASE, _VAL = 20, 21


def conv_sw_kernel(n, k, in_addr, kern_addr, out_addr):
    """Pure-software convolution over word arrays; halts with ebreak."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= K <= N")
    if 4 * k - 4 > 2047:
        raise ValueError("kernel too long for the pointer-rewind immediate")
    asm = Assembler()
    asm.li(_P, in_addr)
    asm.li(_YP, out_addr)
    asm.li(_OUTCNT, n - k + 1)
    asm.li(_KBASE, kern_addr)
    asm.label("outer")
    asm.emit(I("addi", rd=_Q, rs1=_KBASE, imm=0),
             I("addi", rd=_ACC, imm=0))
    if k % 2:
        # odd K: one scalar tap, then the unrolled loop handles the rest
        asm.emit(I("lw", rd=_T0, rs1=_P, imm=0),
                 I("lw", rd=_T1, rs1=_Q, imm=0),
                 I("mul", rd=_PROD, rs1=_T0, rs2=_T1),
                 I("add", rd=_ACC, rs1=_ACC, rs2=_PROD),
                 I("addi", rd=_P, rs1=_P, imm=4),
                 I("addi", rd=_Q, rs1=_Q, imm=4))
    if k > 1:
        asm.emit(I("addi", rd=_CNT, imm=k - (k % 2)))
        asm.label("inner")
        for off in (0, 4):
            asm.emit(I("lw", rd=_T0, rs1=_P, imm=off),
                     I("lw", rd=_T1, rs1=_Q, imm=off),
                     I("mul", rd=_PROD, rs1=_T0, rs2=_T1),
                     I("add", rd=_ACC, rs1=_ACC, rs2=_PROD))
        asm.emit(I("addi", rd=_P, rs1=_P, imm=8),
                 I("addi", rd=_Q, rs1=_Q, imm=8),
                 I("addi", rd=_CNT, rs1=_CNT, imm=-2))
        asm.branch("bne", _CNT, 0, "inner")
    # p advanced by 4K over the taps; net advance per output is +4
    asm.emit(I("addi", rd=_P, rs1=_P, imm=4 - 4 * k),
             I("sw", rs1=_YP, rs2=_ACC, imm=0),
             I("addi", rd=_YP, rs1=_YP, imm=4),
             I("addi", rd=_OUTCNT, rs1=_OUTCNT, imm=-1))
    asm.branch("bne", _OUTCNT, 0, "outer")
    asm.emit(I("ebreak"))
    return asm.words()


def _driver(base, writes, status_offset, irq_clear_offset):
    asm = Assembler()
    asm.li(_BASE, base)
    for offset, value in writes:
        asm.li(_VAL, value)
        asm.emit(I("sw", rs1=_BASE, rs2=_VAL, imm=offset))
    asm.label("poll")
    asm.emit(I("lw", rd=_T0, rs1=_BASE, imm=status_offset),
             I("andi", rd=_T0, rs1=_T0, imm=1))
    asm.branch("beq", _T0, 0, "poll")
    asm.emit(I("addi", rd=_VAL, imm=1),
             I("sw", rs1=_BASE, rs2=_VAL, imm=irq_clear_offset),
             I("ebreak"))
    return asm.words()


def conv_driver(n, k, in_addr, kern_addr, out_addr, int_en=False):
    """Full-system driver: configure the conv DSP, start, poll, clear."""
    writes = convregs.start_writes(n, k, in_addr, kern_addr, out_addr, int_en)
    return _driver(CONV_BASE, writes, convregs.OFF_STATUS, convregs.OFF_IRQ_CLEAR)


def dot_driver(length, va_addr, vb_addr, int_en=False):
    """Full-system driver for the dot-product DSP."""
    writes = dotregs.start_writes(length, va_addr, vb_addr, int_en)
    return _driver(DOT_BASE, writes, dotregs.OFF_STATUS, dotregs.OFF_IRQ_CLEAR)
