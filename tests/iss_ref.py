"""Independent RV32IM reference interpreter for the CPU tests.

Architectural state only: 32 registers, pc, the two memories, the retired
count and the cost class of each completed instruction. There is no bus,
no timing and no code shared with ``rvdsp.isa`` or ``rvdsp.cpu``: it
decodes raw words itself, so running a program through both checks the
simulator against a second reading of the ISA (the lockstep
co-simulation riscv-dv does against Spike, done offline), just as
``oracles.py`` shares nothing with the DSPs.

The simulated SoC's conventions it follows:
- ROM is 0x0000_0000..0x0000_7FFF and read-only (a store to it is a bus
  error); DataMem is 0x0000_8000..0x0000_FFFF; the reserved block
  0x0100_0200..0x0100_02FF reads zero and ignores writes; every other
  address except the DSP register files (not modelled) is unmapped and a
  bus error.
- The M extension stops at the MUL family: DIV/REM words are illegal.
- A fetch from a misaligned pc or outside ROM is a ``fetch`` fault and an
  undecodable word an ``illegal`` one; neither retires.
- A load or store whose address is not a multiple of its width retires,
  then faults ``misaligned`` at its own pc.
- A bus error is reported once the access completes, after the
  instruction retired and pc moved on, at the pc of the instruction that
  made the access.
- ``ecall`` writes x17 to the last DataMem word and halts; ``ebreak``
  halts. pc moves past both.
"""

MASK = 0xFFFF_FFFF
ROM_END = 0x0000_7FFF
DATA_BASE, DATA_END = 0x0000_8000, 0x0000_FFFF
RESERVED_BASE, RESERVED_END = 0x0100_0200, 0x0100_02FF
WORDS = 8192


def _signed(value, bits=32):
    value &= (1 << bits) - 1
    return value - (1 << bits) if value >> (bits - 1) else value


class _BusError(Exception):
    pass


class RefCpu:
    def __init__(self, rom_words):
        self.rom = list(rom_words) + [0] * (WORDS - len(rom_words))
        self.sram = [0] * WORDS
        self.x = [0] * 32
        self.pc = 0
        self.retired = 0
        self.classes = []  # cost class of every instruction that completed
        self.halted = False
        self.fault = None  # (kind, pc)

    # ---------------------------------------------------------- memory
    def _load_word(self, addr):
        if addr <= ROM_END:
            return self.rom[addr >> 2]
        if DATA_BASE <= addr <= DATA_END:
            return self.sram[(addr - DATA_BASE) >> 2]
        if RESERVED_BASE <= addr <= RESERVED_END:
            return 0
        if 0x0100_0000 <= addr < RESERVED_BASE:
            raise NotImplementedError("DSP registers are not modelled")
        raise _BusError

    def _store_word(self, addr, value, mask):
        if DATA_BASE <= addr <= DATA_END:
            i = (addr - DATA_BASE) >> 2
            self.sram[i] = (self.sram[i] & ~mask | value & mask) & MASK
            return
        if RESERVED_BASE <= addr <= RESERVED_END:
            return
        if 0x0100_0000 <= addr < RESERVED_BASE:
            raise NotImplementedError("DSP registers are not modelled")
        raise _BusError  # ROM or unmapped

    # ---------------------------------------------------------- execute
    def _set(self, rd, value):
        if rd:
            self.x[rd] = value & MASK

    def step(self):
        pc = self.pc
        if pc & 3 or pc > ROM_END:
            self.fault = ("fetch", pc)
            return
        word = self.rom[pc >> 2]
        op, rd = word & 0x7F, (word >> 7) & 31
        f3, rs1, rs2, f7 = (word >> 12) & 7, (word >> 15) & 31, (word >> 20) & 31, word >> 25
        a, b = self.x[rs1], self.x[rs2]
        imm_i = _signed(word >> 20, 12)
        nxt = (pc + 4) & MASK
        cls = "alu"

        if op == 0x33 and f7 in (0, 0x20) and (f7 == 0 or f3 in (0, 5)):
            self._set(rd, _alu(f3, a, b, f7 == 0x20))
        elif op == 0x33 and f7 == 1 and f3 < 4:
            sa, sb = _signed(a), _signed(b)
            self._set(rd, (sa * sb, sa * sb >> 32, sa * b >> 32, a * b >> 32)[f3])
            cls = "mul"
        elif op == 0x13 and f3 == 1 and f7 == 0:
            self._set(rd, a << rs2)
        elif op == 0x13 and f3 == 5 and f7 in (0, 0x20):
            self._set(rd, _alu(5, a, rs2, f7 == 0x20))
        elif op == 0x13 and f3 not in (1, 5):
            self._set(rd, _alu(f3, a, imm_i & MASK, False))
        elif op == 0x37:
            self._set(rd, word & 0xFFFF_F000)
        elif op == 0x17:
            self._set(rd, pc + (word & 0xFFFF_F000))
        elif op == 0x6F:
            self._set(rd, nxt)
            nxt = (pc + _signed((word >> 31) << 20 | (word >> 12 & 0xFF) << 12
                                | (word >> 20 & 1) << 11 | (word >> 21 & 0x3FF) << 1, 21)) & MASK
            cls = "jump"
        elif op == 0x67 and f3 == 0:
            self._set(rd, nxt)
            nxt = (a + imm_i) & MASK & ~1
            cls = "jump"
        elif op == 0x63 and f3 not in (2, 3):
            sa, sb = _signed(a), _signed(b)
            taken = (a == b, a != b, None, None, sa < sb, sa >= sb, a < b, a >= b)[f3]
            if taken:
                nxt = (pc + _signed((word >> 31) << 12 | (word >> 7 & 1) << 11
                                    | (word >> 25 & 0x3F) << 5 | (word >> 8 & 0xF) << 1, 13)) & MASK
            cls = "branch_taken" if taken else "branch_not_taken"
        elif op == 0x03 and f3 in (0, 1, 2, 4, 5):
            return self._memory(pc, nxt, (a + imm_i) & MASK, 1 << (f3 & 3),
                                lambda v: self._set(rd, v), f3 < 4)
        elif op == 0x23 and f3 < 3:
            return self._memory(pc, nxt, (a + _signed(f7 << 5 | rd, 12)) & MASK,
                                1 << f3, None, b)
        elif op == 0x0F and f3 == 0:
            cls = "system"
        elif word == 0x0000_0073:
            self.sram[WORDS - 1] = self.x[17]
            self.halted, cls = True, "system"
        elif word == 0x0010_0073:
            self.halted, cls = True, "system"
        else:
            self.fault = ("illegal", pc)
            return
        self.retired += 1
        self.classes.append(cls)
        self.pc = nxt

    def _memory(self, pc, nxt, addr, width, write_back, signed_or_value):
        """A load (``write_back`` set, ``signed_or_value`` = sign-extend)
        or a store of ``signed_or_value``, ``width`` bytes at ``addr``."""
        self.retired += 1
        if addr % width:
            self.fault = ("misaligned", pc)
            return
        self.pc = nxt
        shift = 8 * (addr & 3)
        lane = (1 << 8 * width) - 1
        try:
            if write_back is None:
                self._store_word(addr & ~3, (signed_or_value & lane) << shift, lane << shift)
                self.classes.append("store")
                return
            value = self._load_word(addr & ~3) >> shift & lane
        except _BusError:
            self.fault = ("bus", pc)
            return
        write_back(_signed(value, 8 * width) if signed_or_value else value)
        self.classes.append("load")


def _alu(f3, a, b, alt):
    """The OP/OP-IMM function ``f3`` of two unsigned 32-bit operands;
    ``alt`` selects sub and sra."""
    if f3 == 0:
        return a - b if alt else a + b
    if f3 == 1:
        return a << (b & 31)
    if f3 == 2:
        return int(_signed(a) < _signed(b))
    if f3 == 3:
        return int(a < b)
    if f3 == 4:
        return a ^ b
    if f3 == 5:
        return _signed(a) >> (b & 31) if alt else a >> (b & 31)
    return a | b if f3 == 6 else a & b
