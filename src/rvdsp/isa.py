"""RV32I + MUL-family instruction encoding, decoding, disassembly.

Decoded form is canonical: fields a format does not use are zero, and
`decode(encode(i)) == i` for every representable instruction.
Immediates are stored as signed semantic values (U-type immediates keep
their low 12 bits zero; branch/jump immediates are byte offsets).
"""

from __future__ import annotations

import enum

from .bits import Record, sext, u32


class CostClass(enum.Enum):
    ALU = "alu"
    MUL = "mul"
    LOAD = "load"
    STORE = "store"
    BRANCH_TAKEN = "branch_taken"
    BRANCH_NOT_TAKEN = "branch_not_taken"
    JUMP = "jump"
    SYSTEM = "system"


class IllegalInstructionError(Exception):
    def __init__(self, word, reason="unsupported encoding"):
        self.word = u32(word)
        super().__init__(f"illegal instruction 0x{self.word:08x}: {reason}")


class EncodingError(Exception):
    """Instruction field outside its encodable range."""


class DecodedInstruction(Record):
    def __init__(self, mnemonic, rd=0, rs1=0, rs2=0, imm=0):
        self.mnemonic: str = mnemonic
        self.rd: int = rd
        self.rs1: int = rs1
        self.rs2: int = rs2
        self.imm: int = imm


# funct3 / funct7 tables per format
_R_OPS = {
    "add": (0b000, 0b0000000), "sub": (0b000, 0b0100000),
    "sll": (0b001, 0b0000000), "slt": (0b010, 0b0000000),
    "sltu": (0b011, 0b0000000), "xor": (0b100, 0b0000000),
    "srl": (0b101, 0b0000000), "sra": (0b101, 0b0100000),
    "or": (0b110, 0b0000000), "and": (0b111, 0b0000000),
    "mul": (0b000, 0b0000001), "mulh": (0b001, 0b0000001),
    "mulhsu": (0b010, 0b0000001), "mulhu": (0b011, 0b0000001),
}
_I_ARITH = {"addi": 0b000, "slti": 0b010, "sltiu": 0b011,
            "xori": 0b100, "ori": 0b110, "andi": 0b111}
_SHIFTS = {"slli": (0b001, 0b0000000), "srli": (0b101, 0b0000000),
           "srai": (0b101, 0b0100000)}
_LOADS = {"lb": 0b000, "lh": 0b001, "lw": 0b010, "lbu": 0b100, "lhu": 0b101}
_STORES = {"sb": 0b000, "sh": 0b001, "sw": 0b010}
_BRANCHES = {"beq": 0b000, "bne": 0b001, "blt": 0b100,
             "bge": 0b101, "bltu": 0b110, "bgeu": 0b111}

_R_REV = {v: k for k, v in _R_OPS.items()}
_I_REV = {v: k for k, v in _I_ARITH.items()}
_LOAD_REV = {v: k for k, v in _LOADS.items()}
_STORE_REV = {v: k for k, v in _STORES.items()}
_BRANCH_REV = {v: k for k, v in _BRANCHES.items()}

MNEMONICS = (
    tuple(_R_OPS) + tuple(_I_ARITH) + tuple(_SHIFTS) + tuple(_LOADS)
    + tuple(_STORES) + tuple(_BRANCHES)
    + ("jalr", "jal", "lui", "auipc", "fence", "ecall", "ebreak")
)


def _check_reg(name, value):
    if not 0 <= value <= 31:
        raise EncodingError(f"{name} out of range: {value}")


def _check_imm(value, bits, name="immediate"):
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if not lo <= value <= hi:
        raise EncodingError(f"{name} {value} does not fit {bits}-bit signed range")


def encode(instr):
    """Encode a canonical DecodedInstruction into a 32-bit word."""
    m, rd, rs1, rs2, imm = (instr.mnemonic, instr.rd, instr.rs1,
                            instr.rs2, instr.imm)
    _check_reg("rd", rd)
    _check_reg("rs1", rs1)
    _check_reg("rs2", rs2)

    if m in _R_OPS:
        f3, f7 = _R_OPS[m]
        return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | 0x33
    if m in _I_ARITH:
        _check_imm(imm, 12)
        return (u32(imm) & 0xFFF) << 20 | (rs1 << 15) | (_I_ARITH[m] << 12) | (rd << 7) | 0x13
    if m in _SHIFTS:
        if not 0 <= imm <= 31:
            raise EncodingError(f"shift amount out of range: {imm}")
        f3, f7 = _SHIFTS[m]
        return (f7 << 25) | (imm << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | 0x13
    if m in _LOADS:
        _check_imm(imm, 12)
        return (u32(imm) & 0xFFF) << 20 | (rs1 << 15) | (_LOADS[m] << 12) | (rd << 7) | 0x03
    if m == "jalr":
        _check_imm(imm, 12)
        return (u32(imm) & 0xFFF) << 20 | (rs1 << 15) | (rd << 7) | 0x67
    if m in _STORES:
        _check_imm(imm, 12)
        i = u32(imm) & 0xFFF
        return ((i >> 5) << 25) | (rs2 << 20) | (rs1 << 15) | (_STORES[m] << 12) | ((i & 0x1F) << 7) | 0x23
    if m in _BRANCHES:
        _check_imm(imm, 13)
        if imm % 2:
            raise EncodingError("branch offset must be even")
        i = u32(imm) & 0x1FFF
        return (((i >> 12) & 1) << 31) | (((i >> 5) & 0x3F) << 25) | (rs2 << 20) \
            | (rs1 << 15) | (_BRANCHES[m] << 12) | (((i >> 1) & 0xF) << 8) \
            | (((i >> 11) & 1) << 7) | 0x63
    if m in ("lui", "auipc"):
        if imm & 0xFFF:
            raise EncodingError("U-type immediate must have low 12 bits clear")
        _check_imm(imm >> 12, 20, "U-type immediate")
        opcode = 0x37 if m == "lui" else 0x17
        return (u32(imm) & 0xFFFF_F000) | (rd << 7) | opcode
    if m == "jal":
        _check_imm(imm, 21)
        if imm % 2:
            raise EncodingError("jump offset must be even")
        i = u32(imm) & 0x1F_FFFF
        return (((i >> 20) & 1) << 31) | (((i >> 1) & 0x3FF) << 21) \
            | (((i >> 11) & 1) << 20) | (((i >> 12) & 0xFF) << 12) | (rd << 7) | 0x6F
    if m == "fence":
        if not 0 <= imm <= 0xFFF:
            raise EncodingError("fence field out of range")
        return (imm << 20) | (rs1 << 15) | (rd << 7) | 0x0F
    if m == "ecall":
        return 0x0000_0073
    if m == "ebreak":
        return 0x0010_0073
    raise EncodingError(f"unknown mnemonic {m!r}")


def decode(word):
    """Decode a 32-bit word; raises IllegalInstructionError otherwise."""
    word = u32(word)
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    f3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    f7 = (word >> 25) & 0x7F

    if opcode == 0x33:
        m = _R_REV.get((f3, f7))
        if m is None:
            raise IllegalInstructionError(word, "bad R-type funct")
        return DecodedInstruction(m, rd=rd, rs1=rs1, rs2=rs2)
    if opcode == 0x13:
        if f3 in (0b001, 0b101):
            shamt = rs2
            for m, (sf3, sf7) in _SHIFTS.items():
                if sf3 == f3 and sf7 == f7:
                    return DecodedInstruction(m, rd=rd, rs1=rs1, imm=shamt)
            raise IllegalInstructionError(word, "bad shift funct7")
        m = _I_REV.get(f3)
        return DecodedInstruction(m, rd=rd, rs1=rs1, imm=sext(word >> 20, 12))
    if opcode == 0x03:
        m = _LOAD_REV.get(f3)
        if m is None:
            raise IllegalInstructionError(word, "bad load width")
        return DecodedInstruction(m, rd=rd, rs1=rs1, imm=sext(word >> 20, 12))
    if opcode == 0x67:
        if f3 != 0:
            raise IllegalInstructionError(word, "bad jalr funct3")
        return DecodedInstruction("jalr", rd=rd, rs1=rs1, imm=sext(word >> 20, 12))
    if opcode == 0x23:
        m = _STORE_REV.get(f3)
        if m is None:
            raise IllegalInstructionError(word, "bad store width")
        imm = sext((f7 << 5) | rd, 12)
        return DecodedInstruction(m, rs1=rs1, rs2=rs2, imm=imm)
    if opcode == 0x63:
        m = _BRANCH_REV.get(f3)
        if m is None:
            raise IllegalInstructionError(word, "bad branch funct3")
        imm = (((word >> 31) & 1) << 12) | (((word >> 7) & 1) << 11) \
            | (((word >> 25) & 0x3F) << 5) | (((word >> 8) & 0xF) << 1)
        return DecodedInstruction(m, rs1=rs1, rs2=rs2, imm=sext(imm, 13))
    if opcode == 0x37:
        return DecodedInstruction("lui", rd=rd, imm=sext(word & 0xFFFF_F000, 32))
    if opcode == 0x17:
        return DecodedInstruction("auipc", rd=rd, imm=sext(word & 0xFFFF_F000, 32))
    if opcode == 0x6F:
        imm = (((word >> 31) & 1) << 20) | (((word >> 12) & 0xFF) << 12) \
            | (((word >> 20) & 1) << 11) | (((word >> 21) & 0x3FF) << 1)
        return DecodedInstruction("jal", rd=rd, imm=sext(imm, 21))
    if opcode == 0x0F:
        if f3 != 0:
            raise IllegalInstructionError(word, "bad fence funct3")
        return DecodedInstruction("fence", rd=rd, rs1=rs1, imm=word >> 20)
    if opcode == 0x73:
        if word == 0x0000_0073:
            return DecodedInstruction("ecall")
        if word == 0x0010_0073:
            return DecodedInstruction("ebreak")
        raise IllegalInstructionError(word, "unsupported system instruction")
    raise IllegalInstructionError(word, f"unsupported opcode 0x{opcode:02x}")


def cost_class(instr, taken=False):
    m = instr.mnemonic
    if m in _LOADS:
        return CostClass.LOAD
    if m in _STORES:
        return CostClass.STORE
    if m in ("mul", "mulh", "mulhsu", "mulhu"):
        return CostClass.MUL
    if m in _BRANCHES:
        return CostClass.BRANCH_TAKEN if taken else CostClass.BRANCH_NOT_TAKEN
    if m in ("jal", "jalr"):
        return CostClass.JUMP
    if m in ("fence", "ecall", "ebreak"):
        return CostClass.SYSTEM
    return CostClass.ALU


def disassemble(instr):
    m, rd, rs1, rs2, imm = (instr.mnemonic, instr.rd, instr.rs1,
                            instr.rs2, instr.imm)
    if m in _R_OPS:
        return f"{m} x{rd}, x{rs1}, x{rs2}"
    if m in _I_ARITH or m in _SHIFTS:
        return f"{m} x{rd}, x{rs1}, {imm}"
    if m in _LOADS or m == "jalr":
        return f"{m} x{rd}, {imm}(x{rs1})"
    if m in _STORES:
        return f"{m} x{rs2}, {imm}(x{rs1})"
    if m in _BRANCHES:
        return f"{m} x{rs1}, x{rs2}, {imm}"
    if m in ("lui", "auipc"):
        return f"{m} x{rd}, 0x{u32(imm) >> 12:x}"
    if m == "jal":
        return f"jal x{rd}, {imm}"
    if m == "fence":
        return "fence"
    return m


def listing(words, base=0):
    """Disassembly listing, one `ADDR: WORD  MNEMONIC operands` per line."""
    lines = []
    for i, word in enumerate(words):
        addr = base + 4 * i
        try:
            text = disassemble(decode(word))
        except IllegalInstructionError:
            text = ".word (illegal)"
        lines.append(f"{addr:08X}: {u32(word):08X}  {text}")
    return "\n".join(lines)
