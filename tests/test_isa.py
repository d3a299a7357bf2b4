import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvdsp.isa import (DecodedInstruction, EncodingError,
                       IllegalInstructionError, MNEMONICS, CostClass,
                       cost_class, decode, disassemble, encode, listing)

regs = st.integers(0, 31)


def instruction_strategy():
    """Random valid instructions, canonical per format."""
    def build(m):
        if m in ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra",
                 "or", "and", "mul", "mulh", "mulhsu", "mulhu"):
            return st.builds(lambda rd, rs1, rs2: DecodedInstruction(m, rd=rd, rs1=rs1, rs2=rs2),
                             regs, regs, regs)
        if m in ("addi", "slti", "sltiu", "xori", "ori", "andi", "jalr",
                 "lb", "lh", "lw", "lbu", "lhu"):
            return st.builds(lambda rd, rs1, imm: DecodedInstruction(m, rd=rd, rs1=rs1, imm=imm),
                             regs, regs, st.integers(-2048, 2047))
        if m in ("slli", "srli", "srai"):
            return st.builds(lambda rd, rs1, imm: DecodedInstruction(m, rd=rd, rs1=rs1, imm=imm),
                             regs, regs, st.integers(0, 31))
        if m in ("sb", "sh", "sw"):
            return st.builds(lambda rs1, rs2, imm: DecodedInstruction(m, rs1=rs1, rs2=rs2, imm=imm),
                             regs, regs, st.integers(-2048, 2047))
        if m in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            return st.builds(lambda rs1, rs2, imm: DecodedInstruction(m, rs1=rs1, rs2=rs2, imm=2 * imm),
                             regs, regs, st.integers(-2048, 2047))
        if m in ("lui", "auipc"):
            return st.builds(lambda rd, hi: DecodedInstruction(m, rd=rd, imm=hi << 12),
                             regs, st.integers(-(1 << 19), (1 << 19) - 1))
        if m == "jal":
            return st.builds(lambda rd, imm: DecodedInstruction(m, rd=rd, imm=2 * imm),
                             regs, st.integers(-(1 << 19), (1 << 19) - 1))
        if m == "fence":
            return st.builds(lambda imm: DecodedInstruction(m, imm=imm),
                             st.integers(0, 0xFFF))
        return st.just(DecodedInstruction(m))

    return st.sampled_from(MNEMONICS).flatmap(build)


class TestRoundtrip:
    def test_add_zero(self):
        assert decode(0x0000_0033) == DecodedInstruction("add")

    def test_nop(self):
        assert encode(DecodedInstruction("addi")) == 0x0000_0013

    def test_addi_example(self):
        instr = DecodedInstruction("addi", rd=1, rs1=0, imm=5)
        assert decode(encode(instr)) == instr

    @given(instruction_strategy())
    @settings(max_examples=200)
    def test_roundtrip_equality_tells_every_field_apart(self, instr):
        fields = {name: getattr(instr, name) for name in DecodedInstruction._fields}
        assert decode(encode(instr)) == DecodedInstruction(**fields)
        for name, value in fields.items():
            other = "nop" if name == "mnemonic" else value + 1
            assert decode(encode(instr)) != DecodedInstruction(**{**fields, name: other})
        assert instr != tuple(fields.values())

    @given(instruction_strategy())
    @settings(max_examples=500)
    def test_bijective(self, instr):
        word = encode(instr)
        assert decode(word) == instr
        assert encode(decode(word)) == word


class TestErrors:
    def test_custom_opcode_is_illegal(self):
        with pytest.raises(IllegalInstructionError):
            decode(0x0000_000B)  # custom-0 opcode

    def test_zero_word_is_illegal(self):
        with pytest.raises(IllegalInstructionError):
            decode(0)

    def test_addi_range(self):
        with pytest.raises(EncodingError):
            encode(DecodedInstruction("addi", rd=1, imm=4096))

    def test_branch_offset_must_be_even(self):
        with pytest.raises(EncodingError):
            encode(DecodedInstruction("beq", imm=3))

    def test_lui_low_bits(self):
        with pytest.raises(EncodingError):
            encode(DecodedInstruction("lui", rd=1, imm=0x123))

    @pytest.mark.parametrize("word, reason", [
        (0x4000_1013, "bad shift funct7"),  # slli with srai's funct7
        (0x0000_3003, "bad load width"),  # RV64 ld
        (0x0000_1067, "bad jalr funct3"),
        (0x0000_3023, "bad store width"),  # RV64 sd
        (0x0000_2063, "bad branch funct3"),
        (0x0000_100F, "bad fence funct3"),  # fence.i
    ])
    def test_bad_funct_is_illegal(self, word, reason):
        with pytest.raises(IllegalInstructionError,
                           match=f"illegal instruction 0x{word:08x}: {reason}"):
            decode(word)

    @pytest.mark.parametrize("instr, message", [
        (DecodedInstruction("add", rd=32), "rd out of range: 32"),
        (DecodedInstruction("slli", rd=1, imm=32), "shift amount out of range: 32"),
        (DecodedInstruction("jal", imm=3), "jump offset must be even"),
        (DecodedInstruction("fence", imm=0x1000), "fence field out of range"),
        (DecodedInstruction("nop"), "unknown mnemonic 'nop'"),
    ])
    def test_field_out_of_range(self, instr, message):
        with pytest.raises(EncodingError, match=message):
            encode(instr)


class TestCostClasses:
    @pytest.mark.parametrize("m,cls", [
        ("add", CostClass.ALU), ("mul", CostClass.MUL),
        ("lw", CostClass.LOAD), ("sw", CostClass.STORE),
        ("jal", CostClass.JUMP), ("ebreak", CostClass.SYSTEM),
    ])
    def test_classes(self, m, cls):
        assert cost_class(DecodedInstruction(m)) is cls

    def test_branch_depends_on_outcome(self):
        beq = DecodedInstruction("beq")
        assert cost_class(beq, taken=True) is CostClass.BRANCH_TAKEN
        assert cost_class(beq, taken=False) is CostClass.BRANCH_NOT_TAKEN


class TestDisassembly:
    def test_listing_format(self):
        words = [encode(DecodedInstruction("addi", rd=1, imm=7)),
                 encode(DecodedInstruction("ebreak"))]
        lines = listing(words, base=0).splitlines()
        assert lines[0] == "00000000: 00700093  addi x1, x0, 7"
        assert lines[1].startswith("00000004: 00100073  ebreak")

    def test_listing_of_each_operand_form(self):
        words = [encode(DecodedInstruction("add", rd=3, rs1=1, rs2=2)),
                 encode(DecodedInstruction("beq", rs1=1, rs2=2, imm=-8)),
                 encode(DecodedInstruction("lui", rd=5, imm=0x12345 << 12)),
                 encode(DecodedInstruction("jal", rd=1, imm=16)),
                 encode(DecodedInstruction("fence", imm=0x0FF))]
        assert listing(words, base=0x100).splitlines() == [
            "00000100: 002081B3  add x3, x1, x2",
            "00000104: FE208CE3  beq x1, x2, -8",
            "00000108: 123452B7  lui x5, 0x12345",
            "0000010C: 010000EF  jal x1, 16",
            "00000110: 0FF0000F  fence",
        ]

    def test_load_store_operands(self):
        assert disassemble(DecodedInstruction("lw", rd=2, rs1=3, imm=8)) == "lw x2, 8(x3)"
        assert disassemble(DecodedInstruction("sw", rs1=3, rs2=2, imm=-4)) == "sw x2, -4(x3)"
