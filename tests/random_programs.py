"""Hypothesis strategies for random RV32IM programs (``rv_programs``),
which always terminate, and for strided loop nests (``strided_loops``),
which may run until the cycle budget.

Each random program holds every mnemonic of ``isa.MNEMONICS`` at least once,
with random registers and immediates. Control flow is forward branches
and jumps inside a block, plus bounded backward loops counted in x31.
Loads and stores of every width address a small DataMem window through
x1, and loads also read the program's ROM words through x0. The program
ends in ``ebreak`` or ``ecall``, or in a fault: a misaligned access, an
illegal word, a bus error or a bad fetch.
"""

import random
from array import array

from hypothesis import strategies as st

from rvdsp.isa import MNEMONICS, encode
from rvdsp.memmap import DATA_BASE
from rvdsp.programs import Assembler, I

BASE = 1    # holds DATA_BASE + 0x400: loads and stores reach DataMem through it
LOOP = 31   # counts the iterations of a backward loop
_BASE_ADDR = DATA_BASE + 0x400
_DEST = [0] + list(range(2, 31))  # x1 and x31 are never written by a random op
_WIDTH = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "sb": 1, "sh": 2, "sw": 4}
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
_BODY = [m for m in MNEMONICS if m not in ("ecall", "ebreak")]
_EDGES = (0, 1, 2, 31, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF)
# words the core does not decode: zero, all ones, div, fence.i, csrrw
_ILLEGAL_WORDS = (0x0000_0000, 0xFFFF_FFFF, 0x0231_40B3, 0x0000_100F, 0x3401_1073)
_ENDINGS = ("ebreak", "ecall", "misaligned", "illegal", "bus", "fetch")


def assert_sram_words(words):
    """Every SRAM word is an int in [0, 2**32): the range the 32-bit
    unsigned array views of the MAC datapath accept (they raise
    OverflowError outside it)."""
    assert array("I").itemsize == array("i").itemsize == 4
    assert all(type(w) is int and 0 <= w < 1 << 32 for w in words)


def _access_imm(rng, width):
    """An offset from x1 aligned to `width`, in a 128-byte window, so that
    loads often read what earlier stores wrote."""
    return width * rng.randint(-64 // width, 60 // width)


def _op(rng, m):
    """One random instruction for mnemonic `m` as a list of items: an
    instruction, or ``(instruction, skip)`` for a forward jump over `skip`
    ops, whose offset is fixed once the block is known."""
    rd = rng.choice(_DEST)
    rs1, rs2 = rng.randrange(32), rng.randrange(32)
    if m in _WIDTH and m[0] == "l":
        if rng.randrange(2):
            return [I(m, rd=rd, rs1=BASE, imm=_access_imm(rng, _WIDTH[m]))]
        return [I(m, rd=rd, imm=_WIDTH[m] * rng.randint(0, 252 // _WIDTH[m]))]
    if m in _WIDTH:
        return [I(m, rs1=BASE, rs2=rs2, imm=_access_imm(rng, _WIDTH[m]))]
    skip = rng.randint(0, 4)
    if m in _BRANCHES:
        return [(I(m, rs1=rs1, rs2=rs2), skip)]
    if m == "jal":
        return [(I(m, rd=rd), skip)]
    if m == "jalr":
        # auipc gives the pair's own address; bit 0 of the offset is dropped
        link = rng.randint(2, 30)
        return [I("auipc", rd=link), (I(m, rd=rd, rs1=link, imm=rng.randint(0, 1)), skip)]
    if m in ("slli", "srli", "srai"):
        return [I(m, rd=rd, rs1=rs1, imm=rng.randint(0, 31))]
    if m in ("lui", "auipc"):
        return [I(m, rd=rd, imm=rng.randint(-(1 << 19), (1 << 19) - 1) << 12)]
    if m == "fence":
        return [I(m, imm=rng.randint(0, 0xFF))]
    if m in ("addi", "slti", "sltiu", "xori", "ori", "andi"):
        return [I(m, rd=rd, rs1=rs1, imm=rng.randint(-2048, 2047))]
    return [I(m, rd=rd, rs1=rs1, rs2=rs2)]


def _block(ops):
    """Resolve a block's forward jumps. A jump lands on the start of a
    later op, never inside an auipc/jalr pair, and at most on the
    instruction right after the block."""
    starts = [0]
    for op in ops:
        starts.append(starts[-1] + len(op))
    out = []
    for idx, op in enumerate(ops):
        for item in op:
            if isinstance(item, tuple):
                instr, skip = item
                offset = 4 * (starts[min(idx + 1 + skip, len(ops))] - len(out))
                if instr.mnemonic == "jalr":  # relative to the auipc before it
                    offset += 4 + instr.imm
                item = I(instr.mnemonic, rd=instr.rd, rs1=instr.rs1, imm=offset,
                         rs2=instr.rs2)
            out.append(item)
    return out


def _ending(rng, kind):
    if kind in ("ebreak", "ecall"):
        return [I(kind)]
    if kind == "illegal":
        return [rng.choice(_ILLEGAL_WORDS)]
    rd, rs2 = rng.choice(_DEST), rng.randrange(32)
    if kind == "misaligned":
        m = rng.choice(["lh", "lhu", "lw", "sh", "sw"])
        imm = _access_imm(rng, 4) + rng.randint(1, _WIDTH[m] - 1)
        return [I(m, rd=rd, rs1=BASE, rs2=rs2, imm=imm)]
    if kind == "bus":
        m = rng.choice(["lw", "lbu", "sw", "sb"])
        # loads below address 0 wrap to unmapped space, stores land in ROM
        imm = -4 * rng.randint(1, 512) if m[0] == "l" else 4 * rng.randint(0, 511)
        return [I(m, rd=rd, rs2=rs2, imm=imm)]
    target = rng.choice([0x0000_0002, 0x0000_8000, 0x0100_0000])
    return [I("lui", rd=2, imm=target & ~0xFFF), I("jalr", rs1=2, imm=target & 0xFFF)]


@st.composite
def rv_programs(draw):
    """A program's ROM words: a prologue that sets x1 and random values
    in some registers, blocks that are straight code or bounded loops, and
    an ending. Hypothesis draws the structure; each op's fields
    come from a seeded ``random.Random``, which keeps generation fast."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="field seed"))
    asm = Assembler()
    asm.li(BASE, _BASE_ADDR)
    for rd in rng.sample(_DEST[1:], rng.randint(0, 20)):
        asm.li(rd, rng.choice(_EDGES) if rng.randrange(4) == 0 else rng.getrandbits(32))
    mnemonics = draw(st.permutations(_BODY)) + draw(
        st.lists(st.sampled_from(_BODY), max_size=12))
    while mnemonics:
        size = draw(st.integers(1, 12))
        body = _block([_op(rng, m) for m in mnemonics[:size]])
        mnemonics = mnemonics[size:]
        loops = draw(st.integers(0, 4), label="loop count")
        if not loops:
            asm.emit(*body)
            continue
        asm.emit(I("addi", rd=LOOP, imm=loops), *body,
                 I("addi", rd=LOOP, rs1=LOOP, imm=-1),
                 I("bne", rs1=LOOP, imm=-4 * (len(body) + 1)))
    ending = _ending(rng, draw(st.sampled_from(_ENDINGS)))
    return asm.words() + [w if isinstance(w, int) else encode(w) for w in ending]


# Strided loop nests: pointers that move by a fixed stride each pass, as
# the software conv kernel's do, with a counter tested against x0 or a
# bound register that no op in the loop writes.
POINTERS = (9, 10, 11)
_COUNTER, _BOUND, _OUTER, _FIXED = 13, 15, 12, 20
_STRIDES = {4: (-8, -4, 4, 8), 2: (-8, -4, -2, 0, 2, 4, 8), 1: (-8, -4, -2, -1, 0, 1, 2, 4, 8)}
_LOAD = {4: "lw", 2: "lh", 1: "lbu"}
_STORE = {4: "sw", 2: "sh", 1: "sb"}
_DATA = (5, 6, 7, 8)


def _counter(draw):
    """The counter's set-up, its step and the loop's branch as
    (set-up instructions, step instruction, (mnemonic, rs1, rs2)); some
    counters never meet their bound and run until the budget."""
    kind = draw(st.sampled_from(["bne", "blt", "bltu", "bge", "bgeu"]), label="branch")
    step = draw(st.sampled_from([1, 2]), label="counter step")
    start = draw(st.integers(-6, 20), label="counter start")
    setup = Assembler()
    setup.li(_COUNTER, start)
    if kind == "bne":  # down to x0, or past it from an odd start with step 2
        return setup.instructions(), -step, (kind, _COUNTER, 0)
    span = draw(st.integers(-2, 16), label="bound distance")
    swapped = draw(st.booleans(), label="bound first")
    # blt/bltu go on while below the bound, bge/bgeu while at or above it;
    # with the bound first the counter moves the other way
    below = kind in ("blt", "bltu")
    up = below != swapped
    setup.li(_BOUND, start + span if up else start - span)
    operands = (_BOUND, _COUNTER) if swapped else (_COUNTER, _BOUND)
    return setup.instructions(), step if up else -step, (kind, *operands)


@st.composite
def strided_loops(draw, anchors):
    """ROM words of a one- or two-level loop nest whose inner loop moves one
    to three pointers, each starting near one of the byte addresses
    `anchors` (an end of DataMem, a guarded word), by its own stride each
    pass, and loads and stores through them; a store may write a word that
    a later pass loads. An outer loop runs up to 8 passes, and its head may
    load a word through one of the pointers. The nest ends in ebreak,
    unless an access faults or the counter never meets its bound."""
    asm = Assembler()
    body = []
    # word loads through pointers that move up, and word stores through a
    # fixed register only: the shape whose checks a block may hoist
    plain = draw(st.booleans(), label="plain")

    def start(width):
        return draw(st.sampled_from(anchors), label="anchor") + width * draw(
            st.integers(-12, 12), label="start")
    pointers = POINTERS[:draw(st.integers(1, 3), label="pointers")]
    for reg in pointers:
        width = 4 if plain else draw(st.sampled_from([4, 4, 2, 1]), label="width")
        stride = draw(st.sampled_from((4, 8) if plain else _STRIDES[width]), label="stride")
        first = start(width)
        if draw(st.integers(0, 19), label="misaligned") == 0:
            first += 1
        asm.li(reg, first)
        step = I("addi", rd=reg, rs1=reg, imm=stride)
        if stride and not plain and draw(st.booleans(), label="store for the next pass"):
            # each pass loads the word the pass before stored
            body += [I(_LOAD[width], rd=5, rs1=reg), I(_STORE[width], rs1=reg, rs2=8,
                                                      imm=stride), step]
            continue
        ops = [step]
        for _ in range(draw(st.integers(1, 2), label="accesses")):
            imm = width * draw(st.integers(-2, 2), label="offset")
            if not plain and draw(st.booleans(), label="store"):
                ops.append(I(_STORE[width], rs1=reg, rs2=draw(st.sampled_from(_DATA)),
                             imm=imm))
            else:
                ops.append(I(_LOAD[width], rd=draw(st.sampled_from(_DATA[:3])), rs1=reg,
                             imm=imm))
        body += draw(st.permutations(ops), label="pointer ops")
    if draw(st.booleans(), label="fixed word"):
        # a store to a fixed word, which a pointer may reach in a later pass
        asm.li(_FIXED, start(4))
        body += draw(st.permutations([I("sw", rs1=_FIXED, rs2=8),
                                      I("lw", rd=7, rs1=_FIXED, imm=4)]), label="fixed ops")
    body.append(I("add", rd=8, rs1=8, rs2=5))
    setup, step, (branch, rs1, rs2) = _counter(draw)
    body.insert(draw(st.integers(0, len(body)), label="counter position"),
                I("addi", rd=_COUNTER, rs1=_COUNTER, imm=step))
    outer = draw(st.integers(0, 8), label="outer passes")
    if outer:
        asm.li(_OUTER, outer)
        asm.label("outer")
        if draw(st.booleans(), label="head load"):
            # a word load in the outer loop's head, whose check a block keeps
            asm.emit(I("lw", rd=draw(st.sampled_from(_DATA), label="head rd"),
                       rs1=draw(st.sampled_from(pointers), label="head base"),
                       imm=4 * draw(st.integers(-2, 2), label="head offset")))
    asm.emit(*setup)
    asm.label("inner")
    asm.emit(*body)
    asm.branch(branch, rs1, rs2, "inner")
    if outer:
        for reg in POINTERS[:draw(st.integers(0, 3), label="rewound pointers")]:
            asm.emit(I("addi", rd=reg, rs1=reg, imm=4 * draw(st.integers(-8, 8),
                                                              label="rewind")))
        asm.emit(I("sw", rs1=9, rs2=8, imm=4 * draw(st.integers(-2, 2), label="outer store")),
                 I("addi", rd=_OUTER, rs1=_OUTER, imm=-1))
        asm.branch("bne", _OUTER, 0, "outer")
    asm.emit(I("ebreak"))
    return asm.words()
