"""Global address map, instruction ROM, and data SRAM.

The 32-bit address space is split into five fixed regions; everything
else is unmapped.  Both memories are 32 KB (8192 words), single-port,
zero-initialized, and serviced in one cycle per access.
"""

from __future__ import annotations

import enum

from .bits import MASK32, u32

INST_BASE = 0x0000_0000
INST_END = 0x0000_7FFF
DATA_BASE = 0x0000_8000
DATA_END = 0x0000_FFFF
CONV_BASE = 0x0100_0000
CONV_END = 0x0100_00FF
DOT_BASE = 0x0100_0100
DOT_END = 0x0100_01FF
RESERVED_BASE = 0x0100_0200
RESERVED_END = 0x0100_02FF

MEM_WORDS = 8192  # 32 KB per memory


class Region(enum.Enum):
    INST_MEM = "inst_mem"
    DATA_MEM = "data_mem"
    CONV_REGS = "conv_regs"
    DOT_REGS = "dot_regs"
    RESERVED = "reserved"
    UNMAPPED = "unmapped"


_REGIONS = (
    (INST_BASE, INST_END, Region.INST_MEM),
    (DATA_BASE, DATA_END, Region.DATA_MEM),
    (CONV_BASE, CONV_END, Region.CONV_REGS),
    (DOT_BASE, DOT_END, Region.DOT_REGS),
    (RESERVED_BASE, RESERVED_END, Region.RESERVED),
)


class MisalignedAddressError(Exception):
    """Bus-level access whose byte address is not word-aligned."""

    def __init__(self, addr):
        self.addr = addr
        super().__init__(f"misaligned bus address 0x{addr:08x}")


class MemoryAccessError(Exception):
    """Out-of-range or otherwise invalid memory access."""


def decode_address(addr):
    """Map a word-aligned byte address to (Region, region-local offset)."""
    addr = u32(addr)
    if addr % 4 != 0:
        raise MisalignedAddressError(addr)
    for base, end, region in _REGIONS:
        if base <= addr <= end:
            return region, addr - base
    return Region.UNMAPPED, addr


def buffer_in_datamem(base, length_words):
    """True iff [base, base+4*length_words) is aligned and inside DataMem."""
    if base % 4 != 0:
        return False
    if length_words == 0:
        return True
    return DATA_BASE <= base and base + 4 * length_words - 1 <= DATA_END


class Rom:
    """Single-port 32 KB instruction ROM; writable only through load().

    ``decoded`` holds the CPU's predecoded entry of each word, filled on
    the word's first fetch; load() clears the entries of the words it
    writes.  ``blocks`` maps a pc to the CPU's translated block there
    (``Cpu._translate``); load() clears it all, since a block spans words.
    """

    def __init__(self):
        self.words = [0] * MEM_WORDS
        self.decoded = [None] * MEM_WORDS
        self.blocks = {}

    def load(self, words, word_offset=0):
        end = word_offset + len(words)
        if end > MEM_WORDS:
            raise MemoryAccessError("ROM image does not fit")
        self.words[word_offset:end] = [u32(w) for w in words]
        self.decoded[word_offset:end] = [None] * len(words)
        self.blocks.clear()

    def read_word(self, byte_offset):
        idx = byte_offset >> 2
        if byte_offset % 4 != 0:
            raise MisalignedAddressError(INST_BASE + byte_offset)
        if not 0 <= idx < MEM_WORDS:
            raise MemoryAccessError(f"ROM read out of range: offset 0x{byte_offset:x}")
        return self.words[idx]


class Sram:
    """Single-port 32 KB data SRAM; word reads/writes with byte strobes."""

    def __init__(self):
        self.words = [0] * MEM_WORDS

    def _index(self, byte_offset):
        if byte_offset % 4 != 0:
            raise MisalignedAddressError(DATA_BASE + byte_offset)
        idx = byte_offset >> 2
        if not 0 <= idx < MEM_WORDS:
            raise MemoryAccessError("SRAM access out of range: address "
                                    f"0x{u32(DATA_BASE + byte_offset):08x}")
        return idx

    def read_word(self, byte_offset):
        return self.words[self._index(byte_offset)]

    def read_words(self, byte_offset, count):
        """`count` words from `byte_offset` on, checked as read_word checks
        each of them."""
        if not count:
            return []
        idx = self._span(byte_offset, count)
        return self.words[idx:idx + count]

    def write_words(self, byte_offset, words):
        """Write `words` from `byte_offset` on, checked as write_word checks
        each of them; nothing is written if one of them fails the check."""
        if words:
            idx = self._span(byte_offset, len(words))
            self.words[idx:idx + len(words)] = [w & MASK32 for w in words]

    def _span(self, byte_offset, count):
        """Index of the first of `count` words, raising the error that the
        first bad word would raise in read_word/write_word."""
        idx = self._index(byte_offset)
        if idx + count > MEM_WORDS:
            self._index(4 * MEM_WORDS)
        return idx

    def write_word(self, byte_offset, value, strobe=0b1111):
        idx = self._index(byte_offset)
        value = u32(value)
        if strobe == 0b1111:
            self.words[idx] = value
        else:
            old = self.words[idx]
            merged = 0
            for lane in range(4):
                src = value if strobe & (1 << lane) else old
                merged |= src & (0xFF << (8 * lane))
            self.words[idx] = merged
        return self.words[idx]


class HexwordsError(Exception):
    """Malformed memory image file."""


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def parse_hexwords(text):
    """Parse a hexwords image into a list of (byte address, word) pairs.

    Grammar: `@XXXXXXXX` moves the load cursor to that byte address, any
    other non-empty line is exactly 8 hex digits stored at the cursor
    (cursor advances by 4).  `#` starts a comment line.
    """
    cursor = 0
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@"):
            body = line[1:]
            if len(body) != 8:
                raise HexwordsError(f"line {lineno}: cursor needs 8 hex digits")
            if not _HEX_DIGITS.issuperset(body):  # int() also takes a sign and '_'
                raise HexwordsError(f"line {lineno}: bad cursor {line!r}")
            cursor = int(body, 16)
            continue
        if len(line) != 8:
            raise HexwordsError(f"line {lineno}: word needs exactly 8 hex digits")
        if not _HEX_DIGITS.issuperset(line):
            raise HexwordsError(f"line {lineno}: bad word {line!r}")
        out.append((cursor, int(line, 16)))
        cursor += 4
    return out


def dump_hexwords(words, base):
    """Render a word list as a hexwords image starting at `base`."""
    lines = [f"@{u32(base):08X}"]
    lines.extend(f"{u32(w):08X}" for w in words)
    return "\n".join(lines) + "\n"


def load_image(text, rom, sram):
    """Load a hexwords image into ROM/SRAM, routed by decoded region."""
    for addr, word in parse_hexwords(text):
        region, offset = decode_address(addr)
        if region is Region.INST_MEM:
            rom.load([word], offset >> 2)
        elif region is Region.DATA_MEM:
            sram.write_word(offset, word)
        else:
            raise HexwordsError(f"image word at 0x{addr:08x} targets {region.value}")
