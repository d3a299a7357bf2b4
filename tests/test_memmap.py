import pytest
from hypothesis import given
from hypothesis import strategies as st

from rvdsp.memmap import (CONV_BASE, DATA_BASE, DATA_END, DOT_BASE, INST_BASE,
                          HexwordsError, MisalignedAddressError,
                          MemoryAccessError, Region, RESERVED_BASE,
                          RESERVED_END, Rom, Sram, decode_address,
                          dump_hexwords, load_image, parse_hexwords)


class TestDecodeAddress:
    @pytest.mark.parametrize("addr,region,offset", [
        (0x0000_0000, Region.INST_MEM, 0),
        (0x0000_8000, Region.DATA_MEM, 0),
        (0x0100_0014, Region.CONV_REGS, 0x14),
        (0x0100_0100, Region.DOT_REGS, 0),
        (0x0100_0200, Region.RESERVED, 0),
        (0x0200_0000, Region.UNMAPPED, 0x0200_0000),
    ])
    def test_examples(self, addr, region, offset):
        assert decode_address(addr) == (region, offset)

    def test_misaligned_carries_address(self):
        with pytest.raises(MisalignedAddressError) as exc:
            decode_address(0x0000_8002)
        assert exc.value.addr == 0x0000_8002

    def test_boundaries(self):
        # each region edge and its neighbours decode consistently
        edges = [
            (INST_BASE, Region.INST_MEM), (0x0000_7FFC, Region.INST_MEM),
            (DATA_BASE, Region.DATA_MEM), (DATA_END - 3, Region.DATA_MEM),
            (0x0001_0000, Region.UNMAPPED),
            (CONV_BASE, Region.CONV_REGS), (CONV_BASE + 0xFC, Region.CONV_REGS),
            (DOT_BASE, Region.DOT_REGS), (DOT_BASE + 0xFC, Region.DOT_REGS),
            (RESERVED_BASE, Region.RESERVED), (RESERVED_END - 3, Region.RESERVED),
            (RESERVED_END + 1, Region.UNMAPPED),
            (CONV_BASE - 4, Region.UNMAPPED),
        ]
        for addr, region in edges:
            assert decode_address(addr)[0] is region, hex(addr)

    @given(st.integers(min_value=0, max_value=0xFFFF_FFFF).map(lambda a: a & ~3))
    def test_total_and_disjoint(self, addr):
        region, _ = decode_address(addr)
        assert isinstance(region, Region)


class TestSram:
    def test_write_read_roundtrip(self):
        mem = Sram()
        mem.write_word(0, 42)
        assert mem.read_word(0) == 42

    def test_unwritten_reads_zero(self):
        assert Sram().read_word(0x1ABC) == 0

    def test_misaligned_carries_the_bus_address(self):
        # an offset into the memory, reported at its address on the bus
        with pytest.raises(MisalignedAddressError) as exc:
            Sram().read_word(6)
        assert exc.value.addr == DATA_BASE + 6
        with pytest.raises(MisalignedAddressError) as exc:
            Rom().read_word(6)
        assert exc.value.addr == INST_BASE + 6

    def test_out_of_range(self):
        with pytest.raises(MemoryAccessError, match="address 0x00010000$"):
            Sram().write_word(0x8000, 1)  # one past DataMem end
        with pytest.raises(MemoryAccessError, match="address 0x00007ffc$"):
            Sram().read_words(-4, 1)  # the word before DataMem

    def test_byte_strobes_merge(self):
        mem = Sram()
        mem.write_word(4, 0xAABBCCDD)
        mem.write_word(4, 0x0000_1100, strobe=0b0010)
        assert mem.read_word(4) == 0xAABB11DD

    @given(st.integers(0, 8191), st.integers(0, 0xFFFF_FFFF))
    def test_roundtrip_property(self, word_idx, value):
        mem = Sram()
        mem.write_word(4 * word_idx, value)
        assert mem.read_word(4 * word_idx) == value

    @given(st.integers(-12, 0x8008) | st.integers(0x7FE0, 0x8008),
           st.lists(st.integers(-1, 0xFFFF_FFFF), max_size=12))
    def test_buffer_access_matches_word_access(self, offset, words):
        # read_words/write_words check a whole buffer once, and must raise
        # what the first bad word raises in read_word/write_word
        def outcome(call):
            try:
                return call()
            except (MisalignedAddressError, MemoryAccessError) as exc:
                return type(exc), str(exc)

        by_word, buffer = Sram(), Sram()
        each = outcome(lambda: [by_word.write_word(offset + 4 * i, w)
                                for i, w in enumerate(words)])
        whole = outcome(lambda: buffer.write_words(offset, words))
        if isinstance(each, tuple):
            assert whole == each
            assert buffer.words == Sram().words  # nothing written
        else:
            assert whole is None and buffer.words == by_word.words
        assert outcome(lambda: buffer.read_words(offset, len(words))) == outcome(
            lambda: [by_word.read_word(offset + 4 * i) for i in range(len(words))])


class TestRom:
    def test_load_and_read(self):
        rom = Rom()
        rom.load([1, 2, 3])
        assert rom.read_word(8) == 3

    def test_contents_stable(self):
        rom = Rom()
        rom.load([0xDEADBEEF] * 16)
        before = tuple(rom.words)
        for off in range(0, 64, 4):
            rom.read_word(off)
        assert tuple(rom.words) == before

    def test_oversized_image(self):
        with pytest.raises(MemoryAccessError):
            Rom().load([0] * 8193)


class TestHexwords:
    def test_parse(self):
        text = "# comment\n@00008000\n0000002A\nDEADBEEF\n@00000000\n00000013\n"
        assert parse_hexwords(text) == [
            (0x8000, 0x2A), (0x8004, 0xDEADBEEF), (0, 0x13)]

    def test_dump_parse_roundtrip(self):
        words = [0, 1, 0xFFFFFFFF, 0x1234ABCD]
        pairs = parse_hexwords(dump_hexwords(words, 0x8000))
        assert pairs == [(0x8000 + 4 * i, w) for i, w in enumerate(words)]

    # int() alone would also take a sign, '_' and non-ASCII digits
    @pytest.mark.parametrize("bad", ["123", "@12", "xyzservice", "123456789",
                                     "-0000001", "+0000001", "0000_001", "@-0000004",
                                     "0000000\uff11"])
    def test_malformed(self, bad):
        with pytest.raises(HexwordsError):
            parse_hexwords(bad + "\n")

    def test_load_image_routes_by_region(self):
        rom, sram = Rom(), Sram()
        load_image("@00000000\n00000013\n@00008000\n0000002A\n", rom, sram)
        assert rom.read_word(0) == 0x13
        assert sram.read_word(0) == 0x2A

    def test_load_image_rejects_unmapped(self):
        with pytest.raises(HexwordsError):
            load_image("@02000000\n00000000\n", Rom(), Sram())
