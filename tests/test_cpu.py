import pytest
from hypothesis import given, settings

from iss_ref import RefCpu
from random_programs import assert_sram_words, rv_programs
from rvdsp.bits import u32
from rvdsp.bus import BusTransaction, Requester
from rvdsp.cpu import CycleCostTable, SYSCALL_ADDR
from rvdsp.isa import encode
from rvdsp.memmap import DATA_BASE, load_image
from rvdsp.programs import Assembler, I
from rvdsp.scheduler import SimConfig, SimulationFault, World


def run_program(instrs, max_cycles=10_000, sram_init=None):
    world = World(SimConfig(max_cycles=max_cycles), with_cpu=True)
    world.rom.load([encode(i) if not isinstance(i, int) else i for i in instrs])
    if sram_init:
        for addr, value in sram_init.items():
            world.sram.write_word(addr - DATA_BASE, value)
    world.run_until_halt()
    return world


class TestSemantics:
    def test_addi(self):
        world = run_program([I("addi", rd=1, imm=7), I("ebreak")])
        assert world.cpu.regs[1] == 7

    def test_mul(self):
        world = run_program([I("addi", rd=1, imm=6), I("addi", rd=2, imm=7),
                             I("mul", rd=3, rs1=1, rs2=2), I("ebreak")])
        assert world.cpu.regs[3] == 42

    def test_x0_stays_zero(self):
        world = run_program([I("addi", rd=0, imm=99), I("ebreak")])
        assert world.cpu.regs[0] == 0

    def test_load_store_roundtrip(self):
        asm = Assembler()
        asm.li(2, DATA_BASE)
        asm.li(3, 1234)
        asm.emit(I("sw", rs1=2, rs2=3, imm=0),
                 I("lw", rd=4, rs1=2, imm=0),
                 I("ebreak"))
        world = World(SimConfig(), with_cpu=True)
        world.rom.load(asm.words())
        world.run_until_halt()
        assert world.cpu.regs[4] == 1234

    def test_subword_load_store(self):
        asm = Assembler()
        asm.li(2, DATA_BASE)
        asm.li(3, -2)  # 0xFFFFFFFE
        asm.emit(I("sb", rs1=2, rs2=3, imm=1),       # write byte lane 1
                 I("lbu", rd=4, rs1=2, imm=1),
                 I("lb", rd=5, rs1=2, imm=1),
                 I("sh", rs1=2, rs2=3, imm=4 + 2),   # halfword lane 2
                 I("lhu", rd=6, rs1=2, imm=6),
                 I("lh", rd=7, rs1=2, imm=6),
                 I("ebreak"))
        world = World(SimConfig(), with_cpu=True)
        world.rom.load(asm.words())
        world.run_until_halt()
        assert world.cpu.regs[4] == 0xFE
        assert world.cpu.regs[5] == u32(-2)
        assert world.cpu.regs[6] == 0xFFFE
        assert world.cpu.regs[7] == u32(-2)
        assert world.sram.read_word(0) == 0x0000_FE00
        assert world.sram.read_word(4) == 0xFFFE_0000

    def test_mulh_variants(self):
        asm = Assembler()
        asm.li(1, -1)
        asm.li(2, 2)
        asm.emit(I("mulh", rd=3, rs1=1, rs2=2),
                 I("mulhu", rd=4, rs1=1, rs2=2),
                 I("mulhsu", rd=5, rs1=1, rs2=2),
                 I("ebreak"))
        world = World(SimConfig(), with_cpu=True)
        world.rom.load(asm.words())
        world.run_until_halt()
        assert world.cpu.regs[3] == u32(-1)   # -1 * 2 >> 32
        assert world.cpu.regs[4] == 1          # 0xFFFFFFFF * 2 >> 32
        assert world.cpu.regs[5] == u32(-1)   # signed * unsigned

    def test_ecall_writes_scratch_and_halts(self):
        world = run_program([I("addi", rd=17, imm=93), I("ecall")])
        assert world.cpu.halted
        assert world.sram.read_word(SYSCALL_ADDR - DATA_BASE) == 93


class TestCycleCosts:
    def test_alu_is_one_cycle(self):
        world = run_program([I("addi", rd=1, imm=7), I("ebreak")])
        assert world.cpu.cycles == 2  # addi + ebreak

    def test_uncontended_load_is_three_cycles(self):
        asm = Assembler()
        asm.li(3, DATA_BASE)          # 1 cycle (addi-range? lui) -> count below
        asm.emit(I("lw", rd=2, rs1=3, imm=0), I("ebreak"))
        world = World(SimConfig(), with_cpu=True)
        world.rom.load(asm.words())
        setup = len(asm.words()) - 2  # li instructions, 1 cycle each
        world.run_until_halt()
        assert world.cpu.cycles == setup + 3 + 1

    def test_branch_costs(self):
        costs = CycleCostTable()
        taken = run_program([I("beq", rs1=0, rs2=0, imm=8),
                             I("ebreak"), I("ebreak")])
        assert taken.cpu.cycles == costs.branch_taken + costs.system
        not_taken = run_program([I("bne", rs1=0, rs2=0, imm=8), I("ebreak")])
        assert not_taken.cpu.cycles == costs.branch_not_taken + costs.system

    def test_cycles_at_least_retired(self):
        world = run_program([I("addi", rd=1, imm=1), I("jal", rd=0, imm=4),
                             I("ebreak")])
        assert world.cpu.cycles >= world.cpu.retired

    def test_smallest_program(self):
        world = run_program([I("addi", rd=1, imm=1), I("ebreak")])
        assert world.cpu.halted and world.cpu.retired == 2

    @pytest.mark.parametrize("name", list(CycleCostTable.__dataclass_fields__))
    def test_cost_below_one_rejected(self, name):
        # a 0-cycle class would leave the CPU a wait of -1, which stepping
        # counts down forever
        with pytest.raises(ValueError, match=name):
            CycleCostTable(**{name: 0})


class TestFaults:
    def test_empty_rom_is_illegal_instruction(self):
        world = World(SimConfig(), with_cpu=True)
        with pytest.raises(SimulationFault) as exc:
            world.run_until_halt()
        assert exc.value.fault.kind == "illegal"
        assert exc.value.fault.pc == 0

    def test_misaligned_load_faults(self):
        asm = Assembler()
        asm.li(3, DATA_BASE + 2)
        asm.emit(I("lw", rd=2, rs1=3, imm=0), I("ebreak"))
        world = World(SimConfig(), with_cpu=True)
        world.rom.load(asm.words())
        with pytest.raises(SimulationFault) as exc:
            world.run_until_halt()
        assert exc.value.fault.kind == "misaligned"

    def test_unmapped_store_faults(self):
        asm = Assembler()
        asm.li(3, 0x0200_0000)
        asm.emit(I("sw", rs1=3, rs2=0, imm=0), I("ebreak"))
        world = World(SimConfig(), with_cpu=True)
        world.rom.load(asm.words())
        with pytest.raises(SimulationFault) as exc:
            world.run_until_halt()
        assert exc.value.fault.kind == "bus"

    def test_bus_fault_names_the_faulting_instruction(self):
        asm = Assembler()
        asm.emit(I("addi", rd=1, imm=5), I("sw", rs1=0, rs2=1, imm=16), I("ebreak"))
        world = World(SimConfig(), with_cpu=True)
        world.rom.load(asm.words())
        with pytest.raises(SimulationFault) as exc:
            world.run_until_halt()
        assert str(exc.value) == "bus fault at pc=0x00000004: write to ROM at 0x00000010"
        assert world.cpu.pc == 8  # the store retired and pc moved on

    def test_host_access_beside_a_cpu_access_is_refused(self):
        # the CPU serves its DataMem load at issue, but still refuses to
        # share the cycle with a host transaction, as the bus slot did
        asm = Assembler()
        asm.li(3, DATA_BASE)
        asm.emit(I("lw", rd=2, rs1=3, imm=0), I("ebreak"))
        world = World(SimConfig(), with_cpu=True)
        world.rom.load(asm.words())
        world.step()  # the li
        world.bus.post(BusTransaction(Requester.CPU, DATA_BASE))
        with pytest.raises(RuntimeError, match="already has a transaction in flight"):
            world.step()

    def test_timeout_is_distinct(self):
        from rvdsp.scheduler import SimulationTimeout

        world = World(SimConfig(max_cycles=50), with_cpu=True)
        world.rom.load([encode(I("jal", rd=0, imm=0))])  # spin forever
        with pytest.raises(SimulationTimeout):
            world.run_until_halt()


class TestPredecode:
    def test_load_image_replaces_a_predecoded_word(self):
        world = run_program([I("addi", rd=1, imm=7), I("ebreak")])
        assert world.cpu.regs[1] == 7
        load_image(f"@00000000\n{encode(I('addi', rd=1, imm=9)):08X}\n",
                   world.rom, world.sram)
        world.cpu.pc, world.cpu.halted = 0, False
        world.run_until_halt()
        assert world.cpu.regs[1] == 9


class TestDeterminism:
    def test_identical_runs_match(self):
        def run():
            asm = Assembler()
            asm.li(2, DATA_BASE)
            asm.li(5, 0)
            asm.li(6, 10)
            asm.label("loop")
            asm.emit(I("sw", rs1=2, rs2=5, imm=0),
                     I("addi", rd=2, rs1=2, imm=4),
                     I("addi", rd=5, rs1=5, imm=3),
                     I("addi", rd=6, rs1=6, imm=-1))
            asm.branch("bne", 6, 0, "loop")
            asm.emit(I("ebreak"))
            world = World(SimConfig(), with_cpu=True)
            world.rom.load(asm.words())
            world.run_until_halt()
            return (world.cycle, world.cpu.cycles, tuple(world.cpu.regs),
                    tuple(world.sram.words))

        assert run() == run()



class TestReferenceIss:
    # lockstep co-simulation, offline: the same ROM through World and
    # through tests/iss_ref.py, which shares no code with the CPU

    @settings(max_examples=100, deadline=None)
    @given(words=rv_programs())
    def test_random_programs_match_reference(self, words):
        # compared at every return of run_until, after stepping the
        # reference over the instructions that call retired, and at the end
        world = World(SimConfig(max_cycles=100_000), with_cpu=True)
        world.rom.load(words)
        cpu, ref = world.cpu, RefCpu(words)
        while not (cpu.halted or cpu.fault):
            retired = cpu.retired
            try:
                world.run_until(lambda: cpu.retired != retired or cpu.halted)
            except SimulationFault:
                pass
            _step_reference(ref, cpu)
            assert (cpu.pc, cpu.regs) == (ref.pc, ref.x)
        _assert_same_end(world, ref)

    @settings(max_examples=100, deadline=None)
    @given(words=rv_programs())
    def test_random_programs_match_reference_stepped(self, words):
        # compared after every instruction that World.step() completes,
        # and at the end
        world = World(SimConfig(max_cycles=100_000), with_cpu=True)
        world.rom.load(words)
        cpu, ref = world.cpu, RefCpu(words)
        while not (cpu.halted or cpu.fault):
            retired = cpu.retired
            while cpu.retired == retired and not (cpu.halted or cpu.fault):
                world.step()
            assert cpu.retired - retired <= 1
            _step_reference(ref, cpu)
            assert (cpu.pc, cpu.regs) == (ref.pc, ref.x)
        _assert_same_end(world, ref)


def _step_reference(ref, cpu):
    """Step `ref` over the instructions `cpu` retired since, and over the
    fault, if any, of one that did not retire."""
    while ref.retired < cpu.retired or cpu.fault and not ref.fault:
        assert not (ref.halted or ref.fault)
        ref.step()


def _assert_same_end(world, ref):
    cpu = world.cpu
    assert world.sram.words == ref.sram
    assert_sram_words(world.sram.words)
    assert cpu.retired == ref.retired
    assert cpu.halted == ref.halted
    assert (cpu.fault and (cpu.fault.kind, cpu.fault.pc)) == ref.fault
    # every completed instruction costs its class; a faulting one a cycle
    costs = CycleCostTable()
    assert cpu.cycles == sum(getattr(costs, c) for c in ref.classes) + bool(ref.fault)
    assert world.cycle == cpu.cycles
