"""In-order RV32I + MUL-family interpreter with a per-class cycle cost model.

Instruction fetch is folded into the per-class costs (the table holds
fully loaded per-instruction cycles).  A ROM word is decoded on its first
fetch into a handler-table entry kept in ``Rom.decoded``.  The CPU wins
DataMem arbitration, so it serves its DataMem loads and stores from
``sram.words`` in their issue cycle (``Bus.serve_cpu``); other addresses
get a word ``BusTransaction`` with byte strobes for sub-word stores,
except in ``run_alone``, which serves loads at issue too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import add, and_, eq, ge, lt, mul, ne, or_, sub, xor

from .bits import s32, sext, u32
from .bus import BusTransaction, Requester, TxState
from .isa import IllegalInstructionError, cost_class, decode
from .memmap import DATA_BASE, DATA_END, INST_END, Region, decode_address

# ECALL scratch word: last word of DataMem, receives x17 (a7) on syscall halt
SYSCALL_ADDR = 0x0000_FFFC
_MASK = 0xFFFF_FFFF


@dataclass
class CycleCostTable:
    alu: int = 1
    mul: int = 1
    load: int = 3
    store: int = 3
    branch_taken: int = 2
    branch_not_taken: int = 1
    jump: int = 2
    system: int = 1

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"cycle cost {f.name} must be at least 1, "
                                 f"got {getattr(self, f.name)}")

    def cycles(self, cls):
        return getattr(self, cls.value)


@dataclass
class Fault:
    kind: str
    pc: int
    detail: str = ""


class Cpu:
    def __init__(self, rom, bus, costs=None):
        self.rom = rom
        self.bus = bus
        self.sram = bus.sram
        self.costs = costs or CycleCostTable()
        self.regs = [0] * 32  # regs[0] is never written
        self.pc = 0
        self.halted = False
        self.fault = None
        self.retired = 0
        self.cycles = 0
        self.stall_cycles = 0  # reported; a posted access never outlives its cycle
        self.config_write_cycles = 0
        self._wait = 0
        self._tx = None
        self._load = None  # (entry, addr) of a posted load

    def step(self):
        """Advance one cycle: issue a new instruction or burn a wait cycle."""
        if self.halted or self.fault is not None:
            return
        self.cycles += 1
        if self._wait:
            self._wait -= 1
            return
        self._issue()

    def observe(self):
        """After the bus step: retire a posted transaction, write back a load."""
        tx = self._tx
        if tx is None or tx.state is not TxState.DONE:
            return
        if tx.error is not None:  # at the pc of the load or store that posted tx
            self.fault = Fault("bus", self.pc - 4, tx.error)
        elif self._load is not None:
            _write_back(self, *self._load, tx.rdata)
        self._tx = None
        self._load = None

    def _post(self, tx, load=None):
        """Post the instruction at pc's access `tx`; ``observe`` writes
        `load` back, or faults at this pc on a bus error."""
        self._tx, self._load = tx, load
        self.bus.post(tx)

    def _fault(self, kind, detail=""):
        self.fault = Fault(kind, self.pc, detail)

    def _issue(self):
        pc = self.pc
        if pc & 3 or pc > INST_END:
            self._fault("fetch", f"misaligned pc 0x{pc:08x}" if pc & 3
                        else f"pc outside InstMem: 0x{pc:08x}")
            return
        entry = self.rom.decoded[pc >> 2]
        if entry is None:
            try:
                entry = self.rom.decoded[pc >> 2] = self._predecode(pc)
            except IllegalInstructionError as exc:
                self._fault("illegal", str(exc))
                return
        self.retired += 1
        self._wait = entry[0](self, entry)

    def run_alone(self, cycles, guard, taken):
        """Run the wait cycles left and then whole instructions, as
        ``step`` does, for at most `cycles` cycles beside DSPs that touch
        only the DataMem words marked in the bytearray `guard`, and set
        `taken` at the index of each cycle in which the CPU took DataMem.
        A load outside DataMem is served at its issue (``Bus.peek``)
        before the last of the `cycles`, when the bus reads only what
        stays fixed until a running unit finishes.  Stops before an
        instruction that would fault, halt, post a bus transaction (a
        store to a unit's registers) or touch a guarded word; the wait of
        the last instruction may run past `cycles`, and what is left of it
        stays.

        A spin loop is jumped: at the target of a backward jump with the
        pc and registers of the last target, and no DataMem access since,
        the stretch between read only values that stay fixed, so it
        repeats exactly, and ``_jump`` credits as many more iterations as
        fit in `cycles`.  Each ends with its jump, so its loads still issue
        before the last cycle.  Returns the cycles run."""
        regs, decoded, bus = self.regs, self.rom.decoded, self.bus
        t, retired = min(self._wait, cycles), 0
        self._wait -= t
        head, clean = None, True  # the last backward-jump target; no DataMem since
        while t < cycles:
            pc = self.pc
            if pc & 3 or pc > INST_END:
                break
            entry = decoded[pc >> 2]
            if entry is None:
                try:
                    entry = decoded[pc >> 2] = self._predecode(pc)
                except IllegalInstructionError:
                    break
            handler = entry[0]
            if handler in _SCREENED:
                if handler in _JUMPS:
                    retired += 1
                    t += 1 + handler(self, entry)
                    target = self.pc
                    if target > pc:
                        continue
                    if not clean:
                        head, clean = None, True
                        continue
                    if head is not None and head[0] == target and head[1] == regs:
                        n = (cycles - t) // (t - head[2])
                        if n > 0:
                            t, retired, bus.register_accesses = _jump(
                                n, head[2:], t, retired, bus.register_accesses)
                    head = (target, regs[:], t, retired, bus.register_accesses)
                    continue
                if handler is _ecall or handler is _ebreak:
                    break
                addr = (regs[entry[2]] + entry[4]) & _MASK
                if addr & (entry[5] - 1):
                    break
                if DATA_BASE <= addr <= DATA_END:
                    if guard[(addr - DATA_BASE) >> 2]:
                        break
                    taken[t] = 1
                    clean = False
                else:
                    word = None if t + 1 == cycles else bus.peek(addr & ~3, handler is _store)
                    if word is None:
                        break
                    if handler is _load:
                        _write_back(self, entry, addr, word)
                    self.pc = pc + 4
                    retired += 1
                    t += 1 + entry[6]
                    continue
            retired += 1
            t += 1 + handler(self, entry)
        bus.cpu_served = False  # the DSPs' replay counts what it cost them
        self.retired += retired
        if t > cycles:
            self._wait, t = t - cycles, cycles
        self.cycles += t
        return t

    def _predecode(self, pc):
        """The handler-table entry of the ROM word at `pc`; pc-relative
        targets and the wait cycles after the issue cycle are resolved
        here."""
        instr = decode(self.rom.words[pc >> 2])
        m, rd, rs1, rs2, imm = instr.mnemonic, instr.rd, instr.rs1, instr.rs2, instr.imm
        wait = self.costs.cycles(cost_class(instr)) - 1
        if m in _OPS:
            handler, op = _OPS[m]
            if m in ("lui", "auipc"):  # rd <- x0 + constant
                rs1, imm = 0, imm + pc * (m == "auipc")
            return (handler if rd else _next, rd, rs1, rs2, u32(imm), op, wait)
        if m in _BRANCHES:
            taken = self.costs.cycles(cost_class(instr, True)) - 1
            return (_branch, rd, rs1, rs2, u32(pc + imm), _BRANCHES[m], taken, wait)
        if m in _WIDTHS:
            handler = _store if m[0] == "s" else _load
            return (handler, rd, rs1, rs2, imm, _WIDTHS[m], wait, m, m in ("lb", "lh"))
        if m == "jal":
            imm = u32(pc + imm)
        return (_OTHERS[m], rd, rs1, rs2, imm, None, wait)


# Handlers: each executes a predecoded entry (handler, rd, rs1, rs2, imm,
# ...) on the CPU and returns the wait cycles after the issue cycle.

def _op_reg(cpu, e):
    regs = cpu.regs
    regs[e[1]] = e[5](regs[e[2]], regs[e[3]]) & _MASK
    cpu.pc += 4
    return e[6]


def _op_imm(cpu, e):
    regs = cpu.regs
    regs[e[1]] = e[5](regs[e[2]], e[4]) & _MASK
    cpu.pc += 4
    return e[6]


def _next(cpu, e):
    """fence, and any register operation whose rd is x0."""
    cpu.pc += 4
    return e[6]


def _branch(cpu, e):
    regs = cpu.regs
    if e[5](regs[e[2]], regs[e[3]]):
        cpu.pc = e[4]
        return e[6]
    cpu.pc += 4
    return e[7]


def _jal(cpu, e):
    if e[1]:
        cpu.regs[e[1]] = cpu.pc + 4
    cpu.pc = e[4]
    return e[6]


def _jalr(cpu, e):
    target = (cpu.regs[e[2]] + e[4]) & _MASK & ~1
    if e[1]:
        cpu.regs[e[1]] = cpu.pc + 4
    cpu.pc = target
    return e[6]


def _ebreak(cpu, e):
    cpu.halted = True
    cpu.pc += 4
    return e[6]


def _ecall(cpu, e):
    cpu.bus.serve_cpu()
    cpu.sram.words[(SYSCALL_ADDR - DATA_BASE) >> 2] = cpu.regs[17]
    return _ebreak(cpu, e)


def _load(cpu, e):
    """(_load, rd, rs1, rs2, imm, width, wait, mnemonic, signed)"""
    addr = (cpu.regs[e[2]] + e[4]) & _MASK
    if addr & (e[5] - 1):
        cpu._fault("misaligned", f"{e[7]} at 0x{addr:08x}")
        return 0
    if DATA_BASE <= addr <= DATA_END:
        cpu.bus.serve_cpu()
        _write_back(cpu, e, addr, cpu.sram.words[(addr - DATA_BASE) >> 2])
    else:
        cpu._post(BusTransaction(Requester.CPU, addr & ~3), (e, addr))
    cpu.pc += 4
    return e[6]


def _write_back(cpu, e, addr, word):
    """Write the loaded lane of `word` to rd, as entry `e` at `addr` reads it."""
    width = e[5]
    if width != 4:
        word = word >> 8 * (addr & 3) & (1 << 8 * width) - 1
        if e[8]:
            word = u32(sext(word, 8 * width))
    if e[1]:
        cpu.regs[e[1]] = word


def _store(cpu, e):
    """(_store, rd, rs1, rs2, imm, width, wait, mnemonic, False)"""
    addr = (cpu.regs[e[2]] + e[4]) & _MASK
    width = e[5]
    if addr & (width - 1):
        cpu._fault("misaligned", f"{e[7]} at 0x{addr:08x}")
        return 0
    lane = 8 * (addr & 3)
    mask = (1 << 8 * width) - 1 << lane
    value = cpu.regs[e[3]] << lane & mask
    if DATA_BASE <= addr <= DATA_END:
        cpu.bus.serve_cpu()
        words, idx = cpu.sram.words, (addr - DATA_BASE) >> 2
        words[idx] = words[idx] & ~mask | value
    else:
        word_addr = addr & ~3
        if decode_address(word_addr)[0] in (Region.CONV_REGS, Region.DOT_REGS):
            cpu.config_write_cycles += cpu.costs.store
        cpu._post(BusTransaction(Requester.CPU, word_addr, write=True, wdata=value,
                                 wstrb=((1 << width) - 1) << (addr & 3)))
    cpu.pc += 4
    return e[6]


# rd <- f(rs1, rs2), and in the immediate form named second, if any,
# rd <- f(rs1, unsigned imm); the handler masks the result to 32 bits
_ALU = (
    ("add", "addi", add), ("sub", None, sub), ("xor", "xori", xor),
    ("or", "ori", or_), ("and", "andi", and_), ("sltu", "sltiu", lt),
    ("slt", "slti", lambda a, b: s32(a) < s32(b)),
    ("sll", "slli", lambda a, b: a << (b & 31)),
    ("srl", "srli", lambda a, b: a >> (b & 31)),
    ("sra", "srai", lambda a, b: s32(a) >> (b & 31)),
    ("mul", None, mul), ("mulh", None, lambda a, b: s32(a) * s32(b) >> 32),
    ("mulhsu", None, lambda a, b: s32(a) * b >> 32),
    ("mulhu", None, lambda a, b: a * b >> 32),
)
_OPS = {reg: (_op_reg, f) for reg, _, f in _ALU}
_OPS.update({imm: (_op_imm, f) for _, imm, f in _ALU if imm})
_OPS.update(lui=(_op_imm, add), auipc=(_op_imm, add))
_BRANCHES = {"beq": eq, "bne": ne, "blt": _OPS["slt"][1], "bltu": lt, "bgeu": ge,
             "bge": lambda a, b: s32(a) >= s32(b)}
_WIDTHS = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "sb": 1, "sh": 2, "sw": 4}
_OTHERS = {"jal": _jal, "jalr": _jalr, "fence": _next, "ecall": _ecall,
           "ebreak": _ebreak}
# the handlers after which ``run_alone`` looks for a spin loop, and with
# the accesses, those it checks before they issue
_JUMPS = frozenset((_branch, _jal, _jalr))
_SCREENED = _JUMPS | {_load, _store, _ecall, _ebreak}


def _jump(times, head, *now):
    """The counters `now` at a spin loop's target after `times` more
    iterations, each adding what the last added since the counters `head`."""
    return [v + times * (v - h) for v, h in zip(now, head)]
