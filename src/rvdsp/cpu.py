"""In-order RV32I + MUL-family interpreter with a per-class cycle cost model.

Instruction fetch is folded into the per-class costs (the table holds
fully loaded per-instruction cycles).  A ROM word is decoded on its first
fetch into a handler-table entry kept in ``Rom.decoded``.  Every load and
store completes in its issue cycle, after the DSPs have stepped: the CPU
wins DataMem arbitration, so it serves a DataMem access from
``sram.words`` and reports it (``Bus.serve_cpu``), and the bus routes any
other address at once (``Bus._route``), the blocking transport of
SystemC TLM-2.0.  ``step`` and ``run_alone`` serve an access through the
same handler.  ``run_alone`` runs hot loops as blocks: Python
functions generated from the predecoded entries and kept in
``Rom.blocks``, which do what the handlers do, with the issue cycle of
each instruction fixed when the block is generated (after QEMU's TCG and
Shade).  Only a loop gets one: a run of ALU operations and word accesses
that branches back to its start, with pointers that step by a fixed
stride, which the block runs in a hoisted loop that checks the whole span
of its passes once.  A loop nest runs as one block, which goes round its
outer loop without returning (a region, after Dynamo).  The handlers run
every other word, and each pass a block leaves to them, as a tracing JIT
leaves what a trace does not support to its interpreter.
``step`` and the handlers stay the single-cycle reference.
"""

from __future__ import annotations

import re
from operator import add, and_, eq, ge, lt, mul, ne, or_, sub, xor

from .bits import Record, s32, sext, u32
from .isa import IllegalInstructionError, cost_class, decode
from .memmap import DATA_BASE, DATA_END, INST_END, Region, decode_address

# ECALL scratch word: last word of DataMem, receives x17 (a7) on syscall halt
SYSCALL_ADDR = 0x0000_FFFC
_MASK = 0xFFFF_FFFF


class CycleCostTable(Record):
    def __init__(self, alu=1, mul=1, load=3, store=3, branch_taken=2,
                 branch_not_taken=1, jump=2, system=1):
        self.alu: int = alu
        self.mul: int = mul
        self.load: int = load
        self.store: int = store
        self.branch_taken: int = branch_taken
        self.branch_not_taken: int = branch_not_taken
        self.jump: int = jump
        self.system: int = system
        for name in self._fields:
            if getattr(self, name) < 1:
                raise ValueError(f"cycle cost {name} must be at least 1, "
                                 f"got {getattr(self, name)}")

    def cycles(self, cls):
        return getattr(self, cls.value)


class Fault(Record):
    def __init__(self, kind, pc, detail=""):
        self.kind: str = kind
        self.pc: int = pc
        self.detail: str = detail


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
        self.stall_cycles = 0  # reported; every access completes in its issue cycle
        self.config_write_cycles = 0
        self._wait = 0

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
        """Does nothing: every access completes in its issue cycle, so no
        bus completion is left to observe.  Kept in the class dict, for
        perfbench/tracing.py."""

    def _fault(self, kind, detail=""):
        self.fault = Fault(kind, self.pc, detail)

    def _issue(self):
        entry = self._fetch(self.pc)
        if isinstance(entry, Fault):
            self.fault = entry
            return
        self.retired += 1
        self._wait = entry[0](self, entry)

    def _fetch(self, pc):
        """The predecoded entry of the ROM word at `pc`, decoded on its
        first fetch, or the Fault that fetching it takes."""
        if pc & 3 or pc > INST_END:
            return Fault("fetch", pc, f"misaligned pc 0x{pc:08x}" if pc & 3
                         else f"pc outside InstMem: 0x{pc:08x}")
        entry = self.rom.decoded[pc >> 2]
        if entry is None:
            try:
                entry = self.rom.decoded[pc >> 2] = self._predecode(pc)
            except IllegalInstructionError as exc:
                return Fault("illegal", pc, str(exc))
        return entry

    def run_alone(self, cycles, guard, taken):
        """Run the wait cycles left and then whole instructions, as
        ``step`` does, for at most `cycles` cycles beside DSPs that touch
        only the DataMem words marked in the bytearray `guard`, and set
        `taken` at the index of each cycle in which the CPU took DataMem.
        A load outside DataMem, and a store to the reserved block, run
        through their handler before the last of the `cycles`, when the
        bus reads only what stays fixed until a running unit finishes; if
        the bus answers with an error, the instruction faults and the
        window ends with its issue cycle, as ``step`` leaves it.  Stops
        before an instruction that would halt, store elsewhere outside
        DataMem (to a unit's registers, which may start it), touch a
        guarded word, or fault on its fetch, decode or alignment; the
        wait of the last instruction may run past `cycles`, and what is
        left of it stays.

        A spin loop is jumped: at the target of a backward jump with the
        pc and registers of the last target, and no DataMem access since,
        the stretch between read only values that stay fixed, so it
        repeats exactly, and ``_jump`` credits as many more iterations as
        fit in `cycles`.  Each ends with its jump, so its loads still issue
        before the last cycle.

        A hot loop runs as a block (``_translate``), kept in
        ``Rom.blocks``: the target of a backward jump reached after a
        DataMem access gets one if a loop with a hoisted form starts there,
        and None otherwise.  At the window's start and wherever a jump or a
        block lands, the block there runs if its loop's branch issues
        before `cycles`: it runs the passes whose branch does and that its
        pointers have room for, and a loop nest's block goes on round the
        outer loop while each part of it fits.  A block leaves at its
        loop's start where it runs no more passes, before an access in its
        outer loop that the handlers must serve, or before a part of a nest
        that does not fit, and the handlers go on from there as ``step``
        would; they also run every word no block holds.  Returns the cycles
        run."""
        regs, words, blocks, bus = self.regs, self.sram.words, self.rom.blocks, self.bus
        t, retired = min(self._wait, cycles), 0
        self._wait -= t
        head, clean = None, True  # the last backward-jump target; no DataMem since
        pc = -1  # of the last jump, which landed at self.pc
        while t < cycles:
            target = self.pc
            if target <= pc:
                if not clean:
                    head, clean = None, True
                    if target not in blocks:
                        blocks[target] = self._translate(target)
                else:
                    if head is not None and head[0] == target and head[1] == regs:
                        n = (cycles - t) // (t - head[2])
                        if n > 0:
                            t, retired, bus.register_accesses = _jump(
                                n, head[2:], t, retired, bus.register_accesses)
                    head = (target, regs[:], t, retired, bus.register_accesses)
            block = blocks.get(target)
            if block is not None and t + block[1] < cycles:
                t, n, grants, last = block[0](self, regs, words, taken, guard, t, cycles)
                retired += n
                if grants:
                    bus._grants[0] += grants
                    clean = False
                if last is not None:  # its last instruction, the last jump if any, ran
                    pc = last
                    continue
            while t < cycles:  # the handlers, up to the next jump
                pc = self.pc
                entry = self._fetch(pc)
                if isinstance(entry, Fault):
                    return self._close(t, retired, cycles)
                handler = entry[0]
                if handler in _SCREENED:
                    if handler in _JUMPS:
                        retired += 1
                        t += 1 + handler(self, entry)
                        break
                    if handler is _ecall or handler is _ebreak:
                        return self._close(t, retired, cycles)
                    addr = (regs[entry[2]] + entry[4]) & _MASK
                    if addr & (entry[5] - 1):
                        return self._close(t, retired, cycles)
                    if DATA_BASE <= addr <= DATA_END:
                        if guard[(addr - DATA_BASE) >> 2]:
                            return self._close(t, retired, cycles)
                        taken[t] = 1
                        clean = False
                    elif (t + 1 == cycles or handler is _store
                          and decode_address(addr & ~3)[0] is not Region.RESERVED):
                        return self._close(t, retired, cycles)
                issue = t
                retired += 1
                t += 1 + handler(self, entry)
                if self.fault is not None:  # a load the bus answered with an error
                    return self._close(t, retired, issue + 1)
        return self._close(t, retired, cycles)

    def _close(self, t, retired, cycles):
        """End a ``run_alone`` window after `t` cycles and `retired`
        instructions; returns the cycles run."""
        self.bus.cpu_served = False  # the DSPs' replay counts what it cost them
        self.retired += retired
        if t > cycles:
            self._wait, t = t - cycles, cycles
        self.cycles += t
        return t

    def _translate(self, start):
        """The block at `start`: (function, issue offset of the loop's
        branch, instructions), or None where the words from `start`
        through the first branch (``_read``) are not a loop that accesses
        DataMem, branches back to `start` and has a hoisted form
        (``_hoisted``); the handlers run every other backward-jump target.
        The function, generated from the predecoded entries, keeps each
        register the block names in a local, and its source in its
        ``source`` attribute.  It runs the loop's passes in its hoisted
        loop, and leaves at `start` where that runs none, or where the last
        it ran took the branch, for the handlers to run the next pass.  The
        block is a loop nest where the words from the loop's fall-through
        run to a branch back to a pc h before `start`, its tail, and the
        words from h, its head, run straight into the loop: the function
        runs the loop, then the tail, whose branch falls through to an
        exit, then the head, and goes round into the loop.  The tail and
        the head each first test that their last instruction issues before
        `lim`, and otherwise the block leaves at their first word; each of
        their loads and stores is checked, and the block leaves before one
        that is misaligned, outside DataMem or on a guarded word, for the
        handlers to serve.  The words are read into lists before any source
        is written.  Each exit picks its path's (cycles, instructions,
        DataMem accesses, pc, pc of its last instruction if it ran) from a
        table, adds them to the counts kept along the edges it took, and
        breaks to one epilogue, which writes back every register the block
        writes.  The function returns the cycle it ends at, the
        instructions and DataMem accesses it ran, and that last pc, or None
        where it leaves before a word it holds, with what came before
        committed."""
        run = self._read(start)
        if not run:
            return None
        end, b, last = run[-1]
        if b[0] is not _branch or b[4] != start or not any(
                e[0] is _load or e[0] is _store for _, e, _ in run):
            return None
        ns, regs, written, exits = {}, set(), set(), []

        def x(reg):
            if reg:
                regs.add(reg)
                return f"x{reg}"
            return 0

        def leave(cycles, count, grants, pc, last=None):
            """An exit: (cycles, instructions, DataMem accesses, pc, pc of
            the last instruction if it ran)."""
            exits.append((cycles, count, grants, pc, last))
            return f"e = {len(exits) - 1}; break"

        def stmt(e):
            """The statement of entry `e`, not a branch, with ``w[i]`` for
            an access's word, or None."""
            h, rd = e[0], e[1]
            if h is _load or h is _store:
                x(e[2])  # the pointer
                if h is _store:
                    return f"w[i] = {x(e[3])}"
            elif h is not _op_reg and h is not _op_imm:  # fence, whose rd is ignored
                return None
            if not rd:
                return None
            written.add(rd)
            if h is _load:
                return f"x{rd} = w[i]"
            return f"x{rd} = {_value(ns, e[5], x(e[2]), x(e[3]) if h is _op_reg else e[4])}"

        cond = _expr(ns, b[5], x(b[2]), x(b[3]))
        body = _hoisted(run, [stmt(e) for _, e, _ in run[:-1]], cond, ns,
                        leave(0, 0, 0, start))
        if not body:
            return None
        body.append(f"if {cond}: {leave(0, 0, 0, start, end)}")
        # cycles, instructions and DataMem accesses past t, where the
        # hoisted loop counted the pass that fell through as a taken one
        off, count, grants = b[7] - b[6], 0, 0
        tail = self._read(end + 4)
        h = tail[-1][1][4] if tail and tail[-1][1][0] is _branch else start
        head = self._read(h) if h < start else ()
        # a nest's tail and head, where the words from h run into the loop
        outer = [tail, head[:start - h >> 2]] if head and head[-1][0] == end else []
        for words in outer:
            body.append(f"if {_plus('t', off + words[-1][2])} >= lim: "
                        f"{leave(off, count, grants, words[0][0])}")
            for pc, e, o in words:
                if e[0] is _load or e[0] is _store:  # checked first
                    body += [f"a = {_value(ns, add, x(e[2]), e[4])}; i = (a - {DATA_BASE}) >> 2",
                             f"if a & 3 or not 0 <= i < {DATA_END + 1 - DATA_BASE >> 2}"
                             f" or g[i]: {leave(off + o, count, grants, pc)}",
                             f"tk[{_plus('t', off + o)}] = 1"]
                    grants += 1
                count += 1
                if e[0] is _branch:  # the tail's, which goes on where it is taken
                    line = (f"if not {_expr(ns, e[5], x(e[2]), x(e[3]))}: "
                            f"{leave(off + o + 1 + e[7], count, grants, pc + 4, pc)}")
                else:
                    line = stmt(e)
                if line:
                    body.append(line)
            off += o + 1 + e[6]  # past the last word, the tail's branch taken
        if outer:  # round into the loop again, with the counts kept along the way
            body.append("; ".join(f"{v} += {c}" for v, c in zip("tnq", (off, count, grants)) if c))
        else:
            body.append(leave(off, count, grants, end + 4, end))
        code = "\n    ".join(["def block(c, r, w, tk, g, t, lim):",
                               *(f"x{reg} = r[{reg}]" for reg in sorted(regs | written)),
                               "n = q = 0", "while True:", *("    " + line for line in body),
                               f"dt, dn, dq, pc, last = {_name(ns, tuple(exits))}[e]",
                               *(f"r[{reg}] = x{reg}" for reg in sorted(written)),
                               "c.pc = pc", "return t + dt, n + dn, q + dq, last"])
        exec(compile(code, f"<block 0x{start:08x}>", "exec"), ns)
        ns["block"].source = code
        return ns["block"], last, len(run) + sum(map(len, outer))

    def _read(self, pc):
        """The predecoded entries (pc, entry, issue offset from `pc`) of
        the words from `pc` through the first branch, or up to a ``jal``,
        ``jalr``, ``ecall``, ``ebreak``, sub-word access or word that
        faults on its fetch or decode."""
        entries, off = [], 0
        while True:
            e = self._fetch(pc)
            if (isinstance(e, Fault) or e[0] in _UNBLOCKED
                    or (e[0] is _load or e[0] is _store) and e[5] != 4):
                return entries
            entries.append((pc, e, off))
            if e[0] is _branch:
                return entries
            off += 1 + e[6]
            pc += 4

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
    width = e[5]
    if addr & (width - 1):
        cpu._fault("misaligned", f"{e[7]} at 0x{addr:08x}")
        return 0
    if DATA_BASE <= addr <= DATA_END:
        cpu.bus.serve_cpu()
        word, error = cpu.sram.words[(addr - DATA_BASE) >> 2], None
    else:
        word, error = cpu.bus._route(addr & ~3, False, 0)
    if error is not None:
        cpu._fault("bus", error)
    elif e[1]:
        if width != 4:  # the loaded lane, zero- or sign-extended
            word = word >> 8 * (addr & 3) & (1 << 8 * width) - 1
            if e[8]:
                word = u32(sext(word, 8 * width))
        cpu.regs[e[1]] = word
    cpu.pc += 4
    return e[6]


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
        error = cpu.bus._route(word_addr, True, value)[1]
        if error is not None:
            cpu._fault("bus", error)
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
# the operations a block writes as Python operators; it calls the others
_INFIX = {add: "+", sub: "-", mul: "*", and_: "&", or_: "|", xor: "^",
          eq: "==", ne: "!=", lt: "<", ge: ">="}
_WIDTHS = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "sb": 1, "sh": 2, "sw": 4}
_OTHERS = {"jal": _jal, "jalr": _jalr, "fence": _next, "ecall": _ecall,
           "ebreak": _ebreak}
# the handlers after which ``run_alone`` looks for a spin loop, and with
# the accesses, those it checks before they issue
_JUMPS = frozenset((_branch, _jal, _jalr))
_SCREENED = _JUMPS | {_load, _store, _ecall, _ebreak}
# the handlers a block stops before, as it does before a load or store
# narrower than a word: the handler loop runs them
_UNBLOCKED = frozenset((_jal, _jalr, _ecall, _ebreak))
# the register locals a block's statement names
_NAMES = re.compile(r"\bx\d+\b")


def _jump(times, head, *now):
    """The counters `now` at a spin loop's target after `times` more
    iterations, each adding what the last added since the counters `head`."""
    return [v + times * (v - h) for v, h in zip(now, head)]


# Block source: the expressions and the hoisted loop that ``_translate``
# writes into a block, and the helpers the hoisted loop calls.

def _name(ns, f):
    """A name for `f` in a block's namespace `ns`."""
    ns[f"f{len(ns)}"] = f
    return f"f{len(ns) - 1}"


def _expr(ns, f, a, b):
    """Python source for f(a, b)."""
    if f in _INFIX:
        return f"{a} {_INFIX[f]} {b}"
    return f"{_name(ns, f)}({a}, {b})"


def _value(ns, f, a, b):
    """Python source for f(a, b) & _MASK, for operands that are register
    locals (str), which hold 32-bit values, or constants (int); with no
    mask where it cannot change the value."""
    if type(a) is int and type(b) is int:
        return str(f(a, b) & _MASK)
    if b == 0 and f in (add, sub, or_, xor):
        return a
    if a == 0 and f in (add, or_, xor):
        return b
    expr = _expr(ns, f, a, b)
    return expr if f in (and_, or_, xor) else f"({expr}) & {_MASK}"


def _plus(expr, c):
    return expr if not c else f"{expr} + {c}" if c > 0 else f"{expr} - {-c}"


def _hoisted(entries, stmts, cond, ns, stop):
    """Source lines of the hoisted loop of a looping block whose `entries`
    make one pass, or none if the pass has an unsure shape.  The loop
    takes `k`, the passes whose last instruction issues before the
    window's `lim`, and narrows it to the passes over which each pointer's
    span of DataMem accesses stays in DataMem and off the guard
    (``_room``); where that leaves none, it runs `stop`.  It runs up to `k`
    passes in program order with no per-access checks: each writes
    `stmts`, the entries' statements from ``_translate`` (or None), with
    an access's strided word in place of ``w[i]``, without the pointer
    updates it defers and with the writes that ``_forward`` drops, and
    then tests the branch's `cond`, so a `k` past the loop's last pass
    changes nothing.  It then marks the log for the passes that ran, in
    one slice that ends with the last one's branch, since nothing marks
    it past `t` before the block, and advances `t`, the block's counts and
    the pointers by them, all as whole taken passes, that which fell
    through too.

    A register is affine if its only write in the pass is ``addi r, r,
    c``.  Every access (a word access, as in any block) must be through a
    register the pass does not write, or a load through an affine register
    with c >= 0, a multiple of 4, that nothing else reads, the branch
    included; the loop indexes such a pointer's words and advances it after
    its passes."""
    *straight, (_, branch, last) = entries
    period, wait = last + 1 + branch[6], branch[6]
    writes = {}
    for _, e, _ in straight:
        if e[0] in (_op_reg, _op_imm, _load) and e[1]:
            writes[e[1]] = None if e[1] in writes else e
    affine = {r: e for r, e in writes.items()
              if e and e[0] is _op_imm and e[5] is add and e[2] == r}
    other = set(branch[2:4])  # read other than as a load's base or by their own addi
    for _, e, _ in straight:
        if e[0] is _op_reg or e[0] is _store:
            other |= {e[2], e[3]}
        elif e[0] is _op_imm and affine.get(e[1]) is not e:
            other.add(e[2])
    # each base's stride and offsets from its value at the pass's start,
    # and each access's offset, by its place in the pass
    spans, offsets, moved, marks = {}, {}, set(), bytearray(period)
    for i, (_, e, off) in enumerate(straight):
        if affine.get(e[1]) is e:
            moved.add(e[1])
        elif e[0] is _load or e[0] is _store:
            base = e[2]
            if not base or base in writes and (base not in affine or base in other):
                return []
            step = s32(affine[base][4]) if base in affine else 0
            if step < 0 or step & 3:
                return []
            offsets[i] = e[4] + step * (base in moved)
            spans.setdefault(base, [step]).append(offsets[i])
            marks[off] = 1
    if any(len({d & 3 for d in offs}) > 1 for _, *offs in spans.values()):
        return []
    body = []
    for i, ((_, e, _), stmt) in enumerate(zip(straight, stmts)):
        if i in offsets and stmt:  # the access's word, strided from its pointer's first
            word = _plus(f"y{e[2]}", offsets[i] - min(spans[e[2]][1:]) >> 2)
            body.append((e, stmt.replace("w[i]", f"w[{word}]")))
        elif stmt and not (affine.get(e[1]) is e and e[1] in spans):  # not deferred
            body.append((e, stmt))
    moving = [(r, step) for r, (step, *_) in spans.items() if step]
    body = [*_forward(body), *(f"y{r} += {step >> 2}" for r, step in moving),
            f"if not {cond}: break"]
    room = _name(ns, _room)
    log = f"{_name(ns, bytes(marks))} * m"
    return [f"k = ({_plus('lim', wait)} - t) // {period}",
            *(f"k = {room}(g, {_plus(f'x{r}', min(offs))}, {_plus(f'x{r}', max(offs))}, "
              f"{step}, k)" for r, (step, *offs) in spans.items()),
            f"if k <= 0: {stop}",
            *(f"y{r} = {_plus(f'x{r}', min(offs) - DATA_BASE)} >> 2"
              for r, (_, *offs) in spans.items()),
            "for m in range(1, k + 1):", *("    " + line for line in body),
            *(f"x{r} += {step} * m" for r, step in moving),
            f"u = t + {period} * m",
            f"tk[t:u - {wait}] = ({log})[:-{wait}]" if wait else f"tk[t:u] = {log}",
            f"t = u; n += {len(entries)} * m; q += {len(offsets)} * m"]


def _forward(body):
    """The statements of a hoisted pass, given as (entry, statement), with
    each register write that the pass writes again forwarded where one
    later statement, an ``add``, ``sub`` or ``mul``, reads it before that
    and nothing between changes what it reads: the value is put into that
    reader without its mask, since the low 32 bits of ``+``, ``-`` and
    ``*`` depend only on those of their operands, and the write is
    dropped."""
    body = [(e, *stmt.split(" = ", 1)) for e, stmt in body]
    i = 0
    while i < len(body):
        k = _reader(body, i)
        if k is None:
            i += 1
            continue
        _, reg, value = body.pop(i)
        if value.endswith(f") & {_MASK}"):  # (expression) & mask
            value = value[:-len(f" & {_MASK}")]
        elif not value.startswith("w["):
            value = f"({value})"
        e, dst, src = body[k - 1]
        body[k - 1] = e, dst, re.sub(rf"\b{reg}\b", value, src)
    return [f"{dst} = {src}" for _, dst, src in body]


def _reader(body, i):
    """The index in `body`, as ``_forward`` holds it, of the statement that
    ``_forward`` puts the value written by statement `i` into, or None."""
    _, reg, value = body[i]
    reads, k = _NAMES.findall(value), None
    for j in range(i + 1, len(body)):
        e, dst, src = body[j]
        if reg in _NAMES.findall(src):
            if k is not None or e[5] not in (add, sub, mul) or not src.endswith(f") & {_MASK}"):
                return None
            k = j
        if dst == reg:
            return k
        if k is None and (dst in reads or dst[0] == "w" and "w[" in value):
            return None
    return None


def _room(g, lo, hi, step, k):
    """How many passes, at most `k`, keep the words from byte address
    `lo`, word-aligned, through `hi`, moved up by `step` bytes each pass
    after the first, in DataMem and before the first word marked in the
    guard `g`."""
    top = hi + step * (k - 1)
    if top > DATA_END - 3:
        top = DATA_END - 3
    if lo & 3 or lo < DATA_BASE or top < hi:
        return 0
    i = g.find(1, lo - DATA_BASE >> 2, (top - DATA_BASE >> 2) + 1)
    if i >= 0:
        top = DATA_BASE + 4 * i - 4
        if top < hi:
            return 0
    return (top - hi) // step + 1 if step else k
