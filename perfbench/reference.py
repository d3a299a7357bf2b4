"""A fixed pure-Python loop that measures how fast the host is right now.

On a shared host the speed of one core drifts: on a 2-core VM with
Python 3.11 the same ``dsp_testbench`` run took anywhere from 0.8 to 1.7 s
within one minute, and the time of this loop rose and fell with it.
``run.py`` times this loop after every simulator run and reports the run's
host time in units of the loop's time next to it, which cancels most of
that drift.

The loop is the benchmark's own code and never changes with the simulator.
It does the kind of work the simulator's hot path does: method calls on a
small object, list indexing, integer masking and branches.
"""

from __future__ import annotations

from time import perf_counter

MASK32 = 0xFFFF_FFFF
STEPS = 400_000

# (opcode, a, b): a tiny register machine's fixed program
PROGRAM = ((0, 1, 2), (1, 2, 1), (2, 1, 3), (0, 3, 1), (3, 4, 2),
           (1, 5, 4), (0, 2, 5), (2, 5, 6), (3, 6, 1), (0, 7, 6))


class Machine:
    __slots__ = ("regs", "mem", "pc", "cycle")

    def __init__(self):
        self.regs = list(range(8))
        self.mem = [0] * 256
        self.pc = 0
        self.cycle = 0

    def step(self):
        op, a, b = PROGRAM[self.pc]
        regs = self.regs
        if op == 0:
            regs[a] = (regs[a] + regs[b] + 1) & MASK32
        elif op == 1:
            regs[a] = ((regs[a] * 31) ^ regs[b]) & MASK32
        elif op == 2:
            self.mem[regs[b] & 255] = regs[a]
        else:
            regs[a] = self.mem[regs[b] & 255]
        self.pc = (self.pc + 1) % len(PROGRAM)
        self.cycle += 1


def reference_loop(steps=STEPS):
    """Run the machine for `steps` steps; returns its register checksum."""
    machine = Machine()
    step = machine.step
    for _ in range(steps):
        step()
    return sum(machine.regs) & MASK32


def time_reference():
    """Host seconds of one reference loop."""
    start = perf_counter()
    reference_loop()
    return perf_counter() - start
