"""Per-layer host-time accounting, installed from outside the simulator.

``LayerTracer`` replaces the simulator's public callables with wrappers
that count calls and accumulate self time (a call's duration minus the time
spent in wrapped calls it makes). About a million calls happen per run, so
the tracer keeps one accumulator per callable rather than one span per call.
Leaving the ``with`` block restores the original callables.
"""

from __future__ import annotations

from time import perf_counter


def _targets(sim):
    """(owner, attribute, accumulator key) for every wrapped callable."""
    return (
        (sim.scheduler.World, "step", "scheduler.step"),
        (sim.cpu.Cpu, "step", "cpu.step"),
        (sim.cpu.Cpu, "observe", "cpu.observe"),
        (sim.cpu, "decode", "isa.decode"),
        (sim.bus.Bus, "step", "bus.step"),
        (sim.bus.Bus, "post", "bus.post"),
        (sim.conv.ConvDsp, "step", "conv.step"),
        (sim.dotprod.DotDsp, "step", "dotprod.step"),
        (sim.memmap.Sram, "read_word", "memmap.sram_read"),
        (sim.memmap.Sram, "write_word", "memmap.sram_write"),
        (sim.memmap.Rom, "read_word", "memmap.rom_read"),
        (sim.bus, "decode_address", "memmap.decode_address"),
        (sim.cpu, "decode_address", "memmap.decode_address"),
    )


class LayerTracer:
    def __init__(self, sim):
        self._targets = _targets(sim)
        self.calls = {key: 0 for _, _, key in self._targets}
        self.self_s = {key: 0.0 for _, _, key in self._targets}
        # _stack[-1] sums the time of wrapped calls made by the innermost
        # open wrapped call; _stack[0] collects calls made from outside.
        self._stack = [0.0]
        self._saved = []

    @property
    def inside_s(self):
        """Host time spent inside wrapped calls, i.e. the sum of self times."""
        return self._stack[0]

    def _wrap(self, key, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                calls[key] += 1
                self_s[key] += elapsed - stack.pop()
                stack[-1] += elapsed

        return wrapper

    def __enter__(self):
        for owner, attr, key in self._targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(key, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
