"""Closed-form cycle, speedup, latency, and energy models.

These are pure functions; the simulator's measured busy-phase cycles
are checked against them in the test suite.
"""

from __future__ import annotations

import enum

from .bits import Record

DEFAULT_C_CFG = 10
PER_MAC_SW = 10
PER_MAC_DSP = 3
# software energy model: instruction fetches and register-file accesses
# per tap (4 instructions; 2 reads + 1 write each, roughly)
SW_FETCHES_PER_TAP = 4
SW_REGFILE_ACCESSES_PER_TAP = 8


class ConvWorkload(Record):
    def __init__(self, n, k):
        self.n: int = n
        self.k: int = k
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= K <= N, got K={self.k}, N={self.n}")

    @property
    def outputs(self):
        return self.n - self.k + 1


class EnergyParams(Record):
    def __init__(self, e_mul=0.0, e_add=0.0, e_mem_rd=0.0, e_instr_fetch=0.0,
                 e_regfile=0.0):
        self.e_mul: float = e_mul
        self.e_add: float = e_add
        self.e_mem_rd: float = e_mem_rd
        self.e_instr_fetch: float = e_instr_fetch
        self.e_regfile: float = e_regfile
        for name in self._fields:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class CnnLayerShape(Record):
    def __init__(self, n, k, c, k_out, b=1):
        self.n: int = n
        self.k: int = k
        self.c: int = c
        self.k_out: int = k_out
        self.b: int = b
        if min(self.n, self.k, self.c, self.k_out, self.b) <= 0:
            raise ValueError("all layer dimensions must be positive")


class EnergyMode(enum.Enum):
    SOFTWARE = "software"
    ACCELERATOR = "accelerator"


def sw_conv_cycles(w):
    """Software loop: (N - K + 1)(10K + 5)."""
    return w.outputs * (PER_MAC_SW * w.k + 5)


def dsp_conv_cycles(w, c_cfg=DEFAULT_C_CFG, c_int=0):
    """Accelerator: (N - K + 1)(3K + 1) plus config/interrupt overhead."""
    return w.outputs * (PER_MAC_DSP * w.k + 1) + c_cfg + c_int


def dsp_conv_busy_cycles(w):
    """Busy-phase cycles only, excluding configuration overhead."""
    return w.outputs * (PER_MAC_DSP * w.k + 1)


def conv_speedup(w, c_cfg=DEFAULT_C_CFG, c_int=0):
    return sw_conv_cycles(w) / dsp_conv_cycles(w, c_cfg, c_int)


def latency_seconds(cycles, freq_hz):
    if freq_hz <= 0:
        raise ValueError("frequency must be positive")
    return cycles / freq_hz


def sw_dot_cycles(length):
    return PER_MAC_SW * length + 5


def dsp_dot_cycles(length):
    return PER_MAC_DSP * length + 1


def sw_dot_cycles_rounded(length):
    """Per-element-only figure (drops the +5 constant)."""
    return PER_MAC_SW * length


def dsp_dot_cycles_rounded(length):
    """Per-element-only figure (drops the +1 constant)."""
    return PER_MAC_DSP * length


def dot_speedup(length):
    return sw_dot_cycles(length) / dsp_dot_cycles(length)


def cnn_layer_macs(shape):
    return shape.n * shape.k * shape.c * shape.k_out * shape.b


def cnn_layer_cycles(shape, per_mac_sw=PER_MAC_SW, per_mac_dsp=PER_MAC_DSP):
    macs = cnn_layer_macs(shape)
    return per_mac_sw * macs, per_mac_dsp * macs


def dense_layer_macs(in_features, out_features):
    return in_features * out_features


def energy_per_tap(params, mode, regfile_accesses=SW_REGFILE_ACCESSES_PER_TAP):
    """Energy per MAC tap: mul + add + two memory reads, plus fetch and
    register-file overhead in software mode."""
    base = params.e_mul + params.e_add + 2 * params.e_mem_rd
    if mode is EnergyMode.ACCELERATOR:
        return base
    return base + SW_FETCHES_PER_TAP * params.e_instr_fetch \
        + regfile_accesses * params.e_regfile
