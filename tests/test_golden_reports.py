"""Golden lock on reports, traces and the DSP register protocol.

Each case runs with a trace callback and hashes its canonical text:
``report_to_json(report)``, a newline, then the trace lines joined by
newlines (or an exception message, or a register-read transcript). Any
change to a simulated cycle count, counter, output word, report key,
trace line or register readback changes a digest, so a refactor that
passes this file preserved the observable behaviour.

Regenerate only for a change that sets out to alter behaviour:
``PYTHONPATH=src python3 tests/test_golden_reports.py``.
"""

import hashlib

import pytest

from rvdsp import conv as conv_regs
from rvdsp import dotprod as dot_regs
from rvdsp.accel import DspState
from rvdsp.mac import Truncation
from rvdsp.memmap import CONV_BASE, DATA_BASE, DOT_BASE
from rvdsp.prng import SplitMix64
from rvdsp.scenario import Kind, Mode, Scenario
from rvdsp.scheduler import (SimConfig, SimulationFault, SimulationTimeout,
                             World, report_to_json, run_scenario,
                             run_sw_conv_benchmark)

TB, FS = Mode.TESTBENCH, Mode.FULL_SYSTEM
WRAP, SAT = Truncation.WRAP, Truncation.SATURATE


def _scenario_text(scenario, **config):
    lines = []
    report, _ = run_scenario(scenario, SimConfig(trace=lines.append, **config))
    return report_to_json(report) + "\n" + "\n".join(lines)


def _conv(mode, truncation, n=20, k=4, seed=3, **fields):
    return lambda: _scenario_text(
        Scenario(kind=Kind.CONV, mode=mode, n=n, k=k, seed=seed, **fields),
        truncation=truncation)


def _dot(mode, truncation, length=12, seed=5):
    return lambda: _scenario_text(
        Scenario(kind=Kind.DOT, mode=mode, length=length, seed=seed),
        truncation=truncation)


def _cnn():
    return _scenario_text(Scenario(kind=Kind.CNN_LAYER, n=16, k=4, c=2,
                                   k_out=3, seed=9))


def _dense():
    return _scenario_text(Scenario(kind=Kind.DENSE_LAYER, in_features=8,
                                   out_features=4, seed=6))


def _sw_kernel():
    lines = []
    report, _ = run_sw_conv_benchmark(24, 5, seed=2,
                                      config=SimConfig(trace=lines.append))
    return report_to_json(report) + "\n" + "\n".join(lines)


def _timeout():
    lines = []
    with pytest.raises(SimulationTimeout) as info:
        run_scenario(Scenario(kind=Kind.CONV, n=64, k=8, seed=1),
                     SimConfig(max_cycles=100, trace=lines.append))
    return str(info.value) + "\n" + "\n".join(lines)


def _conv_world(config, n, k, in_addr, kern_addr, out_addr, seed=4):
    """A testbench World with a random x/h preloaded and conv started by
    register writes (six cycles)."""
    world = World(config)
    rng = SplitMix64(seed)
    world.write_words(in_addr, rng.words(n))
    world.write_words(kern_addr, rng.words(k))
    for off, value in ((conv_regs.OFF_IN_ADDR, in_addr),
                       (conv_regs.OFF_KERN_ADDR, kern_addr),
                       (conv_regs.OFF_OUT_ADDR, out_addr),
                       (conv_regs.OFF_IN_LEN, n), (conv_regs.OFF_KERN_LEN, k),
                       (conv_regs.OFF_CONTROL, 1)):
        world.reg_write(CONV_BASE + off, value)
    return world


def _conv_state(world):
    conv = world.conv
    return (f"cycle={world.cycle} grants={world.bus.grants} "
            f"stalls={world.bus.stalls} busy={conv.busy_cycles} "
            f"macs={conv.macs} out_idx={conv.out_idx} kern_idx={conv.kern_idx} "
            f"accum={conv.accum} x={conv._x_val} mmi={conv.mmi} "
            f"sram={hashlib.sha256(repr(world.sram.words).encode()).hexdigest()}")


def _timeout_mid_output():
    # conv n=40 k=5 starts at cycle 6 and takes 16 cycles per output; the
    # budget ends 7 cycles into the fourth output
    lines = []
    world = _conv_world(SimConfig(max_cycles=6 + 3 * 16 + 7, trace=lines.append),
                        40, 5, DATA_BASE, DATA_BASE + 0x100, DATA_BASE + 0x200)
    with pytest.raises(SimulationTimeout) as info:
        world.run_until(lambda: world.conv.state is not DspState.RUN)
    return "\n".join([str(info.value), _conv_state(world)] + lines)


def _conv_overlapping(shift):
    """Register-driven conv n=24 k=4 whose output buffer starts `shift`
    words into its input (the scenario checks reject such a layout)."""
    def run():
        lines = []
        in_addr = DATA_BASE + 0x40
        world = _conv_world(SimConfig(trace=lines.append), 24, 4,
                            in_addr, DATA_BASE, in_addr + 4 * shift)
        world.run_until(lambda: world.conv.state is not DspState.RUN)
        readback = [world.reg_read(CONV_BASE + off) for off in range(0, 0x20, 4)]
        return "\n".join([_conv_state(world), f"regs={readback}",
                          f"mem={world.read_words(in_addr, 24 + shift)}"] + lines)
    return run


def _fault():
    world = World(SimConfig(), with_cpu=True)
    world.rom.load([0xFFFF_FFFF])
    with pytest.raises(SimulationFault) as info:
        world.run_until_halt()
    return f"{info.value}\ncycle {world.cycle}"


def _register_session(base, regs, dsp_name, configs):
    """Scripted register traffic: readback of all eight offsets after each
    step, covering config writes, read-only writes, writes while busy, a
    start while DONE, IRQ_CLEAR, int_en and an unmapped offset."""
    lines = []
    world = World(SimConfig(trace=lines.append))
    dsp = getattr(world, dsp_name)
    world.write_words(DATA_BASE, [7, -3, 11, 2, -9, 4, 1, -1])

    def snapshot(tag):
        regs_now = [world.reg_read(base + off) for off in range(0, 0x20, 4)]
        lines.append(f"{tag}: {regs_now} state={dsp.state.value} "
                     f"irq={dsp.irq_line} busy={dsp.busy_cycles} "
                     f"macs={dsp.macs} cycle={world.cycle}")

    snapshot("reset")
    for off, value in configs:
        world.reg_write(base + off, value)
    snapshot("configured")
    for off in range(0, 0x20, 4):
        if off not in {o for o, _ in configs} | {regs.OFF_CONTROL, regs.OFF_IRQ_CLEAR}:
            world.reg_write(base + off, 0xFFFF)
    snapshot("read-only writes")
    world.reg_write(base + regs.OFF_CONTROL, 3)
    world.reg_write(base + configs[0][0], 0x8800)
    world.reg_write(base + regs.OFF_CONTROL, 1)
    snapshot("busy writes")
    world.run_until(lambda: dsp.state.value != "run")
    snapshot("finished")
    world.reg_write(base + regs.OFF_CONTROL, 1)
    for _ in range(5):
        world.step()
    snapshot("start while done")
    world.reg_write(base + regs.OFF_IRQ_CLEAR, 0)
    snapshot("irq clear 0")
    world.reg_write(base + regs.OFF_IRQ_CLEAR, 1)
    snapshot("irq clear 1")
    for off, value in ((configs[-1][0], 0), (regs.OFF_CONTROL, 1)):
        world.reg_write(base + off, value)
    world.run_until(lambda: dsp.state.value != "run")
    snapshot("restart")
    with pytest.raises(RuntimeError) as info:
        world.reg_read(base + 0x40)
    lines.append(str(info.value))
    return "\n".join(lines)


def _conv_registers():
    return _register_session(CONV_BASE, conv_regs, "conv", [
        (conv_regs.OFF_IN_ADDR, DATA_BASE),
        (conv_regs.OFF_KERN_ADDR, DATA_BASE + 0x10),
        (conv_regs.OFF_OUT_ADDR, DATA_BASE + 0x40),
        (conv_regs.OFF_IN_LEN, 6),
        (conv_regs.OFF_KERN_LEN, 2)])


def _dot_registers():
    return _register_session(DOT_BASE, dot_regs, "dot", [
        (dot_regs.OFF_VA_ADDR, DATA_BASE),
        (dot_regs.OFF_VB_ADDR, DATA_BASE + 0x10),
        (dot_regs.OFF_LEN, 3)])


def _rejected_starts():
    lines = []
    world = World(SimConfig(trace=lines.append))
    for off, value in ((conv_regs.OFF_IN_LEN, 4), (conv_regs.OFF_KERN_LEN, 0),
                       (conv_regs.OFF_CONTROL, 3)):
        world.reg_write(CONV_BASE + off, value)
    for off, value in ((dot_regs.OFF_VA_ADDR, DATA_BASE + 2),
                       (dot_regs.OFF_LEN, 1), (dot_regs.OFF_CONTROL, 1)):
        world.reg_write(DOT_BASE + off, value)
    lines.append(f"conv status={world.reg_read(CONV_BASE + conv_regs.OFF_STATUS)} "
                 f"irq={world.conv.irq_line}")
    lines.append(f"dot status={world.reg_read(DOT_BASE + dot_regs.OFF_STATUS)} "
                 f"irq={world.dot.irq_line} cycle={world.cycle}")
    return "\n".join(lines)


CASES = {
    "conv_tb_wrap": _conv(TB, WRAP),
    "conv_tb_saturate": _conv(TB, SAT),
    "conv_fs_wrap": _conv(FS, WRAP),
    "conv_fs_saturate": _conv(FS, SAT),
    "conv_tb_n1_k1": _conv(TB, WRAP, n=1, k=1),
    "conv_fs_n1_k1": _conv(FS, WRAP, n=1, k=1),
    "conv_tb_k1": _conv(TB, WRAP, n=20, k=1),
    "conv_tb_k_eq_n": _conv(TB, SAT, n=20, k=20),
    "conv_in_place_registers": _conv_overlapping(0),
    # each output lands on an input word that the next output still reads
    "conv_out_feeds_input_registers": _conv_overlapping(1),
    "conv_tb_explicit_data": _conv(TB, SAT, n=5, k=2, x_data=[2**31 - 1, 5, -7, 3, 0],
                                   h_data=[2, -2**31], in_addr=0x9000,
                                   kern_addr=0x9100, out_addr=0x9200),
    "dot_tb_wrap": _dot(TB, WRAP),
    "dot_tb_saturate": _dot(TB, SAT),
    "dot_fs_wrap": _dot(FS, WRAP),
    "dot_fs_saturate": _dot(FS, SAT),
    "dot_tb_l0": _dot(TB, WRAP, length=0),
    "dot_fs_l0": _dot(FS, WRAP, length=0),
    "cnn_16_4_2_3": _cnn,
    "dense_8x4": _dense,
    "sw_kernel_24_5": _sw_kernel,
    "timeout_conv": _timeout,
    "timeout_conv_mid_output": _timeout_mid_output,
    "fault_illegal_instruction": _fault,
    "conv_register_protocol": _conv_registers,
    "dot_register_protocol": _dot_registers,
    "rejected_starts": _rejected_starts,
}

GOLDEN = {
    "cnn_16_4_2_3": "0aea35ea0cbc81c7fd946541bc00b0d71092f4a04fb56e31395383b45d461f12",
    "conv_fs_n1_k1": "70b4f38ecd9ddf6937ee767d89de0b478aed3fd4ae3d66ba00f5d9ba9eb10628",
    "conv_fs_saturate": "e79b0cb6eab87d74946b53268a6479a8f45f3584d6617ee8c509facaa5c096fc",
    "conv_fs_wrap": "3f464eedc29c54780a0417dc0e0e4fe0f519070e8c9bcb0b933f76e62564402b",
    "conv_in_place_registers": "09fc973ac025e0ae6d95035cdc9e3e9c693cc0d17ab1eaf57bec85ba1c55b54d",
    "conv_out_feeds_input_registers": "f10758541c5bd5b12e0a175df9b022022b2d25b9629b38fc0025d1cc8693a682",
    "conv_register_protocol": "a26fd7b29f66d3fc81963c65717ad67867bdf5ce9d93a115244657d26402df28",
    "conv_tb_explicit_data": "e78df7a66852e692cc2f4e5c980cc19155ede6fc132ebcf77a6f5018614faf2e",
    "conv_tb_k1": "54170fbce8fd5d2a954b59b397977e942b7db32d916db1d861be40b406f99f31",
    "conv_tb_k_eq_n": "08c1893723fc6fefe399379b824e65b3230e775304a89f0ac55777417360c55c",
    "conv_tb_n1_k1": "3e313d96cc8cc58ce92be648dc81c48510d5aa07d763b45db131075bbb12e3b7",
    "conv_tb_saturate": "5f0ba21abc5aa80acd1e01d241430ee1657433126f0cf1569674ae57ec3c489c",
    "conv_tb_wrap": "9735f7dd230d9359e82ad0f49cbe918e3662755246761b3cab47d17c2b8d1643",
    "dense_8x4": "8dfcf2b22ddbf376da20074e29ed4d1f83b9982b5a4b5c596af3772f5ca7fa08",
    "dot_fs_l0": "7fc26212e0fe27f0c624dedd2404aa4735c57240b1bbcac72f00de6c8de087e6",
    "dot_fs_saturate": "4e167801abdc058b5b41cc95f8b6570a3bcb43661a7a600622ce7d6d9654635a",
    "dot_fs_wrap": "4e167801abdc058b5b41cc95f8b6570a3bcb43661a7a600622ce7d6d9654635a",
    "dot_register_protocol": "5628ac63724ccbdc5ff9ac9beafa320a6f4a0f6108ef41cd9ce2edd811a67f20",
    "dot_tb_l0": "e9a641a0e5225bc08d91f095a53ddbe60eeaebff88cfde97d3d0f741d7b9ec8c",
    "dot_tb_saturate": "1a97bb275381db308e52b401407d23af72cd183db8b4b5eee771adf67ddcbd94",
    "dot_tb_wrap": "1a97bb275381db308e52b401407d23af72cd183db8b4b5eee771adf67ddcbd94",
    "fault_illegal_instruction": "769ac6632d9d611ce2389e62a2aa13a05e7381a7699eb09ce0207d95f0f2a44b",
    "rejected_starts": "c37a0dfe3517b2975e06ab8b3390e75e640d0c0d8b94a2a64f4af2a352b2c1e0",
    "sw_kernel_24_5": "be84b2116f588874190cb5474d17f43d6c7beb959b41f9dc9a4b0d7c70e84bd6",
    "timeout_conv": "4eff1c2d8280ba115b91d81ba8f11fc487f6159c882224c706362def7f0b1294",
    "timeout_conv_mid_output": "b8c7ca268caa600ba74449e00b8517018d90af19846fada1b00006ffe652fbcb",
}


def _digest(name):
    return hashlib.sha256(CASES[name]().encode()).hexdigest()


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert _digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{_digest(case)}",')
