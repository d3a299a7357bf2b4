"""Command-line entry point.

Subcommands:
  run     execute a scenario file, optionally writing a JSON report,
          memory dumps, and a trace
  model   evaluate the analytic cycle/speedup/latency formulas
  compare side-by-side analytic vs simulated comparison for the
          (N=1024, K=16) reference convolution
  asm     disassemble a hexwords program image

Exit codes: 0 ok, 2 config/usage error, 3 scenario validation error,
4 simulation fault (also a host register access the bus refuses),
5 timeout.  A ``run`` whose stdout closes early (``sim run ... | head``)
still writes its other outputs and exits 0; one whose output file cannot
be written exits 2.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .bits import s32, s64
from .isa import listing
from .memmap import (DATA_BASE, HexwordsError, INST_BASE, dump_hexwords,
                     parse_hexwords)
from .perfmodel import (CnnLayerShape, ConvWorkload, cnn_layer_macs, conv_model,
                        dense_layer_macs, dot_model, dsp_conv_busy_cycles,
                        latency_seconds, layer_model)
from .scenario import (Kind, Mode, Scenario, ScenarioError, load_scenario,
                       read_text)
from .scheduler import (HostAccessError, SimConfig, SimulationFault,
                        SimulationTimeout, report_to_json, run_scenario,
                        scenario_data)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_FAULT = 4
EXIT_TIMEOUT = 5


def _cmd_run(args):
    try:
        scenario = load_scenario(args.scenario)
    except (OSError, ScenarioError, HexwordsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION if isinstance(exc, ScenarioError) else EXIT_CONFIG
    if args.dump and scenario.kind in (Kind.CNN_LAYER, Kind.DENSE_LAYER):
        print("error: --dump needs a conv or dot scenario; a layer runs one "
              "simulation per call and keeps none of their memories", file=sys.stderr)
        return EXIT_CONFIG

    for path in (args.report, args.trace, args.dump and args.dump[1]):
        why = path and _unwritable(path)
        if why:  # before the run, so that no output file is written
            print(f"error: cannot write {path}: {why}", file=sys.stderr)
            return EXIT_CONFIG
    trace_lines = [] if args.trace else None
    config = SimConfig(max_cycles=args.max_cycles,
                       trace=trace_lines.append if trace_lines is not None else None)
    try:
        report, world = run_scenario(scenario, config)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimulationTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (SimulationFault, HostAccessError) as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return EXIT_FAULT

    text = report_to_json(report)
    files = []  # (path, text) for each output file
    if args.report:
        files.append((args.report, text + "\n"))
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader left early, as `| head` does
            # a closed stdout is not a failure; point it at devnull so the
            # interpreter's flush at exit does not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.trace:
        files.append((args.trace, "\n".join(trace_lines) + "\n"))
    if args.dump:
        region, path = args.dump
        if region == "datamem":
            words, base = world.sram.words, DATA_BASE
        else:
            words, base = world.rom.words, INST_BASE
        files.append((path, dump_hexwords(words, base)))
    for path, body in files:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:  # such as a full disk
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    return EXIT_OK


def _unwritable(path):
    """Why a file cannot be written at `path`, or None if it can."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return "it is a directory"
    if not os.path.isdir(parent):
        return f"no directory {parent}"
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        return "permission denied"
    return None


def _cmd_model(args):
    kind = args.model_kind
    try:
        if kind == "conv":
            model = conv_model(ConvWorkload(args.n, args.k))
        elif kind == "dot":
            model = dot_model(args.l)
        elif kind == "cnn":
            model = layer_model(cnn_layer_macs(
                CnnLayerShape(args.n, args.k, args.c, args.k_out)))
        else:
            model = layer_model(dense_layer_macs(args.in_features, args.out_features))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sw, dsp = model["sw_cycles"], model["dsp_cycles"]
    if kind == "conv":
        print(f"C_SW   = {sw}")
        print(f"C_DSP  = {dsp}  (incl. {model['c_cfg']} config cycles)")
    elif kind == "dot":
        print(f"sw_cycles  = {sw} (per-element-only: {model['sw_cycles_per_element_only']})")
        print(f"dsp_cycles = {dsp} (per-element-only: {model['dsp_cycles_per_element_only']})")
    else:
        print(f"macs = {model['macs']}")
        print(f"sw_cycles  = {sw}")
        print(f"dsp_cycles = {dsp}")
    if "speedup" in model:  # None where it is undefined, as in the report
        speedup = model["speedup"]
        print(f"speedup = {'n/a' if speedup is None else f'{speedup:.4f}'}")
    if args.freq:
        print(f"latency_sw  = {latency_seconds(sw, args.freq) * 1e3:.5f} ms")
        print(f"latency_dsp = {latency_seconds(dsp, args.freq) * 1e3:.5f} ms")
    return EXIT_OK


def _oracle_conv(x, h):
    outputs = len(x) - len(h) + 1
    out = []
    for i in range(outputs):
        acc = 0
        for j, coeff in enumerate(h):
            acc = s64(acc + s32(x[i + j]) * s32(coeff))
        out.append(acc & 0xFFFF_FFFF)
    return out


def _cmd_compare(args):
    n, k = 1024, args.k
    freq = args.freq
    try:
        w = ConvWorkload(n, k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    model = conv_model(w)
    c_sw, c_dsp, c_cfg = model["sw_cycles"], model["dsp_cycles"], model["c_cfg"]
    busy_model = dsp_conv_busy_cycles(w)

    results = {}
    mismatches = []
    for mode in (Mode.TESTBENCH, Mode.FULL_SYSTEM):
        scenario = Scenario(kind=Kind.CONV, mode=mode, n=n, k=k, seed=7)
        try:
            report, world = run_scenario(scenario, SimConfig())
        except (SimulationTimeout, SimulationFault) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_TIMEOUT if isinstance(exc, SimulationTimeout) else EXIT_FAULT
        results[mode] = report
        if report["conv"]["busy_cycles"] != busy_model:
            mismatches.append(
                f"{mode.value}: busy {report['conv']['busy_cycles']} != model {busy_model}")
        x, h = scenario_data(scenario)
        if report["output"]["words"] != _oracle_conv(x, h):
            mismatches.append(f"{mode.value}: output differs from reference result")

    tb = results[Mode.TESTBENCH]
    fs = results[Mode.FULL_SYSTEM]
    print(f"Convolution comparison, N={n} K={k} ({w.outputs} outputs)")
    print(f"{'quantity':<34}{'software':>14}{'dsp':>14}")
    print(f"{'analytic cycles':<34}{c_sw:>14}{c_dsp:>14}")
    print(f"{f'  (dsp = busy + {c_cfg} config)':<34}{'':>14}"
          f"{busy_model:>10} + {c_cfg}")
    print(f"{'simulated busy (testbench)':<34}{'-':>14}{tb['conv']['busy_cycles']:>14}")
    print(f"{'simulated busy (full-system)':<34}{'-':>14}{fs['conv']['busy_cycles']:>14}")
    print(f"{'measured config-write cycles':<34}{'-':>14}{fs['cpu']['config_write_cycles']:>14}")
    print(f"{'speedup (analytic)':<34}{model['speedup']:>28.4f}")
    if freq:
        lsw = latency_seconds(c_sw, freq)
        ldsp = latency_seconds(c_dsp, freq)
        print(f"{'latency @ freq':<34}{lsw * 1e3:>11.5f} ms{ldsp * 1e3:>11.5f} ms")
    if mismatches:
        for line in mismatches:
            print(f"MISMATCH: {line}")
        return EXIT_FAULT
    print("all simulated figures match the analytic model")
    return EXIT_OK


def _cmd_asm(args):
    try:
        pairs = parse_hexwords(read_text(args.list))
    except (OSError, HexwordsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for addr, word in pairs:  # each word at its own address, across `@` lines
        print(listing([word], base=addr))
    return EXIT_OK


class _Dump(argparse.Action):
    """``--dump REGION FILE``: REGION is checked as ``choices`` would check
    it, which argparse applies to every value of a two-value option."""

    REGIONS = ("datamem", "instmem")

    def __call__(self, parser, namespace, values, option_string=None):
        if values[0] not in self.REGIONS:
            parser.error(f"argument --dump: invalid REGION {values[0]!r} "
                         f"(choose from {', '.join(self.REGIONS)})")
        setattr(namespace, self.dest, values)


def _at_least(low, what):
    """An argparse type: an integer of at least `low`."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {text}")
        return value
    parse.__name__ = "integer"  # argparse names it in "invalid integer value"
    return parse


def _hertz(text):
    """The value of a --freq option: a positive, finite number of hertz."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"frequency must be positive and finite, got {text}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(prog="sim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--report")
    p_run.add_argument("--dump", nargs=2, metavar=("REGION", "FILE"), action=_Dump)
    p_run.add_argument("--trace")
    p_run.add_argument("--max-cycles", type=_at_least(1, "cycle budget"),
                       default=10_000_000)
    p_run.set_defaults(func=_cmd_run)

    p_model = sub.add_parser("model", help="analytic formulas only")
    model_sub = p_model.add_subparsers(dest="model_kind", required=True)
    m_conv = model_sub.add_parser("conv")
    m_conv.add_argument("--n", type=int, required=True)
    m_conv.add_argument("--k", type=int, required=True)
    m_dot = model_sub.add_parser("dot")
    m_dot.add_argument("--l", type=_at_least(0, "length"), required=True)
    m_cnn = model_sub.add_parser("cnn")
    m_cnn.add_argument("--n", type=int, required=True)
    m_cnn.add_argument("--k", type=int, required=True)
    m_cnn.add_argument("--c", type=int, required=True)
    m_cnn.add_argument("--k-out", dest="k_out", type=int, required=True)
    m_dense = model_sub.add_parser("dense")
    m_dense.add_argument("--in-features", dest="in_features",
                         type=_at_least(0, "in_features"), required=True)
    m_dense.add_argument("--out-features", dest="out_features",
                         type=_at_least(0, "out_features"), required=True)
    for p in (m_conv, m_dot, m_cnn, m_dense):
        p.add_argument("--freq", type=_hertz, default=None)
    p_model.set_defaults(func=_cmd_model)

    p_cmp = sub.add_parser("compare", help="reference comparison run")
    p_cmp.add_argument("--k", type=int, default=16)
    p_cmp.add_argument("--freq", type=_hertz, default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    p_asm = sub.add_parser("asm", help="disassemble a hexwords image")
    p_asm.add_argument("--list", required=True, metavar="PROGRAM")
    p_asm.set_defaults(func=_cmd_asm)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
