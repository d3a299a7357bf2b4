#!/usr/bin/env python3
"""Print the source of every block the software conv kernel runs.

    PYTHONPATH=src python3 scripts/show_blocks.py N K

Runs ``run_sw_conv_benchmark(N, K)`` and prints, for each ROM pc that got
a block (``Cpu._translate``), the block's name, as tracebacks show it, and
the Python source generated for it.  Only a loop gets a block: the
kernel's loop nest runs as one, at its tap loop's head.  A kernel whose
tap loop never branches back (K of 2 or 3) has no loop that gets one, and
prints no block.
"""

import argparse
import os
import sys

from rvdsp.scheduler import run_sw_conv_benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int)
    parser.add_argument("k", type=int)
    args = parser.parse_args()
    try:
        _, world = run_sw_conv_benchmark(args.n, args.k)
    except ValueError as exc:  # a shape the kernel or DataMem cannot take
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        for pc, block in sorted(world.rom.blocks.items()):
            if block is not None:
                print(f"<block 0x{pc:08x}>\n{block[0].source}\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early, as `| head` does
        # point stdout at devnull, so the interpreter's flush at exit does
        # not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
