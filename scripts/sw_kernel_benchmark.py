#!/usr/bin/env python3
"""Measure the generated software convolution kernel against the cycle model."""

import argparse
import sys

from rvdsp.scheduler import run_sw_conv_benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    try:
        report, world = run_sw_conv_benchmark(args.n, args.k, seed=args.seed)
    except ValueError as exc:  # a shape the kernel or DataMem cannot take
        print(f"error: {exc}", file=sys.stderr)
        return 2
    model = report["model_sw_cycles"]
    measured = report["cpu_cycles"]
    delta = 100.0 * (measured - model) / model
    print(f"N={args.n} K={args.k}")
    print(f"measured CPU cycles : {measured}")
    print(f"model cycles        : {model}")
    print(f"delta               : {delta:+.1f}%")
    print(f"instructions retired: {report['retired']}")


if __name__ == "__main__":
    sys.exit(main())
