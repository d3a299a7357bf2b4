#!/usr/bin/env python3
"""Sweep kernel length K for N=1024 and print the analytic speedup trend."""

import argparse

from rvdsp.perfmodel import ConvWorkload, conv_model


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1024)
    parser.add_argument("--ks", type=int, nargs="+",
                        default=[2, 4, 8, 16, 32, 64, 128])
    args = parser.parse_args()

    print(f"{'K':>5} {'sw cycles':>12} {'dsp cycles':>12} {'speedup':>9}")
    for k in args.ks:
        model = conv_model(ConvWorkload(args.n, k))
        print(f"{k:>5} {model['sw_cycles']:>12} {model['dsp_cycles']:>12} "
              f"{model['speedup']:>9.4f}")
    print("\nasymptote: 10/3 = 3.3333 (per-MAC cycle ratio)")


if __name__ == "__main__":
    main()
