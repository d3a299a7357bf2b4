#!/usr/bin/env python3
"""Time the import of rvdsp, module by module, in fresh interpreters.

Each run starts ``python -S`` (no ``site``, whose start-up is not the
simulator's), imports ``rvdsp.cli``, which loads every module of the
package, and times two parts of each module's load:

- compile: its source to bytecode, as an import with no cached bytecode
  does (``perfbench`` imports a fresh export with
  ``PYTHONDONTWRITEBYTECODE=1``, so it pays this on every set-up);
- exec: running its body, less the package modules it imports, which
  count on their own rows. The standard-library modules that a body is
  the first to import count in its exec, and are named beside it.

The first ``compile`` of a process costs about 1 ms more than later ones,
whatever it compiles, so one is made before timing. The table gives the
median of each cell over the runs, and the totals.

    python3 scripts/import_cost.py [--runs 5]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# run in the child: a finder ahead of the path finder that loads each
# package module through a loader which times its compile and its exec
_CHILD = r"""
import sys
from importlib.machinery import PathFinder
from time import perf_counter

times, stack, claimed = {}, [], set()


class Timed:
    def __init__(self, loader):
        self.loader = loader

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        path = self.loader.get_filename(module.__name__)
        source = self.loader.get_data(path)
        t0 = perf_counter()
        code = compile(source, path, "exec", dont_inherit=True)
        t1 = perf_counter()
        before = set(sys.modules)
        stack.append(0.0)
        exec(code, module.__dict__)
        t2 = perf_counter()
        nested = stack.pop()
        if stack:
            stack[-1] += t2 - t0
        new = {m for m in set(sys.modules) - before - claimed
               if not m.startswith("rvdsp")}
        claimed.update(new)
        times[module.__name__] = (t1 - t0, t2 - t1 - nested, sorted(
            m for m in new if "." not in m and not m.startswith("_")))


class Finder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name != "rvdsp" and not name.startswith("rvdsp."):
            return None
        spec = PathFinder.find_spec(name, path)
        spec.loader = Timed(spec.loader)
        return spec


sys.meta_path.insert(0, Finder)
compile("pass", "<warm-up>", "exec")  # the first compile of a process costs ~1 ms more
t0 = perf_counter()
import rvdsp.cli
wall = perf_counter() - t0
import json
print(json.dumps({"wall": wall, "modules": times}))
"""


def run_once():
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-S", "-c", _CHILD], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="fresh interpreters to take the median over")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    runs = [run_once() for _ in range(args.runs)]
    names = sorted(runs[0]["modules"])

    def ms(values):
        return 1e3 * statistics.median(values)

    print(f"python -S {sys.version.split()[0]}, median of {args.runs} fresh "
          f"run(s), every module compiled from source")
    print(f"{'module':<18} {'compile ms':>10} {'exec ms':>8}  standard library first imported")
    for name in names:
        compile_s, exec_s, stdlib = zip(*(run["modules"][name] for run in runs))
        print(f"{name:<18} {ms(compile_s):>10.2f} {ms(exec_s):>8.2f}  "
              f"{', '.join(stdlib[0])}")
    compile_total = ms([sum(run["modules"][n][0] for n in names) for run in runs])
    exec_total = ms([sum(run["modules"][n][1] for n in names) for run in runs])
    print(f"{'total':<18} {compile_total:>10.2f} {exec_total:>8.2f}")
    print(f"{'import wall':<18} {ms([run['wall'] for run in runs]):>10.2f}")


if __name__ == "__main__":
    main()
