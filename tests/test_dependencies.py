"""The runtime is pure Python with no dependencies: every module of the
package imports only the standard library and the package itself, and
start-up leaves out what it does not use (``dataclasses``, ``inspect``).
The scripts that time the import and print the generated blocks run."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rvdsp"


def test_runtime_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:  # not an import, or a relative one within the package
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # every process pays for what the package imports at start-up:
    # ``dataclasses`` pulls in ``inspect``, and each decorated class costs
    # more again, so the value classes define their own ``__init__``
    code = ("import sys, rvdsp.cli, rvdsp.scheduler; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_cost_script_times_every_module():
    script = SRC.parent.parent / "scripts" / "import_cost.py"
    done = subprocess.run([sys.executable, str(script), "--runs", "1"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    names = {f"rvdsp.{path.stem}" for path in SRC.glob("*.py")} - {"rvdsp.__init__"}
    assert {row[0] for row in rows[:-2]} == names | {"rvdsp"}
    assert rows[-2][0] == "total" and rows[-1][:2] == ["import", "wall"]
    assert min(map(float, rows[-2][1:] + rows[-1][2:])) > 0


def test_show_blocks_script_prints_the_kernels_blocks():
    script = SRC.parent.parent / "scripts" / "show_blocks.py"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    for shape in (["384", "24"], ["256", "16"]):  # the sw_kernel and contended kernels
        done = subprocess.run([sys.executable, str(script), *shape], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        headers = [line for line in done.stdout.splitlines() if line.startswith("<block")]
        assert headers == ["<block 0x00000024>"]  # the loop nest, at the tap loop's head
        assert done.stdout.count("def block(c, r, w, tk, g, t, lim):") == 1
        # the tap pass is written once, in the hoisted loop
        assert done.stdout.count("x7 = (x5 * x6)") == 1
    # a K=2 kernel's tap loop never branches back, so no loop gets a block
    done = subprocess.run([sys.executable, str(script), "16", "2"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and "<block" not in done.stdout, done.stderr
    # a reader that has closed the pipe, as `head` does after its lines, with
    # stdout buffered or not
    for unbuffered in ("", "1"):
        read, write = os.pipe()
        os.close(read)
        done = subprocess.run([sys.executable, str(script), "16", "6"],
                              env={**env, "PYTHONUNBUFFERED": unbuffered}, stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        os.close(write)
        assert (done.returncode, done.stderr) == (0, "")
