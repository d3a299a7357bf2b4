"""The runtime is pure Python with no dependencies: every module of the
package imports only the standard library and the package itself."""

import ast
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
