"""The per-layer tracer of ``perfbench/run.py --trace 1`` replaces each
callable it lists with ``setattr(owner, attr, wrap(vars(owner)[attr]))``,
so every one must sit in its owner's own ``__dict__``: a method that a
class only inherits would raise there, as ``ConvDsp.step`` would without
the ``step = MmioAccelerator.step`` line in each unit's class body."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_callable_is_in_its_owners_dict():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # the modules this test run imported already, not a fresh import
    sim = SimpleNamespace(**{name: importlib.import_module(f"rvdsp.{name}") for name in
                             ("scheduler", "cpu", "bus", "conv", "dotprod", "memmap")})
    targets = tracing._targets(sim)
    assert {key for _, _, key in targets} >= {"conv.step", "dotprod.step"}
    for owner, attr, key in targets:
        assert attr in vars(owner), key
