"""Scenario descriptions and the flat sectioned key-value file format.

File grammar (a strict TOML subset, documented in the README):
  - `[section]` lines open a section; keys before any section are an error
  - `key = value` with value one of: integer (decimal or 0x hex), `true`,
    `false`, or a double-quoted string
  - `#` outside a double-quoted string starts a comment; blank lines
    are ignored
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from itertools import combinations

from .memmap import DATA_BASE, DATA_END, buffer_in_datamem, parse_hexwords

# default buffer placement mirrors the register-map usage example
DEFAULT_IN_ADDR = 0x0000_8000
DEFAULT_KERN_ADDR = 0x0000_8100
DEFAULT_OUT_ADDR = 0x0000_8200


class Mode(enum.Enum):
    TESTBENCH = "testbench"
    FULL_SYSTEM = "full_system"


class Kind(enum.Enum):
    CONV = "conv"
    DOT = "dot"
    CNN_LAYER = "cnn"
    DENSE_LAYER = "dense"


class ScenarioError(Exception):
    """Invalid scenario description."""


@dataclass
class Scenario:
    kind: Kind
    mode: Mode = Mode.TESTBENCH
    n: int = 0
    k: int = 0
    length: int = 0
    c: int = 0
    k_out: int = 0
    in_features: int = 0
    out_features: int = 0
    seed: int = 1
    in_addr: int | None = None
    kern_addr: int | None = None
    out_addr: int | None = None
    x_data: list | None = None
    h_data: list | None = None
    name: str = ""

    def _place_buffers(self, len_a, len_b, len_out):
        """Default placement: the example addresses when the buffers fit
        there, otherwise packed back-to-back from the start of DataMem."""
        explicit = (self.in_addr, self.kern_addr, self.out_addr)
        defaults = (DEFAULT_IN_ADDR, DEFAULT_KERN_ADDR, DEFAULT_OUT_ADDR)
        if any(a is None for a in explicit):
            fits = (len_a <= 64 and len_b <= 64
                    and len_out <= (DATA_END + 1 - DEFAULT_OUT_ADDR) // 4)
            if fits:
                packed = defaults
            else:
                a = DATA_BASE
                b = a + 4 * max(len_a, 1)
                out = b + 4 * max(len_b, 1)
                packed = (a, b, out)
            self.in_addr, self.kern_addr, self.out_addr = (
                e if e is not None else p for e, p in zip(explicit, packed))

    def validate(self):
        if self.kind in (Kind.CNN_LAYER, Kind.DENSE_LAYER) and self.mode is Mode.FULL_SYSTEM:
            raise ScenarioError(f"{self.kind.value} layers run in testbench mode only")
        if self.kind is Kind.CONV:
            if not 1 <= self.k <= self.n:
                raise ScenarioError(f"conv needs 1 <= k <= n, got k={self.k} n={self.n}")
            self._place_buffers(self.n, self.k, self.n - self.k + 1)
            self._check_buffers(self.n, self.k, self.n - self.k + 1)
        elif self.kind is Kind.DOT:
            if self.length < 0:
                raise ScenarioError("dot length must be >= 0")
            self._place_buffers(self.length, self.length, 0)
            self._check_buffers(self.length, self.length, 0, dot=True)
        elif self.kind is Kind.CNN_LAYER:
            if min(self.n, self.k, self.c, self.k_out) <= 0:
                raise ScenarioError("cnn layer needs positive n, k, c, k_out")
        else:
            if min(self.in_features, self.out_features) <= 0:
                raise ScenarioError("dense layer needs positive in/out features")

    def _check_buffers(self, len_a, len_b, len_out, dot=False):
        for name, words, want in (("x", self.x_data, len_a), ("h", self.h_data, len_b)):
            if words is not None and len(words) != want:
                raise ScenarioError(f"{name} data has {len(words)} words, needs {want}")
        buffers = [("a", self.in_addr, len_a), ("b", self.kern_addr, len_b)]
        if not dot:
            buffers.append(("out", self.out_addr, len_out))
        ranges = []
        for name, base, words in buffers:
            if not buffer_in_datamem(base, words):
                raise ScenarioError(
                    f"{name} buffer [0x{base:08x}, +{4 * words}) not in DataMem")
            ranges.append((name, base, base + 4 * max(words, 1)))
        for (p, a0, a1), (q, b0, b1) in combinations(ranges, 2):
            if a0 < b1 and b0 < a1:
                raise ScenarioError(f"{p} and {q} buffers overlap")


def _parse_value(raw, lineno):
    raw = raw.strip()
    if raw in ("true", "false"):
        return raw == "true"
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    try:
        return int(raw, 0)
    except ValueError:
        raise ScenarioError(f"line {lineno}: cannot parse value {raw!r}") from None


# a line up to its first '#' outside a double-quoted string
_BEFORE_COMMENT = re.compile(r'(?:[^"#]|"[^"]*")*')


def parse_flat_config(text):
    """Parse the sectioned key-value grammar into nested dicts."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _BEFORE_COMMENT.match(raw).group().strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key = value")
        if current is None:
            raise ScenarioError(f"line {lineno}: key before any [section]")
        key, raw_value = line.split("=", 1)
        current[key.strip()] = _parse_value(raw_value, lineno)
    return sections


def load_scenario(path):
    with open(path, encoding="utf-8") as fh:
        sections = parse_flat_config(fh.read())
    body = sections.get("scenario")
    if body is None:
        raise ScenarioError("missing [scenario] section")
    try:
        kind = Kind(body.get("kind", "conv"))
        mode = Mode(body.get("mode", "testbench"))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    sc = Scenario(
        kind=kind,
        mode=mode,
        n=int(body.get("n", 0)),
        k=int(body.get("k", 0)),
        length=int(body.get("l", body.get("length", 0))),
        c=int(body.get("c", 0)),
        k_out=int(body.get("k_out", 0)),
        in_features=int(body.get("in_features", 0)),
        out_features=int(body.get("out_features", 0)),
        seed=int(body.get("seed", 1)),
        in_addr=body.get("in_addr"),
        kern_addr=body.get("kern_addr"),
        out_addr=body.get("out_addr"),
        name=str(body.get("name", "")),
    )
    data = sections.get("data", {})
    for key, attr in (("x_file", "x_data"), ("h_file", "h_data")):
        if key in data:
            with open(data[key], encoding="utf-8") as fh:
                setattr(sc, attr, [w for _, w in parse_hexwords(fh.read())])
    sc.validate()
    return sc
