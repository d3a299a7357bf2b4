"""Scenario descriptions and the flat sectioned key-value file format.

File grammar (a strict TOML subset, documented in the README):
  - `[section]` lines open a section; keys before any section are an error
  - `key = value` with value one of: integer (decimal or 0x hex), `true`,
    `false`, or a double-quoted string
  - `#` outside a double-quoted string starts a comment; blank lines
    are ignored
  - only the sections and keys in `SCENARIO_KEYS` are accepted, each at
    most once, and each value must have the type listed there (a string
    for an enum: one of its values)
"""

from __future__ import annotations

import enum
import os
import re
from itertools import combinations

from .bits import Record
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


# the integer [scenario] keys each kind reads besides seed
_KIND_KEYS = {
    Kind.CONV: {"n", "k", "in_addr", "kern_addr", "out_addr"},
    Kind.DOT: {"l", "length", "in_addr", "kern_addr"},
    Kind.CNN_LAYER: {"n", "k", "c", "k_out"},
    Kind.DENSE_LAYER: {"in_features", "out_features"},
}

# every section and key a scenario file may set, with its value's type
SCENARIO_KEYS = {
    "scenario": {"kind": Kind, "mode": Mode, "name": str, "seed": int,
                 **{key: int for keys in _KIND_KEYS.values() for key in keys}},
    "data": {"x_file": str, "h_file": str},
}


class ScenarioError(Exception):
    """Invalid scenario description."""


class Scenario(Record):
    def __init__(self, kind, mode=Mode.TESTBENCH, n=0, k=0, length=0, c=0,
                 k_out=0, in_features=0, out_features=0, seed=1, in_addr=None,
                 kern_addr=None, out_addr=None, x_data=None, h_data=None,
                 name=""):
        self.kind: Kind = kind
        self.mode: Mode = mode
        self.n: int = n
        self.k: int = k
        self.length: int = length
        self.c: int = c
        self.k_out: int = k_out
        self.in_features: int = in_features
        self.out_features: int = out_features
        self.seed: int = seed
        self.in_addr: int | None = in_addr
        self.kern_addr: int | None = kern_addr
        self.out_addr: int | None = out_addr
        self.x_data: list | None = x_data
        self.h_data: list | None = h_data
        self.name: str = name

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
        if self.kind in (Kind.CNN_LAYER, Kind.DENSE_LAYER):
            if self.mode is Mode.FULL_SYSTEM:
                raise ScenarioError(f"{self.kind.value} layers run in testbench mode only")
            if self.x_data is not None or self.h_data is not None:
                raise ScenarioError(f"{self.kind.value} layers generate their own data; "
                                    "x_file/h_file apply to conv and dot only")
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
                    f"{name} buffer [{'-' * (base < 0)}0x{abs(base):08x}, "
                    f"+{4 * words}) not in DataMem")
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


def parse_flat_config(text, schema):
    """Parse the sectioned key-value grammar into nested dicts.

    `schema` maps each allowed section to its allowed keys and their value
    types; a string naming a member of an enum type becomes that member.
    An unknown section or key, a section or key given twice, or a value of
    another type (``true`` is not an integer) is rejected with its line.
    """
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _BEFORE_COMMENT.match(raw).group().strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in schema:
                raise ScenarioError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ScenarioError(f"line {lineno}: duplicate section [{name}]")
            current = sections[name] = {}
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key = value")
        if current is None:
            raise ScenarioError(f"line {lineno}: key before any [section]")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        want = schema[name].get(key)
        if want is None:
            raise ScenarioError(f"line {lineno}: unknown key {key!r} in [{name}]")
        if key in current:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r} in [{name}]")
        value = _parse_value(raw_value, lineno)
        if issubclass(want, enum.Enum) and type(value) is str:
            try:
                value = want(value)
            except ValueError:
                raise ScenarioError(
                    f"line {lineno}: {key} must be one of "
                    f"{', '.join(m.value for m in want)}, got {raw_value}") from None
        if type(value) is not want:
            raise ScenarioError(
                f"line {lineno}: {key} must be "
                f"{'an integer' if want is int else 'a string'}, got {raw_value}")
        current[key] = value
    return sections


def read_text(path):
    """The file at `path` as UTF-8 text; text that is not UTF-8 raises an
    OSError naming the file, as an unreadable file does."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_scenario(path):
    sections = parse_flat_config(read_text(path), SCENARIO_KEYS)
    body = sections.get("scenario")
    if body is None:
        raise ScenarioError("missing [scenario] section")
    if "l" in body and "length" in body:
        raise ScenarioError("l and length name the same key; set one")
    kind = body.get("kind", Kind.CONV)
    unused = set(body) - {"kind", "mode", "name", "seed"} - _KIND_KEYS[kind]
    if unused:
        raise ScenarioError(f"{kind.value} scenarios do not use "
                            f"{', '.join(sorted(unused))}")
    sc = Scenario(**{"kind": kind, **{"length" if key == "l" else key: value
                                      for key, value in body.items()}})
    data = sections.get("data", {})
    for key, attr in (("x_file", "x_data"), ("h_file", "h_data")):
        if key in data:  # a relative path names a file beside the scenario
            text = read_text(os.path.join(os.path.dirname(path), data[key]))
            setattr(sc, attr, [w for _, w in parse_hexwords(text)])
    sc.validate()
    return sc
