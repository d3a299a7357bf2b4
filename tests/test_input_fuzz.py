"""Fuzz the input parsers and the CLI that reads them: arbitrary text or
bytes end in a parse error or a documented exit code, never an uncaught
exception."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvdsp.cli import (EXIT_CONFIG, EXIT_FAULT, EXIT_OK, EXIT_TIMEOUT,
                       EXIT_VALIDATION, main)
from rvdsp.memmap import HexwordsError, parse_hexwords
from rvdsp.scenario import (SCENARIO_KEYS, ScenarioError, load_scenario,
                            parse_flat_config)

EXIT_CODES = {EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION, EXIT_FAULT, EXIT_TIMEOUT}

# Lines near each grammar reach past the first parse error far more often
# than arbitrary text does.  Vector lengths stay small, so that each example
# that parses runs briefly; a layer's call count may be huge, since the
# cycle budget bounds the whole layer.
_SCENARIO_LINES = st.sampled_from([
    "[scenario]", "[data]", "[other]", 'kind = "conv"', 'kind = "dot"',
    'kind = "cnn"', 'kind = "dense"', 'kind = "convv"', 'mode = "full_system"',
    "n = 8", "k = 3", "k = 9", "l = 4", "length = 0", "c = 2", "k_out = 2",
    "in_features = 3", "out_features = 2", "out_features = 1000000000",
    "k_out = 100000", "seed = -1", "in_addr = 0x8000",
    "out_addr = 0x8002", 'name = "a # b"', "n = true", "n = 1 # comment", "= 1",
    'kind = "', " [data] ", "",
])
_HEX8 = st.builds(str.__add__, st.sampled_from(["", "+", "-"]),
                  st.text("0123456789abcdefABCDEF_", min_size=7, max_size=8))
_HEX_LINES = (st.sampled_from(["@00000000", "@00008000", "00700093", "00100073",
                               "# comment", ""])
              | _HEX8 | _HEX8.map("@".__add__))


def _text(lines):
    return st.text() | st.lists(lines | st.text(max_size=10), max_size=12).map("\n".join)


SCENARIO_TEXT, HEX_TEXT = _text(_SCENARIO_LINES), _text(_HEX_LINES)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestParsers:
    @settings(max_examples=300, deadline=None)
    @given(text=SCENARIO_TEXT)
    def test_scenario_text(self, text, workdir):
        try:
            parse_flat_config(text, SCENARIO_KEYS)
        except ScenarioError:
            pass
        path = workdir / "scenario.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            load_scenario(str(path))
        except (ScenarioError, HexwordsError):
            pass

    @settings(max_examples=300, deadline=None)
    @given(text=HEX_TEXT)
    def test_hexwords_text(self, text):
        try:
            pairs = parse_hexwords(text)
        except HexwordsError:
            return
        for addr, word in pairs:
            assert 0 <= addr and 0 <= word <= 0xFFFF_FFFF


class TestCli:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_run_on_arbitrary_bytes(self, data, workdir):
        # the scenario may name a data file, which holds arbitrary bytes too
        x_file = workdir / "x.hex"
        x_file.write_bytes(data.draw(st.binary() | HEX_TEXT.map(str.encode), label="x_file"))
        lines = _SCENARIO_LINES | st.just(f'x_file = "{x_file}"')
        body = data.draw(st.binary() | _text(lines).map(str.encode), label="scenario")
        path = workdir / "scenario.cfg"
        path.write_bytes(body)
        assert main(["run", "--scenario", str(path), "--max-cycles", "10000"]) in EXIT_CODES

    @settings(max_examples=150, deadline=None)
    @given(body=st.binary() | HEX_TEXT.map(str.encode))
    def test_asm_on_arbitrary_bytes(self, body, workdir):
        path = workdir / "image.hex"
        path.write_bytes(body)
        assert main(["asm", "--list", str(path)]) in EXIT_CODES
