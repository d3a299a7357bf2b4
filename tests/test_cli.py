import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rvdsp
from rvdsp import cli
from rvdsp import conv as conv_regs
from rvdsp.cli import (EXIT_CONFIG, EXIT_FAULT, EXIT_OK, EXIT_TIMEOUT,
                       EXIT_VALIDATION, main)


def write_scenario(tmp_path, body, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


CONV_SCENARIO = """
[scenario]
kind = "conv"
mode = "testbench"
n = 16
k = 3
seed = 4
"""


class TestRun:
    def test_report_to_stdout(self, tmp_path, capsys):
        path = write_scenario(tmp_path, CONV_SCENARIO)
        assert main(["run", "--scenario", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ok"
        assert report["conv"]["busy_cycles"] == (16 - 3 + 1) * (3 * 3 + 1)
        assert len(report["output"]["words"]) == 14

    def test_report_file_and_dump(self, tmp_path, capsys):
        path = write_scenario(tmp_path, CONV_SCENARIO)
        report_path = tmp_path / "report.json"
        dump_path = tmp_path / "datamem.hex"
        assert main(["run", "--scenario", path,
                     "--report", str(report_path),
                     "--dump", "datamem", str(dump_path)]) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 1
        dump = dump_path.read_text()
        assert dump.startswith("@00008000")

    @pytest.mark.parametrize("region, kind, message", [
        ("flash", "conv", "invalid REGION 'flash' (choose from datamem, instmem)"),
        ("datamem", "cnn", "--dump needs a conv or dot scenario"),
        ("instmem", "dense", "--dump needs a conv or dot scenario"),
    ], ids=["unknown region", "cnn layer", "dense layer"])
    def test_dump_is_refused_before_the_run(self, tmp_path, capsys, region, kind, message):
        # an unknown region, or a layer, which keeps no World to dump, is
        # refused with exit 2 before anything runs or is written
        path = write_scenario(tmp_path, {"conv": CONV_SCENARIO, "cnn": """
[scenario]
kind = "cnn"
n = 4
k = 2
c = 1
k_out = 1
""", "dense": """
[scenario]
kind = "dense"
in_features = 2
out_features = 2
"""}[kind])
        report, dump = tmp_path / "report.json", tmp_path / "dump.hex"
        argv = ["run", "--scenario", path, "--report", str(report),
                "--dump", region, str(dump)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not report.exists() and not dump.exists()

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_max_cycles_must_be_positive(self, tmp_path, capsys, budget):
        path = write_scenario(tmp_path, CONV_SCENARIO)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", path, "--max-cycles", budget])
        assert exc.value.code == EXIT_CONFIG
        assert f"cycle budget must be at least 1, got {budget}" in capsys.readouterr().err

    def test_trace_file(self, tmp_path):
        path = write_scenario(tmp_path, CONV_SCENARIO)
        trace_path = tmp_path / "trace.txt"
        assert main(["run", "--scenario", path,
                     "--trace", str(trace_path)]) == EXIT_OK
        lines = trace_path.read_text().splitlines()
        assert lines and all(" | " in ln for ln in lines)

    @pytest.mark.parametrize("option", ["--report", "--trace", "--dump"])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, option, where):
        # an output path that cannot be opened exits 2 with one error line
        path = write_scenario(tmp_path, CONV_SCENARIO)
        target = str(tmp_path / "missing" / "out.txt" if where == "missing directory"
                     else tmp_path)
        value = ["datamem", target] if option == "--dump" else [target]
        assert main(["run", "--scenario", path, option, *value]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and target in err

    def test_bad_output_path_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # every output path is checked before the run: a bad --dump path
        # exits 2 with one error line, no simulation and no --report file
        path = write_scenario(tmp_path, CONV_SCENARIO)
        monkeypatch.chdir(tmp_path)
        ran = []
        monkeypatch.setattr(cli, "run_scenario", lambda *args: ran.append(args))
        assert main(["run", "--scenario", path, "--report", "r.json",
                     "--dump", "datamem", "nodir/m.hex"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: cannot write nodir/m.hex: no directory nodir\n")
        assert not ran and not (tmp_path / "r.json").exists()

    def test_full_system_dump_of_instmem(self, tmp_path, capsys):
        # the image holds all of InstMem, the driver first
        body = CONV_SCENARIO.replace('"testbench"', '"full_system"')
        dump = tmp_path / "instmem.hex"
        assert main(["run", "--scenario", write_scenario(tmp_path, body),
                     "--report", str(tmp_path / "r.json"),
                     "--dump", "instmem", str(dump)]) == EXIT_OK
        lines = dump.read_text().splitlines()
        assert lines[0] == "@00000000" and len(lines) == 1 + 8192
        assert lines[1] != "00000000"

    def test_layer_that_overflows_datamem_is_refused(self, tmp_path, capsys):
        # each conv call of the layer places its buffers in DataMem
        body = '[scenario]\nkind = "cnn"\nn = 8000\nk = 4\nc = 1\nk_out = 1\n'
        assert "not in DataMem" in self._rejected(tmp_path, capsys, body)

    @pytest.mark.parametrize("line, message", [
        ("l = -1", "dot length must be >= 0"),
        ("l = 4x", "line 3: cannot parse value '4x'"),
    ])
    def test_bad_dot_length_rejected(self, tmp_path, capsys, line, message):
        err = self._rejected(tmp_path, capsys, f'[scenario]\nkind = "dot"\n{line}\n')
        assert message in err

    def test_full_system_run(self, tmp_path, capsys):
        body = CONV_SCENARIO.replace('"testbench"', '"full_system"')
        path = write_scenario(tmp_path, body)
        assert main(["run", "--scenario", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["cpu"]["retired"] > 0

    def test_refused_host_register_access_is_a_fault(self, tmp_path, capsys,
                                                     monkeypatch):
        # a testbench run writes the unit's registers from the host; one the
        # bus refuses ends the run as a fault, not a traceback
        monkeypatch.setattr(conv_regs, "OFF_KERN_LEN", 0x40)
        path = write_scenario(tmp_path, CONV_SCENARIO)
        assert main(["run", "--scenario", path]) == EXIT_FAULT
        assert capsys.readouterr().err == (
            "fault: conv: no register at offset 0x40\n")

    def test_external_data_files(self, tmp_path, capsys):
        x_path = tmp_path / "x.hex"
        h_path = tmp_path / "h.hex"
        x_path.write_text("@00008000\n" + "".join(f"{v:08X}\n" for v in (1, 2, 3, 4)))
        h_path.write_text("@00008100\n00000001\n00000001\n")
        body = f"""
[scenario]
kind = "conv"
n = 4
k = 2

[data]
x_file = "{x_path}"
h_file = "{h_path}"
"""
        path = write_scenario(tmp_path, body)
        assert main(["run", "--scenario", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["output"]["words"] == [3, 5, 7]

    def test_relative_data_files_sit_beside_the_scenario(self, tmp_path, capsys,
                                                        monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "x.hex").write_text("".join(f"{v:08X}\n" for v in (1, 2, 3, 4)))
        (sub / "h.hex").write_text("00000001\n00000001\n")
        write_scenario(sub, '[scenario]\nn = 4\nk = 2\n\n'
                       '[data]\nx_file = "x.hex"\nh_file = "h.hex"\n', "s.cfg")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--scenario", "sub/s.cfg"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["output"]["words"] == [3, 5, 7]

    def test_closed_stdout_is_not_an_error(self, tmp_path):
        # a report larger than a pipe's buffer, read once and abandoned as
        # `sim run ... | head -1` abandons it: the run still writes its
        # trace and dump and exits 0 with nothing on stderr
        path = write_scenario(tmp_path, '[scenario]\nn = 4000\nk = 1\n')
        trace, dump = tmp_path / "trace.txt", tmp_path / "dump.hex"
        env = dict(os.environ, PYTHONPATH=str(Path(rvdsp.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "rvdsp.cli", "run", "--scenario", path,
             "--trace", str(trace), "--dump", "datamem", str(dump)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (proc.wait(timeout=60), stderr) == (EXIT_OK, b"")
        assert trace.read_text().endswith("conv | done\n")
        assert dump.read_text().startswith("@00008000")

    def test_data_file_lengths_must_match(self, tmp_path, capsys):
        # conv n=4 k=2 needs 4 x words and 2 h words; dot l=8 needs 8 and 8
        def hexfile(name, count):
            path = tmp_path / name
            path.write_text("".join(f"{i + 1:08X}\n" for i in range(count)))
            return path

        def run(kind_lines, x_words, h_words):
            body = f"""
[scenario]
{kind_lines}

[data]
x_file = "{hexfile("x.hex", x_words)}"
h_file = "{hexfile("h.hex", h_words)}"
"""
            return main(["run", "--scenario", write_scenario(tmp_path, body)])

        conv = 'kind = "conv"\nn = 4\nk = 2'
        dot = 'kind = "dot"\nl = 8'
        for lines, x_words, h_words in ((conv, 1, 2), (conv, 5, 2), (conv, 4, 1),
                                        (conv, 4, 3), (dot, 1, 2), (dot, 8, 7),
                                        (dot, 9, 8), (dot, 8, 9)):
            assert run(lines, x_words, h_words) == EXIT_VALIDATION, (lines, x_words, h_words)
            assert "data has" in capsys.readouterr().err
        assert run(conv, 4, 2) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["output"]["words"] == [5, 8, 11]
        assert run(dot, 8, 8) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["result"]["lo"] == 204

    def test_layers_reject_full_system_mode(self, tmp_path, capsys):
        for body in ('kind = "cnn"\nn = 16\nk = 4\nc = 2\nk_out = 3',
                     'kind = "dense"\nin_features = 8\nout_features = 4'):
            path = write_scenario(tmp_path, f'[scenario]\n{body}\nmode = "full_system"\n')
            assert main(["run", "--scenario", path]) == EXIT_VALIDATION
            assert "testbench mode only" in capsys.readouterr().err
            path = write_scenario(tmp_path, f'[scenario]\n{body}\n')
            assert main(["run", "--scenario", path]) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["scenario"]["mode"] == "testbench"

    def test_layers_reject_data_files(self, tmp_path, capsys):
        x_path = tmp_path / "x.hex"
        x_path.write_text("00000001\n")
        body = f"""
[scenario]
kind = "cnn"
n = 4
k = 2
c = 1
k_out = 1

[data]
x_file = "{x_path}"
"""
        assert main(["run", "--scenario", write_scenario(tmp_path, body)]) == EXIT_VALIDATION
        assert "x_file/h_file apply to conv and dot only" in capsys.readouterr().err

    def _rejected(self, tmp_path, capsys, body):
        assert main(["run", "--scenario", write_scenario(tmp_path, body)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        err = self._rejected(tmp_path, capsys, '[scenario]\nkind = "dot"\nlen = 8\n')
        assert "line 3: unknown key 'len' in [scenario]" in err
        err = self._rejected(tmp_path, capsys, CONV_SCENARIO + '[data]\nxfile = "x.hex"\n')
        assert "line 9: unknown key 'xfile' in [data]" in err
        # a key another kind reads: a dot has no n, so it would run l = 0
        err = self._rejected(tmp_path, capsys, '[scenario]\nkind = "dot"\nn = 8\nk = 2\n')
        assert "dot scenarios do not use k, n" in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        err = self._rejected(tmp_path, capsys, CONV_SCENARIO + "[dsp]\nk = 3\n")
        assert "line 8: unknown section [dsp]" in err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        err = self._rejected(tmp_path, capsys, '[scenario]\nkind = "dot"\nl = 8\nl = 9\n')
        assert "line 4: duplicate key 'l' in [scenario]" in err
        err = self._rejected(tmp_path, capsys, '[scenario]\nkind = "dot"\nl = 8\nlength = 8\n')
        assert "l and length" in err
        err = self._rejected(tmp_path, capsys, '[scenario]\nkind = "dot"\n[scenario]\nl = 8\n')
        assert "line 3: duplicate section [scenario]" in err

    def test_value_types_checked(self, tmp_path, capsys):
        for line, message in (('n = "abc"', 'n must be an integer, got "abc"'),
                              ('in_addr = "0x8000"', 'in_addr must be an integer'),
                              ("seed = true", "seed must be an integer, got true"),
                              ("name = 5", "name must be a string, got 5"),
                              ("kind = 3", "kind must be a string")):
            err = self._rejected(tmp_path, capsys, f"[scenario]\n{line}\n")
            assert f"line 2: {message}" in err, err

    def test_bad_kind_or_mode_names_its_line(self, tmp_path, capsys):
        err = self._rejected(tmp_path, capsys, '[scenario]\nkind = "convv"\n')
        assert 'line 2: kind must be one of conv, dot, cnn, dense, got "convv"' in err
        err = self._rejected(tmp_path, capsys,
                             CONV_SCENARIO.replace('"testbench"', '"bench"'))
        assert 'line 4: mode must be one of testbench, full_system, got "bench"' in err

    def test_hash_inside_quoted_value(self, tmp_path, capsys):
        body = CONV_SCENARIO + 'name = "a#b"   # trailing comment "x#y"\n'
        assert main(["run", "--scenario", write_scenario(tmp_path, body)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["scenario"]["name"] == "a#b"

    def test_missing_file_is_config_error(self, capsys):
        assert main(["run", "--scenario", "/nonexistent.cfg"]) == EXIT_CONFIG

    def test_non_utf8_scenario_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe" + CONV_SCENARIO.encode("utf-16-le"))
        assert main(["run", "--scenario", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (invalid start byte at byte 0)\n")

    def test_non_utf8_data_file_is_config_error(self, tmp_path, capsys):
        x_path = tmp_path / "x.hex"
        x_path.write_bytes(b"@00008000\n\xff\n")
        path = write_scenario(tmp_path, CONV_SCENARIO + f'\n[data]\nx_file = "{x_path}"\n')
        assert main(["run", "--scenario", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {x_path}: not UTF-8 text (invalid start byte at byte 10)\n")

    def test_overlapping_buffers_rejected(self, tmp_path, capsys):
        body = """
[scenario]
kind = "conv"
n = 64
k = 8
in_addr = 0x8000
kern_addr = 0x8004
out_addr = 0x9000
"""
        path = write_scenario(tmp_path, body)
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert "overlap" in capsys.readouterr().err

    def test_bad_lengths_rejected(self, tmp_path, capsys):
        body = CONV_SCENARIO.replace("k = 3", "k = 99")
        path = write_scenario(tmp_path, body)
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION

    def test_dot_scenario(self, tmp_path, capsys):
        body = """
[scenario]
kind = "dot"
l = 5
seed = 2
"""
        path = write_scenario(tmp_path, body)
        assert main(["run", "--scenario", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["dot"]["busy_cycles"] == 16

    def test_max_cycles_bounds_whole_layer(self, tmp_path, capsys):
        # cnn: 6 conv calls of 214 cycles; dense: 4 dot calls of 29 cycles.
        # Every call fits the budget on its own, the layer does not.
        cnn = write_scenario(tmp_path, """
[scenario]
kind = "cnn"
n = 16
k = 4
c = 2
k_out = 3
""", "cnn.cfg")
        dense = write_scenario(tmp_path, """
[scenario]
kind = "dense"
in_features = 8
out_features = 4
""", "dense.cfg")
        assert main(["run", "--scenario", cnn, "--max-cycles", "300"]) == EXIT_TIMEOUT
        assert "exceeded 300 cycles" in capsys.readouterr().err
        assert main(["run", "--scenario", dense, "--max-cycles", "60"]) == EXIT_TIMEOUT
        assert main(["run", "--scenario", cnn, "--max-cycles", "1283"]) == EXIT_TIMEOUT
        capsys.readouterr()
        assert main(["run", "--scenario", cnn, "--max-cycles", "1284"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["total_cycles"] == 1284
        assert main(["run", "--scenario", dense, "--max-cycles", "116"]) == EXIT_OK

    def test_max_cycles_bounds_a_huge_layer(self, tmp_path, capsys):
        # the calls are made one at a time, so the budget ends the run long
        # before a billion dot calls could be listed
        dense = write_scenario(tmp_path, """
[scenario]
kind = "dense"
in_features = 1
out_features = 1000000000
""")
        assert main(["run", "--scenario", dense, "--max-cycles", "100"]) == EXIT_TIMEOUT
        assert capsys.readouterr().err == "timeout: exceeded 100 cycles\n"


class TestModel:
    def test_conv(self, capsys):
        assert main(["model", "conv", "--n", "1024", "--k", "16",
                     "--freq", "100e6"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "C_SW   = 166485" in out
        assert "C_DSP  = 49451" in out
        assert "3.3667" in out
        assert "1.66485 ms" in out
        assert "0.49451 ms" in out

    @pytest.mark.parametrize("argv", [["model", "conv", "--n", "4", "--k", "2"],
                                      ["model", "dense", "--in-features", "2",
                                       "--out-features", "2"], ["compare"]])
    @pytest.mark.parametrize("freq", ["0", "-1", "nan", "inf"])
    def test_frequency_must_be_positive(self, argv, freq, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--freq", freq])
        assert exc.value.code == EXIT_CONFIG
        assert "frequency must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["dot", "--l", "-3"], "length must be at least 0, got -3"),
        (["dense", "--in-features", "-1", "--out-features", "4"],
         "in_features must be at least 0, got -1"),
        (["dense", "--in-features", "4", "--out-features", "-2"],
         "out_features must be at least 0, got -2"),
    ], ids=["l", "in_features", "out_features"])
    def test_negative_shape_is_refused(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["model", *argv, "--freq", "1e6"])
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_conv_invalid(self, capsys):
        assert main(["model", "conv", "--n", "4", "--k", "9"]) == EXIT_CONFIG

    def test_cnn_invalid(self, capsys):
        assert main(["model", "cnn", "--n", "0", "--k", "2", "--c", "1",
                     "--k-out", "1"]) == EXIT_CONFIG
        assert "all layer dimensions must be positive" in capsys.readouterr().err

    def test_dot(self, capsys):
        assert main(["model", "dot", "--l", "8192"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "81925" in out and "24577" in out
        assert "81920" in out and "24576" in out

    def test_cnn(self, capsys):
        assert main(["model", "cnn", "--n", "256", "--k", "16",
                     "--c", "4", "--k-out", "8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "macs = 131072" in out
        assert "1310720" in out and "393216" in out

    def test_dense(self, capsys):
        assert main(["model", "dense", "--in-features", "128",
                     "--out-features", "64"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "macs = 8192" in out and "latency" not in out

    def test_dense_latency(self, capsys):
        assert main(["model", "dense", "--in-features", "128",
                     "--out-features", "64", "--freq", "100e6"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "latency_sw  = 0.81920 ms" in out
        assert "latency_dsp = 0.24576 ms" in out


class TestCompare:
    def test_reference_workload_matches(self, capsys):
        assert main(["compare"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "166485" in out
        assert "49451" in out
        assert "49441" in out
        assert "all simulated figures match" in out

    def test_latency_row(self, capsys):
        assert main(["compare", "--freq", "1e8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "latency @ freq" in out
        assert "1.66485 ms" in out and "0.49451 ms" in out

    def test_invalid_kernel_length(self, capsys):
        assert main(["compare", "--k", "0"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "need 1 <= K <= N, got K=0, N=1024" in captured.err and captured.out == ""


class TestAsm:
    def test_listing(self, tmp_path, capsys):
        prog = tmp_path / "prog.hex"
        prog.write_text("@00000000\n00700093\n00100073\n")
        assert main(["asm", "--list", str(prog)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "00000000: 00700093  addi x1, x0, 7"
        assert "ebreak" in out[1]

    def test_words_after_a_later_cursor_keep_their_addresses(self, tmp_path, capsys):
        prog = tmp_path / "prog.hex"
        prog.write_text("@00000000\n00000013\n@00000100\n00100073\n")
        assert main(["asm", "--list", str(prog)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out == ["00000000: 00000013  addi x0, x0, 0",
                       "00000100: 00100073  ebreak"]

    def test_bad_image(self, tmp_path, capsys):
        prog = tmp_path / "bad.hex"
        prog.write_text("zzz\n")
        assert main(["asm", "--list", str(prog)]) == EXIT_CONFIG

    def test_non_utf8_image_is_config_error(self, tmp_path, capsys):
        prog = tmp_path / "bad.hex"
        prog.write_bytes(b"@00000000\n00700093\n\xff\n")
        assert main(["asm", "--list", str(prog)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {prog}: not UTF-8 text (invalid start byte at byte 19)\n")
