import pytest
from hypothesis import given
from hypothesis import strategies as st

from rvdsp.perfmodel import (CnnLayerShape, ConvWorkload, EnergyMode,
                             EnergyParams, cnn_layer_cycles, cnn_layer_macs,
                             conv_speedup, dense_layer_macs, dot_speedup,
                             dsp_conv_busy_cycles, dsp_conv_cycles,
                             dsp_dot_cycles, dsp_dot_cycles_rounded,
                             energy_per_tap, latency_seconds, sw_conv_cycles,
                             sw_dot_cycles, sw_dot_cycles_rounded)

W_LARGE = ConvWorkload(n=1024, k=16)
W_SMALL = ConvWorkload(n=64, k=8)


class TestConvModel:
    def test_large_workload(self):
        assert sw_conv_cycles(W_LARGE) == 166_485
        assert dsp_conv_cycles(W_LARGE) == 49_451
        assert dsp_conv_busy_cycles(W_LARGE) == 49_441 == 1009 * 49
        assert conv_speedup(W_LARGE) == pytest.approx(3.3667, abs=5e-5)

    def test_small_workload(self):
        assert sw_conv_cycles(W_SMALL) == 4_845
        assert dsp_conv_cycles(W_SMALL) == 1_435

    def test_config_and_interrupt_overhead(self):
        w = ConvWorkload(n=8, k=2)
        assert dsp_conv_cycles(w, c_cfg=0) == dsp_conv_busy_cycles(w)
        assert dsp_conv_cycles(w, c_cfg=10, c_int=7) \
            == dsp_conv_busy_cycles(w) + 17

    @given(st.integers(1, 512).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n))))
    def test_dsp_never_slower(self, nk):
        w = ConvWorkload(*nk)
        assert dsp_conv_busy_cycles(w) < sw_conv_cycles(w)

    @given(st.integers(2, 256))
    def test_monotone_in_n(self, n):
        k = 2
        if n < k:
            return
        w1, w2 = ConvWorkload(n, k), ConvWorkload(n + 1, k)
        assert sw_conv_cycles(w2) > sw_conv_cycles(w1)
        assert dsp_conv_cycles(w2) > dsp_conv_cycles(w1)

    def test_speedup_bounded_by_per_mac_ratio(self):
        # asymptote is 10/3; with many outputs the +5 vs +1 per-output
        # constants outweigh the 10 config cycles, so these shapes sit
        # above it (3.3987, 3.3667, 3.3502, 3.3418). Only when K nears N
        # (K >= 1006 at N=1024) do the config cycles pull it below 10/3.
        for k in (8, 16, 32, 64):
            w = ConvWorkload(1024, k)
            assert 10 / 3 < conv_speedup(w) < 10 / 3 * 1.05

    def test_workload_validation(self):
        with pytest.raises(ValueError, match="K=5, N=3"):
            ConvWorkload(n=3, k=5)
        with pytest.raises(ValueError, match="K=0, N=4"):
            ConvWorkload(n=4, k=0)


class TestLatency:
    def test_milliseconds_at_100mhz(self):
        assert latency_seconds(166_485, 100e6) == pytest.approx(1.66485e-3)
        assert latency_seconds(49_451, 100e6) == pytest.approx(0.49451e-3)

    def test_bad_frequency(self):
        with pytest.raises(ValueError):
            latency_seconds(100, 0)


class TestDotModel:
    def test_length_8192(self):
        assert sw_dot_cycles(8192) == 81_925
        assert dsp_dot_cycles(8192) == 24_577
        assert sw_dot_cycles_rounded(8192) == 81_920
        assert dsp_dot_cycles_rounded(8192) == 24_576

    def test_asymptotic_speedup(self):
        assert dot_speedup(1_000_000) == pytest.approx(10 / 3, abs=0.01)

    @given(st.integers(1, 100_000))
    def test_speedup_above_three(self, length):
        assert dot_speedup(length) > 3.0


class TestCnnModel:
    SHAPE = CnnLayerShape(n=256, k=16, c=4, k_out=8)

    def test_macs(self):
        assert cnn_layer_macs(self.SHAPE) == 131_072

    def test_cycles(self):
        sw, dsp = cnn_layer_cycles(self.SHAPE)
        assert sw == 1_310_720
        assert dsp == 393_216

    def test_batch_scales_linearly(self):
        batched = CnnLayerShape(n=256, k=16, c=4, k_out=8, b=3)
        assert cnn_layer_macs(batched) == 3 * 131_072

    def test_dense(self):
        assert dense_layer_macs(128, 64) == 8_192

    @pytest.mark.parametrize("name", CnnLayerShape._fields)
    def test_shape_validation(self, name):
        with pytest.raises(ValueError, match="positive"):
            CnnLayerShape(**{"n": 1, "k": 1, "c": 1, "k_out": 1, name: 0})


class TestEnergyModel:
    PARAMS = EnergyParams(e_mul=3.1, e_add=0.9, e_mem_rd=2.3,
                          e_instr_fetch=1.2, e_regfile=0.5)

    def test_accelerator_tap(self):
        got = energy_per_tap(self.PARAMS, EnergyMode.ACCELERATOR)
        assert got == pytest.approx(3.1 + 0.9 + 2 * 2.3)  # 8.6

    def test_software_tap(self):
        got = energy_per_tap(self.PARAMS, EnergyMode.SOFTWARE)
        assert got == pytest.approx(8.6 + 4 * 1.2 + 8 * 0.5)  # 17.4

    def test_software_overhead_knob(self):
        got = energy_per_tap(self.PARAMS, EnergyMode.SOFTWARE,
                             regfile_accesses=12)
        assert got == pytest.approx(8.6 + 4.8 + 6.0)

    def test_zero_params(self):
        zero = EnergyParams()
        assert energy_per_tap(zero, EnergyMode.SOFTWARE) == 0.0

    @pytest.mark.parametrize("name", EnergyParams._fields)
    def test_negative_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            EnergyParams(**{name: -1.0})
