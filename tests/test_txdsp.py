import numpy as np
import pytest

from prs4d import constellation as C
from prs4d import txdsp as T

BAUD = 45e9


class TestGenerateBits:
    def test_deterministic(self):
        a = T.generate_bits(1, 12)
        b = T.generate_bits(1, 12)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(T.generate_bits(1, 256), T.generate_bits(2, 256))

    def test_mean_near_half(self):
        bits = T.generate_bits(42, 2**20)
        assert 0.498 <= bits.mean() <= 0.502

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            T.generate_bits(1, 0)


class TestRrcTaps:
    """rrc_response: the exact frequency-domain RRC filter."""

    def test_symmetric(self):
        h = T.rrc_response(4 * 64, 4, 0.1)
        assert h.dtype == float
        assert np.array_equal(h[1:], h[1:][::-1])

    def test_unit_energy(self):
        h = T.rrc_response(8 * 32, 8, 0.25)
        pulse = np.fft.ifft(h)
        assert abs(np.sum(np.abs(pulse) ** 2) - 1.0) < 1e-12

    def test_nyquist_cascade(self):
        """Matched pair sampled at the symbol rate: a unit main tap, no ISI."""
        sps = 4
        pair = np.fft.ifft(T.rrc_response(sps * 64, sps, 0.1) ** 2)[::sps]
        assert abs(pair[0] - 1.0) < 1e-14
        assert np.max(np.abs(pair[1:])) < 1e-14

    def test_sps_too_small(self):
        with pytest.raises(ValueError):
            T.rrc_response(64, 1, 0.1)

    @pytest.mark.parametrize("rolloff", [0.0, -0.1, 1.5])
    def test_invalid_rolloff_rejected(self, rolloff):
        with pytest.raises(ValueError):
            T.rrc_response(64, 4, rolloff)


class TestSpectralFilter:
    def test_in_place_and_equal_to_stacked_pair(self):
        rng = np.random.default_rng(3)
        fld = rng.standard_normal((2, 1000)) + 1j * rng.standard_normal((2, 1000))
        h = np.exp(1j * rng.standard_normal(1000))
        ref = np.fft.ifft(np.fft.fft(fld, axis=1) * h, axis=1)
        out = T.spectral_filter(fld, h)
        assert out is fld
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestRrcShape:
    def test_single_unit_symbol_energy(self):
        sym = np.zeros((1, 4))
        sym[0, 0] = 1.0
        sig = T.rrc_shape(sym, 4, 0.1, baud=BAUD)
        energy = np.sum(np.abs(sig.x) ** 2)
        assert abs(energy - 1.0) < 1e-12

    def test_frame_is_ns_times_sps(self):
        sig = T.rrc_shape(np.ones((8, 4)), 4, 0.1, baud=BAUD)
        assert sig.n == 32 and sig.fs == 4 * BAUD

    def test_symbol_k_at_sample_k_sps(self):
        """A lone symbol's pulse peaks at its own sample, wrapping circularly."""
        for k in (0, 5, 31):
            sym = np.zeros((32, 4))
            sym[k, 2] = 1.0
            sig = T.rrc_shape(sym, 8, 0.1, baud=BAUD)
            assert np.argmax(np.abs(sig.y)) == 8 * k

    def test_deterministic(self):
        sym = np.random.default_rng(0).normal(size=(32, 4))
        a = T.rrc_shape(sym, 4, 0.1, baud=BAUD)
        b = T.rrc_shape(sym, 4, 0.1, baud=BAUD)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


class TestCarrier:
    def test_periodic_in_frame(self):
        n, fs = 1000, 720e9
        rot = T.carrier(123.4e9, n, fs)
        assert np.allclose(np.roll(rot, 1) * rot[1], rot, atol=1e-12)
        spec = np.abs(np.fft.fft(rot))
        assert np.sum(spec > 1e-9 * n) == 1

    def test_snap_error_within_half_bin(self):
        n, fs = 1000, 720e9
        rot = T.carrier(-123.4e9, n, fs)
        k = np.argmax(np.abs(np.fft.fft(rot)))
        f = np.fft.fftfreq(n, 1 / fs)[k]
        assert abs(f - (-123.4e9)) <= fs / (2 * n)


class TestWdmMux:
    def _channel(self, seed, n_sym=512, sps=8):
        c = C.build_pm8qam()
        bits = T.generate_bits(seed, n_sym * 6)
        _, pts = C.map_bits_to_symbols(bits, c)
        return T.rrc_shape(pts, sps, 0.1, baud=BAUD)

    def test_single_channel_identity(self):
        ch = self._channel(1)
        out = T.wdm_mux([ch], 50e9, ch.fs)
        assert np.allclose(out.x, ch.x) and np.allclose(out.y, ch.y)

    def test_total_power_additive(self):
        chans = [self._channel(s) for s in range(3)]
        fs = chans[0].fs
        out = T.wdm_mux(chans, 100e9, fs)
        p_out = np.mean(np.abs(out.x) ** 2 + np.abs(out.y) ** 2)
        p_sum = sum(np.mean(np.abs(c.x) ** 2 + np.abs(c.y) ** 2) for c in chans)
        # 0.01 dB for non-overlapping spectra
        assert abs(10 * np.log10(p_out / p_sum)) < 0.01

    def test_paper_scale_no_alias_error(self):
        # 11 channels at 50 GHz, 45 GBaud, fs = 16 x 45 GHz fits the band
        chans = [self._channel(s, n_sym=16, sps=16) for s in range(11)]
        out = T.wdm_mux(chans, 50e9, 16 * BAUD)
        assert out.n == chans[0].n

    def test_fs_too_small(self):
        chans = [self._channel(s, sps=2) for s in range(3)]
        with pytest.raises(ValueError):
            T.wdm_mux(chans, 100e9, 2 * BAUD)

    def test_overlap_warning(self):
        chans = [self._channel(s, sps=8) for s in range(2)]
        with pytest.warns(UserWarning):
            T.wdm_mux(chans, 40e9, 8 * BAUD)

    def test_mismatched_channels_rejected(self):
        short = self._channel(0, n_sym=256)
        with pytest.raises(ValueError, match="frame length"):
            T.wdm_mux([self._channel(1), short], 100e9, short.fs)
        with pytest.raises(ValueError, match="frame length"):
            T.wdm_mux([self._channel(1)], 100e9, 2 * short.fs)


class TestLaunchPower:
    def test_set_mean_power(self):
        c = C.build_pm8qam()
        bits = T.generate_bits(5, 2048 * 6)
        _, pts = C.map_bits_to_symbols(bits, c)
        sig = T.rrc_shape(pts, 4, 0.1, baud=BAUD)
        sig = T.set_mean_power(sig, 3.0)
        assert 10 * np.log10(sig.mean_power() * 1e3) == pytest.approx(
            3.0, abs=1e-12)
