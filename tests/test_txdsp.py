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
    def test_symmetric(self):
        h = T.rrc_taps(4, 0.1, 64)
        assert np.max(np.abs(h - h[::-1])) < 1e-15

    def test_unit_energy(self):
        h = T.rrc_taps(8, 0.25, 32)
        assert abs(np.sum(h**2) - 1.0) < 1e-12

    def test_nyquist_cascade(self):
        """RRC + matched RRC sampled at symbol rate: ISI below -40 dB."""
        sps = 4
        h = T.rrc_taps(sps, 0.1, 64)
        rc = np.convolve(h, h)
        center = len(rc) // 2
        main = rc[center]
        isi = np.concatenate([rc[center % sps::sps][: center // sps],
                              rc[center + sps::sps]])
        assert 20 * np.log10(np.max(np.abs(isi)) / main) < -40

    def test_sps_too_small(self):
        with pytest.raises(ValueError):
            T.rrc_taps(1, 0.1, 64)

    def test_odd_span_rejected(self):
        with pytest.raises(ValueError):
            T.rrc_taps(4, 0.1, 63)


class TestRrcShape:
    def test_single_unit_symbol_energy(self):
        sym = np.zeros((1, 4))
        sym[0, 0] = 1.0
        sig = T.rrc_shape(sym, 4, 0.1, 64, baud=BAUD)
        energy = np.sum(np.abs(sig.x) ** 2)
        assert abs(energy - 1.0) < 1e-12

    def test_delay_metadata(self):
        sig = T.rrc_shape(np.ones((8, 4)), 4, 0.1, 64, baud=BAUD)
        assert sig.delay_s == pytest.approx(32 / BAUD)

    def test_deterministic(self):
        sym = np.random.default_rng(0).normal(size=(32, 4))
        a = T.rrc_shape(sym, 4, 0.1, 64, baud=BAUD)
        b = T.rrc_shape(sym, 4, 0.1, 64, baud=BAUD)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


class TestWdmMux:
    def _channel(self, seed, n_sym=512, sps=8):
        c = C.build_pm8qam()
        bits = T.generate_bits(seed, n_sym * 6)
        _, pts = C.map_bits_to_symbols(bits, c)
        return T.rrc_shape(pts, sps, 0.1, 64, baud=BAUD)

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


class TestLaunchPower:
    def test_set_mean_power(self):
        c = C.build_pm8qam()
        bits = T.generate_bits(5, 2048 * 6)
        _, pts = C.map_bits_to_symbols(bits, c)
        sig = T.rrc_shape(pts, 4, 0.1, 64, baud=BAUD)
        sig = T.set_mean_power(sig, 3.0, 2048, BAUD)
        sps = 4
        i0 = int(round(sig.delay_s * sig.fs))
        p = np.mean(
            np.abs(sig.x[i0:i0 + 2048 * sps]) ** 2
            + np.abs(sig.y[i0:i0 + 2048 * sps]) ** 2
        )
        assert abs(10 * np.log10(p * 1e3) - 3.0) < 0.05

