from dataclasses import replace

import numpy as np
import pytest

from prs4d import constellation as C
from prs4d import txdsp as T

BAUD = 45e9


def rrc_response(n, sps):
    """rrc_support on the full fftfreq(n) grid: zero off the support."""
    j, h = T.rrc_support(n // sps, sps)
    out = np.zeros(n)
    out[j] = h
    return out


def pm8qam_points(seed, n_sym):
    bits = T.generate_bits(seed, n_sym * 6)
    return C.map_bits_to_symbols(bits, C.build_pm8qam())[1]


def frame(ch):
    """Time-domain frame of one channel at baseband."""
    return T.wdm_mux([ch])


def time_domain_shape(points, sps):
    """Oracle shaper: zero-stuff the symbols by sps, then filter the whole
    frame by the RRC response."""
    n = len(points) * sps
    up = np.zeros((2, n), dtype=complex)
    up[0, ::sps] = points[:, 0] + 1j * points[:, 1]
    up[1, ::sps] = points[:, 2] + 1j * points[:, 3]
    return np.fft.ifft(np.fft.fft(up, axis=1) * rrc_response(n, sps), axis=1)


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
    """rrc_support: the exact frequency-domain RRC filter."""

    def test_symmetric(self):
        h = rrc_response(4 * 64, 4)
        assert h.dtype == float
        assert np.array_equal(h[1:], h[1:][::-1])

    def test_unit_energy(self):
        h = rrc_response(8 * 32, 8)
        pulse = np.fft.ifft(h)
        assert abs(np.sum(np.abs(pulse) ** 2) - 1.0) < 1e-12

    def test_nyquist_cascade(self):
        """Matched pair sampled at the symbol rate: a unit main tap, no ISI."""
        sps = 4
        pair = np.fft.ifft(rrc_response(sps * 64, sps) ** 2)[::sps]
        assert abs(pair[0] - 1.0) < 1e-14
        assert np.max(np.abs(pair[1:])) < 1e-14

    @pytest.mark.parametrize("ns, sps", [
        (2**16, 2), (2**13, 16), (1000, 4), (4096, 2), (777, 8), (1, 2),
    ])
    def test_equals_full_grid_formula(self, ns, sps):
        """The raised cosine of roll-off 0.1 evaluated on every bin of
        (-ns, ns), then cut to its non-zero support, bit for bit."""
        j = np.arange(-ns, ns)
        edge = np.clip(np.abs(j) / ns - (1 - 0.1) / 2, 0.0, 0.1)
        h = np.sqrt(sps * 0.5 * (1 + np.cos(np.pi / 0.1 * edge)))
        got_j, got_h = T.rrc_support(ns, sps)
        assert np.array_equal(got_j, j[h > 0])
        assert np.array_equal(got_h, h[h > 0])

    def test_sps_too_small(self):
        with pytest.raises(ValueError):
            rrc_response(64, 1)


class TestSpectralFilter:
    def test_in_place_and_equal_to_stacked_pair(self):
        rng = np.random.default_rng(3)
        fld = rng.standard_normal((2, 1000)) + 1j * rng.standard_normal((2, 1000))
        h = np.exp(1j * rng.standard_normal(1000))
        ref = np.fft.ifft(np.fft.fft(fld, axis=1) * h, axis=1)
        out = T.spectral_filter(fld, h)
        assert out is fld
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestSampledSignal:
    @pytest.mark.parametrize("field", [np.zeros(8), np.zeros((1, 8)),
                                       np.zeros((3, 8)), np.zeros((2, 0)),
                                       np.zeros((2, 2, 8))])
    def test_bad_field_rejected(self, field):
        with pytest.raises(ValueError,
                           match=r"^field must be a non-empty \(2, n\) array$"):
            T.SampledSignal(field, fs=1e9)


class TestRrcShape:
    def test_symbols_unchanged(self):
        """The X/Y view of the symbols is taken of a copy: the in-place
        FFT must not write into the caller's array."""
        sym = pm8qam_points(4, 64)
        before = sym.copy()
        T.rrc_shape(sym, 4)
        assert np.array_equal(sym, before)

    def test_single_unit_symbol_energy(self):
        sym = np.zeros((1, 4))
        sym[0, 0] = 1.0
        sig = frame(T.rrc_shape(sym, 4))
        energy = np.sum(np.abs(sig.x) ** 2)
        assert abs(energy - 1.0) < 1e-12

    def test_frame_is_ns_times_sps(self):
        sig = T.rrc_shape(np.ones((8, 4)), 4)
        assert sig.n == 32 and sig.fs == 4 * BAUD

    def test_symbol_k_at_sample_k_sps(self):
        """A lone symbol's pulse peaks at its own sample, wrapping circularly."""
        for k in (0, 5, 31):
            sym = np.zeros((32, 4))
            sym[k, 2] = 1.0
            sig = frame(T.rrc_shape(sym, 8))
            assert np.argmax(np.abs(sig.y)) == 8 * k

    def test_deterministic(self):
        sym = np.random.default_rng(0).normal(size=(32, 4))
        a = frame(T.rrc_shape(sym, 4))
        b = frame(T.rrc_shape(sym, 4))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


class TestCarrier:
    """wdm_mux moves each channel to an FFT-bin carrier of the frame."""

    def _offset_channel(self):
        # channel 1 of 2 at +25 GHz on a 1024-sample, 720 GS/s frame: the
        # carrier, 35.6 bins, is off the bin grid
        ch = T.rrc_shape(pm8qam_points(0, 64), 16)
        zero = T.ChannelSpectrum(bins=0 * ch.bins, index=ch.index, n=ch.n,
                                 fs=ch.fs)
        return frame(ch), T.wdm_mux([zero, ch])

    def test_periodic_in_frame(self):
        base, out = self._offset_channel()
        k = round(25e9 * base.n / base.fs)
        rot = np.exp(2j * np.pi * k * np.arange(base.n) / base.n)
        assert np.allclose(out.x, base.x * rot, atol=1e-12)

    def test_snap_error_within_half_bin(self):
        base, out = self._offset_channel()
        spec, ref = np.fft.fft(out.x), np.fft.fft(base.x)
        k = max(range(base.n),
                key=lambda k: abs(np.vdot(np.roll(ref, k), spec)))
        assert np.allclose(spec, np.roll(ref, k), atol=1e-9)
        f = np.fft.fftfreq(base.n, 1 / base.fs)[k]
        assert abs(f - 25e9) <= base.fs / (2 * base.n)


class TestWdmMux:
    def _channel(self, seed, n_sym=512, sps=8):
        return T.rrc_shape(pm8qam_points(seed, n_sym), sps)

    def test_single_channel_identity(self):
        ch = self._channel(1)
        out = T.wdm_mux([ch])
        ref = T.SampledSignal(time_domain_shape(pm8qam_points(1, 512), 8),
                              fs=ch.fs)
        assert np.allclose(out.x, ref.x) and np.allclose(out.y, ref.y)

    def test_total_power_additive(self):
        chans = [self._channel(s) for s in range(3)]
        out = T.wdm_mux(chans)
        p_out = np.mean(np.abs(out.x) ** 2 + np.abs(out.y) ** 2)
        p_sum = sum(np.mean(np.abs(c.x) ** 2 + np.abs(c.y) ** 2)
                    for c in map(frame, chans))
        # 0.01 dB for non-overlapping spectra
        assert abs(10 * np.log10(p_out / p_sum)) < 0.01

    def test_paper_scale_no_alias_error(self):
        # 11 channels at 50 GHz, 45 GBaud, fs = 16 x 45 GHz fits the band
        chans = [self._channel(s, n_sym=16, sps=16) for s in range(11)]
        out = T.wdm_mux(chans)
        assert out.n == chans[0].n

    def test_fs_too_small(self):
        """3 channels at sps 2: 90 GS/s is below the 149.5 GHz band."""
        chans = [self._channel(s, sps=2) for s in range(3)]
        with pytest.raises(ValueError):
            T.wdm_mux(chans)

    def test_mismatched_channels_rejected(self):
        short = self._channel(0, n_sym=256)
        with pytest.raises(ValueError, match="frame length"):
            T.wdm_mux([self._channel(1), short])
        fast = replace(self._channel(0), fs=16 * BAUD)
        with pytest.raises(ValueError, match="sample rate"):
            T.wdm_mux([self._channel(1), fast])

    @pytest.mark.parametrize("n_ch, n_sym, sps", [(11, 256, 16), (3, 301, 8)])
    def test_matches_time_domain_carriers(self, n_ch, n_sym, sps):
        """The spectral frame equals per-channel time-domain shaping times
        exp(2 pi j k m / n) bin carriers, summed in index order."""
        chans = [self._channel(s, n_sym, sps) for s in range(n_ch)]
        out = T.wdm_mux(chans)
        n = n_sym * sps
        ref = np.zeros((2, n), dtype=complex)
        for k in range(n_ch):
            shift = round((k - (n_ch - 1) / 2) * 50e9 * n / (sps * BAUD))
            rot = np.exp(2j * np.pi * ((shift * np.arange(n)) % n) / n)
            ref += time_domain_shape(pm8qam_points(k, n_sym), sps) * rot
        err = np.max(np.abs(out.field - ref))
        assert err <= 1e-13 * np.max(np.abs(ref))


class TestLaunchPower:
    def test_set_mean_power(self):
        c = C.build_pm8qam()
        bits = T.generate_bits(5, 2048 * 6)
        _, pts = C.map_bits_to_symbols(bits, c)
        sig = T.rrc_shape(pts, 4)
        sig = frame(T.set_mean_power(sig, 3.0))
        p = np.mean(np.abs(sig.x) ** 2 + np.abs(sig.y) ** 2)
        assert 10 * np.log10(p * 1e3) == pytest.approx(
            3.0, abs=1e-12)
