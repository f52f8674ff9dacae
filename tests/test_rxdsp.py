import numpy as np
import pytest

from prs4d import channel as CH
from prs4d import constellation as C
from prs4d import rxdsp as R
from prs4d import txdsp as T

BAUD = 45e9


def shaped_channel(seed=0, n_sym=1024, sps=4):
    c = C.build_pm8qam()
    bits = T.generate_bits(seed, n_sym * 6)
    idx, pts = C.map_bits_to_symbols(bits, c)
    sig = T.rrc_shape(pts, sps)
    return bits, idx, pts, sig


def frame(ch):
    """Time-domain frame of one channel at baseband."""
    return T.wdm_mux([ch])


def full_frame_select(signal, offset_hz, sps):
    """Oracle receiver: mix down by the bin carrier, filter the whole frame
    by the matched RRC response, keep every sps-th sample."""
    n = signal.n
    k = round(offset_hz * n / signal.fs)
    lo = np.exp(-2j * np.pi * ((k * np.arange(n)) % n) / n)
    j, h = T.rrc_support(n // sps, sps)
    resp = np.zeros(n)
    resp[j] = h
    fld = np.fft.ifft(np.fft.fft(signal.field * lo, axis=1) * resp, axis=1)
    x, y = fld[:, ::sps]
    return np.stack([x.real, x.imag, y.real, y.imag], axis=1)


class TestChannelSelect:
    def test_single_channel_b2b_evm(self):
        _, _, pts, sig = shaped_channel()
        sig = frame(sig)
        rx = R.channel_select(sig, 0, 1)
        evm = 10 * np.log10(np.sum((rx - pts) ** 2) / np.sum(pts**2))
        assert evm < -40

    def test_multichannel_b2b_center_evm(self):
        chans, refs = [], []
        for s in range(11):
            _, _, pts, sig = shaped_channel(seed=s, n_sym=512, sps=16)
            chans.append(sig)
            refs.append(pts)
        mux = T.wdm_mux(chans)
        rx = R.channel_select(mux, 5, 11)
        pts = refs[5]
        evm = 10 * np.log10(np.sum((rx - pts) ** 2) / np.sum(pts**2))
        assert evm < -35

    @pytest.mark.parametrize("n_ch, sps", [(11, 16), (2, 4), (4, 8)])
    def test_every_wdm_channel_b2b_exact(self, n_ch, sps):
        """Each channel of n_ch x 50 GHz comes back to rounding; on an even
        grid the carriers sit half a spacing off 0 Hz."""
        chans, refs = [], []
        for s in range(n_ch):
            _, _, pts, sig = shaped_channel(seed=s, n_sym=512, sps=sps)
            chans.append(sig)
            refs.append(pts)
        mux = T.wdm_mux(chans)
        for k, pts in enumerate(refs):
            rx = R.channel_select(mux, k, n_ch)
            evm = 10 * np.log10(np.sum((rx - pts) ** 2) / np.sum(pts**2))
            assert evm < -200, (k, evm)

    @pytest.mark.parametrize("n_ch, n_sym, sps", [(11, 256, 16), (3, 301, 8),
                                                  (1, 301, 2)])
    def test_matches_full_frame_matched_filter(self, n_ch, n_sym, sps):
        """On a white field, so that every bin off the channel's support
        carries power, each channel equals mix-down, a full-frame matched
        filter and decimation by sps."""
        rng = np.random.default_rng(5)
        fld = rng.standard_normal((2, n_sym * sps)) \
            + 1j * rng.standard_normal((2, n_sym * sps))
        sig = T.SampledSignal(fld, fs=sps * BAUD)
        for k in range(n_ch):
            offset = (k - (n_ch - 1) / 2) * 50e9
            ref = full_frame_select(sig, offset, sps)
            out = R.channel_select(sig, k, n_ch)
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_wrong_offset_selects_neighbor(self):
        chans, refs = [], []
        for s in range(3):
            _, _, pts, sig = shaped_channel(seed=s, n_sym=512, sps=8)
            chans.append(sig)
            refs.append(pts)
        mux = T.wdm_mux(chans)
        rx = R.channel_select(mux, 2, 3)
        err_neighbor = np.sum((rx - refs[2]) ** 2)
        err_center = np.sum((rx - refs[1]) ** 2)
        assert err_neighbor < err_center

    def test_caller_field_unchanged(self):
        _, _, _, sig = shaped_channel()
        sig = frame(sig)
        field = sig.field.copy()
        out = R.channel_select(sig, 0, 1)
        assert np.array_equal(sig.field, field)
        assert not np.shares_memory(out, sig.field)

    def test_offset_out_of_band(self):
        """A channel off the grid, or a grid wider than the frame (5
        channels span 249.5 GHz, the frame 180 GS/s), fails in one line."""
        sig = frame(shaped_channel(sps=4)[3])
        for k, n_ch in [(-1, 3), (3, 3), (0, 0), (1, 1), (2, 5)]:
            with pytest.raises(ValueError, match=f"^channel {k} of {n_ch} is out"):
                R.channel_select(sig, k, n_ch)

    @pytest.mark.parametrize("fs", [BAUD * 1e-12, BAUD], ids=["sps1e-12", "sps1"])
    def test_below_two_samples_per_symbol(self, fs):
        """sps 1e-12 rounds to 0, which the whole-symbol test would divide
        by; sps 1 is an integer. Both fail at the rate, not at the band."""
        sig = T.SampledSignal(np.ones((2, 64)), fs=fs)
        with pytest.raises(ValueError, match=r"^frame must hold whole symbols "
                           r"at an integer sps >= 2$"):
            R.channel_select(sig, 0, 1)


class TestCircularFrame:
    def test_rolled_launch_rolls_recovered_symbols(self):
        """The chain is circular: delaying the launched field by r symbols
        through a nonlinear, dispersive link delays the center channel's
        recovered symbols by r, with nothing lost at the frame edges."""
        chans = [shaped_channel(seed=s, n_sym=256, sps=8)[3] for s in range(3)]
        chans = [T.set_mean_power(ch, 6.0) for ch in chans]
        mux = T.wdm_mux(chans)
        link = CH.LinkConfig(span=CH.FiberParams(), n_spans=1, step_km=10.0,
                             ase_enabled=False)
        r = 37
        rolled = T.SampledSignal(np.roll(mux.field, 8 * r, axis=1), fs=mux.fs)
        *_, ref = CH.propagate_link(mux, link)
        *_, out = CH.propagate_link(rolled, link)
        ref, out = R.channel_select(ref, 1, 3), R.channel_select(out, 1, 3)
        err = np.max(np.abs(out - np.roll(ref, r, axis=0)))
        assert err < 1e-12 * np.max(np.abs(ref))


def windowed_phase_oracle(rx, tx, window_symbols):
    """One least-squares rotation per window and polarisation, window by
    window; a zero-energy window is left as it is."""
    out = np.array(rx, dtype=float).view(complex)
    ref = np.asarray(tx, dtype=float).view(complex)
    ns = out.shape[0]
    w = window_symbols
    for pol in range(out.shape[1]):
        for start in range(0, ns, w):
            sl = slice(start, min(start + w, ns))
            s = np.sum(out[sl, pol] * np.conj(ref[sl, pol]))
            if np.abs(s) > 0:
                out[sl, pol] *= np.exp(-1j * np.angle(s))
    return out.view(float)


class TestGeniePhase:
    def test_recovers_fixed_rotation(self):
        _, _, pts, _ = shaped_channel()
        rot = (pts.view(complex) * np.exp(0.3j)).view(float)
        out = R.genie_phase_compensation(rot, pts, len(pts))
        assert np.max(np.abs(out - pts)) < 1e-12

    def test_identity_when_aligned(self):
        _, _, pts, _ = shaped_channel()
        out = R.genie_phase_compensation(pts, pts, len(pts))
        assert np.max(np.abs(out - pts)) < 1e-12

    def test_windowed_beats_global_on_phase_drift(self):
        rng = np.random.default_rng(0)
        _, _, pts, _ = shaped_channel(n_sym=4096)
        drift = np.cumsum(rng.normal(scale=0.01, size=len(pts)))
        rx = (pts.view(complex) * np.exp(1j * drift)[:, None]).view(float)
        glob = R.genie_phase_compensation(rx, pts, len(pts))
        wind = R.genie_phase_compensation(rx, pts, 64)
        assert np.sum((wind - pts) ** 2) < np.sum((glob - pts) ** 2)

    def test_inputs_unchanged(self):
        """The rotation works on a copy of rx; tx is only read."""
        rng = np.random.default_rng(2)
        _, _, pts, _ = shaped_channel(n_sym=256)
        rx = (pts.view(complex) * np.exp(0.7j)).view(float)
        rx += rng.normal(scale=0.1, size=rx.shape)
        rx_in, tx_in = rx.copy(), pts.copy()
        out = R.genie_phase_compensation(rx, pts, 32)
        assert np.array_equal(rx, rx_in) and np.array_equal(pts, tx_in)
        assert not np.shares_memory(out, rx)

    def test_preserves_magnitudes(self):
        rng = np.random.default_rng(1)
        _, _, pts, _ = shaped_channel(n_sym=256)
        rx = pts + rng.normal(scale=0.1, size=pts.shape)
        out = R.genie_phase_compensation(rx, pts, 32)
        mags_in = np.sum(rx**2, axis=1)
        mags_out = np.sum(out**2, axis=1)
        assert np.allclose(mags_in, mags_out, rtol=1e-12)

    @pytest.mark.parametrize("window", [1000, 64, 100, 1, 5000])
    def test_matches_loop(self, window):
        """The vectorised windows against the window-by-window loop."""
        rng = np.random.default_rng(4)
        _, _, pts, _ = shaped_channel(n_sym=1000)  # 1000 % 64 and % 100 != 0
        drift = np.cumsum(rng.normal(scale=0.02, size=len(pts)))
        rx = (pts.view(complex) * np.exp(1j * drift)[:, None]).view(float)
        rx = rx + rng.normal(scale=0.1, size=rx.shape)
        rx[128:192, :2] = 0.0  # a zero-energy X window when w = 64
        out = R.genie_phase_compensation(rx, pts, window)
        ref = windowed_phase_oracle(rx, pts, window)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-15)

    def test_zero_energy_window_untouched(self):
        _, _, pts, _ = shaped_channel(n_sym=1000)
        rx = (pts.view(complex) * np.exp(0.4j)).view(float)
        rx[936:, 2:] = 0.0  # the short tail window of Y
        rx[64:128, :2] = -np.abs(rx[64:128, :2])  # third quadrant only, so
        tx = pts.copy()  # with no reference energy the sum is -0 + 0j, angle pi
        tx[64:128, :2] = 0.0
        out = R.genie_phase_compensation(rx, tx, 64)
        assert np.array_equal(out[64:128, :2], rx[64:128, :2])
        assert np.array_equal(out[936:, 2:], rx[936:, 2:])
        np.testing.assert_allclose(out[:64], pts[:64], rtol=0, atol=1e-12)


class TestFullChainIdentity:
    def test_tx_rx_identity_no_channel(self):
        bits, idx, pts, sig = shaped_channel(seed=3, n_sym=2048)
        sig = frame(sig)
        rx = R.channel_select(sig, 0, 1)
        rx = R.genie_phase_compensation(rx, pts, 128)
        rx = R.genie_gain(rx, pts)
        evm = 10 * np.log10(np.sum((rx - pts) ** 2) / np.sum(pts**2))
        assert evm < -40


class TestSymbolBatch:
    def test_points_read_through_the_constellation(self):
        c = C.build_format("pm8qam")
        idx, pts = C.map_bits_to_symbols(np.arange(60) % 3 == 0, c)
        batch = R.SymbolBatch(idx, pts)
        assert batch.ns == 10
        assert np.array_equal(c.points[batch.tx_indices], batch.rx_points)

    @pytest.mark.parametrize("shape", [(10, 3), (9, 4), (40,), (10, 4, 1)])
    def test_misshapen_points_rejected_in_one_line(self, shape):
        with pytest.raises(ValueError, match=r"^rx_points must be \(10, 4\), got") as err:
            R.SymbolBatch(np.arange(10), np.zeros(shape))
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("indices", [np.array([1.7, 2.2]), np.array([1.0, 2.0]),
                                         np.array([True, False])])
    def test_non_integer_index_rejected(self, indices):
        with pytest.raises(ValueError, match=f"^tx_indices must be integers, got dtype "
                                             f"{indices.dtype}$"):
            R.SymbolBatch(indices, np.zeros((2, 4)))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
    def test_integer_index_stored_as_int64(self, dtype):
        batch = R.SymbolBatch(np.array([1, 2], dtype=dtype), np.zeros((2, 4)))
        assert batch.tx_indices.dtype == np.int64
        assert batch.tx_indices.tolist() == [1, 2]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="^tx_indices must be non-negative$"):
            R.SymbolBatch([3, -1, 2], np.zeros((3, 4)))
