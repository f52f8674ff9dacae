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
    sig = T.rrc_shape(pts, sps, 0.1, baud=BAUD)
    return bits, idx, pts, sig


class TestChannelSelect:
    def test_single_channel_b2b_evm(self):
        _, _, pts, sig = shaped_channel()
        rx = R.channel_select(sig, 0.0, BAUD, 0.1)
        evm = 10 * np.log10(np.sum((rx - pts) ** 2) / np.sum(pts**2))
        assert evm < -40

    def test_multichannel_b2b_center_evm(self):
        chans, refs = [], []
        for s in range(11):
            _, _, pts, sig = shaped_channel(seed=s, n_sym=512, sps=16)
            chans.append(sig)
            refs.append(pts)
        mux = T.wdm_mux(chans, 50e9, 16 * BAUD)
        rx = R.channel_select(mux, 0.0, BAUD, 0.1)
        pts = refs[5]
        evm = 10 * np.log10(np.sum((rx - pts) ** 2) / np.sum(pts**2))
        assert evm < -35

    def test_every_wdm_channel_b2b_exact(self):
        """11 x 50 GHz at sps = 16: each channel comes back to rounding."""
        chans, refs = [], []
        for s in range(11):
            _, _, pts, sig = shaped_channel(seed=s, n_sym=512, sps=16)
            chans.append(sig)
            refs.append(pts)
        mux = T.wdm_mux(chans, 50e9, 16 * BAUD)
        for k, pts in enumerate(refs):
            rx = R.channel_select(mux, (k - 5) * 50e9, BAUD, 0.1)
            evm = 10 * np.log10(np.sum((rx - pts) ** 2) / np.sum(pts**2))
            assert evm < -200, (k, evm)

    def test_wrong_offset_selects_neighbor(self):
        chans, refs = [], []
        for s in range(3):
            _, _, pts, sig = shaped_channel(seed=s, n_sym=512, sps=8)
            chans.append(sig)
            refs.append(pts)
        mux = T.wdm_mux(chans, 50e9, 8 * BAUD)
        rx = R.channel_select(mux, 50e9, BAUD, 0.1)
        err_neighbor = np.sum((rx - refs[2]) ** 2)
        err_center = np.sum((rx - refs[1]) ** 2)
        assert err_neighbor < err_center

    def test_offset_out_of_band(self):
        _, _, _, sig = shaped_channel(sps=4)
        with pytest.raises(ValueError):
            R.channel_select(sig, 200e9, BAUD, 0.1)


class TestCircularFrame:
    def test_rolled_launch_rolls_recovered_symbols(self):
        """The chain is circular: delaying the launched field by r symbols
        through a nonlinear, dispersive link delays the center channel's
        recovered symbols by r, with nothing lost at the frame edges."""
        chans = [shaped_channel(seed=s, n_sym=256, sps=8)[3] for s in range(3)]
        chans = [T.set_mean_power(ch, 6.0) for ch in chans]
        mux = T.wdm_mux(chans, 50e9, 8 * BAUD)
        link = CH.LinkConfig(span=CH.FiberParams(), n_spans=1, step_km=10.0,
                             ase_enabled=False)
        r = 37
        rolled = T.SampledSignal(x=np.roll(mux.x, 8 * r),
                                 y=np.roll(mux.y, 8 * r), fs=mux.fs)
        ref = R.channel_select(CH.propagate_link(mux, link), 0.0, BAUD, 0.1)
        out = R.channel_select(CH.propagate_link(rolled, link), 0.0, BAUD, 0.1)
        err = np.max(np.abs(out - np.roll(ref, r, axis=0)))
        assert err < 1e-12 * np.max(np.abs(ref))


class TestGeniePhase:
    def test_recovers_fixed_rotation(self):
        _, _, pts, _ = shaped_channel()
        cx, cy = R.to_complex_pair(pts)
        rot = R.to_real4(cx * np.exp(0.3j), cy * np.exp(0.3j))
        out = R.genie_phase_compensation(rot, pts, None)
        assert np.max(np.abs(out - pts)) < 1e-12

    def test_identity_when_aligned(self):
        _, _, pts, _ = shaped_channel()
        out = R.genie_phase_compensation(pts, pts, None)
        assert np.max(np.abs(out - pts)) < 1e-12

    def test_windowed_beats_global_on_phase_drift(self):
        rng = np.random.default_rng(0)
        _, _, pts, _ = shaped_channel(n_sym=4096)
        cx, cy = R.to_complex_pair(pts)
        drift = np.cumsum(rng.normal(scale=0.01, size=cx.size))
        rx = R.to_real4(cx * np.exp(1j * drift), cy * np.exp(1j * drift))
        glob = R.genie_phase_compensation(rx, pts, None)
        wind = R.genie_phase_compensation(rx, pts, 64)
        assert np.sum((wind - pts) ** 2) < np.sum((glob - pts) ** 2)

    def test_preserves_magnitudes(self):
        rng = np.random.default_rng(1)
        _, _, pts, _ = shaped_channel(n_sym=256)
        rx = pts + rng.normal(scale=0.1, size=pts.shape)
        out = R.genie_phase_compensation(rx, pts, 32)
        mags_in = np.sum(rx**2, axis=1)
        mags_out = np.sum(out**2, axis=1)
        assert np.allclose(mags_in, mags_out, rtol=1e-12)


class TestFullChainIdentity:
    def test_tx_rx_identity_no_channel(self):
        bits, idx, pts, sig = shaped_channel(seed=3, n_sym=2048)
        rx = R.channel_select(sig, 0.0, BAUD, 0.1)
        rx = R.genie_phase_compensation(rx, pts, 128)
        rx, _ = R.genie_gain(rx, pts)
        evm = 10 * np.log10(np.sum((rx - pts) ** 2) / np.sum(pts**2))
        assert evm < -40
