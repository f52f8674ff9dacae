"""The transmitter (bit generation, RRC pulse shaping and WDM multiplexing),
the frame type SampledSignal every stage passes on, and the paper's WDM grid.

Every waveform is one circular frame of exactly Ns * sps samples, the
same periodic frame the SSFM dispersion operator and inline CDC act on,
with symbol k at sample k * sps. A SampledSignal holds both
polarizations as one complex (2, n) field, row 0 = X and row 1 = Y. Ns x 4
real symbols [Re X, Im X, Re Y, Im Y] are, in C order, the same bytes as
Ns x 2 complex X/Y pairs, so they are viewed, not converted.

The frame is built in the spectrum: a shaped channel is its symbol
spectrum times the exact RRC response, kept on the response's support,
and wdm_mux shifts each channel to its carrier_bin on the paper's WDM
grid, the constants below, sums, and takes one inverse FFT per polarization.

scipy.fft is imported inside the functions that transform, here and in
channel and rxdsp, not at module level: it is most of the package's import
time and memory, and the design commands (AWGN GMI, constellation search)
never build a waveform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

BAUD_GBD = 45.0
BAUD_HZ = BAUD_GBD * 1e9
SPACING_HZ = 50e9  # wider than a channel's (1 + ROLLOFF) * BAUD_HZ band
ROLLOFF = 0.1


@dataclass
class SampledSignal:
    """Dual-polarization complex baseband waveform on a circular frame.

    field is the (2, n) X/Y field envelope in sqrt(W). The frame is
    periodic: sample n wraps to sample 0.
    """

    field: np.ndarray
    fs: float

    def __post_init__(self):
        self.field = np.asarray(self.field, dtype=complex)
        if self.field.ndim != 2 or self.field.shape[0] != 2 or not self.n:
            raise ValueError("field must be a non-empty (2, n) array")
        if not self.fs > 0:
            raise ValueError("fs must be positive")

    @property
    def n(self) -> int:
        return self.field.shape[1]

    @property
    def x(self) -> np.ndarray:
        return self.field[0]

    @property
    def y(self) -> np.ndarray:
        return self.field[1]


@dataclass
class ChannelSpectrum:
    """One shaped channel at baseband: bins[p, i] is the n-point DFT of
    polarization p (0 = x, 1 = y) at signed bin index[i], zero elsewhere."""

    bins: np.ndarray
    index: np.ndarray
    n: int
    fs: float


def generate_bits(seed: int, count: int) -> np.ndarray:
    """Deterministic pseudo-random bits; same seed gives the same array."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=count, dtype=np.uint8)


def band_hz(n_channels: int) -> float:
    """Width of the n_channels grid's band, outer channel edge to edge."""
    return (n_channels - 1) * SPACING_HZ + (1 + ROLLOFF) * BAUD_HZ


def carrier_bin(k: int, n_channels: int, n: int, fs: float) -> int:
    """FFT bin of an n-sample frame at fs nearest channel k's carrier on the grid."""
    return round((k - (n_channels - 1) / 2) * SPACING_HZ * n / fs)


def rrc_support(ns: int, sps: int):
    """Signed bins j of an ns * sps frame, all in (-ns, ns), where the RRC
    response sqrt(sps * RC(j / ns)) is non-zero, and the response there.
    The pulse has unit energy; the matched pair is exactly Nyquist."""
    if sps < 2:
        raise ValueError("sps must be >= 2 to avoid aliasing")
    k = np.arange(ns + 1)  # |j|
    edge = k / ns - (1 - ROLLOFF) / 2  # non-decreasing in k
    lo = np.searchsorted(edge, 0.0, side="right")  # flat band: edge <= 0
    hi = np.searchsorted(edge, ROLLOFF)  # stop band: edge >= ROLLOFF
    h = np.zeros(ns + 1)
    h[:lo] = np.sqrt(sps * 0.5 * (1 + np.cos(0.0)))
    h[lo:hi] = np.sqrt(sps * 0.5 * (1 + np.cos(np.pi / ROLLOFF * edge[lo:hi])))
    k = k[h > 0]
    neg, pos = k[:0:-1], k[k < ns]  # j runs over -ns .. ns - 1
    return np.concatenate([-neg, pos]), h[np.concatenate([neg, pos])]


def rrc_shape(symbols: np.ndarray, sps: int) -> ChannelSpectrum:
    """Pulse-shape Ns x 4 symbols [Re X, Im X, Re Y, Im Y] into the spectrum
    of an Ns * sps frame: bin j is symbol bin j mod Ns times the response."""
    import scipy.fft as sfft
    # a copy: the FFT below overwrites its input
    sym = np.array(symbols, dtype=float, order="C").view(complex).T
    ns = sym.shape[1]
    j, h = rrc_support(ns, sps)
    bins = sfft.fft(sym, axis=1, overwrite_x=True)[:, j] * h
    return ChannelSpectrum(bins=bins, index=j, n=ns * sps, fs=sps * BAUD_HZ)


def set_mean_power(sig: ChannelSpectrum, power_dbm: float) -> ChannelSpectrum:
    """Scale a channel so its mean power over the frame is power_dbm."""
    p = float(np.sum(np.abs(sig.bins) ** 2)) / sig.n**2  # Parseval
    if p <= 0:
        raise ValueError("zero-power waveform")
    g = np.sqrt(10 ** ((power_dbm - 30) / 10) / p)
    return replace(sig, bins=g * sig.bins)


def wdm_mux(channels: list[ChannelSpectrum]) -> SampledSignal:
    """Shift each channel to its carrier_bin, sum, and return the frame.

    Channels share the frame length and sample rate, which the frame
    keeps, and are summed in index order for bit-exact reproducibility.
    SPACING_HZ is wider than a channel's band, so no spectra overlap.
    """
    import scipy.fft as sfft
    n_ch = len(channels)
    if n_ch == 0:
        raise ValueError("need at least one channel")
    n, fs = channels[0].n, channels[0].fs
    if any(ch.n != n or ch.fs != fs for ch in channels):
        raise ValueError("channels must share the frame length and sample rate")
    if fs < (band := band_hz(n_ch)):
        raise ValueError(f"sample rate {fs:.3g} Hz cannot carry the "
                         f"{band:.3g} Hz WDM band")

    spec = np.zeros((2, n), dtype=complex)
    for k, ch in enumerate(channels):
        spec[:, (ch.index + carrier_bin(k, n_ch, n, fs)) % n] += ch.bins
    for row in spec:
        row[...] = sfft.ifft(row, overwrite_x=True)
    return SampledSignal(spec, fs)
