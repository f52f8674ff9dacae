"""Transmitter chain: bit generation, RRC pulse shaping and WDM multiplexing.

Every waveform is one circular frame of exactly Ns * sps samples, the
same periodic frame the SSFM dispersion operator and inline CDC act on,
with symbol k at sample k * sps. A SampledSignal holds both
polarizations as one complex (2, n) field, row 0 = X and row 1 = Y. Ns x 4
real symbols [Re X, Im X, Re Y, Im Y] are, in C order, the same bytes as
Ns x 2 complex X/Y pairs, so they are viewed, not converted.

The frame is built in the spectrum: a shaped channel is its symbol
spectrum times the exact RRC response, kept on the response's support,
and wdm_mux shifts each channel to an FFT bin, sums, and takes one
inverse FFT per polarization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft as sfft


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


def spectral_filter(fld: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Filter each row of a complex (rows, n) field by h, in place."""
    for row in fld:
        spec = sfft.fft(row, overwrite_x=True)
        spec *= h
        row[...] = sfft.ifft(spec, overwrite_x=True)
    return fld


def rrc_support(ns: int, sps: int, rolloff: float):
    """Signed bins j of an ns * sps frame, all in (-ns, ns), where the RRC
    response sqrt(sps * RC(j / ns)) is non-zero, and the response there.
    The pulse has unit energy; the matched pair is exactly Nyquist."""
    if sps < 2:
        raise ValueError("sps must be >= 2 to avoid aliasing")
    if not 0 < rolloff <= 1:
        raise ValueError("rolloff must be in (0, 1]")
    k = np.arange(ns + 1)  # |j|
    edge = k / ns - (1 - rolloff) / 2  # non-decreasing in k
    lo = np.searchsorted(edge, 0.0, side="right")  # flat band: edge <= 0
    hi = np.searchsorted(edge, rolloff)  # stop band: edge >= rolloff
    h = np.zeros(ns + 1)
    h[:lo] = np.sqrt(sps * 0.5 * (1 + np.cos(0.0)))
    h[lo:hi] = np.sqrt(sps * 0.5 * (1 + np.cos(np.pi / rolloff * edge[lo:hi])))
    k = k[h > 0]
    neg, pos = k[:0:-1], k[k < ns]  # j runs over -ns .. ns - 1
    return np.concatenate([-neg, pos]), h[np.concatenate([neg, pos])]


def rrc_shape(symbols: np.ndarray, sps: int, rolloff: float,
              baud: float) -> ChannelSpectrum:
    """Pulse-shape Ns x 4 symbols [Re X, Im X, Re Y, Im Y] into the spectrum
    of an Ns * sps frame: bin j is symbol bin j mod Ns times the response."""
    # a copy: the FFT below overwrites its input
    sym = np.array(symbols, dtype=float, order="C").view(complex).T
    ns = sym.shape[1]
    j, h = rrc_support(ns, sps, rolloff)
    bins = sfft.fft(sym, axis=1, overwrite_x=True)[:, j] * h
    return ChannelSpectrum(bins=bins, index=j, n=ns * sps, fs=sps * baud)


def set_mean_power(sig: ChannelSpectrum, power_dbm: float) -> ChannelSpectrum:
    """Scale a channel so its mean power over the frame is power_dbm."""
    p = float(np.sum(np.abs(sig.bins) ** 2)) / sig.n**2  # Parseval
    if p <= 0:
        raise ValueError("zero-power waveform")
    g = np.sqrt(10 ** ((power_dbm - 30) / 10) / p)
    return replace(sig, bins=g * sig.bins)


def spectra_overlap(spacing: float, width: float) -> bool:
    """Whether channels of this occupied width overlap at this spacing; ones
    that just touch do not, though (1 + 0.1) * 45 is 49.50000000000001."""
    return spacing < (1 - 1e-12) * width


def wdm_mux(channels: list[ChannelSpectrum], spacing_hz: float, baud: float,
            rolloff: float) -> SampledSignal:
    """Shift each channel onto a symmetric grid, sum, and return the frame.

    Channel k moves to the FFT bin nearest (k - (n-1)/2) * spacing_hz.
    Channels share the frame length and sample rate, which the frame
    keeps, and are summed in index order for bit-exact reproducibility.
    """
    n_ch = len(channels)
    if n_ch == 0:
        raise ValueError("need at least one channel")
    n, fs = channels[0].n, channels[0].fs
    if any(ch.n != n or ch.fs != fs for ch in channels):
        raise ValueError("channels must share the frame length and sample rate")
    band = (n_ch - 1) * spacing_hz + (1 + rolloff) * baud
    if fs < band:
        raise ValueError(
            f"sample rate {fs:.3g} Hz cannot carry the {band:.3g} Hz WDM band"
        )
    if n_ch > 1 and spectra_overlap(spacing_hz, (1 + rolloff) * baud):
        warnings.warn("channel spacing below (1+rolloff)*baud: spectra overlap")

    spec = np.zeros((2, n), dtype=complex)
    for k, ch in enumerate(channels):
        shift = round((k - (n_ch - 1) / 2) * spacing_hz * n / fs)
        spec[:, (ch.index + shift) % n] += ch.bins
    for row in spec:
        row[...] = sfft.ifft(row, overwrite_x=True)
    return SampledSignal(spec, fs)
