"""Transmitter chain: bit generation, RRC pulse shaping and WDM multiplexing.

Every waveform is one circular frame of exactly Ns * sps samples, the
same periodic frame the SSFM dispersion operator and inline CDC act on.
The root-raised-cosine filter is applied exactly in the frequency domain
(no truncated taps, no ramp-up or ramp-down tails), symbol k sits at
sample k * sps, and each WDM carrier is snapped to an FFT bin so that it
is periodic in the frame as well.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np


@dataclass
class SampledSignal:
    """Dual-polarization complex baseband waveform on a circular frame.

    x/y are the polarization field envelopes in sqrt(W). The frame is
    periodic: sample n wraps to sample 0, and symbol k of a frame shaped
    at sps samples per symbol sits at sample k * sps.
    """

    x: np.ndarray
    y: np.ndarray
    fs: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=complex)
        self.y = np.asarray(self.y, dtype=complex)
        if self.x.size != self.y.size or self.x.size == 0:
            raise ValueError("x and y must be equal-length, non-empty")
        if not self.fs > 0:
            raise ValueError("fs must be positive")

    @property
    def n(self) -> int:
        return self.x.size

    def mean_power(self) -> float:
        """Mean instantaneous power |x|^2 + |y|^2 in W."""
        return float(np.mean(np.abs(self.x) ** 2 + np.abs(self.y) ** 2))


def generate_bits(seed: int, count: int) -> np.ndarray:
    """Deterministic pseudo-random bits; same seed gives the same array."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=count, dtype=np.uint8)


def rrc_response(n: int, sps: int, rolloff: float) -> np.ndarray:
    """Frequency response sqrt(sps * RC(f)) of the RRC filter on fftfreq(n).

    RC is the raised-cosine spectrum with RC(0) = 1 and f in units of the
    symbol rate. For n a multiple of sps the pulse has unit energy and the
    matched pair (response squared) is exactly Nyquist with a unit main
    tap. The response is real and even.
    """
    if sps < 2:
        raise ValueError("sps must be >= 2 to avoid aliasing")
    if not 0 < rolloff <= 1:
        raise ValueError("rolloff must be in (0, 1]")
    f = np.abs(np.fft.fftfreq(n, 1.0 / sps))
    edge = np.clip(f - (1 - rolloff) / 2, 0.0, rolloff)  # roll-off band
    return np.sqrt(sps * 0.5 * (1 + np.cos(np.pi / rolloff * edge)))


def rrc_shape(symbols: np.ndarray, sps: int, rolloff: float,
              baud: float = 45e9) -> SampledSignal:
    """Pulse-shape Ns x 4 symbols [Re X, Im X, Re Y, Im Y] into Ns * sps
    samples with a circular unit-energy RRC filter.

    Symbol k lands at sample k * sps. The spectrum of the upsampled
    symbols is the Ns-point symbol spectrum repeated sps times, so the
    response is applied as sps blocks of Ns bins.
    """
    symbols = np.asarray(symbols, dtype=float)
    ns = symbols.shape[0]
    sym = (symbols[:, 0::2] + 1j * symbols[:, 1::2]).T
    h = rrc_response(ns * sps, sps, rolloff).reshape(sps, ns)
    spec = np.fft.fft(sym, axis=1)[:, None, :] * h
    x, y = np.fft.ifft(spec.reshape(2, ns * sps), axis=1)
    return SampledSignal(x=x, y=y, fs=sps * baud)


def set_mean_power(sig: SampledSignal, power_dbm: float) -> SampledSignal:
    """Scale a waveform so its mean power over the frame is power_dbm."""
    p = sig.mean_power()
    if p <= 0:
        raise ValueError("zero-power waveform")
    g = np.sqrt(10 ** ((power_dbm - 30) / 10) / p)
    return replace(sig, x=g * sig.x, y=g * sig.y)


def carrier(offset_hz: float, n: int, fs: float) -> np.ndarray:
    """exp(j 2 pi f t) on an n-sample frame, f snapped to the nearest FFT bin.

    The snapped carrier is periodic in n; the frequency error is at most
    fs / (2 n).
    """
    k = int(round(offset_hz * n / fs))
    return np.exp(2j * np.pi * ((k * np.arange(n)) % n) / n)


def wdm_mux(
    channels: list[SampledSignal],
    spacing_hz: float,
    fs_out: float,
    baud: float = 45e9,
    rolloff: float = 0.1,
) -> SampledSignal:
    """Frequency-shift each channel onto a symmetric grid and sum.

    Channel k is shifted to the carrier of (k - (n-1)/2) * spacing_hz.
    All channels must share the frame length and the rate fs_out.
    Channels are summed in fixed index order for bit-exact
    reproducibility.
    """
    n_ch = len(channels)
    if n_ch == 0:
        raise ValueError("need at least one channel")
    band = (n_ch - 1) * spacing_hz + (1 + rolloff) * baud
    if fs_out < band:
        raise ValueError(
            f"fs_out {fs_out:.3g} Hz cannot carry the {band:.3g} Hz WDM band"
        )
    if n_ch > 1 and spacing_hz < (1 + rolloff) * baud:
        warnings.warn("channel spacing below (1+rolloff)*baud: spectra overlap")
    n = channels[0].n
    if any(ch.n != n or ch.fs != fs_out for ch in channels):
        raise ValueError("channels must share the frame length and fs_out")

    x = np.zeros(n, dtype=complex)
    y = np.zeros(n, dtype=complex)
    for k, ch in enumerate(channels):
        rot = carrier((k - (n_ch - 1) / 2) * spacing_hz, n, fs_out)
        x += ch.x * rot
        y += ch.y * rot
    return SampledSignal(x=x, y=y, fs=fs_out)
