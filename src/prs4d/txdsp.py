"""Transmitter chain: bit generation, RRC pulse shaping and WDM multiplexing."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import fftconvolve, resample


@dataclass
class SampledSignal:
    """Dual-polarization complex baseband waveform.

    x/y are the polarization field envelopes in sqrt(W). delay_s tracks
    the accumulated filter group delay so the receiver can sample at the
    right instants without blind synchronization.
    """

    x: np.ndarray
    y: np.ndarray
    fs: float
    delay_s: float = 0.0

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


def rrc_taps(sps: int, rolloff: float, span_symbols: int) -> np.ndarray:
    """Unit-energy root-raised-cosine taps spanning span_symbols symbols."""
    if sps < 2:
        raise ValueError("sps must be >= 2 to avoid aliasing")
    if not 0 < rolloff <= 1:
        raise ValueError("rolloff must be in (0, 1]")
    if span_symbols % 2 != 0:
        raise ValueError("filter span must be an even number of symbols")
    n = span_symbols * sps
    t = np.arange(-n // 2, n // 2 + 1) / sps  # in symbol periods
    b = rolloff
    h = np.empty_like(t)
    for k, tk in enumerate(t):
        if abs(tk) < 1e-12:
            h[k] = 1.0 - b + 4 * b / np.pi
        elif abs(abs(tk) - 1.0 / (4 * b)) < 1e-9:
            h[k] = (b / np.sqrt(2)) * (
                (1 + 2 / np.pi) * np.sin(np.pi / (4 * b))
                + (1 - 2 / np.pi) * np.cos(np.pi / (4 * b))
            )
        else:
            num = np.sin(np.pi * tk * (1 - b)) + 4 * b * tk * np.cos(
                np.pi * tk * (1 + b)
            )
            den = np.pi * tk * (1 - (4 * b * tk) ** 2)
            h[k] = num / den
    return h / np.sqrt(np.sum(h**2))


def rrc_shape(
    symbols: np.ndarray,
    sps: int,
    rolloff: float,
    span_symbols: int = 64,
    baud: float = 45e9,
) -> SampledSignal:
    """Upsample 4D symbols and pulse-shape with a unit-energy RRC filter.

    symbols: Ns x 4 real matrix [Re X, Im X, Re Y, Im Y]. The filter
    delay of span_symbols/2 symbols is recorded in the output metadata.
    """
    symbols = np.asarray(symbols, dtype=float)
    taps = rrc_taps(sps, rolloff, span_symbols)
    ns = symbols.shape[0]
    out = []
    for col in (0, 2):
        sym = symbols[:, col] + 1j * symbols[:, col + 1]
        up = np.zeros(ns * sps, dtype=complex)
        up[::sps] = sym
        out.append(fftconvolve(up, taps, mode="full"))
    fs = sps * baud
    return SampledSignal(
        x=out[0], y=out[1], fs=fs, delay_s=(span_symbols * sps // 2) / fs
    )


def set_mean_power(sig: SampledSignal, power_dbm: float, n_symbols: int,
                   baud: float) -> SampledSignal:
    """Scale a shaped waveform so its steady-state mean power hits power_dbm.

    The power is measured over the central Ns-symbol window, excluding
    the filter ramp-up/down tails.
    """
    target_w = 10 ** ((power_dbm - 30) / 10)
    sps = int(round(sig.fs / baud))
    i0 = int(round(sig.delay_s * sig.fs))
    i1 = min(i0 + n_symbols * sps, sig.n)
    p = float(
        np.mean(np.abs(sig.x[i0:i1]) ** 2 + np.abs(sig.y[i0:i1]) ** 2)
    )
    if p <= 0:
        raise ValueError("zero-power waveform")
    g = np.sqrt(target_w / p)
    return replace(sig, x=g * sig.x, y=g * sig.y)


def wdm_mux(
    channels: list[SampledSignal],
    spacing_hz: float,
    fs_out: float,
    baud: float = 45e9,
    rolloff: float = 0.1,
) -> SampledSignal:
    """Frequency-shift each channel onto a symmetric grid and sum.

    Channel k is shifted to (k - (n-1)/2) * spacing_hz. Channels are
    summed in fixed index order for bit-exact reproducibility.
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

    resampled = []
    for ch in channels:
        if ch.fs == fs_out:
            resampled.append((ch.x, ch.y))
        else:
            n_new = ch.n * fs_out / ch.fs
            if abs(n_new - round(n_new)) > 1e-9:
                raise ValueError("fs_out/fs must yield an integer sample count")
            n_new = int(round(n_new))
            resampled.append((resample(ch.x, n_new), resample(ch.y, n_new)))
    n = resampled[0][0].size
    if any(rx.size != n for rx, _ in resampled):
        raise ValueError("channels must have equal length after resampling")

    t = np.arange(n) / fs_out
    x = np.zeros(n, dtype=complex)
    y = np.zeros(n, dtype=complex)
    for k, (cx, cy) in enumerate(resampled):
        offset = (k - (n_ch - 1) / 2) * spacing_hz
        rot = np.exp(2j * np.pi * offset * t)
        x += cx * rot
        y += cy * rot
    return SampledSignal(x=x, y=y, fs=fs_out, delay_s=channels[0].delay_s)
