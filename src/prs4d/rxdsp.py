"""Receiver chain: channel selection, matched filtering and genie recovery.

The received waveform is the transmitter's circular Ns * sps frame, a
(2, n) X/Y field, so symbol k is read at sample k * sps with no delay
bookkeeping; channel selection works in the spectrum, on txdsp's WDM
grid. Ns x 4 real symbols are handled as Ns x 2 complex X/Y pairs through
.view(complex) of a C-ordered array, and back through .view(float). Phase
and scale recovery are data-aided (genie) and use the transmitted
symbols, matching an ideal-DSP simulation methodology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .txdsp import BAUD_HZ, SampledSignal, band_hz, carrier_bin, rrc_support


@dataclass
class SymbolBatch:
    """Sent constellation indices and received 4D symbols, row k for symbol k.

    Sent points and bits are c.points[tx_indices] and c.labels[tx_indices],
    so a non-integer index, which a cast would truncate, and a negative one,
    which numpy would read from the end, are rejected. rx_points must be on
    the constellation scale (after genie gain and phase compensation).
    """

    tx_indices: np.ndarray
    rx_points: np.ndarray

    def __post_init__(self):
        self.tx_indices = np.asarray(self.tx_indices).ravel()
        self.rx_points = np.asarray(self.rx_points, dtype=float)
        if self.rx_points.shape != (self.ns, 4):
            raise ValueError(f"rx_points must be ({self.ns}, 4), got {self.rx_points.shape}")
        if self.ns and self.tx_indices.dtype.kind not in "iu":
            raise ValueError(f"tx_indices must be integers, got dtype {self.tx_indices.dtype}")
        self.tx_indices = self.tx_indices.astype(np.int64, copy=False)
        if self.ns and self.tx_indices.min() < 0:
            raise ValueError("tx_indices must be non-negative")

    @property
    def ns(self) -> int:
        return self.tx_indices.size


def channel_select(signal: SampledSignal, k: int, n_channels: int) -> np.ndarray:
    """Downconvert channel k of the n_channels grid; return its Ns x 4 symbols.

    The RRC support around the channel's carrier_bin is weighted by the
    matched response and folded onto Ns bins: decimation by sps aliases
    the spectrum in blocks of Ns bins, scaled by 1/sps.
    """
    sps = round(signal.fs / BAUD_HZ)
    if abs(signal.fs / BAUD_HZ - sps) > 1e-9 or sps < 2 or signal.n % sps:
        raise ValueError("frame must hold whole symbols at an integer sps >= 2")
    if not 0 <= k < n_channels or signal.fs < band_hz(n_channels):
        raise ValueError(f"channel {k} of {n_channels} is out of the frame's band")

    n, ns = signal.n, signal.n // sps
    j, h = rrc_support(ns, sps)
    at = (j + carrier_bin(k, n_channels, n, signal.fs)) % n
    neg = np.searchsorted(j, 0)  # j ascends: j[:neg] < 0 <= j[neg:]
    fold = np.zeros((2, ns), dtype=complex)  # bin j at j mod ns
    for row, pol in zip(fold, signal.field):
        spec = np.fft.fft(pol)[at] * h
        row[j[neg:]] = spec[neg:]
        row[j[:neg] + ns] += spec[:neg]
        del spec  # not held while the next row's is built
    sym = np.fft.ifft(fold, axis=1, out=fold)
    sym /= sps
    return np.ascontiguousarray(sym.T).view(float)


def genie_phase_compensation(rx: np.ndarray, tx: np.ndarray,
                             window_symbols: int) -> np.ndarray:
    """Remove the least-squares common phase per polarization.

    One rotation per window of window_symbols symbols (a window of at
    least the burst length rotates the whole burst at once). Zero-energy
    windows are left untouched. Per-symbol magnitudes are preserved.
    """
    out = np.array(rx, dtype=float, order="C")  # rotated in place below
    ref = np.ascontiguousarray(tx, dtype=float).view(complex)
    ns = out.shape[0]
    w = int(window_symbols)
    if w < 1:
        raise ValueError("window must be >= 1 symbol")
    for rc, tc in zip(out.view(complex).T, ref.T):
        s = np.add.reduceat(rc * np.conj(tc), np.arange(0, ns, w))
        rot = np.exp(-1j * np.angle(s))
        rot[~(np.abs(s) > 0)] = 1.0
        rc *= np.repeat(rot, min(w, ns))[:ns]
    return out


def genie_gain(rx: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """Undo the data-aided channel gain: scale so the signal part of rx
    lands on the constellation.

    Unlike the least-squares scale, this is unbiased in the noise power:
    for rx = g tx + n the applied factor is 1/g in expectation, so the
    received clouds stay centered on the constellation points.
    """
    rx = np.asarray(rx, dtype=float)
    tx = np.asarray(tx, dtype=float)
    proj = float(np.sum(rx * tx))
    if proj == 0:
        raise ValueError("received batch is orthogonal to the reference")
    return float(np.sum(tx**2)) / proj * rx
