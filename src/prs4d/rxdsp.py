"""Receiver chain: channel selection, matched filtering and genie recovery.

The received waveform is the transmitter's circular Ns * sps frame, so
symbol k is read at sample k * sps with no delay bookkeeping: the
matched RRC filter is the transmitter's exact frequency response, and
the carrier removed is the transmitter's FFT-bin carrier. Phase and
scale recovery are data-aided (genie) and use the transmitted symbols,
matching an ideal-DSP simulation methodology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .txdsp import SampledSignal, carrier, rrc_response


@dataclass
class SymbolBatch:
    """Aligned transmitted bits/symbols and received 4D symbols.

    rx_points must be on the constellation scale (after genie gain and
    phase compensation), row k received for transmitted symbol k.
    """

    tx_bits: np.ndarray
    tx_indices: np.ndarray
    tx_points: np.ndarray
    rx_points: np.ndarray

    def __post_init__(self):
        self.tx_bits = np.asarray(self.tx_bits).ravel()
        self.tx_indices = np.asarray(self.tx_indices, dtype=np.int64).ravel()
        self.tx_points = np.asarray(self.tx_points, dtype=float)
        self.rx_points = np.asarray(self.rx_points, dtype=float)
        ns = self.tx_indices.size
        if self.tx_points.shape[0] != ns or self.rx_points.shape[0] != ns:
            raise ValueError("batch arrays are length-inconsistent")
        if self.tx_bits.size % ns != 0:
            raise ValueError("tx_bits not divisible by symbol count")

    @property
    def ns(self) -> int:
        return self.tx_indices.size


def to_complex_pair(points4d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an Ns x 4 real matrix into (X, Y) complex symbol arrays."""
    p = np.asarray(points4d, dtype=float)
    return p[:, 0] + 1j * p[:, 1], p[:, 2] + 1j * p[:, 3]


def to_real4(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Stack complex X/Y symbols back into an Ns x 4 real matrix."""
    return np.stack([cx.real, cx.imag, cy.real, cy.imag], axis=1)


def channel_select(signal: SampledSignal, offset_hz: float, baud: float,
                   rolloff: float) -> np.ndarray:
    """Downconvert one WDM channel and recover its Ns x 4 symbols.

    Removes the channel's carrier, applies the matched RRC response in
    the frequency domain and keeps every sps-th sample. The unit-energy
    RRC pair is Nyquist with a unit main tap, so the samples are already
    on the symbol scale.
    """
    sps = signal.fs / baud
    if abs(sps - round(sps)) > 1e-9:
        raise ValueError("sample rate must be an integer multiple of baud")
    sps = int(round(sps))
    if abs(offset_hz) + (1 + rolloff) * baud / 2 > signal.fs / 2:
        raise ValueError(f"channel offset {offset_hz:.3g} Hz is out of band")

    lo = np.conj(carrier(offset_hz, signal.n, signal.fs))
    spec = np.fft.fft(np.stack([signal.x, signal.y]) * lo, axis=1)
    x, y = np.fft.ifft(spec * rrc_response(signal.n, sps, rolloff),
                       axis=1)[:, ::sps]
    return to_real4(x, y)


def genie_phase_compensation(
    rx: np.ndarray, tx: np.ndarray, window_symbols: int | None = None
) -> np.ndarray:
    """Remove the least-squares common phase per polarization.

    window_symbols = None applies one rotation to the whole burst;
    otherwise one rotation per window of that many symbols. Zero-energy
    windows are left untouched. Per-symbol magnitudes are preserved.
    """
    rcx, rcy = to_complex_pair(rx)
    tcx, tcy = to_complex_pair(tx)
    ns = rcx.size
    w = ns if window_symbols is None else int(window_symbols)
    if w < 1:
        raise ValueError("window must be >= 1 symbol")
    out = []
    for rc, tc in ((rcx.copy(), tcx), (rcy.copy(), tcy)):
        for start in range(0, ns, w):
            sl = slice(start, min(start + w, ns))
            s = np.sum(rc[sl] * np.conj(tc[sl]))
            if np.abs(s) > 0:
                rc[sl] *= np.exp(-1j * np.angle(s))
        out.append(rc)
    return to_real4(out[0], out[1])


def genie_gain(rx: np.ndarray, tx: np.ndarray) -> tuple[np.ndarray, float]:
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
    a = float(np.sum(tx**2)) / proj
    return a * rx, a
