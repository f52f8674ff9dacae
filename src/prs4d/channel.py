"""Split-step Fourier propagation over multi-span dispersion-managed links.

Dual-polarization fields evolve under the Manakov equation: both
polarizations see identical linear operators (no PMD) and a joint
nonlinear phase rotation with the 8/9 averaging factor.

Every operator works on a private copy of the signal's (2, n) X/Y field,
and two are the only code for the physics: dispersion (the _phasors
exp(j beta2/2 w^2 dz), applied by txdsp.spectral_filter) and _kerr (the
Manakov rotor, whose real gain carries each SSFM step's loss). A span is
fiber, ideal lossless inline CDC D(-L) and an EDFA whose ASE is white over
the full simulated bandwidth. ssfm_span folds the CDC into its last merged
half-step, D(h_n/2 - L): one FFT pair per span fewer than a separate CDC.
inline_cdc, the same D(-L) on its own, stays only because the benchmark's
tracer names it; no other public function applies dispersion.

ssfm_span splits each step over the caller and a helper thread (x and y
through dispersion, sample halves through the rotor), bit-identical to one
thread; the helper lives one span, so no thread is alive at a grid's fork.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .txdsp import SampledSignal, spectral_filter

C_LIGHT = 299792458.0  # m/s
H_PLANCK = 6.62607015e-34  # J s
# beta2 and the ASE photon energy are taken at 1550 nm. The pinned outputs
# use this nm -> m product, which is one ulp above the literal 1550e-9.
REF_WAVELENGTH_M = 1550.0 * 1e-9
_LN10 = np.log(10.0)


@dataclass(frozen=True)
class FiberParams:
    """Physical span parameters in engineering units."""

    alpha_db_km: float = 0.219
    disp_ps_nm_km: float = 4.255
    gamma_w_km: float = 1.464
    length_km: float = 80.0

    def __post_init__(self):
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.alpha_db_km < 0:
            raise ValueError("attenuation must be >= 0")
        if self.length_km <= 0:
            raise ValueError("span length must be positive")
        if self.gamma_w_km < 0:
            raise ValueError("nonlinear coefficient must be >= 0")

    @property
    def beta2_s2_km(self) -> float:
        """Group-velocity dispersion in s^2/km, beta2 = -D lambda^2 / (2 pi c)."""
        d_si = self.disp_ps_nm_km * 1e-6  # s/m^2
        return -d_si * REF_WAVELENGTH_M**2 / (2 * np.pi * C_LIGHT) * 1e3

    @property
    def loss_db(self) -> float:
        return self.alpha_db_km * self.length_km

    def effective_length_km(self, dz: float) -> float:
        """Attenuation-aware effective length (1 - e^{-a dz})/a of a step dz."""
        alpha = self.alpha_db_km * _LN10 / 10.0  # power Np/km
        return (1.0 - np.exp(-alpha * dz)) / alpha if alpha > 0 else dz


@dataclass(frozen=True)
class LinkConfig:
    """Multi-span link: SSFM step, amplifier noise, inline compensation."""

    span: FiberParams
    n_spans: int
    step_km: float = 0.1
    edfa_nf_db: float = 5.0
    ase_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n_spans, (int, np.integer)) or self.n_spans < 1:
            raise ValueError("n_spans must be an integer >= 1")
        if not np.isfinite(self.edfa_nf_db):
            raise ValueError("edfa_nf_db must be finite")
        if not 0 < self.step_km <= self.span.length_km:
            raise ValueError("step_km must be in (0, span length]")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be an integer >= 0")


def _phasors(signal: SampledSignal, beta2: float, dzs) -> dict:
    """All-pass dispersion responses exp(+j beta2/2 w^2 dz), one per dz.

    w^2 is exactly even in the bin index, so each is evaluated on bins
    0 .. n//2 and mirrored into bins n - k, bit for bit.
    """
    w2 = (2 * np.pi * np.fft.rfftfreq(signal.n, d=1.0 / signal.fs)) ** 2
    mirror = slice((signal.n - 1) // 2, 0, -1)
    out = {}
    for dz in set(dzs):
        h = np.exp(0.5j * beta2 * w2 * dz)
        out[dz] = np.concatenate([h, h[mirror]])
    return out


def _kerr(fld: np.ndarray, gamma: float, dz_eff: float,
          gain: float = 1.0) -> np.ndarray:
    """Manakov Kerr rotation (8/9 factor) times a real gain, in place."""
    # Buffers per call: held across a span they made glibc return the FFT's
    # per-call scratch to the OS every call at 2^20 samples (16k faults/step).
    p, rot = np.empty(fld.shape[1]), np.empty(fld.shape[1], complex)
    mag = rot.view(float).reshape(fld.shape)  # |x|, |y| in rot's memory
    np.abs(fld, out=mag)
    mag *= mag
    np.add(mag[0], mag[1], out=p)
    p *= (8.0 / 9.0) * gamma * dz_eff
    np.cos(p, out=rot.real)
    np.sin(p, out=rot.imag)
    rot *= gain
    fld *= rot
    return fld


def _split(pool, fn, parts, *args):
    """fn(part, *args) for both parts, the second on the pool's thread if any."""
    job = pool.submit(fn, parts[1], *args) if pool else fn(parts[1], *args)
    fn(parts[0], *args)
    return job.result() if pool else None


def ssfm_span(signal: SampledSignal, fiber: FiberParams,
              step_km: float) -> SampledSignal:
    """One span of the dispersion-managed link: the fiber by symmetric
    split-step solution of the Manakov equation, then ideal inline CDC.

    Per step of size dz: half-step dispersion, nonlinearity over the
    attenuation-aware effective length (1 - e^{-a dz})/a, half-step
    dispersion, and the loss e^{-a dz / 2} as the Kerr rotor's gain.
    The CDC D(-L) merges exactly into the last half-step, D(h_n/2 - L).
    """
    n_full, rem = divmod(fiber.length_km, step_km)
    steps = [step_km] * int(round(n_full))
    if rem > 1e-9 * fiber.length_km:
        steps.append(rem)
    alpha = fiber.alpha_db_km * _LN10 / 10.0  # power Np/km
    # merged half steps: D(h1/2) N1 D((h1+h2)/2) N2 ... D(hn/2)
    halves = [a / 2 + b / 2 for a, b in zip([0] + steps, steps + [0])]
    phasors = _phasors(signal, fiber.beta2_s2_km, halves[:-1])  # h_n/2: CDC fold only

    fld = signal.field.copy()
    rows = (fld[:1], fld[1:])
    cut = (fld[:, :signal.n // 2], fld[:, signal.n // 2:])
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    two = len(cpus) > 1
    with ThreadPoolExecutor(1) if two else contextlib.nullcontext() as pool:
        for dz, half in zip(steps, halves):
            _split(pool, spectral_filter, rows, phasors[half])
            _split(pool, _kerr, cut, fiber.gamma_w_km,
                   fiber.effective_length_km(dz), np.exp(-alpha * dz / 2))
        del phasors  # freed first: built beside them, the CDC's raised the peak
        cdc = halves[-1] - fiber.length_km  # D(h_n/2) D(-L) = D(h_n/2 - L)
        last = _phasors(signal, fiber.beta2_s2_km, [cdc])[cdc]
        _split(pool, spectral_filter, rows, last)
    return replace(signal, field=fld)


def inline_cdc(signal: SampledSignal, fiber: FiberParams) -> SampledSignal:
    """Ideal lossless compensation of one span's dispersion, D(-beta2 L)."""
    cdc = -fiber.length_km
    phasor = _phasors(signal, fiber.beta2_s2_km, [cdc])[cdc]
    return replace(signal, field=spectral_filter(signal.field.copy(), phasor))


def edfa(
    signal: SampledSignal,
    gain_db: float,
    nf_db: float,
    rng: np.random.Generator,
    ase_enabled: bool = True,
) -> SampledSignal:
    """Flat-gain amplifier with circular white Gaussian ASE.

    Total ASE power per polarization over the simulated bandwidth is
    n_sp h nu (G - 1) fs, with the high-gain n_sp = 10^{NF/10}/2.
    """
    g = 10 ** (gain_db / 10)
    fld = signal.field * np.sqrt(g)
    if ase_enabled:
        if gain_db <= 0:
            raise ValueError("ASE model requires positive gain")
        if nf_db < 3:
            warnings.warn("NF < 3 dB gives n_sp < 1 with the high-gain formula")
        n_sp = 10 ** (nf_db / 10) / 2.0
        h_nu = H_PLANCK * C_LIGHT / REF_WAVELENGTH_M
        p_ase = n_sp * h_nu * (g - 1.0) * signal.fs  # W per polarization
        ase = rng.standard_normal((2, 2, signal.n))  # x re, x im, y re, y im
        ase *= np.sqrt(p_ase / 2.0)
        fld.real += ase[:, 0]
        fld.imag += ase[:, 1]
    return replace(signal, field=fld)


def propagate_spans(signal: SampledSignal, link: LinkConfig):
    """Yield the field after each of n_spans of fiber + CDC + EDFA.

    EDFA gain exactly balances the span loss (the compensation fiber is
    ideal and lossless). Span k draws the k-th ASE of one stream seeded by
    link.seed, so the field after span k does not depend on n_spans.
    """
    rng = np.random.default_rng(link.seed)
    for _ in range(link.n_spans):
        signal = ssfm_span(signal, link.span, link.step_km)
        signal = edfa(signal, link.span.loss_db, link.edfa_nf_db, rng,
                      ase_enabled=link.ase_enabled)
        yield signal


def propagate_link(signal: SampledSignal, link: LinkConfig) -> SampledSignal:
    """The field after the whole link: the last one propagate_spans yields,
    each earlier one dropped as it comes, not held through the next span."""
    spans = propagate_spans(signal, link)
    for _ in range(link.n_spans - 1):
        next(spans)
    return next(spans)
