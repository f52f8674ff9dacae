"""Split-step Fourier propagation over multi-span dispersion-managed links.

Dual-polarization fields evolve under the Manakov equation: both
polarizations see identical linear operators (no PMD) and a joint
nonlinear phase rotation with the 8/9 averaging factor.

Every operator works on a private copy of the signal's (2, n) X/Y field,
and two are the only code for the physics: dispersion (_phasor builds
exp(j beta2/2 w^2 dz), spectral_filter applies it, both here only) and _kerr
(the Manakov rotor, whose real gain carries each SSFM step's loss). A span is
fiber, ideal lossless inline CDC D(-L) and an EDFA whose ASE is white over
the full simulated bandwidth. ssfm_span folds the CDC into its last merged
half-step, D(h_n/2 - L): one FFT pair per span fewer than a separate CDC.
inline_cdc, the same D(-L) on its own, stays only because the benchmark's
tracer names it; no other public function applies dispersion.

FiberParams and LinkConfig hold every rule of the fiber and the link and
reject a bad one at construction, so a bad link fails before its first span;
edfa reads its gain, noise figure and ASE switch from that checked link.
check_fields is the one type and finiteness check of every config dataclass.

ssfm_span splits each step over the caller and a helper thread (x and y
through dispersion, sample halves through the rotor), bit-identical to one
thread; the helper lives one span, so no thread is alive at a grid's fork.

Frames alive, a frame being one (2, n) complex field: ssfm_span holds its
input, its working copy, one step phasor (half a frame: each run of equal
half-steps builds its own and drops it before the next is built) and the
rotor's block-sized scratch. edfa holds its input, its output and one
n-sample quadrature of ASE (a quarter frame), drawn in the stream order
x re, x im, y re, y im. propagate_spans holds the field of the span in
flight only; the launch frame lives as long as its caller holds it.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .txdsp import SampledSignal

C_LIGHT = 299792458.0  # m/s
H_PLANCK = 6.62607015e-34  # J s
# beta2 and the ASE photon energy are taken at 1550 nm. The pinned outputs
# use this nm -> m product, which is one ulp above the literal 1550e-9.
REF_WAVELENGTH_M = 1550.0 * 1e-9
_LN10 = np.log(10.0)
_KERR_BLOCK = 2**13  # samples per Kerr rotor block


@dataclass(frozen=True)
class FiberParams:
    """Physical span parameters in engineering units."""

    alpha_db_km: float = 0.219
    disp_ps_nm_km: float = 4.255
    gamma_w_km: float = 1.464
    length_km: float = 80.0

    def __post_init__(self):
        check_fields(self)
        for name in ("alpha_db_km", "gamma_w_km"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.length_km <= 0:
            raise ValueError("length_km must be > 0")

    @property
    def beta2_s2_km(self) -> float:
        """Group-velocity dispersion in s^2/km, beta2 = -D lambda^2 / (2 pi c)."""
        d_si = self.disp_ps_nm_km * 1e-6  # s/m^2
        return -d_si * REF_WAVELENGTH_M**2 / (2 * np.pi * C_LIGHT) * 1e3

    @property
    def loss_db(self) -> float:
        return self.alpha_db_km * self.length_km

    def effective_length_km(self, dz: float) -> float:
        """Attenuation-aware effective length (1 - e^{-a dz})/a of a step dz,
        by expm1: 1 - exp cancels to 0 at a tiny a, where L_eff tends to dz."""
        alpha = self.alpha_db_km * _LN10 / 10.0  # power Np/km
        return -np.expm1(-alpha * dz) / alpha if alpha > 0 else dz


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
# field annotation: (accepted values, description, parser of the text form)
FIELD_TYPES = {"str": (str, "a string", str),
               "bool": ((bool, np.bool_), "True or False", lambda t: _BOOLS[t.lower()]),
               "int": ((int, np.integer), "an integer", int),
               "float": ((int, float, np.integer, np.floating), "one number", float),
               "FiberParams": (FiberParams, "a FiberParams", None)}


def field_error(f, value) -> ValueError:
    """Field f's type error for value, with the hint in f's metadata if any."""
    return ValueError(f"{f.name} must be {FIELD_TYPES[f.type][1]}, "
                      f"got {value!r}{f.metadata.get('hint', '')}")


def check_fields(obj) -> None:
    """Reject dataclass obj's first field of the wrong type or not finite."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not isinstance(value, FIELD_TYPES[f.type][0]) or (
                f.type != "bool" and isinstance(value, (bool, np.bool_))):
            raise field_error(f, value)
        if isinstance(value, (float, np.floating)) and not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class LinkConfig:
    """Multi-span link: SSFM step, amplifier noise, inline compensation."""

    span: FiberParams
    n_spans: int
    step_km: float = 0.1
    nf_db: float = 5.0
    ase_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.n_spans < 1:
            raise ValueError("n_spans must be an integer >= 1")
        if not 0 < self.step_km <= self.span.length_km:
            raise ValueError("step_km must be in (0, length_km]")
        if self.ase_enabled and self.span.alpha_db_km == 0:
            raise ValueError("alpha_db_km must be > 0 with ase_enabled (ASE needs EDFA gain)")
        if self.ase_enabled and self.nf_db < 3:
            raise ValueError("nf_db must be >= 3 with ase_enabled (n_sp >= 1)")
        if self.seed < 0:
            raise ValueError("seed must be an integer >= 0")


def _phasor(signal: SampledSignal, beta2: float, dz: float) -> np.ndarray:
    """The all-pass dispersion response exp(+j beta2/2 w^2 dz) on the
    fftfreq bins, exponentiated in place on one n-sample buffer."""
    w2 = (2 * np.pi * np.fft.fftfreq(signal.n, d=1.0 / signal.fs)) ** 2
    h = 0.5j * beta2 * w2
    h *= dz
    return np.exp(h, out=h)


def spectral_filter(fld: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Filter each row of a complex (rows, n) field by h, in place."""
    import scipy.fft as sfft
    for row in fld:
        spec = sfft.fft(row, overwrite_x=True)
        spec *= h
        row[...] = sfft.ifft(spec, overwrite_x=True)
    return fld


def _kerr(fld: np.ndarray, gamma: float, dz_eff: float,
          gain: float = 1.0) -> np.ndarray:
    """Manakov Kerr rotation (8/9 factor) times a real gain, in place, one
    block of _KERR_BLOCK samples at a time (elementwise, so bit for bit the
    whole-field rotor)."""
    # Buffers per call: held across a span they made glibc return the FFT's
    # per-call scratch to the OS every call at 2^20 samples (16k faults/step).
    # Block-sized, not frame-sized: 3/4 frame less beside the step phasor,
    # and on 2^16 and 2^20 samples the rotor ran ~20 % faster in 2^13 blocks
    # (2-vCPU Xeon, numpy 2.4).
    b = min(fld.shape[1], _KERR_BLOCK)
    p_buf, rot_buf = np.empty(b), np.empty(b, complex)
    for k in range(0, fld.shape[1], b):
        part = fld[:, k:k + b]
        p, rot = p_buf[:part.shape[1]], rot_buf[:part.shape[1]]
        mag = rot.view(float).reshape(part.shape)  # |x|, |y| in rot's memory
        np.abs(part, out=mag)
        mag *= mag
        np.add(mag[0], mag[1], out=p)
        p *= (8.0 / 9.0) * gamma * dz_eff
        np.cos(p, out=rot.real)
        np.sin(p, out=rot.imag)
        rot *= gain
        part *= rot
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

    fld = signal.field.copy()
    rows = (fld[:1], fld[1:])
    cut = (fld[:, :signal.n // 2], fld[:, signal.n // 2:])
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    two = len(cpus) > 1
    with ThreadPoolExecutor(1) if two else contextlib.nullcontext() as pool:
        # One phasor alive at a time: each run of equal half-steps builds its
        # own and drops it before the next is built (h_n/2: CDC fold only).
        for half, run in itertools.groupby(zip(steps, halves), lambda s: s[1]):
            phasor = _phasor(signal, fiber.beta2_s2_km, half)
            for dz, _ in run:
                _split(pool, spectral_filter, rows, phasor)
                _split(pool, _kerr, cut, fiber.gamma_w_km,
                       fiber.effective_length_km(dz), np.exp(-alpha * dz / 2))
            del phasor
        cdc = halves[-1] - fiber.length_km  # D(h_n/2) D(-L) = D(h_n/2 - L)
        _split(pool, spectral_filter, rows, _phasor(signal, fiber.beta2_s2_km, cdc))
    return replace(signal, field=fld)


def inline_cdc(signal: SampledSignal, fiber: FiberParams) -> SampledSignal:
    """Ideal lossless compensation of one span's dispersion, D(-beta2 L)."""
    phasor = _phasor(signal, fiber.beta2_s2_km, -fiber.length_km)
    return replace(signal, field=spectral_filter(signal.field.copy(), phasor))


def edfa(signal: SampledSignal, link: LinkConfig,
         rng: np.random.Generator) -> SampledSignal:
    """The link's flat-gain amplifier, its gain the span loss, with circular
    white Gaussian ASE if link.ase_enabled.

    Total ASE power per polarization over the simulated bandwidth is
    n_sp h nu (G - 1) fs, with the high-gain n_sp = 10^{NF/10}/2.
    """
    g = 10 ** (link.span.loss_db / 10)
    fld = signal.field * np.sqrt(g)
    if link.ase_enabled:
        n_sp = 10 ** (link.nf_db / 10) / 2.0
        h_nu = H_PLANCK * C_LIGHT / REF_WAVELENGTH_M
        p_ase = n_sp * h_nu * (g - 1.0) * signal.fs  # W per polarization
        sigma = np.sqrt(p_ase / 2.0)  # per quadrature
        ase = np.empty(signal.n)  # one quadrature at a time, in stream order
        for quad in (fld[0].real, fld[0].imag, fld[1].real, fld[1].imag):
            rng.standard_normal(out=ase)
            ase *= sigma
            quad += ase
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
        signal = edfa(signal, link, rng)
        yield signal


def propagate_link(signal: SampledSignal, link: LinkConfig) -> SampledSignal:
    """The field after the whole link: the last one propagate_spans yields,
    each earlier one dropped as it comes, not held through the next span.
    The launch field stays alive through every span, held by the caller."""
    spans = propagate_spans(signal, link)
    for _ in range(link.n_spans - 1):
        next(spans)
    return next(spans)
