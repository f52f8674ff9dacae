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

The FFT pair is numpy's, as the four-step transform (Bailey, "FFTs in
external or hierarchical memory", J. Supercomputing 4, 1990): each row of
n = n1 n2 samples, viewed in place as an (n1, n2) array, takes n2 transforms
of length n1, one twiddle multiply and n1 of length n2, and its spectrum
stays in that order, bin k1 + n1 k2 at [k1, k2]. _phasor builds the
response in that order, so nothing is transposed, and _twiddles builds the
(n1, n2) table once per ssfm_span or inline_cdc call.

FiberParams and LinkConfig hold every rule of the fiber and the link and
reject a bad one at construction, so a bad link fails before its first span;
edfa reads its gain, noise figure and ASE switch from that checked link.
check_fields is the one type and finiteness check of every config dataclass.

ssfm_span splits each step over the caller and a helper thread (x and y
through dispersion, sample halves through the rotor), bit-identical to one
thread; the helper lives one span, so no thread is alive at a grid's fork.

Frames alive, a frame being one (2, n) complex field: ssfm_span holds its
input, its working copy, the twiddle table (half a frame), one step phasor
(a quarter frame, built in place; each run of equal half-steps drops its own
before the next is built) and the rotor's block-sized scratch. edfa holds
its input, its output and one n-sample quadrature of ASE (a quarter frame),
drawn in the stream order x re, x im, y re, y im. propagate_link yields
the field after each span and holds only the span in flight; the launch
frame lives as long as its caller holds it, so a caller drops it once the
generator is made.
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
# Most rows n1 of the four-step FFT: n1 is the largest divisor of n up to
# this. A 1 km step of a span, interleaved, against scipy.fft's 1D pair
# (median, two threads/one, 2-vCPU Xeon, numpy 2.4): at 2^17 samples
# x0.98/1.03 at 16, x1.06/0.98 at 32, x0.98/0.96 at 64 and x1.02/1.03 at
# 128; at 2^20 x0.82/0.89, x0.91/0.94, x0.82/0.82 and x0.90/0.87.
_FFT_ROWS = 64


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
        with np.errstate(over="ignore"):  # edfa's gain 10^(loss_db/10)
            if not np.power(10.0, self.loss_db / 10) < np.inf:
                raise ValueError("alpha_db_km must be small enough that the span gain is finite")

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
        with np.errstate(over="ignore"):  # edfa's 2 n_sp = 10^(nf_db/10)
            if self.ase_enabled and not np.power(10.0, self.nf_db / 10) < np.inf:
                raise ValueError("nf_db must be small enough that n_sp is finite with ase_enabled")
        if self.seed < 0:
            raise ValueError("seed must be an integer >= 0")


def _fft_rows(n: int) -> int:
    """The four-step FFT's n1: the largest divisor of n up to _FFT_ROWS (1
    for a prime n, where the transform is the plain one)."""
    return max(d for d in range(1, min(n, _FFT_ROWS) + 1) if n % d == 0)


def _twiddles(n: int) -> np.ndarray:
    """The (n1, n2) twiddle table exp(-2 pi j k1 j2 / n) at [k1, j2], built
    over j2 = a b + c as the product of an (n1, n2 / b) and an (n1, b) table
    (b = _fft_rows(n2)): n1 (n2 / b + b) exponentials instead of n."""
    n1 = _fft_rows(n)
    b = _fft_rows(n // n1)
    k1, a, c = np.ogrid[:n1, :n // n1 // b, :b]
    tw = np.exp(-2j * np.pi / n * (k1 * a * b)) * np.exp(-2j * np.pi / n * (k1 * c))
    tw = tw.reshape(n1, -1)
    # numpy's plan cache takes no lock: both lengths' plans are made here,
    # on the calling thread, so ssfm_span's two threads only read them
    np.fft.fft(tw[:, 0])
    np.fft.fft(tw[0])
    return tw


def _phasor(signal: SampledSignal, beta2: float, dz: float) -> np.ndarray:
    """exp(+j beta2/2 w^2 dz) in spectral_filter's order, rows k1 <= n1 // 2."""
    n, n1 = signal.n, _fft_rows(signal.n)
    h = np.empty((n1 // 2 + 1, n // n1), complex)
    # fftfreq's signed bin index to the phase in exp's op order: cos + j sin = exp
    ph = np.add.outer(np.arange(len(h)), np.arange(n // 2, n + n // 2, n1), out=h.imag)
    ph %= n
    ph -= n // 2
    ph *= 1.0 / (n * (1.0 / signal.fs))
    ph *= 2 * np.pi
    np.square(ph, out=ph)
    ph *= 0.5 * beta2
    ph *= dz
    np.cos(ph, out=h.real)
    np.sin(ph, out=ph)
    return h


def spectral_filter(fld: np.ndarray, h: np.ndarray, tw: np.ndarray) -> np.ndarray:
    """Filter each contiguous row of a complex (rows, n) field in place by
    h in tw = _twiddles(n)'s four-step order. Rows past len(h) mirror, as an
    even response's bin n - k of row k1 >= 1 is at [n1 - k1, n2 - 1 - k2]."""
    for row in fld:
        a = row.reshape(tw.shape)
        np.fft.fft(a, axis=0, out=a)
        a *= tw
        np.fft.fft(a, axis=1, out=a)
        a[:len(h)] *= h
        a[len(h):] *= h[len(a) - len(h):0:-1, ::-1]
        np.fft.ifft(a, axis=1, out=a)
        np.conjugate(a, out=a)  # a * conj(tw), in place
        a *= tw
        np.conjugate(a, out=a)
        np.fft.ifft(a, axis=0, out=a)
    return fld


def _kerr(fld: np.ndarray, gamma: float, dz_eff: float,
          gain: float = 1.0) -> np.ndarray:
    """Manakov Kerr rotation (8/9 factor) times a real gain, in place, one
    block of _KERR_BLOCK samples at a time (elementwise, so bit for bit the
    whole-field rotor)."""
    # Buffers per call: held across a span they changed nothing at 2^20
    # samples (1 km steps, two threads/one: 524/460 minor faults and 83/143
    # ms per step per call, 528/464 and 87/144 held), as the transforms
    # leave no frame-sized scratch to return to the OS between calls.
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
    tw = _twiddles(signal.n)
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
                _split(pool, spectral_filter, rows, phasor, tw)
                _split(pool, _kerr, cut, fiber.gamma_w_km,
                       fiber.effective_length_km(dz), np.exp(-alpha * dz / 2))
            del phasor
        cdc = halves[-1] - fiber.length_km  # D(h_n/2) D(-L) = D(h_n/2 - L)
        _split(pool, spectral_filter, rows,
               _phasor(signal, fiber.beta2_s2_km, cdc), tw)
    return replace(signal, field=fld)


def inline_cdc(signal: SampledSignal, fiber: FiberParams) -> SampledSignal:
    """Ideal lossless compensation of one span's dispersion, D(-beta2 L)."""
    phasor = _phasor(signal, fiber.beta2_s2_km, -fiber.length_km)
    fld = spectral_filter(signal.field.copy(), phasor, _twiddles(signal.n))
    return replace(signal, field=fld)


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


def propagate_link(signal: SampledSignal, link: LinkConfig):
    """Yield the field after each of n_spans of fiber + CDC + EDFA.

    EDFA gain exactly balances the span loss (the compensation fiber is
    ideal and lossless). Span k draws the k-th ASE of one stream seeded by
    link.seed, so the field after span k does not depend on n_spans. The
    caller that drops its launch field after this call leaves it to the
    generator alone, which frees it in span 1.
    """
    rng = np.random.default_rng(link.seed)
    for _ in range(link.n_spans):
        signal = ssfm_span(signal, link.span, link.step_km)
        signal = edfa(signal, link, rng)
        yield signal
